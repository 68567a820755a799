"""starspec benchmark: one command, three workloads, end-to-end or traced.

  python3 perfbench/run.py --workload decide-e6 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload decide-e6 --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --smoke

Run from anywhere; the program is imported from src/ next to this
directory, in fresh worker processes with BLAS pinned to one thread.  The
last stdout line is one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Lines before it give each metric with its
unit, the tail percentile and sample count, failed ops and the environment.
Exit status: 0 when every op passed its check, 1 when the correctness gate
failed, 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

# Fresh processes per run whose set-up time is timed; decide-stars takes
# fewer because each of its set-ups builds the E8~ root table.
SETUP_SAMPLES = {"decide-stars": 2}
DEFAULT_SETUP_SAMPLES = 5
CLI_SAMPLES = 3          # fresh processes per CLI start-up metric
WORKER_TIMEOUT_S = 150
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def run_worker(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S}s: {' '.join(args)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{proc.stderr[-3000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(data["starspec_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"starspec imported from {data['starspec_file']}, not {SRC}")
    return data


def cli_probes() -> dict:
    """Fresh-process start-up: `import starspec` and `starspec --version`."""
    env = worker_env()
    code = ("import time; t = time.perf_counter(); import starspec; "
            "print(time.perf_counter() - t)")
    imports, starts = [], []
    try:
        for _ in range(CLI_SAMPLES):
            out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                 capture_output=True, text=True, timeout=60, check=True)
            imports.append(float(out.stdout) * 1e3)
            t = perf_counter()
            subprocess.run([sys.executable, "-m", "starspec.cli", "--version"], env=env,
                           cwd=ROOT, capture_output=True, timeout=60, check=True)
            starts.append((perf_counter() - t) * 1e3)
    except subprocess.SubprocessError as exc:
        raise BenchError(f"CLI start-up probe failed: {exc}")
    return {"cli.import_ms": statistics.median(imports),
            "cli.start_ms": statistics.median(starts)}


def environment(worker: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "starspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": worker["python"], "numpy": worker["numpy"],
            "platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": BLAS_PIN, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


def layer_metrics(layers: dict, derived: dict) -> dict:
    """Per-layer metrics of BENCHMARK.json.  A name `<span>.<field>` with
    field calls, ms, self_ms or errors reads the span summary; a span that
    never ran (say, a public function a later change removed) reads 0."""
    out = {}
    for m in spec()["per_layer"]:
        name = m["name"]
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field in ("calls", "ms", "self_ms", "errors"):
            out[name] = layers.get(span, {}).get(field, 0)
    return out


def spec() -> dict:
    return json.loads(SPEC.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            trace_cycles: int = 0, setup_samples: int = 0) -> dict:
    """Run one workload; return the result object and the lines to print."""
    base = ["--workload", workload, "--seed", str(seed)]
    lines = []
    if not trace:
        setup_samples = setup_samples or SETUP_SAMPLES.get(workload, DEFAULT_SETUP_SAMPLES)
        # set-up samples go before and after the timed run, so that one slow
        # period of the machine does not cover all of them
        before = [run_worker("--mode", "setup", *base) for _ in range((setup_samples - 1) // 2)]
        w = run_worker("--mode", "run", "--seconds", str(seconds), *base)
        after = [run_worker("--mode", "setup", *base)
                 for _ in range(setup_samples - 1 - len(before))]
        setups = [x["setup_ref_s"] for x in before + [w] + after]
        metrics = {k: w[k] for k in ("latency_p50_ms", "latency_tail_ms",
                                     "throughput_ops_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        lines.append(f"latency_tail_ms is p{w['tail_percentile']:.1f} of "
                     f"{w['attempted']} ops (10 beyond it)")
        lines.append(f"times at reference speed; the probe ran {w['slowdown_p50']:.3f}x "
                     f"its reference time (median); unscaled p50 {w['raw_p50_ms']:.3f} ms, "
                     f"tail {w['raw_tail_ms']:.3f} ms, setup {w['setup_s']:.4f} s")
        lines.append(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    else:
        spans_out = OUT / f"spans-{workload}-seed{seed}.jsonl"
        w = run_worker("--mode", "trace", "--spans-out", str(spans_out),
                       "--trace-cycles", str(trace_cycles), *base)
        metrics = layer_metrics(w["layers"], {**w["derived"], **cli_probes()})
        lines.append(f"{w['attempted']} ops took {w['traced_s']:.3f}s traced and "
                     f"{w['untraced_s']:.3f}s untraced; spans in "
                     f"{spans_out.relative_to(ROOT)}")
        for star, cands, checks, stalled, classify, count in w["sanity"]:
            lines.append(f"per off-hyperplane infeasible {star} verdict: {cands} candidates, "
                         f"{checks} checks, {stalled} stalled, {classify} classify calls "
                         f"({count} verdicts)")
        if w["drift"]:
            lines.append(f"COUNT DRIFT between two traced passes: {w['drift']}")
        lines.append("layer spans (calls, ms, self_ms):")
        for name, a in sorted(w["layers"].items()):
            lines.append(f"  {name:38s} {a['calls']:8d} {a['ms']:11.3f} {a['self_ms']:11.3f}")
    attempted, failed = w["attempted"], w["failed"]
    lines.append(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} ops)")
    for f in w["failures"]:
        lines.append(f"FAILED op: {json.dumps(f)}")
    lines.append("env " + json.dumps(environment(w), sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "lines": lines}


def emit(workload: str, measured: dict, trace: bool) -> dict:
    """Print every metric by name with its unit, then the result JSON."""
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[key]}
    raw = measured["result"]["metrics"]
    missing = sorted(set(units) - set(raw))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {name: {"value": raw[name], "unit": unit} for name, unit in units.items()}
    print(f"workload {workload} ({'traced' if trace else 'end-to-end'})")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for line in measured["lines"]:
        print(line)
    result = dict(measured["result"], metrics=metrics)
    print(json.dumps(result))
    return result


def smoke() -> int:
    """Tiny runs of every workload in both modes: emit() fails unless every
    metric of BENCHMARK.json is measured, and every op must pass its check."""
    for wl in spec()["workloads"]:
        for trace in (False, True):
            measured = measure(wl["name"], seed=7, seconds=0.3, trace=trace,
                               trace_cycles=1, setup_samples=1)
            result = emit(wl["name"], measured, trace)
            if not result["correct"]:
                raise BenchError(f"{wl['name']}: correctness gate failed")
    print("smoke ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny runs of every workload in both modes")
    args = ap.parse_args()
    try:
        if not (SRC / "starspec" / "__init__.py").is_file():
            raise BenchError(f"no starspec sources under {SRC}")
        if args.smoke:
            return smoke()
        workloads = [w["name"] for w in spec()["workloads"]]
        if args.workload not in workloads:
            raise BenchError(f"--workload must be one of {workloads}")
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = emit(args.workload, measured, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
