"""One workload process: set-up, then a timed closed loop or a traced run.

run.py starts this file in a fresh interpreter with PYTHONPATH set to the
checkout's src/ and BLAS pinned to one thread.  It prints one JSON object
on its last stdout line.

  --mode setup  time set-up only (import starspec, graph builds, classify,
                one warm-up op per leading cycle entry)
  --mode run    set-up, then one synchronous caller runs ops back to back
                until --seconds of op time at reference speed have passed;
                every op is checked right after it, outside its timed
                interval
  --mode trace  traced set-up, then a fixed op list: one untraced pass,
                one pass running each op untraced and traced back to back,
                and a second traced pass whose counts must equal the first
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

MAX_LISTED_FAILURES = 20

# Other tenants of a shared machine slow every process on it, by up to 2x
# for anything from a fraction of a second to tens of seconds, and by less
# for numpy than for the interpreter.  A fixed probe (pure-Python exact
# arithmetic, plus a small complex SVD for workloads that lean on numpy) runs
# between ops, outside their timed intervals, at least every PROBE_EVERY_S of
# op time.  Each op's latency is scaled by the probe's reference time over
# the slower of the two probes around it, which gives the latency at the
# reference speed.  The reference times are the probes' times on the
# uncontended 2-vCPU Intel Xeon machine the benchmark was tuned on; on
# another machine they rescale every run alike, so comparisons between runs
# hold.
PROBE_EVERY_S = 0.02
MAX_STRETCH = 2.5
PROBE_REFERENCE_S = {"python": 1.07e-3, "numpy": 1.09e-3}


class Probe:
    def __init__(self, with_numpy: bool):
        self.matrix = None
        if with_numpy:
            import numpy as np

            grid = np.arange(160 * 80, dtype=float).reshape(160, 80)
            self.matrix = np.sin(grid) + 1j * np.cos(3 * grid)
        self.reference = PROBE_REFERENCE_S["python"] + (
            PROBE_REFERENCE_S["numpy"] if with_numpy else 0.0)

    def __call__(self) -> float:
        """Best of two timings of each part, in seconds."""
        return best_of_two(python_part) + (
            best_of_two(self._numpy_part) if self.matrix is not None else 0.0)

    def _numpy_part(self):
        import numpy as np

        np.linalg.svd(self.matrix, compute_uv=False)


def python_part():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, 3) * Fraction(2 * i + 1, 7) - i


class SpeedSampler:
    """Python probes every 100 ms from a helper thread while the main thread
    runs one long call (set-up can spend 12 s in a single function).  A probe
    holds the GIL for about 2 ms, inside the 5 ms switch interval, so the main
    thread does not cut into its timing; it delays that thread by about 2%."""

    def __enter__(self):
        self.samples = [best_of_two(python_part)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(0.1):
            self.samples.append(best_of_two(python_part))

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(best_of_two(python_part))
        return False


def best_of_two(fn) -> float:
    best = float("inf")
    for _ in range(2):
        t = perf_counter()
        fn()
        best = min(best, perf_counter() - t)
    return best


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, and its value."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, xs[k]


def attempt(wl, inp, span=None):
    """Run one op; return (result, error text)."""
    try:
        return (wl.op(inp, span) if span else wl.op(inp)), None
    except Exception as exc:  # a failed op is counted and listed, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def judge(wl, stars, inp, result, error) -> list[str]:
    if error is not None:
        return [error]
    try:
        return wl.check(stars[inp.star], inp, result)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def describe(inp, problems) -> dict:
    return {"op": inp.index, "kind": inp.kind, "star": inp.star,
            "input": inp.data, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-cycles", type=int, default=0,
                    help="cycles per traced pass (0: the workload's default)")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()

    t0 = perf_counter()
    import starspec as S
    import_s = perf_counter() - t0

    import numpy
    import workloads as W
    from tracer import Tracer, per_root, summarize

    wl = W.WORKLOADS[args.workload]
    stars = wl.make_stars()
    warm = list(islice(wl.inputs(stars, "warm-up"), wl.warmup))

    def setup() -> float:
        t = perf_counter()
        for name in wl.stars:
            S.classify(S.build_star(W.STARS[name]))
        for inp in warm:
            wl.op(inp)
        return perf_counter() - t

    out: dict = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                 "starspec_file": S.__file__}

    probe = Probe(wl.numpy_probe)

    def timed_setup() -> tuple[float, float]:
        """Set-up seconds from `import starspec`, raw and at reference speed."""
        with SpeedSampler() as sampler:
            raw = import_s + setup()
        return raw, raw * PROBE_REFERENCE_S["python"] / statistics.mean(sampler.samples)

    if args.mode == "setup":
        out["setup_s"], out["setup_ref_s"] = timed_setup()
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        out["setup_s"], out["setup_ref_s"] = timed_setup()
        stream = wl.inputs(stars, args.seed)
        records: list[list] = []    # [latency s, probe before, probe after]
        segment: list[list] = []    # records whose closing probe is not taken yet
        failures: list[dict] = []
        last = probe()
        busy = work = since = 0.0

        def close_segment():
            nonlocal last, segment, since
            last = probe()
            for r in segment:
                r[2] = last
            records.extend(segment)
            segment, since = [], 0.0

        # stop after --seconds of op time at reference speed, so a slow
        # machine does not shrink the sample; MAX_STRETCH bounds the wall time
        while work < args.seconds and busy < MAX_STRETCH * args.seconds:
            inp = next(stream)
            t = perf_counter()
            result, error = attempt(wl, inp)
            dt = perf_counter() - t
            busy += dt
            work += dt * probe.reference / last
            since += dt
            segment.append([dt, last, last])
            problems = judge(wl, stars, inp, result, error)
            if problems:
                failures.append(describe(inp, problems))
            if since >= PROBE_EVERY_S:
                close_segment()
        if segment:
            close_segment()
        raw = [r[0] * 1e3 for r in records]
        scaled = [r[0] * 1e3 * probe.reference / max(r[1], r[2]) for r in records]
        pct, tail = tail_percentile(scaled)
        out.update({
            "attempted": len(records),
            "failed": len(failures),
            "failures": failures[:MAX_LISTED_FAILURES],
            "latency_p50_ms": statistics.median(scaled),
            "latency_tail_ms": tail,
            "tail_percentile": pct,
            "throughput_ops_s": len(scaled) * 1e3 / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "raw_p50_ms": statistics.median(raw),
            "raw_tail_ms": tail_percentile(raw)[1],
            "slowdown_p50": statistics.median(max(r[1], r[2]) for r in records)
            / probe.reference,
        })
        print(json.dumps(out))
        return 0

    # --mode trace
    cycles = args.trace_cycles or wl.trace_cycles
    ops = list(islice(wl.inputs(stars, args.seed), cycles * len(wl.cycle)))
    tracer = Tracer()
    tracer.install()
    setup()
    tracer.uninstall()
    setup_spans = tracer.take()

    # One untraced pass first fills the lazy caches the ops share (such as the
    # E6~ graph of the Horn check), so that both traced passes see the same
    # calls.  Then each op runs untraced and traced back to back, in
    # alternating order, so that changes in machine speed cancel out of the
    # tracing overhead.
    for inp in ops:
        attempt(wl, inp)
    results, untraced_s, traced_s = [], 0.0, 0.0
    for i, inp in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                t = perf_counter()
                with tracer.span("op"):
                    results.append(attempt(wl, inp, tracer.span))
                traced_s += perf_counter() - t
                tracer.uninstall()
            else:
                t = perf_counter()
                attempt(wl, inp)
                untraced_s += perf_counter() - t
    spans = tracer.take()
    # a second traced pass must repeat every count exactly
    tracer.install()
    results2 = []
    for inp in ops:
        with tracer.span("op"):
            results2.append(attempt(wl, inp, tracer.span))
    tracer.uninstall()
    spans2 = tracer.take()

    failures = []
    for inp, (result, error) in zip(ops, results):
        problems = judge(wl, stars, inp, result, error)
        if problems:
            failures.append(describe(inp, problems))

    decide = wl.bound is not None

    def statuses(rs):
        if not decide:
            return Counter()
        return Counter(r[0].status if r is not None else "error" for r, _ in rs)

    def counts(sp, rs):
        c = {f"{k}.{f}": v[f] for k, v in summarize(sp).items()
             for f in ("calls", "errors", "size")}
        c.update({f"status.{k}": v for k, v in statuses(rs).items()})
        return c

    c1, c2 = counts(spans, results), counts(spans2, results2)
    drift = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))

    m: dict[str, float] = {}
    rows = per_root(spans, "feasibility.solve")
    checks = sum(r.get("feasibility.iterative_feasible", 0) for r in rows)
    stalled = sum(r.get("feasibility.iterative_feasible:FeasibilityError", 0) for r in rows)
    n_solve = max(len(rows), 1)
    m["feasibility.candidates_per_verdict"] = sum(
        r.get("feasibility.candidate_dimensions:size", 0) for r in rows) / n_solve
    m["feasibility.stalled_per_verdict"] = stalled / n_solve
    m["feasibility.check_yield"] = (checks - stalled) / checks if checks else 0.0
    mix = statuses(results)
    for status in ("feasible", "infeasible", "degenerate"):
        m[f"feasibility.verdicts.{status}"] = mix.get(status, 0)
    sizes = [len(r[1]) if decide else r.bytes for r, _ in results if r is not None]
    m["io.bytes_per_op"] = sum(sizes) / max(len(sizes), 1)
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    m["trace.count_drift"] = len(drift)

    # per-verdict counts of off-hyperplane draws that came back infeasible
    sanity = Counter()
    if decide and len(rows) == len(ops):
        for inp, (res, _), r in zip(ops, results, rows):
            if inp.kind == "off" and res is not None and res[0].status == "infeasible":
                sanity[(inp.star,
                        r.get("feasibility.candidate_dimensions:size", 0),
                        r.get("feasibility.iterative_feasible", 0),
                        r.get("feasibility.iterative_feasible:FeasibilityError", 0),
                        r.get("graph.classify", 0))] += 1

    if args.spans_out:
        path = Path(args.spans_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for phase, sp in (("setup", setup_spans), ("pass1", spans)):
                for s in sp:
                    fh.write(json.dumps([phase] + s) + "\n")

    out.update({
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_LISTED_FAILURES],
        "derived": m,
        "layers": summarize(setup_spans, spans),
        "drift": drift,
        "sanity": [list(k) + [v] for k, v in sorted(sanity.items())],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
