"""Command line interface.

Subcommands: classify, roots, coxeter, feasible, construct, verify,
solve-batch.  All output is JSON on stdout (deterministic for fixed seeds);
errors go to stderr with machine-readable codes.

Exit codes: 0 success/feasible, 1 infeasible, 2 degenerate or boundary,
3 construction or numerical failure (memory that runs out included), 64
usage or parse errors, 141 the reader closed stdout (128 + SIGPIPE, as a
shell reports a command killed by a closed pipe).

Only `construct` and `verify` import the numerical layer (numpy, `reps`,
`verify`), in their handlers; every other command and `--version` run
without numpy.  Without numpy those two write a `missing_dependency` error
and exit 3: no verdict was reached.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .coxeter import CoxeterDomainError, DimCharPair, coxeter_char
from .feasibility import FeasibilityError, check_scan_bound, solve
from .graph import GraphError, build_star, classify, unit_vector
from .io import (
    IOError_,
    algebra_rep_from_dict,
    algebra_rep_to_dict,
    dumps,
    dumps_pretty,
    gen_dim_from_dict,
    gvec_in,
    gvec_out,
    instance_from_dict,
    int_in,
    verdict_to_dict,
    JSON_SCHEMAS,
)
from .roots import coxeter_series, fundamental_roots
from .transfer import RTOL, TransferError, char_from_chi, dim_from_n

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_DEGENERATE = 2
EXIT_CONSTRUCTION = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(dumps({"error": kind, "message": message}) + "\n")
    return code


def _parse_branches(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise GraphError(f"bad branch list {text!r}")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _loaded(module: str, *names: str) -> tuple:
    """The named exception classes of a module if it is loaded, else ():
    none of them can have been raised before their module is imported."""
    home = sys.modules.get(module)
    return tuple(getattr(home, name) for name in names) if home else ()


def _scan_bound(args, data: dict) -> int:
    """--scan-bound, else the instance file's scan_bound, else 60."""
    if args.scan_bound is not None:
        return args.scan_bound
    return int_in(data.get("scan_bound", 60))


def cmd_classify(args) -> int:
    graph = build_star(_parse_branches(args.branches))
    cls = classify(graph)
    out = {"class": cls.kind}
    if cls.name:
        out["name"] = cls.name
    if cls.delta is not None:
        out["delta"] = list(cls.delta)
        out["extending"] = list(cls.extending or ())
    if cls.witness is not None:
        out["witness"] = gvec_out(cls.witness)
    print(dumps(out))
    return EXIT_OK


def cmd_roots(args) -> int:
    graph = build_star(_parse_branches(args.branches))
    cls = classify(graph)
    if cls.kind != "ExtendedDynkin":
        return _fail(EXIT_USAGE, "unsupported_graph",
                     "root tables require an extended Dynkin star")
    out: dict = {"graph": cls.name}
    if args.series:
        seeds = {"K1": 0, "K2": 1, "K3": graph.root}
        if args.series not in seeds:
            return _fail(EXIT_USAGE, "unknown_series",
                         f"series must be one of {sorted(seeds)}")
        bases = coxeter_series(graph, unit_vector(graph, seeds[args.series]))
        out["series"] = args.series
        out["delta_series"] = [gvec_out(b) for b in bases]
    else:
        roots = fundamental_roots(
            graph,
            include_negative=args.include_negative,
            include_zero=args.include_zero,
        )
        out["fundamental"] = [gvec_out(r) for r in roots]
    print(dumps(out))
    return EXIT_OK


def cmd_coxeter(args) -> int:
    graph = build_star(_parse_branches(args.branches))
    data = _load_json(args.pair)
    try:
        d, f = data["d"], data["f"]
    except (KeyError, TypeError):
        raise IOError_("pair file needs 'd' and 'f'") from None
    pair = DimCharPair(gvec_in(graph, d, int_in), gvec_in(graph, f))
    if min(pair.d) < 0:
        raise IOError_(f"dimension {list(pair.d)} has a negative entry")
    tokens = [t.strip() for t in args.word.split(",")]
    for t in tokens:
        if t not in ("even", "odd"):
            return _fail(EXIT_USAGE, "bad_token", f"unknown token {t!r}")
    # the whole word is applied first: a domain error prints nothing
    steps = [(pair, None)]
    for t in tokens:
        steps.append((coxeter_char(graph, t, steps[-1][0]), t))
    for pair, t in steps:
        print(dumps({"d": gvec_out(pair.d), "f": gvec_out(pair.f), "token": t}))
    return EXIT_OK


def _verdict_exit(status: str) -> int:
    return {"feasible": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
            "degenerate": EXIT_DEGENERATE}[status]


def cmd_feasible(args) -> int:
    data = _load_json(args.instance)
    inst = instance_from_dict(data)
    graph = build_star(inst.branch_lengths)
    verdict = solve(graph, inst, scan_bound=_scan_bound(args, data))
    print(dumps(verdict_to_dict(verdict)))
    return _verdict_exit(verdict.status)


def cmd_construct(args) -> int:
    from .reps import build_graph_rep, build_hyperplane_rep, to_algebra_rep
    from .verify import commutant_dimension

    data = _load_json(args.instance)
    inst = instance_from_dict(data)
    graph = build_star(inst.branch_lengths)
    seed = args.seed if args.seed is not None else int_in(data.get("seed", 0))
    if seed < 0:
        return _fail(EXIT_USAGE, "bad_seed",
                     f"seed must be a non-negative integer, got {seed}")
    if args.dimension:
        ddata = _load_json(args.dimension)
        if isinstance(ddata, dict):
            n = gen_dim_from_dict(ddata)
            d = dim_from_n(graph, n)
        else:
            d = gvec_in(graph, ddata, int_in)
    else:
        verdict = solve(graph, inst, scan_bound=_scan_bound(args, data))
        if not verdict.feasible:
            print(dumps(verdict_to_dict(verdict)))
            return _verdict_exit(verdict.status)
        assert verdict.witness_dimension is not None
        d = dim_from_n(graph, verdict.witness_dimension)
    cls = classify(graph)
    meta: dict = {"seed": seed, "dimension": gvec_out(d)}
    if d == cls.delta:
        arep = build_hyperplane_rep(inst, seed=seed)
        meta["route"] = "hyperplane_optimizer"
    else:
        f = char_from_chi(graph, inst)
        grep = build_graph_rep(graph, d, f)
        arep = to_algebra_rep(graph, grep, inst)
        meta.update({"route": "reflection_functors", "character": gvec_out(f)})
    meta["residual"] = arep.residual()
    meta["commutant_dimension"] = commutant_dimension(arep)
    out = algebra_rep_to_dict(arep, metadata=meta)
    text = dumps_pretty(out)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(dumps({"written": args.output, "n0": arep.n0,
                     "residual": meta["residual"]}))
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    import numpy as np

    from .verify import commutant_dimension, verify_algebra_rep

    rep = algebra_rep_from_dict(_load_json(args.rep))
    if args.instance:
        inst = instance_from_dict(_load_json(args.instance))
        if inst != rep.instance:
            return _fail(EXIT_USAGE, "instance_mismatch",
                         "representation was built for a different instance")
    # entries that overflow fail checks; numpy need not warn about them
    with np.errstate(all="ignore"):
        report = verify_algebra_rep(rep)
        try:
            commutant = commutant_dimension(rep)
        except np.linalg.LinAlgError:
            raise
        except ValueError:
            # a value of the commutant equations is not finite: no dimension
            commutant = None
    out = {
        "overall": bool(report.overall),
        "commutant_dimension": commutant,
        "checks": [
            {"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in report.checks
        ],
    }
    print(dumps(out))
    return EXIT_OK if report.overall else EXIT_INFEASIBLE


def cmd_solve_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        return _fail(EXIT_USAGE, "not_a_directory", str(directory))
    if args.scan_bound is not None:
        check_scan_bound(args.scan_bound)
    results = []
    counts = {"feasible": 0, "infeasible": 0, "degenerate": 0, "error": 0}
    for path in sorted(directory.glob("*.json")):
        entry: dict = {"file": path.name}
        try:
            data = _load_json(str(path))
            inst = instance_from_dict(data)
            graph = build_star(inst.branch_lengths)
            verdict = solve(graph, inst, scan_bound=_scan_bound(args, data))
            entry["status"] = verdict.status
            entry["branch_taken"] = verdict.branch_taken
            counts[verdict.status] += 1
        except (IOError_, TransferError, FeasibilityError, GraphError,
                json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            entry["status"] = "error"
            entry["message"] = str(exc)
            counts["error"] += 1
        results.append(entry)
    print(dumps({"results": results, "counts": counts}))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64, as every other input error does; argparse's
    own code 2 is the degenerate verdict here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="starspec",
        description="Spectral problem on star-shaped graphs: classification, "
                    "feasibility, and explicit constructions.",
    )
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--json-schema", action="store_true",
                   help="print file format schemas and exit")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("classify", help="classify a star graph")
    c.add_argument("--branches", required=True, help="comma list, e.g. 2,2,2")
    c.set_defaults(func=cmd_classify)

    r = sub.add_parser("roots", help="root tables of an extended Dynkin star")
    r.add_argument("--branches", required=True)
    r.add_argument("--series", help="K1, K2 or K3: one Coxeter orbit")
    r.add_argument("--include-negative", action="store_true")
    r.add_argument("--include-zero", action="store_true")
    r.set_defaults(func=cmd_roots)

    x = sub.add_parser("coxeter", help="apply a token word to a (d,f) pair")
    x.add_argument("--branches", required=True)
    x.add_argument("--word", required=True, help="comma list of even/odd")
    x.add_argument("--pair", required=True, help="JSON file with 'd' and 'f'")
    x.set_defaults(func=cmd_coxeter)

    f = sub.add_parser("feasible", help="decide existence for an instance")
    f.add_argument("--instance", required=True)
    f.add_argument("--scan-bound", type=int)
    f.set_defaults(func=cmd_feasible)

    b = sub.add_parser("construct", help="build an explicit representation")
    b.add_argument("--instance", required=True)
    b.add_argument("--dimension", help="target dimension JSON (optional)")
    b.add_argument("-o", "--output", help="write the representation here")
    b.add_argument("--seed", type=int)
    b.add_argument("--scan-bound", type=int)
    b.set_defaults(func=cmd_construct)

    v = sub.add_parser(
        "verify", help="verify a representation file",
        description="Check a representation file independently.  The "
                    "weighted sum and the spectra pass within "
                    f"{RTOL:g} * s, where s = max(|gamma|, a_1 of each "
                    "branch), so the verdict does not depend on the scale of "
                    "the parameters; no tolerance is settable.",
    )
    v.add_argument("--rep", required=True)
    v.add_argument("--instance")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve-batch", help="solve every instance in a directory")
    s.add_argument("directory")
    s.add_argument("--scan-bound", type=int)
    s.set_defaults(func=cmd_solve_batch)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.json_schema:
            print(dumps_pretty(JSON_SCHEMAS))
            code = EXIT_OK
        elif not getattr(args, "func", None):
            parser.print_help()
            code = EXIT_USAGE
        else:
            code = args.func(args)
        # flushed here, so that a closed pipe is caught below however little
        # was printed
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not an input error.  Point
        # stdout at the null device so the interpreter's final flush of what
        # is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "numpy":
            raise
        return _fail(EXIT_CONSTRUCTION, "missing_dependency",
                     f"the numerical layer needs numpy: {exc}")
    except _loaded("starspec.reps", "ConstructionError") as exc:
        return _fail(EXIT_CONSTRUCTION, "construction_failed", str(exc))
    except _loaded("numpy.linalg", "LinAlgError") as exc:
        # a LAPACK routine gave up: a numerical failure, not a verdict
        return _fail(EXIT_CONSTRUCTION, "numerical_failure", str(exc))
    except MemoryError as exc:
        # an allocation failed: no verdict was reached
        return _fail(EXIT_CONSTRUCTION, "out_of_memory",
                     str(exc) or "the interpreter ran out of memory")
    except (GraphError, TransferError, FeasibilityError, CoxeterDomainError,
            IOError_, *_loaded("starspec.reps", "RepError")) as exc:
        return _fail(EXIT_USAGE, type(exc).__name__, str(exc))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, KeyError) as exc:
        return _fail(EXIT_USAGE, "bad_input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
