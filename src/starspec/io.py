"""JSON serialization: instances, vectors, matrices, verdicts and algebra
representations, the files the command line reads and writes.

Rationals travel as JSON integers when integral and as "p/q" strings
otherwise, never as floats.  Complex matrices are row-major arrays of
[re, im] pairs; real matrices are written the same way with im 0.0.  All
emitters sort keys so output is byte-stable.

``algebra_rep_to_dict`` keeps each projection as its ndarray, and
``dumps_pretty`` writes the [re, im] pair text of such a matrix itself, so a
representation file is never built as nested Python lists; ``json.dumps``
takes such a dict with ``default=matrix_out`` and gives the same text.

Instances, dimensions, verdicts and ``dumps``/``dumps_pretty`` of plain data
need no numpy, so the decision commands never load it.  The matrix and
representation functions import numpy and ``reps`` when first called, and
``dumps_pretty`` looks for ndarrays only once numpy is loaded: before that
none can exist.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Any, Optional

from .feasibility import FeasibilityVerdict
from .graph import GVec, StarGraph
from .rational import parse_fraction
from .transfer import GeneralizedDimension, SpectralInstance, make_instance

if TYPE_CHECKING:
    import numpy as np

    from .reps import AlgebraRep


class IOError_(ValueError):
    pass


def rational_out(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def rational_in(v) -> Fraction:
    """A rational, as a JSON integer or a 'p/q' string; bools, floats,
    other types, malformed strings and zero denominators are rejected."""
    if isinstance(v, bool) or isinstance(v, float):
        raise IOError_(f"rationals must be integers or 'p/q' strings, got {v!r}")
    try:
        return parse_fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise IOError_(
            f"rationals must be integers or 'p/q' strings, got {v!r}"
        ) from None


def int_in(v) -> int:
    """An integer, as a JSON integer or an integral 'p/q' string; bools,
    floats and non-integral values are rejected."""
    x = rational_in(v)
    if x.denominator != 1:
        raise IOError_(f"expected an integer, got {v!r}")
    return int(x)


def gvec_out(x: GVec) -> list:
    return [rational_out(v) for v in x]


def gvec_in(graph: StarGraph, data, read=rational_in) -> GVec:
    if not isinstance(data, list) or len(data) != graph.n_vertices:
        raise IOError_("vector must be an array in canonical vertex order")
    return tuple(read(v) for v in data)


def instance_to_dict(inst: SpectralInstance) -> dict:
    return {
        "branches": [[rational_out(a) for a in spec] for spec in inst.branches],
        "gamma": rational_out(inst.gamma),
    }


def instance_from_dict(data: dict) -> SpectralInstance:
    try:
        branches = data["branches"]
        gamma = data["gamma"]
    except (KeyError, TypeError):
        raise IOError_("instance file needs 'branches' and 'gamma'")
    if not isinstance(branches, list) or not all(isinstance(b, list) for b in branches):
        raise IOError_("'branches' must be a list of spectra")
    return make_instance(
        [[rational_in(a) for a in spec] for spec in branches], rational_in(gamma)
    )


def matrix_out(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of floats; a real matrix writes im as 0.0."""
    import numpy as np

    m = np.asarray(m)
    return np.stack((m.real, m.imag), axis=-1).astype(float, copy=False).tolist()


def matrix_in(data) -> np.ndarray:
    """A complex128 matrix from row-major [re, im] pairs of finite JSON
    numbers.

    Pairs of any other length, booleans, strings, nulls, NaN, infinities
    and ragged rows are rejected.  An empty matrix comes back with zero
    columns."""
    import numpy as np

    try:
        entries = chain.from_iterable(chain.from_iterable(data))
        if set(map(type, entries)) <= {int, float}:
            pairs = np.array(data, dtype=float)
            if pairs.ndim == 3 and pairs.shape[2] == 2 and np.isfinite(pairs).all():
                return pairs.view(complex)[..., 0]
            if pairs.size == 0 and pairs.ndim <= 2:
                return np.zeros((len(pairs), 0), complex)
    except (TypeError, ValueError, OverflowError):
        pass
    raise IOError_("matrices must be row-major arrays of [re, im] pairs of "
                   "finite numbers")


def gen_dim_to_dict(n: GeneralizedDimension) -> dict:
    return {"n0": n.n0, "branches": [list(b) for b in n.branches]}


def gen_dim_from_dict(data: dict) -> GeneralizedDimension:
    try:
        return GeneralizedDimension(
            n0=int_in(data["n0"]),
            branches=tuple(tuple(int_in(v) for v in b) for b in data["branches"]),
        )
    except (KeyError, TypeError, ValueError):
        raise IOError_("dimension file needs integer 'n0' and 'branches'")


def verdict_to_dict(v: FeasibilityVerdict) -> dict:
    out: dict[str, Any] = {
        "status": v.status,
        "feasible": v.feasible,
        "branch_taken": v.branch_taken,
        "certificate": v.certificate,
    }
    if v.witness_dimension is not None:
        out["witness_dimension"] = gen_dim_to_dict(v.witness_dimension)
    return out


def algebra_rep_to_dict(rep: AlgebraRep, metadata: Optional[dict] = None) -> dict:
    """The file form of an algebra representation.  The projections stay
    ndarrays, as ``dumps_pretty`` writes them (pass ``default=matrix_out`` to
    ``json.dumps``); ``algebra_rep_from_dict`` reads the parsed text back."""
    out = {
        "type": "algebra_rep",
        "instance": instance_to_dict(rep.instance),
        "n0": rep.n0,
        "projections": [list(branch) for branch in rep.projections],
    }
    if metadata:
        out["metadata"] = metadata
    return out


def algebra_rep_from_dict(data: dict) -> AlgebraRep:
    from .reps import AlgebraRep

    try:
        inst = instance_from_dict(data["instance"])
        n0 = int_in(data["n0"])
        projections = tuple(
            tuple(matrix_in(p) for p in branch) for branch in data["projections"]
        )
    except (KeyError, TypeError):
        raise IOError_("not a valid algebra representation file")
    if n0 < 1:
        raise IOError_(f"n0 must be a positive integer, got {n0}")
    if tuple(map(len, projections)) != inst.branch_lengths:
        raise IOError_("projection counts do not match the instance spectra")
    if any(p.shape != (n0, n0) for branch in projections for p in branch):
        raise IOError_(f"projections must be {n0}x{n0} matrices")
    return AlgebraRep(instance=inst, n0=n0, projections=projections)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps_pretty(obj: dict) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2,
    default=matrix_out)``.

    With an indent the standard library falls back to its pure-Python
    encoder, one generator step per number.  Here dicts and lists are walked,
    scalars are encoded by the compact C encoder, and a float64 or
    complex128 matrix with finite entries (a projection) is written row by
    row from the reprs of its entries, as the encoder writes ``matrix_out``
    of it.
    """
    return _pretty(obj, "\n")


def _pretty(x, nl: str) -> str:
    """Indented text of x for a value whose line starts at ``nl``."""
    inner = nl + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = (_compact(_key(k)) + ": " + _pretty(v, inner)
                 for k, v in sorted(x.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = (_pretty(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    # an ndarray exists only once numpy is loaded
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.ndarray):
        if (x.ndim == 2 and x.dtype in (np.float64, np.complex128)
                and np.isfinite(x).all()):
            return _pretty_matrix(x, nl)
        return _pretty(matrix_out(x), nl)
    return _compact(x)


def _pretty_matrix(m: np.ndarray, nl: str) -> str:
    """Indented text of ``matrix_out(m)`` for a finite float64 or complex128
    matrix: each row of [re, im] pairs is one join over the entry reprs."""
    if not len(m):
        return "[]"
    row_nl, pair_nl, num_nl = nl + "  ", nl + "    ", nl + "      "
    head = "[" + pair_nl + "[" + num_nl
    tail = pair_nl + "]" + row_nl + "]"
    between = pair_nl + "]," + pair_nl + "[" + num_nl
    mid = "," + num_nl
    if not m.shape[1]:
        rows = ["[]"] * len(m)
    elif m.dtype == float:
        zero = mid + "0.0"
        rows = [head + (zero + between).join(map(float.__repr__, row)) + zero + tail
                for row in m.tolist()]
    else:
        rows = [head + between.join(map(mid.join, zip(map(float.__repr__, re),
                                                      map(float.__repr__, im))))
                + tail
                for re, im in zip(m.real.tolist(), m.imag.tolist())]
    return "[" + row_nl + ("," + row_nl).join(rows) + nl + "]"


def _key(k) -> str:
    """A dict key as the JSON encoder writes it: scalars become strings."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _compact(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}"
    )


JSON_SCHEMAS = {
    "instance": {
        "type": "object",
        "required": ["branches", "gamma"],
        "properties": {
            "branches": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": ["integer", "string"]},
                    "minItems": 1,
                },
                "minItems": 1,
            },
            "gamma": {"type": ["integer", "string"]},
            "scan_bound": {"type": "integer"},
            "seed": {"type": "integer"},
        },
    },
    "generalized_dimension": {
        "type": "object",
        "required": ["n0", "branches"],
        "properties": {
            "n0": {"type": "integer"},
            "branches": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
    "complex_matrix": {
        "type": "array",
        "items": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "verdict": {
        "type": "object",
        "required": ["status", "feasible", "branch_taken"],
        "properties": {
            "status": {"enum": ["feasible", "infeasible", "degenerate"]},
            "feasible": {"type": "boolean"},
            "branch_taken": {"type": "string"},
            "witness_dimension": {"$ref": "#/generalized_dimension"},
            "certificate": {"type": "array"},
        },
    },
}
