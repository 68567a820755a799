"""In-memory spans around starspec's public functions, recorded from outside.

``from .x import f`` copies the binding of ``f`` into the importing module,
so a wrapper set only on the defining module would miss internal calls.
``Tracer.install`` therefore rebinds each traced name in every loaded
``starspec`` module whose binding is the original function, and
``uninstall`` puts the originals back.  A traced name that no longer exists
is skipped and reports zero calls.
"""
from __future__ import annotations

import sys
from time import perf_counter

# Public functions wrapped per layer.  Hot helpers called millions of times
# (tits_form, coxeter_dim) are left out: wrapping them would cost more than
# the work they do.  `rational` is not traced: no workload's hot path calls it.
TRACED = {
    "graph": ("build_star", "classify"),
    "roots": ("fundamental_roots", "is_root"),
    "coxeter": ("reduction_schedule", "char_transport_up", "char_transport_down"),
    "transfer": ("char_from_chi", "chi_from_char", "n_from_dim", "dim_from_n"),
    "feasibility": ("solve", "candidate_dimensions", "iterative_feasible",
                    "horn_check_e6", "hyperplane", "on_hyperplane"),
    "reps": ("build_graph_rep", "reflect_rep", "canonicalize", "to_algebra_rep",
             "build_hyperplane_rep"),
    "verify": ("verify_algebra_rep", "commutant_dimension"),
}

# Span fields, kept as lists to stay small: name, start, end, parent index,
# exception class name (or None), size of a list result (or None).
NAME, START, END, PARENT, ERROR, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if isinstance(result, list):
                span[SIZE] = len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "starspec" or n.startswith("starspec."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"starspec.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        return self.record

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.record[ERROR] = exc_type.__name__
        self.tracer._close(self.record)
        return False


def summarize(*span_lists: list[list]) -> dict[str, dict]:
    """Per span name: calls, total ms, self ms (total minus the time covered
    by direct child spans), errors and summed result sizes."""
    out: dict[str, dict] = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            agg = out.setdefault(s[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                           "errors": 0, "size": 0})
            agg["calls"] += 1
            agg["ms"] += dur * 1e3
            agg["self_ms"] += (dur - child[i]) * 1e3
            agg["errors"] += s[ERROR] is not None
            agg["size"] += s[SIZE] or 0
    return out


def per_root(spans: list[list], root_name: str) -> list[dict]:
    """For each span named root_name, counts of the spans nested under it:
    {name: calls}, {name + ':' + error class: calls} and {name + ':size':
    summed result sizes}."""
    owner = [-1] * len(spans)   # row index of the enclosing root_name span
    rows: list[dict] = []
    for i, s in enumerate(spans):
        if s[NAME] == root_name:
            owner[i] = len(rows)
            rows.append({})
            continue
        if s[PARENT] >= 0:
            owner[i] = owner[s[PARENT]]
        if owner[i] < 0:
            continue
        row = rows[owner[i]]
        row[s[NAME]] = row.get(s[NAME], 0) + 1
        if s[ERROR]:
            key = f"{s[NAME]}:{s[ERROR]}"
            row[key] = row.get(key, 0) + 1
        if s[SIZE]:
            key = f"{s[NAME]}:size"
            row[key] = row.get(key, 0) + s[SIZE]
    return rows
