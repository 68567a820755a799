"""Root systems of extended Dynkin stars: enumeration and Coxeter orbits.

Roots are integer G-vectors with form value 1 (real) or 0 (imaginary).
For an extended Dynkin graph the root system modulo the radical generator
delta is finite; fixing an extending vertex e (delta_e = 1) gives a unique
representative with e-entry zero in every coset.  These representatives
are the roots of the finite Dynkin diagram left after deleting e, and
every real root is one of them plus a multiple of delta (Kac, Infinite
Dimensional Lie Algebras, ch. 5).  The positive ones are grown by height
from the simple roots: a positive root of height h > 1 is a positive root
of height h - 1 plus a simple root, and a positive integer vector is a
root of the finite diagram exactly when its form value is 1.  Since
q(x + e_i) = q(x) + 2 x_i + 1 - (sum of x over the neighbours of i), a
root x grows by e_i exactly when that form increment is 0, and no form
value is computed.  Delta restricted to the finite diagram is its highest
root, so every entry of the table is bounded by delta.

A delta-series is named by that representative, its base: its members are
base + k*delta.  `coxeter_series` returns the sorted bases of one orbit
under the parity maps, and the table with its negatives is the set of all
series bases.
"""
from __future__ import annotations

from typing import Optional

from .coxeter import coxeter_dim, pairing
from .graph import EVEN, ODD, GVec, IVec, StarGraph, classify, tits_form, unit_vector


class RootError(ValueError):
    pass


def is_root(graph: StarGraph, x: GVec) -> Optional[str]:
    """'real' (q=1), 'imaginary' (q=0), or None.

    Only integer vectors qualify; non-integer input is an error.
    """
    xi = tuple(int(e) for e in x)
    if xi != tuple(x):
        raise RootError("roots must have integer entries")
    if not any(xi):
        return None
    q = tits_form(graph, xi)
    if q == 1:
        return "real"
    if q == 0:
        return "imaginary"
    return None


def _form_increments(graph: StarGraph, x: IVec) -> list[int]:
    """q(x + e_i) - q(x) = 2 x_i + 1 - (sum of x over the neighbours of i),
    for every vertex i."""
    inc = [2 * v + 1 for v in x]
    for a, b in graph.edges:
        inc[a] -= x[b]
        inc[b] -= x[a]
    return inc


def fundamental_roots(
    graph: StarGraph,
    include_negative: bool = False,
    include_zero: bool = False,
) -> list[IVec]:
    """All coset representatives with zero entry at the first extending
    vertex e.

    The positive ones are the positive roots of the graph with e deleted,
    grown by height from its simple roots: a root x grows to x + e_i
    (i != e) exactly when its form increment at i is 0, so that
    q(x + e_i) = q(x) = 1; one pass over the edges gives the increments of
    a root at every vertex.  They come back in lexicographic order,
    componentwise bounded by delta, whose restriction to the finite diagram
    is the highest root; optionally their negatives and/or the zero vector
    are added.  Every returned nonzero vector is a real root: an imaginary
    root is a multiple of delta and cannot vanish at an extending vertex.
    """
    cls = classify(graph)
    if cls.kind != "ExtendedDynkin":
        raise RootError("fundamental roots require an extended Dynkin graph")
    e = cls.extending[0]
    simple = [i for i in range(graph.n_vertices) if i != e]
    layer = [unit_vector(graph, i) for i in simple]
    found = set(layer)
    while layer:
        grown = []
        for x in layer:
            inc = _form_increments(graph, x)
            for i in simple:
                if inc[i] == 0:
                    y = x[:i] + (x[i] + 1,) + x[i + 1:]
                    if y not in found:
                        found.add(y)
                        grown.append(y)
        layer = grown
    out = sorted(found)
    result: list[IVec] = []
    if include_zero:
        result.append((0,) * graph.n_vertices)
    result.extend(out)
    if include_negative:
        result.extend(tuple(-v for v in x) for x in out)
    return result


def series_base(x: GVec, delta: GVec, extending: int) -> GVec:
    """Normalize a root to its coset representative with zero e-entry."""
    k = x[extending]  # delta has entry 1 there
    return tuple(a - k * d for a, d in zip(x, delta))


def coxeter_series(graph: StarGraph, seed: GVec) -> tuple[GVec, ...]:
    """Closure of the seed's delta-series under both parity maps: the sorted
    bases of its series, each the representative with zero e-entry."""
    cls = classify(graph)
    if cls.kind != "ExtendedDynkin":
        raise RootError("Coxeter series require an extended Dynkin graph")
    if is_root(graph, seed) is None:
        raise RootError(f"seed {seed} is not a root")
    e = cls.extending[0]
    delta = cls.delta
    seen = {series_base(seed, delta, e)}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for token in (EVEN, ODD):
                img = coxeter_dim(graph, token, x)
                rep = series_base(img, delta, e)
                if rep not in seen:
                    seen.add(rep)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


def singular_and_regular_series(graph: StarGraph) -> tuple[set[GVec], set[GVec]]:
    """Split the series bases, the table and its negatives, into singular
    (nonzero defect) and regular (zero defect) parts.

    The defect, the pairing with delta, is constant along a series, since
    delta has defect 0, and linear, so it is taken once per positive base
    and its negative goes to the same part.  The positive members of a
    singular series walk down to a simple root; those of a regular series
    never do.  The singular bases are the symmetry images of the orbits
    seeded at one vertex of each symmetry class.
    """
    delta = classify(graph).delta
    singular: set[GVec] = set()
    regular: set[GVec] = set()
    for base in fundamental_roots(graph):
        part = regular if pairing(graph, delta, base) == 0 else singular
        part.add(base)
        part.add(tuple([-v for v in base]))
    return singular, regular
