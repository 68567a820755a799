"""Star-shaped graphs, their quadratic form, and Dynkin classification.

A star graph is a tree with one root of degree n and n simple paths
(branches) attached.  Vertices are integers in a fixed canonical order:
branch 1 from leaf to innermost vertex, then branch 2, and so on, with the
root last.  All vectors on the graph ("G-vectors") are tuples in that
order: dimension vectors and roots hold ints, characters hold rationals.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Literal, Optional, Sequence

from .rational import IMat, QVec

GVec = QVec
IVec = tuple[int, ...]

ODD = "odd"
EVEN = "even"
Parity = Literal["odd", "even"]


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class StarGraph:
    """Star-shaped tree with a proper 2-coloring (root is odd).

    ``branches[b]`` lists vertex indices of branch ``b`` from the leaf
    inward; ``root`` is the last index.  ``parity[v]`` alternates along each
    branch so that every edge joins an odd and an even vertex; ``odd`` and
    ``even`` list the two parity classes in vertex order; ``edges`` lists
    each edge once, branch by branch, the root edge last.
    """

    branch_lengths: tuple[int, ...]
    branches: tuple[tuple[int, ...], ...] = field(repr=False)
    root: int = field(repr=False)
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    parity: tuple[Parity, ...] = field(repr=False)
    odd: tuple[int, ...] = field(repr=False)
    even: tuple[int, ...] = field(repr=False)
    edges: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.root + 1

    def vertex_label(self, v: int) -> str:
        if v == self.root:
            return "g0"
        for b, path in enumerate(self.branches):
            if v in path:
                return f"b{b + 1}.{path.index(v)}"
        raise GraphError(f"unknown vertex {v}")


def build_star(branch_lengths: Sequence[int]) -> StarGraph:
    """Build the star with the given branch lengths (vertices per branch)."""
    lengths = tuple(int(m) for m in branch_lengths)
    if not lengths:
        raise GraphError("at least one branch is required")
    if any(m < 1 for m in lengths):
        raise GraphError("branch lengths must be positive")
    branches = []
    idx = 0
    for m in lengths:
        branches.append(tuple(range(idx, idx + m)))
        idx += m
    root = idx
    edges: list[tuple[int, int]] = []
    for path in branches:
        edges.extend(zip(path, path[1:]))
        edges.append((path[-1], root))
    nbr: list[list[int]] = [[] for _ in range(root + 1)]
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    parity: list[Parity] = [ODD] * (root + 1)
    for m, path in zip(lengths, branches):
        for t, v in enumerate(path):
            dist_to_root = m - t
            parity[v] = ODD if dist_to_root % 2 == 0 else EVEN
    return StarGraph(
        branch_lengths=lengths,
        branches=tuple(branches),
        root=root,
        neighbors=tuple(tuple(ns) for ns in nbr),
        parity=tuple(parity),
        odd=tuple(v for v, p in enumerate(parity) if p == ODD),
        even=tuple(v for v, p in enumerate(parity) if p == EVEN),
        edges=tuple(edges),
    )


def gvector(graph: StarGraph, entries: Sequence) -> GVec:
    v = tuple(Fraction(e) for e in entries)
    if len(v) != graph.n_vertices:
        raise GraphError(
            f"vector has {len(v)} entries, graph has {graph.n_vertices} vertices"
        )
    return v


def unit_vector(graph: StarGraph, v: int) -> IVec:
    return tuple(int(i == v) for i in range(graph.n_vertices))


def is_positive_vector(x: GVec) -> bool:
    """x > 0 in the G-vector sense: nonzero with all entries >= 0."""
    return any(e != 0 for e in x) and all(e >= 0 for e in x)


def tits_form(graph: StarGraph, x: GVec) -> int | Fraction:
    """q(x) = sum x_i^2 - sum over edges x_i x_j (each edge once); an int on
    integer vectors."""
    if len(x) != graph.n_vertices:
        raise GraphError("vector/graph mismatch")
    s = sum(e * e for e in x)
    for a, b in graph.edges:
        s -= x[a] * x[b]
    return s


def bilinear_form(graph: StarGraph, x: GVec, y: GVec) -> int | Fraction:
    """(x, y) = q(x+y) - q(x) - q(y); symmetric, with (x,x) = 2 q(x)."""
    if len(x) != graph.n_vertices or len(y) != graph.n_vertices:
        raise GraphError("vector/graph mismatch")
    xy = tuple(a + b for a, b in zip(x, y))
    return tits_form(graph, xy) - tits_form(graph, x) - tits_form(graph, y)


def form_matrix(graph: StarGraph) -> IMat:
    """Gram matrix of the bilinear form: 2I minus the adjacency matrix."""
    n = graph.n_vertices
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for a, b in graph.edges:
        m[a][b] = -1
        m[b][a] = -1
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class GraphClass:
    """Classification of a star graph by its quadratic form.

    kind 'Dynkin': form positive definite.  kind 'ExtendedDynkin': positive
    semi-definite with one-dimensional radical, generated by the minimal
    positive integer vector ``delta``; ``extending`` lists the vertices where
    delta equals 1.  kind 'Wild': indefinite, with a nonnegative ``witness``
    of negative form value.
    """

    kind: Literal["Dynkin", "ExtendedDynkin", "Wild"]
    name: Optional[str] = None
    delta: Optional[IVec] = None
    extending: Optional[tuple[int, ...]] = None
    witness: Optional[IVec] = None


def _dynkin_name(lengths: tuple[int, ...]) -> str:
    arms = sorted(m for m in lengths if m > 0)
    total = sum(arms) + 1
    if len(arms) <= 2:
        return f"A{total}"
    if arms[:-1] == [1, 1] and len(arms) == 3:
        return f"D{total}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise GraphError(f"unexpected Dynkin arm profile {arms}")


def _extended_name(lengths: tuple[int, ...]) -> str:
    arms = sorted(lengths)
    if arms == [1, 1, 1, 1]:
        return "D4~"
    if arms == [2, 2, 2]:
        return "E6~"
    if arms == [1, 3, 3]:
        return "E7~"
    if arms == [1, 2, 5]:
        return "E8~"
    raise GraphError(f"unexpected extended Dynkin arm profile {arms}")


def _ramp(graph: StarGraph) -> tuple[IVec, int]:
    """Ramp vector and N (2 - n + sum 1/p_j), which has the sign of its
    form value.

    The root gets N = lcm of the arm lengths p_j = m_j + 1; each branch
    ramps linearly down toward the leaf, N (p_j - t) / p_j at distance t
    from the root.  A direct computation gives
    q = (N^2/2) (2 - n + sum 1/p_j), the finite / affine / indefinite
    trichotomy of Kac, Infinite Dimensional Lie Algebras, ch. 4.
    """
    ps = [m + 1 for m in graph.branch_lengths]
    big = lcm(*ps)
    x = [0] * graph.n_vertices
    x[graph.root] = big
    for path, p in zip(graph.branches, ps):
        for dist, v in enumerate(reversed(path), 1):
            x[v] = big // p * (p - dist)
    return tuple(x), (2 - len(ps)) * big + sum(big // p for p in ps)


@functools.lru_cache(maxsize=64)
def classify(graph: StarGraph) -> GraphClass:
    """Classify by the sign of 2 - n + sum 1/p_j on the ramp vector.

    Positive: the form is positive definite.  Zero: the ramp vector spans
    the radical and is delta (its gcd is 1 on the four extended stars).
    Negative: the ramp vector is a nonnegative witness with q < 0.
    The graph and its class are frozen, so each graph is classified once.
    """
    ramp, sign = _ramp(graph)
    if sign > 0:
        return GraphClass(kind="Dynkin", name=_dynkin_name(graph.branch_lengths))
    if sign == 0:
        return GraphClass(
            kind="ExtendedDynkin",
            name=_extended_name(graph.branch_lengths),
            delta=ramp,
            extending=tuple(i for i, e in enumerate(ramp) if e == 1),
        )
    return GraphClass(kind="Wild", witness=ramp)
