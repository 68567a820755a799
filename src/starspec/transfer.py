"""Transfer between spectral data and graph data.

A spectral instance consists of one strictly decreasing positive spectrum
per branch plus the level gamma; flattened (branch by branch, gamma last)
it is the parameter vector chi.  On the graph side the same data appears as
a character f, and generalized dimensions n (ranks of the spectral
projections plus the ambient dimension) appear as dimension vectors d.

Both directions are alternating-ends resummations along each branch; their
matrices are unimodular over the integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import GVec, IVec, StarGraph
from .rational import Q, QMat, parse_fraction


class TransferError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralInstance:
    """Target spectra per branch (strictly decreasing, positive) and gamma.

    The zero eigenvalue every branch operator may carry is implicit and not
    stored.
    """

    branches: tuple[tuple[Fraction, ...], ...]
    gamma: Fraction

    def __post_init__(self):
        for j, spec in enumerate(self.branches):
            if not spec:
                raise TransferError(f"branch {j + 1} has an empty spectrum")
            if any(a <= 0 for a in spec):
                raise TransferError(f"branch {j + 1} spectrum must be positive")
            if any(a <= b for a, b in zip(spec, spec[1:])):
                raise TransferError(
                    f"branch {j + 1} spectrum must be strictly decreasing"
                )

    @property
    def branch_lengths(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.branches)

    def chi(self) -> tuple[Fraction, ...]:
        flat: list[Fraction] = []
        for spec in self.branches:
            flat.extend(spec)
        flat.append(self.gamma)
        return tuple(flat)


def make_instance(branches: Sequence[Sequence], gamma) -> SpectralInstance:
    return SpectralInstance(
        branches=tuple(tuple(parse_fraction(a) for a in spec) for spec in branches),
        gamma=parse_fraction(gamma),
    )


@dataclass(frozen=True)
class GeneralizedDimension:
    """Ranks (n_0; n_k per branch level) of an algebra representation."""

    n0: int
    branches: tuple[tuple[int, ...], ...]

    def flat(self) -> tuple[int, ...]:
        out: list[int] = []
        for b in self.branches:
            out.extend(b)
        out.append(self.n0)
        return tuple(out)

    def is_nondegenerate(self) -> bool:
        ok = self.n0 >= 1
        for b in self.branches:
            ok = ok and all(v >= 1 for v in b) and sum(b) < self.n0
        return ok


def _check_graph(graph: StarGraph, lengths: Sequence[int]) -> None:
    if graph.branch_lengths != tuple(lengths):
        raise TransferError(
            f"branch lengths {tuple(lengths)} do not match graph "
            f"{graph.branch_lengths}"
        )


def _char_index_pairs(m: int) -> list[tuple[int, int]]:
    """(plus, minus) spectrum indices for branch positions inner to outer.

    Position 0 is the bare top value; afterwards the minus index starts at
    the bottom and the walk alternates bumping the plus index and shrinking
    the minus index: (0,-), (0,m-1), (1,m-1), (1,m-2), (2,m-2), ...
    """
    pairs = [(0, -1)]
    if m == 1:
        return pairs
    lo, hi = 0, m - 1
    pairs.append((lo, hi))
    bump_lo = True
    for _ in range(m - 2):
        if bump_lo:
            lo += 1
        else:
            hi -= 1
        bump_lo = not bump_lo
        pairs.append((lo, hi))
    return pairs


def char_from_chi(graph: StarGraph, inst: SpectralInstance) -> GVec:
    """Character of the instance: alternating-ends differences per branch.

    Walking a branch from the innermost vertex outward the values are
    a_1, a_1 - a_m, a_2 - a_m, a_2 - a_{m-1}, a_3 - a_{m-1}, ...; the root
    carries gamma.
    """
    _check_graph(graph, inst.branch_lengths)
    f = [Q(0)] * graph.n_vertices
    f[graph.root] = inst.gamma
    for path, spec in zip(graph.branches, inst.branches):
        m = len(spec)
        for i, (p, q) in enumerate(_char_index_pairs(m)):
            val = spec[p] - (spec[q] if q >= 0 else Q(0))
            f[path[m - 1 - i]] = val
    return tuple(f)


def chi_from_char(graph: StarGraph, f: GVec) -> SpectralInstance:
    """Left inverse of char_from_chi; rejects characters of invalid shape.

    Along one branch with values x_1 (leaf) .. x_m (inner) the spectrum
    comes back as alternating partial sums x_m, x_m - x_{m-1},
    x_m - x_{m-1} + x_{m-2}, ... distributed to the two ends of the
    spectrum in turns.
    """
    if len(f) != graph.n_vertices:
        raise TransferError("character/graph mismatch")
    branches: list[tuple[Fraction, ...]] = []
    for path in graph.branches:
        m = len(path)
        x = [Fraction(f[v]) for v in path]  # leaf .. inner
        spec = [Q(0)] * m
        lo, hi = 0, m - 1
        acc = Q(0)
        for t in range(m):
            acc = x[m - 1 - t] - acc  # (-1)^t times the t-th partial sum
            if t % 2 == 0:
                spec[lo] = acc
                lo += 1
            else:
                spec[hi] = -acc
                hi -= 1
        branches.append(tuple(spec))
    try:
        return SpectralInstance(branches=tuple(branches), gamma=Fraction(f[graph.root]))
    except TransferError as exc:
        raise TransferError(f"character does not define a valid instance: {exc}")


def _dim_windows(m: int) -> list[tuple[int, int]]:
    """Rank-window [lo, hi] per branch position inner to outer."""
    windows = [(0, m - 1)]
    lo, hi = 0, m - 1
    drop_lo = True
    for _ in range(m - 1):
        if drop_lo:
            lo += 1
        else:
            hi -= 1
        drop_lo = not drop_lo
        windows.append((lo, hi))
    return windows


def dim_from_n(graph: StarGraph, n: GeneralizedDimension) -> IVec:
    """Graph dimension from ranks: nested alternating-ends window sums."""
    _check_graph(graph, [len(b) for b in n.branches])
    d = [0] * graph.n_vertices
    d[graph.root] = n.n0
    for path, ranks in zip(graph.branches, n.branches):
        m = len(ranks)
        for i, (lo, hi) in enumerate(_dim_windows(m)):
            d[path[m - 1 - i]] = sum(ranks[lo:hi + 1])
    return tuple(d)


def n_from_dim(graph: StarGraph, d: GVec) -> GeneralizedDimension:
    """Ranks from a graph dimension; rejects negative differences.

    n_1 = d_m - d_{m-1}, n_m = d_{m-1} - d_{m-2}, n_2 = d_{m-2} - d_{m-3},
    and so on from the two ends in turns (indices below 1 read as zero).
    """
    if len(d) != graph.n_vertices:
        raise TransferError("dimension/graph mismatch")
    for v in d:
        if Fraction(v).denominator != 1 or v < 0:
            raise TransferError("dimensions must be nonnegative integers")
    branches: list[tuple[int, ...]] = []
    for path in graph.branches:
        m = len(path)
        x = [int(d[v]) for v in path]  # d_1 .. d_m, leaf .. inner
        ranks = [0] * m
        lo, hi = 0, m - 1
        for t in range(m):
            upper = x[m - 1 - t]
            lower = x[m - 2 - t] if m - 2 - t >= 0 else 0
            diff = upper - lower
            if diff < 0:
                raise TransferError(
                    "negative rank difference: not a valid generalized dimension"
                )
            if t % 2 == 0:
                ranks[lo] = diff
                lo += 1
            else:
                ranks[hi] = diff
                hi -= 1
        branches.append(tuple(ranks))
    return GeneralizedDimension(n0=int(d[graph.root]), branches=tuple(branches))


def nondegenerate_dim(graph: StarGraph, d: GVec) -> bool:
    """Strict chains 0 < d_leaf < ... < d_inner < d_root per branch."""
    d0 = d[graph.root]
    if d0 <= 0:
        return False
    for path in graph.branches:
        prev = 0
        for v in path:
            if d[v] <= prev:
                return False
            prev = d[v]
        if prev >= d0:
            return False
    return True


def nondegenerate_char(graph: StarGraph, f: GVec) -> bool:
    """Strict chains 0 < f_leaf < ... < f_inner per branch."""
    for path in graph.branches:
        prev = Q(0)
        for v in path:
            if f[v] <= prev:
                return False
            prev = f[v]
    return True


def mf_matrix(graph: StarGraph) -> QMat:
    """Matrix of char_from_chi: rows in vertex order, columns in chi order."""
    n = graph.n_vertices
    rows = [[Q(0)] * n for _ in range(n)]
    rows[graph.root][n - 1] = Q(1)
    offset = 0
    for path, m in zip(graph.branches, graph.branch_lengths):
        for i, (p, q) in enumerate(_char_index_pairs(m)):
            v = path[m - 1 - i]
            rows[v][offset + p] += 1
            if q >= 0:
                rows[v][offset + q] -= 1
        offset += m
    return tuple(tuple(r) for r in rows)


def md_matrix(graph: StarGraph) -> QMat:
    """Matrix of n_from_dim: rows in chi order (n0 last), columns in vertex
    order."""
    n = graph.n_vertices
    rows = [[Q(0)] * n for _ in range(n)]
    rows[n - 1][graph.root] = Q(1)
    offset = 0
    for path, m in zip(graph.branches, graph.branch_lengths):
        lo, hi = 0, m - 1
        for t in range(m):
            row = offset + (lo if t % 2 == 0 else hi)
            rows[row][path[m - 1 - t]] += 1
            if m - 2 - t >= 0:
                rows[row][path[m - 2 - t]] -= 1
            if t % 2 == 0:
                lo += 1
            else:
                hi -= 1
        offset += m
    return tuple(tuple(r) for r in rows)


def trace_pairing(inst: SpectralInstance, n: GeneralizedDimension) -> Fraction:
    """sum over branches of sum_k alpha_k n_k, minus gamma n_0."""
    total = Q(0)
    for spec, ranks in zip(inst.branches, n.branches):
        total += sum(a * r for a, r in zip(spec, ranks))
    return total - inst.gamma * n.n0
