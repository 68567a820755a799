"""Transfer between spectral data and graph data.

A spectral instance consists of one strictly decreasing positive spectrum
per branch plus the level gamma; flattened (branch by branch, gamma last)
it is the parameter vector chi.  On the graph side the same data appears as
a character f, and generalized dimensions n (ranks of the spectral
projections plus the ambient dimension) appear as dimension vectors d.

Every map rests on one window rule.  Number the vertices of a branch with m
spectral points by position, 0 at the innermost vertex and m - 1 at the
leaf.  Position i carries a window [lo, hi] of spectrum indices: position 0
carries [0, m - 1], and stepping outward from position i drops lo when i is
even and hi when i is odd, giving [0, m-1], [1, m-1], [1, m-2], [2, m-2], ...
The dimension at position i is the rank sum over its window; the rank at the
index position i drops is its dimension minus the next one out.  The
character is a_1 at position 0 and a_lo - a_hi over window i - 1 at
position i >= 1.  Both directions are unimodular over the integers.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .graph import ODD, GVec, IVec, StarGraph
from .rational import IMat, Q, matrix_of, parse_fraction


class TransferError(ValueError):
    pass


class _SpectralFields(NamedTuple):
    branches: tuple[tuple[Fraction, ...], ...]
    gamma: Fraction


class SpectralInstance(_SpectralFields):
    """Target spectra per branch (strictly decreasing, positive) and gamma.

    The zero eigenvalue every branch operator may carry is implicit and not
    stored.  Every construction checks the spectra, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, branches: tuple[tuple[Fraction, ...], ...], gamma: Fraction):
        for j, spec in enumerate(branches):
            if not spec:
                raise TransferError(f"branch {j + 1} has an empty spectrum")
            if any(a <= 0 for a in spec):
                raise TransferError(f"branch {j + 1} spectrum must be positive")
            if any(a <= b for a, b in zip(spec, spec[1:])):
                raise TransferError(
                    f"branch {j + 1} spectrum must be strictly decreasing"
                )
        return super().__new__(cls, branches, gamma)

    @classmethod
    def _make(cls, iterable) -> SpectralInstance:
        return cls(*iterable)

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


# the relative bound of every residual that carries an instance's scale (see
# `verify`).  Over the construct-verify benchmark inputs of seeds 1-3 the
# worst weighted-sum residual is 5.8e-13 s, from the hyperplane optimizer,
# which stops at a tenth of this bound; reflection-functor reps stay below
# 3.1e-15 s
RTOL = 1e-11


def instance_scale(inst: SpectralInstance) -> float:
    """s = max(|gamma|, a_1 of each branch), the scale that ``RTOL``
    multiplies; a_1 is the largest point of a branch spectrum."""
    return max(abs(float(inst.gamma)), *(float(spec[0]) for spec in inst.branches))


class GeneralizedDimension(NamedTuple):
    """Ranks (n_0; n_k per branch level) of an algebra representation."""

    n0: int
    branches: tuple[tuple[int, ...], ...]

    def flat(self) -> tuple[int, ...]:
        out: list[int] = []
        for b in self.branches:
            out.extend(b)
        out.append(self.n0)
        return tuple(out)


def _check_graph(graph: StarGraph, lengths: Sequence[int]) -> None:
    if graph.branch_lengths != tuple(lengths):
        raise TransferError(
            f"branch lengths {tuple(lengths)} do not match graph "
            f"{graph.branch_lengths}"
        )


def _windows(m: int) -> tuple[tuple[int, int], ...]:
    """Window [lo, hi] of spectrum indices per branch position, innermost
    first; position i drops lo when i is even and hi when i is odd."""
    return tuple(((i + 1) // 2, m - 1 - i // 2) for i in range(m))


def char_from_chi(graph: StarGraph, inst: SpectralInstance) -> GVec:
    """Character of the instance: alternating-ends differences per branch.

    Walking a branch from the innermost vertex outward the values are
    a_1, a_1 - a_m, a_2 - a_m, a_2 - a_{m-1}, a_3 - a_{m-1}, ...; the root
    carries gamma.
    """
    _check_graph(graph, inst.branch_lengths)
    return _char(graph, inst.chi())


def _char(graph: StarGraph, chi: Sequence) -> tuple:
    """``char_from_chi`` on a flat chi of the graph's shape, unchecked."""
    f = [0] * graph.n_vertices
    f[graph.root] = chi[-1]
    offset = 0
    for path, m in zip(graph.branches, graph.branch_lengths):
        outward = path[::-1]
        f[outward[0]] = chi[offset]
        for v, (lo, hi) in zip(outward[1:], _windows(m)):
            f[v] = chi[offset + lo] - chi[offset + hi]
        offset += m
    return tuple(f)


def chi_from_char(graph: StarGraph, f: GVec) -> SpectralInstance:
    """Left inverse of char_from_chi; rejects characters of invalid shape.

    Along one branch, walking outward from the inner vertex, the alternating
    partial sums x_inner, x_inner - x_next, ... are the spectrum values at
    the indices the positions drop, negated at odd positions.
    """
    if len(f) != graph.n_vertices:
        raise TransferError("character/graph mismatch")
    branches: list[tuple[Fraction, ...]] = []
    for path in graph.branches:
        m = len(path)
        x = [Fraction(f[v]) for v in path]  # leaf .. inner
        spec = [Q(0)] * m
        acc = Q(0)
        for t, (lo, hi) in enumerate(_windows(m)):
            acc = x[m - 1 - t] - acc  # (-1)^t times the t-th partial sum
            if t % 2:
                spec[hi] = -acc
            else:
                spec[lo] = acc
        branches.append(tuple(spec))
    try:
        return SpectralInstance(branches=tuple(branches), gamma=Fraction(f[graph.root]))
    except TransferError as exc:
        raise TransferError(f"character does not define a valid instance: {exc}")


def dim_from_n(graph: StarGraph, n: GeneralizedDimension) -> IVec:
    """Graph dimension from ranks: rank sums over the windows."""
    _check_graph(graph, [len(b) for b in n.branches])
    d = [0] * graph.n_vertices
    d[graph.root] = n.n0
    for path, ranks in zip(graph.branches, n.branches):
        for v, (lo, hi) in zip(path[::-1], _windows(len(ranks))):
            d[v] = sum(ranks[lo:hi + 1])
    return tuple(d)


def n_from_dim(graph: StarGraph, d: GVec) -> GeneralizedDimension:
    """Ranks from a graph dimension; rejects negative differences.

    The rank at the index position t drops is d at position t minus d at
    position t + 1 (zero beyond the leaf).
    """
    if len(d) != graph.n_vertices:
        raise TransferError("dimension/graph mismatch")
    ints = [int(v) for v in d]
    if ints != list(d) or min(ints) < 0:
        raise TransferError("dimensions must be nonnegative integers")
    branches: list[tuple[int, ...]] = []
    for path in graph.branches:
        m = len(path)
        x = [ints[v] for v in path[::-1]] + [0]  # inner .. leaf, then zero
        ranks = [0] * m
        for t, (lo, hi) in enumerate(_windows(m)):
            diff = x[t] - x[t + 1]
            if diff < 0:
                raise TransferError(
                    "negative rank difference: not a valid generalized dimension"
                )
            ranks[hi if t % 2 else lo] = diff
        branches.append(tuple(ranks))
    return GeneralizedDimension(n0=ints[graph.root], branches=tuple(branches))


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


def mf_matrix(graph: StarGraph) -> IMat:
    """Matrix of char_from_chi: rows in vertex order, columns in chi order,
    read off its window rule on the unit chi vectors."""
    return matrix_of(lambda chi: _char(graph, chi), graph.n_vertices)


def md_matrix(graph: StarGraph) -> IMat:
    """Matrix of n_from_dim: rows in chi order (n0 last), columns in vertex
    order.

    It is the signed transpose of ``mf_matrix``, by the trace identity
    sum_k a_k n_k - gamma n0 = -P(d, f), with P(d, f) = sum eps_v d_v f_v
    and eps = +1 on odd and -1 on even vertices (``coxeter.pairing``):
    md[i][v] = s_i * eps_v * mf[v][i], with s = -1 on the spectrum rows and
    +1 on the n0 row.
    """
    n = graph.n_vertices
    mf = mf_matrix(graph)
    eps = [1 if p == ODD else -1 for p in graph.parity]
    return tuple(
        tuple((1 if i == n - 1 else -1) * eps[v] * mf[v][i] for v in range(n))
        for i in range(n)
    )


def trace_pairing(inst: SpectralInstance, n: GeneralizedDimension) -> Fraction:
    """sum over branches of sum_k alpha_k n_k, minus gamma n_0."""
    total = Q(0)
    for spec, ranks in zip(inst.branches, n.branches):
        total += sum(a * r for a, r in zip(spec, ranks))
    return total - inst.gamma * n.n0
