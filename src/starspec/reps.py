"""Explicit matrix representations.

Graph representations assign a Hilbert space to each vertex and a map to
each edge (stored in the rootward direction; the opposite map is the
adjoint).  Locally scalar means every vertex operator, the sum of in-out
compositions over incident edges, is a scalar multiple of the identity;
the scalars form the character.

The reflection functors rebuild the spaces of one parity class from the
kernels of the assembled incident maps, scaled by the square root of the
character there.  Replaying a reduction schedule upward from a
one-dimensional seed constructs an irreducible representation in any
feasible real-root dimension; the level-hyperplane case is handled by a
small alternating eigenvector-alignment optimizer instead.

Graph and algebra representations meet at the root: `_eigenspaces` splits
each root branch operator T T^* by the ranks of the dimension, largest
eigenvalues first, and `_layout` lays a branch out along the transfer
windows.  `to_algebra_rep` returns the eigenprojections, `canonicalize`
lays out the eigenspaces and `from_algebra_rep` given projection images.

Every step keeps the dtype of its input.  The simple seed is real and the
reflection functors, `canonicalize`, `to_algebra_rep` and
`from_algebra_rep` only take kernels, isometries and eigenprojections of
what they are given, so a rational character yields real float64 matrices
end to end.  Only the hyperplane optimizer works over C.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .coxeter import EVEN, DimCharPair, Token, coxeter_char
# Public functions of other layers are called through their modules: a name
# copied by `from ... import` keeps the binding of the moment this module is
# imported, which may be a wrapper later undone (perfbench's tracer rebinds
# them while set-up imports this module).
from . import feasibility, transfer, verify
from .feasibility import FeasibilityError, _walk_pair
from .graph import GVec, StarGraph
from .transfer import (
    RTOL,
    GeneralizedDimension,
    SpectralInstance,
    _windows,
    instance_scale,
    nondegenerate_dim,
)


class RepError(RuntimeError):
    pass


class ConstructionError(RepError):
    """The numerical constructor failed to reach its target residual."""


@dataclass
class GraphRep:
    """Finite-dimensional representation of a star graph.

    ``ops[(far, near)]`` holds the rootward map H_far -> H_near for each
    edge, with ``far`` the endpoint farther from the root; the leafward map
    is its adjoint.  ``character`` is attached when known.
    """

    graph: StarGraph
    dims: tuple[int, ...]
    ops: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    character: Optional[GVec] = None

    def gamma(self, a: int, b: int) -> np.ndarray:
        """Edge map H_b -> H_a for adjacent vertices a, b."""
        if (b, a) in self.ops:
            return self.ops[(b, a)]
        if (a, b) in self.ops:
            return self.ops[(a, b)].conj().T
        raise RepError(f"({a},{b}) is not an edge")

    def vertex_operator(self, g: int) -> np.ndarray:
        out = np.zeros((self.dims[g], self.dims[g]))
        for h in self.graph.neighbors[g]:
            m = self.gamma(g, h)
            out = out + m @ m.conj().T
        return out


def _zero_ops(graph: StarGraph, dims: Sequence[int]) -> dict:
    out = {}
    for far, near in graph.edges:
        out[(far, near)] = np.zeros((dims[near], dims[far]))
    return out


def simple_rep(graph: StarGraph, g: int, character: Optional[GVec] = None) -> GraphRep:
    """One-dimensional space at g, zero elsewhere; all edge maps zero."""
    if not 0 <= g < graph.n_vertices:
        raise RepError(f"unknown vertex {g}")
    dims = tuple(int(v == g) for v in range(graph.n_vertices))
    if character is not None and character[g] != 0:
        raise RepError("a simple representation has character value 0 at its vertex")
    return GraphRep(
        graph=graph, dims=dims, ops=_zero_ops(graph, dims), character=character
    )


def _kernel_basis(m: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of ker(m) as columns, in the dtype of m.  The rank
    counts the singular values above 1e-10 times the largest; ``dim``, the
    expected kernel dimension, is confirmed by the two singular values
    around rank ``cols - dim``, and only when they disagree are all of them
    counted."""
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=m.dtype)
    u, s, vh = np.linalg.svd(m)
    floor = 1e-10 * s[0]
    rank = cols - dim
    if not (0 <= rank <= len(s) and (rank == 0 or s[rank - 1] > floor)
            and (rank == len(s) or s[rank] <= floor)):
        rank = int(np.sum(s > floor))
    return vh[rank:].conj().T


def reflect_rep(
    graph: StarGraph, token: Token, rep: GraphRep, pair: DimCharPair
) -> GraphRep:
    """Matrix-level reflection functor for one parity class.

    The new space at each token-parity vertex is the kernel of the
    assembled incident map; the new edge blocks are the kernel-inclusion
    slices scaled by sqrt of the character value there.  The output is
    locally scalar with the transformed pair.
    """
    d, f = pair
    if tuple(d) != rep.dims:
        raise RepError("pair dimension does not match the representation")
    # validates the domain; rep.dims equals d and keeps the new dims ints
    new_pair = coxeter_char(graph, token, DimCharPair(rep.dims, f))
    return _reflect(graph, token, rep, new_pair.d, [float(v) for v in f],
                    new_pair.f)


def _reflect(
    graph: StarGraph, token: Token, rep: GraphRep, new_dims: tuple[int, ...],
    weights: Sequence[float], character: Optional[GVec],
) -> GraphRep:
    """The matrix step of ``reflect_rep`` into ``new_dims``: the kernel at
    each token-parity vertex v is scaled by sqrt(weights[v])."""
    act = graph.even if token == EVEN else graph.odd
    new_rep = GraphRep(graph=graph, dims=new_dims, character=character)
    ops = rep.ops
    for v in act:
        nb = graph.neighbors[v]
        # the blocks H_h -> H_v: the adjoint of the stored map when v is the
        # far endpoint, else the stored map itself
        blocks = [ops[(v, h)].conj().T if (v, h) in ops else ops[(h, v)]
                  for h in nb]
        # every vertex of a star has a neighbour
        assembled = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        k_basis = _kernel_basis(assembled, new_dims[v])
        if k_basis.shape[1] != new_dims[v]:
            raise RepError(
                f"kernel dimension {k_basis.shape[1]} at vertex {v} does not "
                f"match the reflected dimension {new_dims[v]}"
            )
        scale = float(np.sqrt(weights[v]))
        off = 0
        for h in nb:
            dh = rep.dims[h]
            block = k_basis[off:off + dh, :]  # maps H_v^new into H_h
            off += dh
            if (v, h) in ops:
                # v is the far endpoint: store Gamma_{h,v} = H_v^new -> H_h
                new_rep.ops[(v, h)] = scale * block
            else:
                # h is the far endpoint: store Gamma_{v,h} = H_h -> H_v^new
                new_rep.ops[(h, v)] = scale * block.conj().T
    return new_rep


def build_graph_rep(graph: StarGraph, d: GVec, f: GVec) -> GraphRep:
    """Construct an irreducible locally scalar representation with (d, f).

    Requires the pair to be feasible.  Replays the states of its
    feasibility walk upward from the simple representation at the terminal
    vertex: each step takes its dimension from the state and its character
    from the walk's integer entries over their common denominator (int / int
    rounds correctly, as float(Fraction) does).
    """
    verdict, states, scale = _walk_pair(graph, d, f, False)
    if not verdict.feasible:
        raise FeasibilityError(f"({list(d)}, f) is not feasible: {verdict.status}")
    rep = simple_rep(graph, states[-1][0].index(1))
    for dcur, token, fcur in reversed(states[:-1]):
        rep = _reflect(graph, token, rep, dcur, [x / scale for x in fcur], None)
    rep.character = tuple(f)
    return rep


def _eigenspaces(graph: StarGraph, rep: GraphRep) -> list:
    """Eigenspaces of each root branch operator T T^*, split by rank.

    Per branch, a list of (eigenvalues, eigenvector columns) blocks in the
    ranks of ``n_from_dim(rep.dims)``, largest spectral value first, then
    the remaining block, the kernel.  Columns keep eigh's ascending order.
    """
    if not nondegenerate_dim(graph, rep.dims):
        raise RepError("representation dimension is degenerate")
    n = transfer.n_from_dim(graph, rep.dims)
    out = []
    for path, ranks in zip(graph.branches, n.branches):
        t_map = rep.gamma(graph.root, path[-1])
        evals, evecs = np.linalg.eigh(t_map @ t_map.conj().T)
        # block bounds from the top: n0, n0 - r_1, n0 - r_1 - r_2, ..., 0
        cuts = [len(evals) - c for c in accumulate(ranks, initial=0)] + [0]
        out.append([(evals[lo:hi], evecs[:, lo:hi]) for hi, lo in zip(cuts, cuts[1:])])
    return out


def canonicalize(graph: StarGraph, rep: GraphRep) -> GraphRep:
    """Canonical form: the forward layout of the root eigenspaces.

    Splits each root branch operator into eigenspaces by the ranks of the
    dimension and lays them out as ``from_algebra_rep`` does, with each
    block's mean eigenvalue as its spectral value: non-root edges become a
    zero block next to positive multiples of identity blocks, the root
    basis is kept and root-edge maps carry all remaining freedom.
    """
    if rep.character is None:
        raise RepError("canonicalize needs the representation character")
    split = [blocks[:-1] for blocks in _eigenspaces(graph, rep)]  # no kernels
    spectra = [[float(np.mean(vals)) for vals, _ in b] for b in split]
    isometries = [[vecs for _, vecs in b] for b in split]
    return _layout(graph, spectra, rep.dims[graph.root], isometries, rep.character)


def to_algebra_rep(
    graph: StarGraph, rep: GraphRep, inst: Optional[SpectralInstance] = None,
) -> "AlgebraRep":
    """Extract the tuple of spectral projections from a graph representation.

    The branch operator at the root is the in-out composition over the root
    edge.  Its eigenspaces, taken largest first in the ranks of the
    generalized dimension, give the projections; each block must lie at its
    spectrum point and the rest at 0, within verify's bound ``RTOL * s``
    (``transfer.instance_scale``): an eigenvalue off by more would show in
    the weighted sum of the projections.
    """
    if rep.character is None:
        raise RepError("to_algebra_rep needs the representation character")
    if inst is None:
        inst = transfer.chi_from_char(graph, rep.character)
    if inst.branch_lengths != graph.branch_lengths:
        raise RepError("instance does not match the graph")
    split = _eigenspaces(graph, rep)
    bound = RTOL * instance_scale(inst)
    for j, (spec, blocks) in enumerate(zip(inst.branches, split)):
        for a, (vals, _) in zip([*map(float, spec), 0.0], blocks):
            if np.any(np.abs(vals - a) > bound):
                raise RepError(f"eigenvalues {vals.tolist()} of branch {j + 1} "
                               f"are not within {bound:.3g} of {a}")
    projections = tuple(tuple(vecs @ vecs.conj().T for _, vecs in blocks[:-1])
                        for blocks in split)
    return AlgebraRep(instance=inst, n0=rep.dims[graph.root], projections=projections)


def from_algebra_rep(graph: StarGraph, arep: "AlgebraRep") -> GraphRep:
    """Forward matrix construction: graph representation from projections,
    laid out by ``_layout`` on the isometries onto the projection images."""
    inst = arep.instance
    if inst.branch_lengths != graph.branch_lengths:
        raise RepError("representation does not match the graph")
    if tuple(map(len, arep.projections)) != inst.branch_lengths:
        raise RepError("projection counts do not match the instance spectra")
    eigs = [[np.linalg.eigh(p) for p in branch] for branch in arep.projections]
    isometries = [[vecs[:, vals > 0.5] for vals, vecs in branch] for branch in eigs]
    spectra = [[float(a) for a in spec] for spec in inst.branches]
    return _layout(graph, spectra, arep.n0, isometries,
                   transfer.char_from_chi(graph, inst))


def _layout(
    graph: StarGraph, spectra: Sequence[Sequence[float]], n0: int,
    isometries: Sequence[Sequence[np.ndarray]], character: Optional[GVec],
) -> GraphRep:
    """Graph representation laid out from root isometries and spectra.

    Branch spaces are direct sums of the isometry images grouped by the
    transfer windows; non-root edge maps are block-diagonal scaled
    identities (scalars are spectrum differences against the index the next
    window drops), and root edges stack the isometries weighted by the
    square roots of the spectrum.
    """
    dims = [0] * graph.n_vertices
    dims[graph.root] = n0
    ops: dict[tuple[int, int], np.ndarray] = {}
    for path, spec, isos in zip(graph.branches, spectra, isometries):
        m = len(path)
        outward = path[::-1]
        ranks = [iso.shape[1] for iso in isos]
        windows = _windows(m)
        for v, (lo, hi) in zip(outward, windows):
            dims[v] = sum(ranks[lo:hi + 1])
        # root edge: the innermost vertex, window [0, m - 1], into H_0
        ops[(outward[0], graph.root)] = np.hstack(
            [np.sqrt(spec[s]) * isos[s] for s in range(m)]
        )
        # branch edges: position i (near the root) vs position i + 1
        for i in range(m - 1):
            lo_v, hi_v = windows[i]
            lo_u, hi_u = windows[i + 1]
            v_vtx, u_vtx = outward[i], outward[i + 1]
            mat = np.zeros((dims[u_vtx], dims[v_vtx]))
            row = 0
            for s in range(lo_u, hi_u + 1):
                if lo_u > lo_v:  # the low spectral index was dropped
                    scal = np.sqrt(spec[lo_v] - spec[s])
                else:            # the high spectral index was dropped
                    scal = np.sqrt(spec[s] - spec[hi_v])
                col = sum(ranks[lo_v:s])
                mat[row:row + ranks[s], col:col + ranks[s]] = (
                    scal * np.eye(ranks[s])
                )
                row += ranks[s]
            # store the rootward map H_u -> H_v (u is farther out)
            ops[(u_vtx, v_vtx)] = mat.conj().T
    return GraphRep(graph=graph, dims=tuple(dims), ops=ops, character=character)


@dataclass
class AlgebraRep:
    """Tuple of orthoprojections P_k per branch with sum_k a_k P_k summing
    to gamma times the identity across branches."""

    instance: SpectralInstance
    n0: int
    projections: tuple[tuple[np.ndarray, ...], ...]

    def branch_operator(self, j: int) -> np.ndarray:
        out = np.zeros((self.n0, self.n0))
        for a, p in zip(self.instance.branches[j], self.projections[j]):
            out = out + float(a) * p
        return out

    def weighted_sum(self) -> np.ndarray:
        out = np.zeros((self.n0, self.n0))
        for j in range(len(self.projections)):
            out = out + self.branch_operator(j)
        return out

    def residual(self) -> float:
        """Largest entry modulus of the weighted sum minus gamma I."""
        return float(np.abs(self.weighted_sum()
                            - float(self.instance.gamma) * np.eye(self.n0)).max())

    def generalized_dimension(self) -> GeneralizedDimension:
        ranks = tuple(
            tuple(int(round(float(np.real(np.trace(p))))) for p in branch)
            for branch in self.projections
        )
        return GeneralizedDimension(n0=self.n0, branches=ranks)


# optimizer budget of build_hyperplane_rep
_RESTARTS = 32
_MAX_ITERS = 10_000


def build_hyperplane_rep(inst: SpectralInstance, seed: int = 0) -> AlgebraRep:
    """Numerical constructor for the minimal imaginary-root dimension.

    Minimizes the Frobenius distance of the weighted projection sum from
    gamma I over unitary orbits with fixed spectra, by cyclic eigenvector
    alignment: each branch operator is re-diagonalized against what the
    other branches leave over.  Restarts are seeded deterministically and
    start from random unitaries, so the projections are complex128.  A
    restart iterates until its Frobenius residual is below a tenth of
    verify's bound ``RTOL * s``, and is accepted only when
    ``verify_algebra_rep`` passes it and its commutant is one-dimensional.
    """
    if inst.branch_lengths != (2, 2, 2):
        raise FeasibilityError("hyperplane constructor applies to the (2,2,2) star")
    check = feasibility.horn_check_e6(inst)
    if not check.feasible:
        raise FeasibilityError(f"instance is not Horn-feasible: {check.status}")
    gamma = float(inst.gamma)
    diags = [np.array([float(a) for a in spec] + [0.0]) for spec in inst.branches]
    stop = RTOL * instance_scale(inst) / 10
    n = 3
    reducible = False
    for r in range(_RESTARTS):
        rng = np.random.default_rng((seed, r))
        units = []
        for _ in range(3):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(z)
            units.append(q)
        ops = [u @ np.diag(dg) @ u.conj().T for u, dg in zip(units, diags)]
        for _ in range(_MAX_ITERS):
            for j in range(3):
                target = gamma * np.eye(n) - sum(ops[i] for i in range(3) if i != j)
                target = (target + target.conj().T) / 2
                evals, evecs = np.linalg.eigh(target)
                order = np.argsort(evals)[::-1]
                u = evecs[:, order]
                units[j] = u
                ops[j] = u @ np.diag(diags[j]) @ u.conj().T
            if np.linalg.norm(sum(ops) - gamma * np.eye(n)) < stop:
                break
        projections = tuple(
            tuple(np.outer(units[j][:, i], units[j][:, i].conj()) for i in range(2))
            for j in range(3)
        )
        rep = AlgebraRep(instance=inst, n0=3, projections=projections)
        if verify.verify_algebra_rep(rep).overall:
            if verify.commutant_dimension(rep) == 1:
                return rep
            reducible = True
    detail = (
        "every verified restart was reducible" if reducible else
        "no restart passed verification"
    )
    raise ConstructionError(
        f"construction failed: {detail} (existence is asserted by the "
        "Horn criterion; this indicates a numerical failure, not infeasibility)"
    )
