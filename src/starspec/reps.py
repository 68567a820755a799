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

Every step keeps the dtype of its input.  The simple seed is real and the
reflection functors, `canonicalize`, `to_algebra_rep` and
`from_algebra_rep` only take kernels, isometries and eigenprojections of
what they are given, so a rational character yields real float64 matrices
end to end.  Only the hyperplane optimizer works over C.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coxeter import EVEN, DimCharPair, Token, coxeter_char
from .feasibility import FeasibilityError, _walk_pair, horn_check_e6
from .graph import GVec, StarGraph
from .transfer import (
    GeneralizedDimension,
    SpectralInstance,
    _windows,
    char_from_chi,
    chi_from_char,
    n_from_dim,
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

    def copy(self) -> "GraphRep":
        return GraphRep(
            graph=self.graph,
            dims=self.dims,
            ops={k: v.copy() for k, v in self.ops.items()},
            character=self.character,
        )


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


def _kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(m) as columns, in the dtype of m."""
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), m.dtype)
    if rows == 0:
        return np.eye(cols, dtype=m.dtype)
    u, s, vh = np.linalg.svd(m)
    tol = max(rows, cols) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > max(tol, 1e-10 * (s[0] if s.size else 1.0))))
    return vh.conj().T[:, rank:]


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
    edge_set = set(graph.edges)
    for v in act:
        nb = graph.neighbors[v]
        blocks = [rep.gamma(v, h) for h in nb]
        assembled = np.hstack(blocks) if blocks else np.zeros((rep.dims[v], 0))
        k_basis = _kernel_basis(assembled)
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
            if (v, h) in edge_set:
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


def canonicalize(graph: StarGraph, rep: GraphRep) -> GraphRep:
    """Unitary change of basis bringing non-root edges to diagonal form.

    Sweeps each branch from the leaf inward: at every step the inward space
    splits into the kernel of the outward map plus isometry slices aligned
    with the outer vertex's already-fixed slots, so the outward map becomes
    a zero block next to positive multiples of identity blocks.  Root-edge
    maps keep all remaining freedom.
    """
    if rep.character is None:
        raise RepError("canonicalize needs the representation character")
    out = rep.copy()
    for path in graph.branches:
        m = len(path)
        # slot bases at the previously processed (outer) vertex, as an
        # ordered list of orthonormal column blocks in current coordinates
        prev_slots: list[np.ndarray] = [np.eye(out.dims[path[0]])]
        for t in range(1, m):
            u_vtx, v_vtx = path[t - 1], path[t]
            mat = out.gamma(u_vtx, v_vtx)  # H_v -> H_u
            k_basis = _kernel_basis(mat)
            cols: list[np.ndarray] = []
            # v sits at position m - 1 - t and its window holds the one
            # spectral index that position drops; the new kernel slot sits
            # at that end, the low end when the position is even
            drop_front = (m - 1 - t) % 2 == 0
            if drop_front:
                cols.append(k_basis)
            for slot in prev_slots:
                # rows of `mat` in this slot: isometry times a scalar
                rows = slot.conj().T @ mat
                scal = float(np.sqrt(max(np.real(np.trace(rows @ rows.conj().T))
                                         / max(1, slot.shape[1]), 0.0)))
                if scal <= 1e-12:
                    raise RepError("vanishing canonical block; degenerate input")
                cols.append(rows.conj().T / scal)
            if not drop_front:
                cols.append(k_basis)
            v_unitary = np.hstack(cols)
            # re-gauge all edges at v
            _apply_vertex_unitary(out, v_vtx, v_unitary.conj().T)
            # new slot list at v, in the same order as the columns
            new_slots = []
            off = 0
            for c in cols:
                w = c.shape[1]
                basis = np.zeros((out.dims[v_vtx], w))
                basis[off:off + w, :] = np.eye(w)
                new_slots.append(basis)
                off += w
            prev_slots = new_slots
    return out


def _apply_vertex_unitary(rep: GraphRep, v: int, u: np.ndarray) -> None:
    """Replace the basis of H_v: new maps are u Gamma or Gamma u^*."""
    for (far, near), mat in list(rep.ops.items()):
        if near == v:
            rep.ops[(far, near)] = u @ mat
        elif far == v:
            rep.ops[(far, near)] = mat @ u.conj().T


def to_algebra_rep(
    graph: StarGraph, rep: GraphRep, inst: Optional[SpectralInstance] = None,
    tol: float = 1e-8,
) -> "AlgebraRep":
    """Extract the tuple of spectral projections from a graph representation.

    The branch operator at the root is the in-out composition over the root
    edge; its eigenspaces at the prescribed spectrum points give the
    projections, with ranks matching the generalized dimension.
    """
    if rep.character is None:
        raise RepError("to_algebra_rep needs the representation character")
    if inst is None:
        inst = chi_from_char(graph, rep.character)
    if not nondegenerate_dim(graph, rep.dims):
        raise RepError("representation dimension is degenerate")
    n = n_from_dim(graph, rep.dims)
    n0 = rep.dims[graph.root]
    branch_projs: list[tuple[np.ndarray, ...]] = []
    for j, path in enumerate(graph.branches):
        inner = path[-1]
        t_map = rep.gamma(graph.root, inner)
        a_op = t_map @ t_map.conj().T
        evals, evecs = np.linalg.eigh(a_op)
        spec = [float(a) for a in inst.branches[j]]
        ranks = n.branches[j]
        projs = []
        used = np.zeros(len(evals), dtype=bool)
        for a, r in zip(spec, ranks):
            idx = [i for i in range(len(evals))
                   if not used[i] and abs(evals[i] - a) <= tol * max(1.0, abs(a))]
            if len(idx) != r:
                raise RepError(
                    f"eigenvalue {a} of branch {j + 1} has multiplicity "
                    f"{len(idx)}, expected {r}"
                )
            for i in idx:
                used[i] = True
            basis = evecs[:, idx]
            projs.append(basis @ basis.conj().T)
        leftovers = [evals[i] for i in range(len(evals)) if not used[i]]
        if any(abs(e) > tol for e in leftovers):
            raise RepError(f"unexpected eigenvalues {leftovers} on branch {j + 1}")
        branch_projs.append(tuple(projs))
    return AlgebraRep(instance=inst, n0=n0, projections=tuple(branch_projs))


def from_algebra_rep(graph: StarGraph, arep: "AlgebraRep") -> GraphRep:
    """Forward matrix construction: graph representation from projections.

    Branch spaces are direct sums of the projection images grouped by the
    transfer windows; non-root edge maps are block-diagonal scaled
    identities (scalars are spectrum differences against the index the next
    window drops), and root edges stack the image isometries weighted by
    the square roots of the spectrum.
    """
    inst = arep.instance
    if inst.branch_lengths != graph.branch_lengths:
        raise RepError("representation does not match the graph")
    if tuple(map(len, arep.projections)) != inst.branch_lengths:
        raise RepError("projection counts do not match the instance spectra")
    n0 = arep.n0
    dims = [0] * graph.n_vertices
    dims[graph.root] = n0
    ops: dict[tuple[int, int], np.ndarray] = {}
    for j, path in enumerate(graph.branches):
        spec = [float(a) for a in inst.branches[j]]
        m = len(path)
        outward = path[::-1]
        # isometries onto the projection images
        isos = []
        for p in arep.projections[j]:
            evals, evecs = np.linalg.eigh(p)
            isos.append(evecs[:, evals > 0.5])
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
    rep = GraphRep(
        graph=graph,
        dims=tuple(dims),
        ops=ops,
        character=char_from_chi(graph, inst),
    )
    return rep


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

    def generalized_dimension(self) -> GeneralizedDimension:
        ranks = tuple(
            tuple(int(round(float(np.real(np.trace(p))))) for p in branch)
            for branch in self.projections
        )
        return GeneralizedDimension(n0=self.n0, branches=ranks)


# optimizer budget and residuals of build_hyperplane_rep: a restart stops
# iterating below the target and is accepted below the acceptance residual
_RESTARTS = 32
_MAX_ITERS = 10_000
_TARGET_RESIDUAL = 1e-10
_ACCEPT_RESIDUAL = 1e-8


def build_hyperplane_rep(inst: SpectralInstance, seed: int = 0) -> AlgebraRep:
    """Numerical constructor for the minimal imaginary-root dimension.

    Minimizes the Frobenius distance of the weighted projection sum from
    gamma I over unitary orbits with fixed spectra, by cyclic eigenvector
    alignment: each branch operator is re-diagonalized against what the
    other branches leave over.  Restarts are seeded deterministically and
    start from random unitaries, so the projections are complex128.
    """
    if inst.branch_lengths != (2, 2, 2):
        raise FeasibilityError("hyperplane constructor applies to the (2,2,2) star")
    check = horn_check_e6(inst)
    if not check.feasible:
        raise FeasibilityError(f"instance is not Horn-feasible: {check.status}")
    gamma = float(inst.gamma)
    diags = [np.array([float(a) for a in spec] + [0.0]) for spec in inst.branches]
    n = 3
    best = None
    for r in range(_RESTARTS):
        rng = np.random.default_rng((seed, r))
        units = []
        for _ in range(3):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(z)
            units.append(q)
        ops = [u @ np.diag(dg) @ u.conj().T for u, dg in zip(units, diags)]
        res = np.inf
        for it in range(_MAX_ITERS):
            for j in range(3):
                target = gamma * np.eye(n) - sum(ops[i] for i in range(3) if i != j)
                target = (target + target.conj().T) / 2
                evals, evecs = np.linalg.eigh(target)
                order = np.argsort(evals)[::-1]
                u = evecs[:, order]
                units[j] = u
                ops[j] = u @ np.diag(diags[j]) @ u.conj().T
            res = float(np.linalg.norm(sum(ops) - gamma * np.eye(n)))
            if res < _TARGET_RESIDUAL:
                break
        if res < _ACCEPT_RESIDUAL:
            projections = tuple(
                tuple(
                    np.outer(units[j][:, i], units[j][:, i].conj())
                    for i in range(2)
                )
                for j in range(3)
            )
            rep = AlgebraRep(instance=inst, n0=3, projections=projections)
            from .verify import commutant_dimension

            if commutant_dimension(rep) == 1:
                return rep
            best = best or "reducible"
    detail = (
        "every converged restart was reducible" if best else
        f"no restart reached residual {_ACCEPT_RESIDUAL}"
    )
    raise ConstructionError(
        f"construction failed: {detail} (existence is asserted by the "
        "Horn criterion; this indicates a numerical failure, not infeasibility)"
    )
