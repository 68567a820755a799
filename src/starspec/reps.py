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
feasible real-root dimension, and a Levenberg-Marquardt optimizer over
orthogonal orbits sized by delta's ranks does so in the imaginary root delta.

`build_graph_rep` replays a nondegenerate dimension on the root branch
operators A_j = T_j T_j^* alone, since the algebra side reads nothing
else: by local scalarity a step at the inner vertices is A_j <- f_v I - A_j,
a step at the root takes one stacked eigh and the kernel of the root
factors m by QR completion, certified by m m^T = f_root I, and a step
farther out leaves every A_j as it is.  The result is the forward layout
of the last root eigenspaces, certified the same way.  A degenerate
dimension is refused: it has no algebra representation (the
representation is not generated at the root), so no layout expresses it.

Graph and algebra representations meet at the root: `_eigenspaces` splits
each root branch operator T T^* by the ranks of the dimension, largest
eigenvalues first, and `_layout` lays a branch out along the transfer
windows.  `to_algebra_rep` returns the eigenprojections, and
`canonicalize` and `build_graph_rep` lay out the eigenspaces
(`_canonical_layout`).

Every representation built here is real float64.  The zero root
operators are real, and the root-operator replay, `canonicalize` and
`to_algebra_rep` only take kernels, isometries and eigenprojections of
what they are given, which keeps their dtype; the hyperplane optimizer
starts from real orthogonal matrices and moves them by Cayley transforms
of real skew matrices.
"""
from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .coxeter import _parity_set
# Public functions of other layers are called through their modules: a name
# copied by `from ... import` keeps the binding of the moment this module is
# imported, which may be a wrapper later undone (perfbench's tracer rebinds
# them while set-up imports this module).
from . import feasibility, transfer, verify
from .feasibility import FeasibilityError, _walk_pair
from .graph import GVec, StarGraph, build_star, classify
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


class GraphRep(NamedTuple):
    """Finite-dimensional representation of a star graph.

    ``ops[(far, near)]`` holds the rootward map H_far -> H_near for each
    edge, with ``far`` the endpoint farther from the root; the leafward map
    is its adjoint.  ``character`` is attached when known.
    """

    graph: StarGraph
    dims: tuple[int, ...]
    # no default: a NamedTuple default is one dict shared by every rep
    ops: dict[tuple[int, int], np.ndarray]
    character: Optional[GVec] = None

    def gamma(self, a: int, b: int) -> np.ndarray:
        """Edge map H_b -> H_a for adjacent vertices a, b."""
        if (b, a) in self.ops:
            return self.ops[(b, a)]
        if (a, b) in self.ops:
            return self.ops[(a, b)].conj().T
        raise RepError(f"({a},{b}) is not an edge")


def build_graph_rep(graph: StarGraph, d: GVec, f: GVec) -> GraphRep:
    """Construct an irreducible locally scalar representation with (d, f).

    Requires the pair to be feasible (else ``FeasibilityError``) and d to
    be nondegenerate (else ``RepError``): only a nondegenerate dimension
    has an algebra representation, and so a forward layout.  Replays the
    states of its feasibility walk upward from the simple representation
    at the terminal vertex: each step takes its dimension from the state
    and its character from the walk's integer entries over their common
    denominator (int / int rounds correctly, as float(Fraction) does).  A
    feasible walk is positive on every reflected parity class.

    The replay carries only the root branch operators A_j = T_j T_j^*,
    stacked (see ``_replay_root_operators``).  ``_root_factors`` certifies
    the last ones locally scalar at f[root], as at every root step, before
    their forward layout, as ``canonicalize`` lays one out.
    """
    verdict, states, scale = _walk_pair(graph, d, f, False)
    if not verdict.feasible:
        raise FeasibilityError(f"({list(d)}, f) is not feasible: {verdict.status}")
    dims, _, fint = states[0]
    if not nondegenerate_dim(graph, dims):
        raise RepError("representation dimension is degenerate")
    ranks = [dims[path[-1]] for path in graph.branches]
    _, eig = _root_factors(_replay_root_operators(graph, states, scale), ranks,
                           fint[graph.root] / scale)
    return _canonical_layout(graph, dims, eig, tuple(f))


def _replay_root_operators(graph: StarGraph, states: list, scale: int) -> np.ndarray:
    """The walk's states replayed upward on the stack of root branch
    operators A_j = T_j T_j^*, shape (branches, n0, n0); no other vertex
    space is built.

    Every inner vertex v_j has the parity opposite the root, so a step
    reflects either all of them or the root.  At v_j the assembled map m
    satisfies m m^T = f_v I (local scalarity), the kernel projector is
    I - m^T m / f_v, and its root block is I - A_j / f_v: the step is
    A_j <- f_v I - A_j.  At the root, A_j = F_j F_j^T with F_j the top
    dims[v_j] eigenpairs scaled by the square roots of their eigenvalues, so
    T_j = F_j U_j for an orthogonal U_j, and U_j cancels from K_j^T K_j for
    the kernel K of [T_1 ... T_b]: the step is A_j <- f_root K_j^T K_j with
    K the kernel of m = [F_1 ... F_b].  ``_root_factors`` certifies
    m m^T = f_root I, so m has full row rank and K is the orthogonal
    complement of its rows: the last columns of the complete QR of m^T.  A
    kernel whose width is not the state's root dimension is a ``RepError``.
    Reflections farther out leave every A_j as it is.
    """
    root = graph.root
    inner = [path[-1] for path in graph.branches]
    n0 = states[-1][0][root]
    ops = np.zeros((len(inner), n0, n0))
    for dcur, token, fcur in reversed(states[:-1]):
        if root not in _parity_set(graph, token):
            weights = np.array([fcur[v] / scale for v in inner])
            ops = weights[:, None, None] * np.eye(n0) - ops
            continue
        ranks = [dcur[v] for v in inner]
        m, _ = _root_factors(ops, ranks, fcur[root] / scale)
        kernel = np.linalg.qr(m.T, mode="complete")[0][:, n0:]
        if kernel.shape[1] != dcur[root]:
            raise RepError(f"kernel dimension {kernel.shape[1]} at vertex {root} "
                           f"does not match the reflected dimension {dcur[root]}")
        # K_j^T K_j for every branch at once: row r of K belongs to branch j
        # when the selector sel[j, r] is 1
        sel = np.repeat(np.eye(len(inner)), ranks, axis=1)
        ops = (fcur[root] / scale) * (
            np.swapaxes(sel[:, :, None] * kernel, 1, 2) @ kernel)
        n0 = dcur[root]
    return ops


def _root_factors(ops: np.ndarray, ranks: Sequence[int], f_root: float):
    """The root factors m = [F_1 ... F_b] of the stacked root branch
    operators, F_j = V_j sqrt(lambda_j) over the top ``ranks[j]`` eigenpairs
    of A_j with zero columns past n0, and their stacked eigh, largest
    eigenvalues last.  Locally scalar at ``f_root``, m m^T = f_root I: every
    singular value of m is sqrt(f_root).  A residual max |m m^T / f_root - I|
    above 1e-10 is a ``RepError``.
    """
    evals, evecs = np.linalg.eigh(ops)
    n0 = ops.shape[1]
    # rounding negatives are clamped before the square root
    scaled = evecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :]
    m = np.concatenate(
        [s[:, n0 - r:] if r <= n0 else np.hstack([np.zeros((n0, r - n0)), s])
         for s, r in zip(scaled, ranks)], axis=1)
    residual = np.abs(m @ m.T / f_root - np.eye(n0)).max(initial=0.0)
    # written so that a NaN residual fails too
    if not residual <= 1e-10:
        raise RepError(f"the root is not locally scalar: residual {residual:.3g}")
    return m, (evals, evecs)


def _root_operators(graph: StarGraph, rep: GraphRep) -> np.ndarray:
    """The root branch operators T T^* of a representation, stacked."""
    t_maps = [rep.gamma(graph.root, path[-1]) for path in graph.branches]
    return np.stack([t @ t.conj().T for t in t_maps])


def _eigenspaces(graph: StarGraph, dims: GVec, eig) -> list:
    """Eigenspaces of each root branch operator, split by rank.

    ``eig`` is the stacked eigh of the operators.  Per branch, a list of
    (eigenvalues, eigenvector columns) blocks in the ranks of
    ``n_from_dim(dims)``, largest spectral value first, then the remaining
    block, the kernel.  Columns keep eigh's ascending order.
    """
    if not nondegenerate_dim(graph, dims):
        raise RepError("representation dimension is degenerate")
    n = transfer.n_from_dim(graph, dims)
    out = []
    for ranks, evals, evecs in zip(n.branches, *eig):
        # block bounds from the top: n0, n0 - r_1, n0 - r_1 - r_2, ..., 0
        cuts = [len(evals) - c for c in accumulate(ranks, initial=0)] + [0]
        out.append([(evals[lo:hi], evecs[:, lo:hi]) for hi, lo in zip(cuts, cuts[1:])])
    return out


def _canonical_layout(
    graph: StarGraph, dims: GVec, eig, character: Optional[GVec],
) -> GraphRep:
    """The forward layout of the root eigenspaces (``eig``, the stacked eigh
    of the root branch operators), each block's mean eigenvalue as its
    spectral value; the kernels are dropped."""
    split = [blocks[:-1] for blocks in _eigenspaces(graph, dims, eig)]
    spectra = [[float(np.mean(vals)) for vals, _ in b] for b in split]
    isometries = [[vecs for _, vecs in b] for b in split]
    return _layout(graph, spectra, dims[graph.root], isometries, character)


def canonicalize(graph: StarGraph, rep: GraphRep) -> GraphRep:
    """Canonical form: the forward layout of the root eigenspaces.

    Splits each root branch operator into eigenspaces by the ranks of the
    dimension and lays them out by ``_layout``, with each block's mean
    eigenvalue as its spectral value: non-root edges become a
    zero block next to positive multiples of identity blocks, the root
    basis is kept and root-edge maps carry all remaining freedom.
    """
    if rep.character is None:
        raise RepError("canonicalize needs the representation character")
    eig = np.linalg.eigh(_root_operators(graph, rep))
    return _canonical_layout(graph, rep.dims, eig, rep.character)


def to_algebra_rep(
    graph: StarGraph, rep: GraphRep, inst: SpectralInstance,
) -> "AlgebraRep":
    """Extract the tuple of spectral projections from a graph representation.

    The branch operator at the root is the in-out composition over the root
    edge.  Its eigenspaces, taken largest first in the ranks of the
    generalized dimension, give the projections; each block must lie at its
    spectrum point and the rest at 0, within verify's bound ``RTOL * s``
    (``transfer.instance_scale``): an eigenvalue off by more would show in
    the weighted sum of the projections.
    """
    if inst.branch_lengths != graph.branch_lengths:
        raise RepError("instance does not match the graph")
    split = _eigenspaces(graph, rep.dims, np.linalg.eigh(_root_operators(graph, rep)))
    bound = RTOL * instance_scale(inst)
    for j, (spec, blocks) in enumerate(zip(inst.branches, split)):
        for a, (vals, _) in zip([*map(float, spec), 0.0], blocks):
            if np.any(np.abs(vals - a) > bound):
                raise RepError(f"eigenvalues {vals.tolist()} of branch {j + 1} "
                               f"are not within {bound:.3g} of {a}")
    projections = tuple(tuple(vecs @ vecs.conj().T for _, vecs in blocks[:-1])
                        for blocks in split)
    return AlgebraRep(instance=inst, n0=rep.dims[graph.root], projections=projections)


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


class AlgebraRep(NamedTuple):
    """Tuple of orthoprojections P_k per branch with sum_k a_k P_k summing
    to gamma times the identity across branches."""

    instance: SpectralInstance
    n0: int
    projections: tuple[tuple[np.ndarray, ...], ...]

    def branch_operator(self, j: int) -> np.ndarray:
        """sum_k a_k P_k over branch j, added up in spectrum order."""
        return sum((float(a) * p for a, p in
                    zip(self.instance.branches[j], self.projections[j])),
                   np.zeros((self.n0, self.n0)))

    def weighted_sum(self) -> np.ndarray:
        """Sum of the branch operators, added up in branch order."""
        return sum(map(self.branch_operator, range(len(self.projections))),
                   np.zeros((self.n0, self.n0)))

    def residual(self) -> float:
        """Largest entry modulus of the weighted sum minus gamma I; ``verify``
        recomputes it from the projections, in the same order."""
        return float(np.abs(self.weighted_sum()
                            - float(self.instance.gamma) * np.eye(self.n0)).max())

    def generalized_dimension(self) -> GeneralizedDimension:
        ranks = tuple(
            tuple(int(round(float(np.real(np.trace(p))))) for p in branch)
            for branch in self.projections
        )
        return GeneralizedDimension(n0=self.n0, branches=ranks)


# optimizer budget of build_hyperplane_rep: Levenberg-Marquardt steps
_MAX_ITERS = 1_000


def build_hyperplane_rep(inst: SpectralInstance, seed: int = 0) -> AlgebraRep:
    """Numerical constructor for the minimal imaginary-root dimension delta.

    Solves ``sum_j U_j D_j U_j^T = gamma I`` over orthogonal U_j of size
    delta[root] (D_j: each branch value repeated by its rank in delta, then
    zeros) by Levenberg-Marquardt steps damped by ``diag(J^T J)``, each
    moving U_j by the Cayley transform of a skew matrix: a step that lowers
    the Frobenius residual is kept and divides the damping by 3, any other
    multiplies it by 10.  The start is the QR factors of real Gaussian
    matrices from ``random.Random(seed)`` (a negative seed is a
    ``ValueError``), so the output is float64 and deterministic per seed.
    The steps stop below a tenth of verify's bound ``RTOL * s``, after
    ``_MAX_ITERS`` steps, or once a damping past 1e16 stops every step.
    Existence is checked first, by the Horn criterion on E6~ and the closed
    quadrangle on D4~; elsewhere it is undecided (``FeasibilityError``).
    A result that fails verify or has commutant above 1 is a ``ConstructionError``.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    graph = build_star(inst.branch_lengths)
    cls = classify(graph)
    checks = {"E6~": feasibility.horn_check_e6, "D4~": feasibility.quadrangle_check_d4}
    if cls.name not in checks:
        raise FeasibilityError(f"existence in delta is not yet decided on {cls.name}"
                               if cls.delta else "the star has no imaginary root delta")
    verdict = checks[cls.name](inst)
    if not verdict.feasible:
        raise FeasibilityError(f"delta is not feasible: {verdict.status}")
    n0, ranks = transfer.n_from_dim(graph, cls.delta)
    gamma_eye = float(inst.gamma) * np.eye(n0)
    diags = np.array([np.repeat([float(a) for a in spec] + [0.0], [*r, n0 - sum(r)])
                      for spec, r in zip(inst.branches, ranks)])
    stop = RTOL * instance_scale(inst) / 10
    # each branch draws the n0 * n0 entries of its start in turn
    rng = random.Random(seed)
    draws = [rng.normalvariate(0.0, 1.0) for _ in range(len(diags) * n0 * n0)]
    units = np.linalg.qr(np.reshape(draws, (-1, n0, n0)))[0]
    # generator g is E = e_a e_b^T - e_b e_a^T on branch j, a < b, d_a != d_b:
    # U exp(tE) D exp(-tE) U^T has slope (d_b - d_a)(u_a u_b^T + u_b u_a^T)
    gen_j, gen_a, gen_b = np.nonzero(np.triu(diags[:, :, None] != diags[:, None]))
    slopes = (diags[gen_j, gen_b] - diags[gen_j, gen_a])[:, None, None]

    def residual(us):
        return (np.einsum("jik,jk,jlk->il", us, diags, us) - gamma_eye).ravel()

    res = residual(units)
    norm = np.linalg.norm(res)
    damping = 1e-3
    for _ in range(_MAX_ITERS):
        if norm < stop or damping > 1e16:
            break
        outer = units[gen_j, :, gen_a][:, :, None] * units[gen_j, :, gen_b][:, None]
        jac = (slopes * (outer + outer.transpose(0, 2, 1))).reshape(len(slopes), -1).T
        # least squares of |J x + res|^2 + damping |diag(|J e_k|) x|^2
        damp = np.diag(math.sqrt(damping) * np.linalg.norm(jac, axis=0))
        step = np.linalg.lstsq(np.vstack([jac, damp]), np.concatenate(
            [-res, np.zeros(len(slopes))]), rcond=None)[0]
        skew = np.zeros_like(units)
        skew[gen_j, gen_a, gen_b] = step
        skew -= skew.transpose(0, 2, 1)
        trial = units @ np.linalg.solve(np.eye(n0) - skew / 2, np.eye(n0) + skew / 2)
        trial_res = residual(trial)
        trial_norm = np.linalg.norm(trial_res)
        if trial_norm < norm:
            units, res, norm = trial, trial_res, trial_norm
            damping /= 3
        else:
            damping *= 10
    projections = tuple(tuple(b @ b.T for b in np.split(u, np.cumsum(r), axis=1)[:-1])
                        for u, r in zip(units, ranks))
    rep = AlgebraRep(instance=inst, n0=n0, projections=projections)
    failed = verify.verify_algebra_rep(rep).failures()
    if failed:
        detail = ", ".join(repr(name) for name, _, _ in failed) + " did not pass verify"
    else:
        dim = verify.commutant_dimension(rep)
        if dim == 1:
            return rep
        detail = f"the commutant has dimension {dim}"
    raise ConstructionError(f"construction failed: {detail} (the existence check "
                            "passed: this is a numerical failure, not infeasibility)")
