"""Independent checks of constructed representations.

Everything here recomputes properties from the raw matrices: scalarity of
vertex operators, projection axioms, spectra, the exact rank-level trace
identity, and irreducibility via the dimension of the commutant.

For a tuple of projections the commutant (X with PX = XP for every given P)
is found on a shrinking basis instead of one stacked k n0^2 x n0^2 system:
it starts from the block-diagonal matrices in the first projection's
eigenbasis, or from all n0^2 matrix units when that matrix is not
Hermitian, and each further P cuts the basis to the nullspace of
X -> PX - XP.  Graph representations solve the full commuting-square
system in one SVD.  Every rank uses the same relative floor (`_rank`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .graph import GVec, StarGraph
from .reps import AlgebraRep, GraphRep
from .transfer import trace_pairing


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def overall(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> tuple[tuple[str, bool, str], ...]:
        return tuple(c for c in self.checks if not c[1])


def verify_graph_rep(
    graph: StarGraph,
    rep: GraphRep,
    d: Optional[GVec] = None,
    f: Optional[GVec] = None,
    tol: float = 1e-9,
) -> VerificationReport:
    """Dimension match and scalarity of every vertex operator."""
    checks = []
    if d is not None:
        ok = tuple(d) == rep.dims
        checks.append(("dimension", ok, f"{rep.dims} vs {tuple(d)}"))
    f = f if f is not None else rep.character
    if f is None:
        checks.append(("character", False, "no character available"))
        return VerificationReport(tuple(checks))
    for g in range(graph.n_vertices):
        if rep.dims[g] == 0:
            continue
        op = rep.vertex_operator(g)
        res = float(np.abs(op - float(f[g]) * np.eye(rep.dims[g])).max())
        checks.append(
            (f"scalar@{graph.vertex_label(g)}", res <= tol, f"residual {res:.3e}")
        )
    for far, near in graph.edges:
        a = rep.gamma(near, far)
        b = rep.gamma(far, near)
        res = float(np.abs(a - b.conj().T).max())
        shapes_ok = (
            a.shape == (rep.dims[near], rep.dims[far])
            and b.shape == (rep.dims[far], rep.dims[near])
        )
        checks.append(
            (
                f"adjoint@({far},{near})",
                res <= tol and shapes_ok,
                f"residual {res:.3e}, shapes {a.shape}/{b.shape}",
            )
        )
    return VerificationReport(tuple(checks))


def verify_algebra_rep(
    rep: AlgebraRep, tol: float = 1e-9, spec_tol: float = 1e-8
) -> VerificationReport:
    """Projection axioms, weighted sum, non-degeneracy, spectra, trace rank
    identity."""
    checks = []
    inst = rep.instance
    n0 = rep.n0
    eye = np.eye(n0)
    for j, branch in enumerate(rep.projections):
        for k, p in enumerate(branch):
            herm = float(np.abs(p - p.conj().T).max())
            idem = float(np.abs(p @ p - p).max())
            checks.append(
                (f"hermitian P{k + 1}^({j + 1})", herm <= tol, f"{herm:.3e}")
            )
            checks.append(
                (f"idempotent P{k + 1}^({j + 1})", idem <= tol, f"{idem:.3e}")
            )
        for k in range(len(branch)):
            for l in range(k + 1, len(branch)):
                orth = float(np.abs(branch[k] @ branch[l]).max())
                checks.append(
                    (
                        f"orthogonal P{k + 1}P{l + 1}^({j + 1})",
                        orth <= tol,
                        f"{orth:.3e}",
                    )
                )
    wsum = rep.weighted_sum()
    res = float(np.abs(wsum - float(inst.gamma) * eye).max())
    checks.append(("weighted sum = gamma I", res <= tol, f"residual {res:.3e}"))
    n = rep.generalized_dimension()
    for j, branch in enumerate(rep.projections):
        ranks = n.branches[j]
        for k, p in enumerate(branch):
            tr = float(np.real(np.trace(p)))
            ok = abs(tr - ranks[k]) <= 1e-6 and ranks[k] >= 1
            checks.append(
                (f"rank P{k + 1}^({j + 1}) = {ranks[k]}", ok, f"trace {tr:.6f}")
            )
        total = sum(ranks)
        checks.append(
            (
                f"branch {j + 1} projections do not resolve identity",
                total < n0,
                f"sum of ranks {total} vs n0 {n0}",
            )
        )
    for j in range(len(rep.projections)):
        a_op = rep.branch_operator(j)
        evals = np.linalg.eigvalsh(a_op)
        allowed = [float(a) for a in inst.branches[j]] + [0.0]
        worst = float(max(min(abs(e - a) for a in allowed) for e in evals))
        checks.append(
            (
                f"spectrum branch {j + 1} within {spec_tol}",
                worst <= spec_tol,
                f"worst eigenvalue distance {worst:.3e}",
            )
        )
    exact = trace_pairing(inst, n)
    checks.append(
        ("exact rank trace identity", exact == 0, f"defect {exact}")
    )
    return VerificationReport(tuple(checks))


def _graph_intertwiner_system(
    rep1: GraphRep, rep2: GraphRep
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Coefficient matrix of the full commuting-square system.

    Unknowns are the per-vertex blocks C_g (rep1 -> rep2), flattened
    column-major per vertex; equations cover both directions of every edge.
    """
    graph = rep1.graph
    sizes = [(rep2.dims[g], rep1.dims[g]) for g in range(graph.n_vertices)]
    offsets = []
    off = 0
    for r, c in sizes:
        offsets.append(off)
        off += r * c
    total = off
    rows: list[np.ndarray] = []

    def add_equations(a: int, b: int) -> None:
        # C_a Gamma1_{a,b} - Gamma2_{a,b} C_b = 0
        g1 = rep1.gamma(a, b)
        g2 = rep2.gamma(a, b)
        ra, ca = sizes[a]
        rb, cb = sizes[b]
        if ra * cb == 0:
            return
        m1 = np.kron(g1.T, np.eye(ra))  # vec(C_a G1), column-major vec
        m2 = np.kron(np.eye(cb), g2)    # vec(G2 C_b)
        block = np.zeros((ra * cb, total), complex)
        block[:, offsets[a]:offsets[a] + ra * ca] = m1
        block[:, offsets[b]:offsets[b] + rb * cb] -= m2
        rows.append(block)

    for far, near in graph.edges:
        add_equations(near, far)
        add_equations(far, near)
    if rows:
        system = np.vstack(rows)
    else:
        system = np.zeros((0, total), complex)
    return system, sizes


def hom_dimension(rep1: GraphRep, rep2: GraphRep, tol: float = 1e-8) -> int:
    """Dimension of the space of intertwiners rep1 -> rep2."""
    system, sizes = _graph_intertwiner_system(rep1, rep2)
    total = sum(r * c for r, c in sizes)
    if total == 0:
        return 0
    if system.shape[0] == 0:
        return total
    return total - _rank(np.linalg.svd(system, compute_uv=False), tol)


def commutant_dimension(
    rep: Union[AlgebraRep, GraphRep], tol: float = 1e-8
) -> int:
    """Dimension of the self-intertwiner space; 1 means irreducible.

    For an AlgebraRep this is the dimension of the space of X with
    PX = XP for every given matrix P, found on a basis of candidate X that
    shrinks as each matrix is imposed.  When the first matrix is Hermitian
    within ``tol``, its eigendecomposition gives the start: eigenvalues are
    cut into clusters wherever neighbours differ by more than
    ``tol * max(|lambda|_max, 1)``, and X commuting with it is
    block-diagonal over the clusters, so the start has sum r_i^2 matrix
    units (r_i the cluster sizes) in its eigenbasis.  Otherwise the start
    is all n0^2 matrix units and the first matrix is imposed like the rest.
    Each further P maps the basis through X -> PX - XP, and the basis
    becomes the nullspace of that n0^2 x m image (singular values at or
    below ``tol * max(s_max, 1)`` count as zero).  The result is the number
    of basis matrices left.
    """
    if isinstance(rep, GraphRep):
        return hom_dimension(rep, rep, tol)
    n = rep.n0
    mats = [p for branch in rep.projections for p in branch]
    same_block = np.ones((n, n), bool)
    if mats and np.abs(mats[0] - mats[0].conj().T).max() <= tol:
        w, v = np.linalg.eigh(mats[0])
        cut = tol * max(np.abs(w).max(), 1.0)
        cluster = np.cumsum(np.r_[0, np.diff(w) > cut])
        same_block = cluster[:, None] == cluster[None, :]
        # the commutant dimension does not change under a unitary change of
        # basis, so the rest is imposed in the first matrix's eigenbasis
        mats = [v.conj().T @ m @ v for m in mats[1:]]
    basis = np.eye(n * n)[same_block.ravel()].reshape(-1, n, n)
    for m in mats:
        image = (m @ basis - basis @ m).reshape(len(basis), n * n).T
        _, s, vh = np.linalg.svd(image, full_matrices=False)
        basis = np.tensordot(vh[_rank(s, tol):].conj(), basis, axes=1)
    return len(basis)


def _rank(s: np.ndarray, tol: float) -> int:
    """Numerical rank from singular values sorted in descending order: the
    count above ``tol * max(s_max, 1)``."""
    return int(np.sum(s > tol * max(s[0] if s.size else 0.0, 1.0)))
