"""Independent checks of constructed representations.

Everything here recomputes properties from the raw matrices and the
instance, with no method of the representation judged: scalarity of vertex
operators built from the edge maps, projection axioms, the weighted sum
and spectra of branch operators built from the projections, the exact
rank-level trace identity, and irreducibility via the commutant dimension.

For a tuple of projections the commutant (X with PX = XP for every given P)
is found on a shrinking basis instead of one stacked k n0^2 x n0^2 system.
The start is the matrices, in the eigenbasis of a fixed generic combination
A = sum c_i P_i of the given Hermitian matrices, that are block-diagonal
over A's eigenvalue clusters: every X in the commutant commutes with A, so
the start contains the commutant, and a generic A has simple spectrum, so
the start is n0 matrices.  It is built directly as the sum r_i^2 matrix
units of those blocks (r_i the cluster sizes), never as rows of the
n0^2 x n0^2 identity, so with a simple spectrum it holds n0^3 entries and
the memory is O(n0^3).  Each given P, those inside A included, then cuts
the basis to the nullspace of X -> PX - XP, until the basis is one
matrix: the identity is in every commutant, so that matrix spans it.
Without a Hermitian matrix the start is all n0^2 matrix units, that
identity, and only this start is O(n0^4).  Every rank uses the same
relative floor (`_rank`).

Every check computes in the dtype it is given: constructed representations
are float64 and are written as rows of numbers, which `io.matrix_in` reads
as float64; it reads complex128 only from [re, im] pairs with a nonzero
imaginary part.

One rule sizes every check whose residual carries the instance's scale:
it passes at ``RTOL * s``, where s = max(|gamma|, a_1 of each branch) is
the instance's scale (``RTOL`` and `instance_scale` live in `transfer`)
and, for a graph representation, max |f| over its character.  Scaling
every parameter by t > 0 scales both the residuals and s by t, so a
representation passes or fails alike at every scale.  That covers the
weighted sum and the spectra here, the eigenvalue check of
`reps.to_algebra_rep` and the stop and acceptance of
`reps.build_hyperplane_rep`.  The checks that do not depend on scale keep
fixed bounds: the projection axioms (entries of norm-one matrices), the
rank trace test and the relative rank floor of the commutant.  None of
these bounds is a parameter.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .graph import GVec, StarGraph
from .transfer import RTOL, GeneralizedDimension, instance_scale, trace_pairing

if TYPE_CHECKING:
    from .reps import AlgebraRep, GraphRep

# scale-free bounds: projection axioms, the distance of a trace from its
# rank, and the relative rank floor of the commutant
_AXIOM_TOL = 1e-9
_TRACE_TOL = 1e-6
_RANK_TOL = 1e-8
_GOLDEN = (5 ** 0.5 - 1) / 2


class VerificationReport(NamedTuple):
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
) -> VerificationReport:
    """Dimension match, one rootward map of shape (dims[near], dims[far])
    on each edge and no other map, and scalarity of every vertex operator
    within ``RTOL * max |f|``.  Dims that are not one entry per vertex, edge
    maps that fail, and a character that is missing or not one value per
    vertex, are reported before any vertex operator is built, so a
    malformed rep raises nothing."""
    checks = []
    if d is not None:
        ok = tuple(d) == rep.dims
        checks.append(("dimension", ok, f"{rep.dims} vs {tuple(d)}"))
    if len(rep.dims) != graph.n_vertices:
        checks.append(("dims", False, f"{len(rep.dims)} entries for "
                       f"{graph.n_vertices} vertices"))
        return VerificationReport(tuple(checks))
    edges = []
    for far, near in graph.edges:
        want = (rep.dims[near], rep.dims[far])
        got = np.shape(rep.ops[(far, near)]) if (far, near) in rep.ops else None
        edges.append((f"edge@{(far, near)}", got == want,
                      f"shape {got}, expected {want}"))
    edges += [(f"edge@{key}", False, "not a rootward edge of the graph")
              for key in rep.ops if key not in graph.edges]
    checks += edges
    f = f if f is not None else rep.character
    ok_f = f is not None and len(f) == graph.n_vertices
    if not ok_f:
        checks.append(("character", False, "no character available" if f is None
                       else f"{len(f)} values for {graph.n_vertices} vertices"))
    if not ok_f or not all(ok for _, ok, _ in edges):
        return VerificationReport(tuple(checks))
    bound = RTOL * max(abs(float(v)) for v in f)
    for g in range(graph.n_vertices):
        if rep.dims[g] == 0:
            continue
        # sum over neighbours h of T T^* with T: H_h -> H_g, the rootward
        # map or the adjoint of one
        op = np.zeros((rep.dims[g], rep.dims[g]))
        for h in graph.neighbors[g]:
            t = rep.ops[(h, g)] if (h, g) in rep.ops else rep.ops[(g, h)].conj().T
            op = op + t @ t.conj().T
        res = float(np.abs(op - float(f[g]) * np.eye(rep.dims[g])).max())
        checks.append(
            (f"scalar@{graph.vertex_label(g)}", res <= bound, f"residual {res:.3e}")
        )
    return VerificationReport(tuple(checks))


def verify_algebra_rep(rep: AlgebraRep) -> VerificationReport:
    """Projection axioms, weighted sum, non-degeneracy, spectra, trace rank
    identity.  The weighted sum and the spectra pass within ``RTOL * s``
    (s from `transfer.instance_scale`).  Entries that overflow fail checks
    and raise nothing.  A rep without one n0 x n0 projection per spectrum
    point on every branch gets one failed check and no arithmetic, so it
    raises nothing either."""
    inst = rep.instance
    n0 = rep.n0
    counts = tuple(map(len, rep.projections))
    shapes = {np.shape(p) for branch in rep.projections for p in branch}
    if counts != inst.branch_lengths or shapes - {(n0, n0)}:
        return VerificationReport((("projections", False,
                                    f"counts {counts} for spectra of lengths "
                                    f"{inst.branch_lengths}, shapes {sorted(shapes)}"
                                    f" for n0 {n0}"),))
    checks = []
    for j, branch in enumerate(rep.projections):
        for k, p in enumerate(branch):
            herm = float(np.abs(p - p.conj().T).max())
            idem = float(np.abs(p @ p - p).max())
            checks.append(
                (f"hermitian P{k + 1}^({j + 1})", herm <= _AXIOM_TOL, f"{herm:.3e}")
            )
            checks.append(
                (f"idempotent P{k + 1}^({j + 1})", idem <= _AXIOM_TOL, f"{idem:.3e}")
            )
        for k in range(len(branch)):
            for l in range(k + 1, len(branch)):
                orth = float(np.abs(branch[k] @ branch[l]).max())
                checks.append(
                    (
                        f"orthogonal P{k + 1}P{l + 1}^({j + 1})",
                        orth <= _AXIOM_TOL,
                        f"{orth:.3e}",
                    )
                )
    bound = RTOL * instance_scale(inst)
    # each sum_k a_k P_k is built once, for the weighted sum and the spectra;
    # the sums run in the order of AlgebraRep.residual, which so agrees bitwise
    operators = [sum((float(a) * p for a, p in zip(spec, branch)), np.zeros((n0, n0)))
                 for spec, branch in zip(inst.branches, rep.projections)]
    res = float(np.abs(sum(operators, np.zeros((n0, n0)))
                       - float(inst.gamma) * np.eye(n0)).max())
    checks.append(("weighted sum = gamma I", res <= bound,
                   f"residual {res:.3e}, bound {bound:.3e}"))
    traces = [[float(np.real(np.trace(p))) for p in branch]
              for branch in rep.projections]
    finite = all(math.isfinite(t) for branch in traces for t in branch)
    # a non-finite trace has no rank; 0 fails its rank check
    ranks = tuple(tuple(round(t) if math.isfinite(t) else 0 for t in branch)
                  for branch in traces)
    for j, branch in enumerate(traces):
        for k, tr in enumerate(branch):
            r = ranks[j][k]
            checks.append(
                (f"rank P{k + 1}^({j + 1}) = {r}",
                 abs(tr - r) <= _TRACE_TOL and r >= 1, f"trace {tr:.6f}")
            )
        total = sum(ranks[j])
        checks.append(
            (
                f"branch {j + 1} projections do not resolve identity",
                total < n0,
                f"sum of ranks {total} vs n0 {n0}",
            )
        )
    for j, a_op in enumerate(operators):
        allowed = np.array([float(a) for a in inst.branches[j]] + [0.0])
        # eigvalsh may not converge on an operator that overflowed
        worst = (float(np.abs(np.linalg.eigvalsh(a_op)[:, None] - allowed)
                       .min(axis=1).max())
                 if np.isfinite(a_op).all() else np.inf)
        checks.append(
            (
                f"spectrum branch {j + 1}",
                worst <= bound,
                f"worst eigenvalue distance {worst:.3e}, bound {bound:.3e}",
            )
        )
    if finite:
        exact = trace_pairing(inst, GeneralizedDimension(n0=n0, branches=ranks))
        checks.append(
            ("exact rank trace identity", exact == 0, f"defect {exact}")
        )
    else:
        checks.append(("exact rank trace identity", False,
                       "a projection trace is not finite"))
    return VerificationReport(tuple(checks))


def commutant_dimension(rep: AlgebraRep) -> int:
    """Dimension of the self-intertwiner space; 1 means irreducible.

    This is the dimension of the space of X with PX = XP for every given
    matrix P, found on a basis of candidate X that shrinks as each matrix
    is imposed.  The start comes from A = sum c_i P_i over the given
    matrices that are Hermitian within ``_RANK_TOL``, with fixed weights c_i
    (the fractional parts of i times the golden ratio).  Its eigenvalues are
    cut into clusters wherever neighbours differ by more than
    ``_RANK_TOL * max(|lambda|_max, 1)``, and the start is the sum r_i^2
    matrix units, in A's eigenbasis, that are block-diagonal over the
    clusters (r_i the cluster sizes).  This is exact, not a heuristic: an X
    that commutes with every P_i commutes with A and so is block-diagonal
    over its eigenspaces, so the start always contains the commutant.  With
    generic weights A's spectrum is simple unless the span of the P_i
    forces a multiplicity, so the start is usually n0 matrices; merged
    clusters only make it larger.  The units are built directly, sum r_i^2
    rows of n0^2 entries, in the row-major order of their positions: they
    are the rows of the n0^2 x n0^2 identity at those positions, which is
    never formed, so memory is O(n0^3) with a simple spectrum.  Without a
    Hermitian matrix the start is all n0^2 matrix units, that identity,
    and only then is it O(n0^4).  Every given P, those inside A included,
    then maps the basis through X -> PX - XP, and the basis becomes the
    nullspace of that n0^2 x m image (rank by `_rank`).  The result is the
    number of basis matrices left.

    The imposition stops once one basis matrix is left, which is exact too:
    the identity commutes with every matrix, so it lies in the commutant and
    hence in the span of every basis, and a one-matrix basis spans the
    identity alone.  The commutant is then that span, and no later P can
    cut it.  On an irreducible representation the first P usually leaves
    one matrix, so the remaining matrices are never mapped to A's
    eigenbasis and their images never decomposed.

    Raises ValueError when the sum of squares of a given matrix's entries is
    not finite: an entry is NaN or infinite, or squaring it overflows, and
    no rank of such values means anything.  When every given matrix passes,
    every matrix formed here (A, the matrices in A's eigenbasis, the images)
    has a norm bounded by sums of the given norms and stays finite too.
    """
    n = rep.n0
    mats = [p for branch in rep.projections for p in branch]
    if not all(np.isfinite(np.vdot(m, m)) for m in mats):
        raise ValueError("a matrix has entries that are not finite or whose "
                         "squares overflow")
    herm = [m for m in mats if np.abs(m - m.conj().T).max() <= _RANK_TOL]
    same_block = np.ones((n, n), bool)
    v = None
    if herm:
        a = sum((i * _GOLDEN) % 1.0 * m for i, m in enumerate(herm, 1))
        w, v = np.linalg.eigh(a)
        cut = _RANK_TOL * max(np.abs(w).max(), 1.0)
        cluster = np.cumsum(np.r_[0, np.diff(w) > cut])
        same_block = cluster[:, None] == cluster[None, :]
    # the rows of the n^2 x n^2 identity at A's in-cluster positions, built
    # without the identity: one matrix unit per position, in row-major order
    idx = np.flatnonzero(same_block)
    basis = np.zeros((len(idx), n * n))
    basis[np.arange(len(idx)), idx] = 1.0
    basis = basis.reshape(-1, n, n)
    for m in mats:
        if len(basis) == 1:
            break  # the identity: no matrix can cut it
        if v is not None:
            # the commutant dimension does not change under a unitary change
            # of basis, so each matrix is imposed in A's eigenbasis; one the
            # loop never reaches is never mapped
            m = v.conj().T @ m @ v
        image = (m @ basis - basis @ m).reshape(len(basis), n * n).T
        basis = np.tensordot(_nullspace(image), basis, axes=1)
    return len(basis)


def _nullspace(image: np.ndarray) -> np.ndarray:
    """Orthonormal coefficient vectors, as rows, spanning the nullspace of a
    tall ``image`` (rank by `_rank`).

    LAPACK's gesdd can fail to converge on a matrix whose conjugate
    transpose it decomposes without trouble; the left singular vectors of
    image^H are the right singular vectors of image, so that is the retry.
    """
    try:
        _, s, vh = np.linalg.svd(image, full_matrices=False)
    except np.linalg.LinAlgError:
        u, s, _ = np.linalg.svd(image.conj().T, full_matrices=False)
        vh = u.conj().T
    return vh[_rank(s):].conj()


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values sorted in descending order: the
    count above ``_RANK_TOL * max(s_max, 1)``."""
    return int(np.sum(s > _RANK_TOL * max(s[0] if s.size else 0.0, 1.0)))
