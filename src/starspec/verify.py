"""Independent checks of constructed representations.

Everything here recomputes properties from the raw matrices and the
instance, with no method of the representation judged: scalarity of vertex
operators built from the edge maps, projection axioms, the weighted sum
and spectra of branch operators built from the projections, the exact
rank-level trace identity, and irreducibility via the commutant dimension.

For a tuple of projections the commutant (X with PX = XP for every given P)
is the null space of one Hermitian Gram matrix instead of one stacked
k n0^2 x n0^2 system.  Every X in the commutant commutes with a fixed
generic combination A = sum c_i P_i of the given Hermitian matrices, so in
A's eigenbasis it is block-diagonal over A's eigenvalue clusters; its
in-cluster positions are the unknowns, n0 of them when A's spectrum is
simple, and all n0^2 only without a Hermitian matrix.  The Gram matrix of
the maps X -> PX - XP on those unknowns, summed over every given P, is
formed entry by entry from the products P^* P and P P^* and a cross term
(with a simple spectrum it is twice a weighted graph Laplacian), and the
commutant dimension is the number of its eigenvalues at or below a
relative floor (`commutant_dimension`).  No SVD is taken.

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
rank trace test, and the commutant's Hermitian filter, cluster cut and
relative eigenvalue floor.  None of these bounds is a parameter.
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
# rank, the commutant's Hermitian filter and eigenvalue-cluster cut, and the
# relative floor of the commutant's Gram eigenvalues
_AXIOM_TOL = 1e-9
_TRACE_TOL = 1e-6
_RANK_TOL = 1e-8
_NULL_TOL = 1e-13
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
    matrix P, counted as the nullity of one Hermitian Gram matrix.

    The unknowns come from A = sum c_i P_i over the given matrices that are
    Hermitian within ``_RANK_TOL``, with fixed weights c_i (the fractional
    parts of i times the golden ratio).  Its eigenvalues are cut into
    clusters wherever neighbours differ by more than
    ``_RANK_TOL * max(|lambda|_max, 1)``.  An X that commutes with every
    P_i commutes with A, so in A's eigenbasis V it is block-diagonal over
    the clusters: the unknowns are its in-cluster positions (a, b), sum
    r_c^2 of them (r_c the cluster sizes), which is exact, not a heuristic.
    With generic weights A's spectrum is simple unless the span of the P_i
    forces a multiplicity, so there are usually n0 unknowns.  Without a
    Hermitian matrix every one of the n0^2 positions is an unknown.

    Let Q_k = V^* P_k V for every given P_k, those inside A included, and
    R_k the map X -> Q_k X - X Q_k on the unknowns.  The commutant is the
    common kernel of the R_k, which is the kernel of the Gram matrix
    G = sum_k R_k^* R_k.  On matrix units,
    ``<[Q, E_ab], [Q, E_cd]>`` expands to

        G[(a,b),(c,d)] = sum_k  d_bd (Q_k^* Q_k)_ac + d_ac (Q_k Q_k^*)_db
                                - conj(Q_k[c,a]) Q_k[d,b]
                                - conj(Q_k[b,d]) Q_k[a,c]

    (d the Kronecker delta), and the last term is the conjugate transpose
    of the one before.  With a simple spectrum the unknowns are the
    diagonal (a, a), and for Hermitian Q_k G is twice the weighted
    Laplacian diag(W 1) - W, W = sum_k |Q_k|^2 entrywise.  The cross term
    is formed one matrix at a time, so beyond the k given matrices the
    memory is that of G: O(n0^2) with a simple spectrum, O(n0^4) only
    without a Hermitian matrix.

    The result is the number of eigenvalues of G at or below
    ``_NULL_TOL * max(lambda_max, 1)``, ``_NULL_TOL = 1e-13``.  Measured on
    the benchmark's constructions, real and unitarily rotated direct sums
    of them, non-Hermitian input and the n0 = 98 and n0 = 120 witnesses,
    the null eigenvalues were at most 1.4e-15 of lambda_max and the
    smallest nonzero one at least 1.7e-4 of it.  The floor counts at least
    every direction that the rule before it counted, a singular value
    floor of 1e-8 * max(s_max, 1) per image of the unknowns under R_k: on
    a unit X that every R_k maps below its floor, the Rayleigh quotient
    X^* G X = sum_k |R_k X|^2 is at most k 1e-16 max(lambda_max, 1), as
    each s_max^2 <= |R_k|^2 <= lambda_max.  For fewer than 1000 matrices
    that is under the floor, so by min-max G has at least as many
    eigenvalues at or below it as such X span.  It counts more only where
    a singular value of the stacked R_k lies between about 1e-8 and
    3.2e-7 (the square root of 1e-13) of the largest.

    Raises ValueError when 4 S is not finite, S the sum of the squares of
    all given entries: an entry is NaN or infinite, or G could overflow,
    and no rank of such values means anything.  Otherwise every Q_k has
    Frobenius norm at most sqrt(S), A at most k sqrt(S), and every entry
    and eigenvalue of G is at most 4 S in size (each |R_k|^2 <= 4 |Q_k|^2).
    """
    mats = np.array([p for branch in rep.projections for p in branch])
    n = mats.shape[-1]
    if not abs(np.vdot(mats, mats)) <= np.finfo(float).max / 4:
        raise ValueError("the matrices have entries that are not finite or "
                         "whose commutant equations overflow")
    herm = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= _RANK_TOL
    cluster = np.zeros(n)
    q = mats
    if herm.any():
        weights = np.arange(1, herm.sum() + 1) * _GOLDEN % 1.0
        w, v = np.linalg.eigh(np.einsum("k,kij->ij", weights, mats[herm]))
        cut = _RANK_TOL * max(-w[0], w[-1], 1.0)
        cluster = np.cumsum(np.concatenate(([False], w[1:] - w[:-1] > cut)))
        q = v.conj().T @ mats @ v
    qh = q.conj().transpose(0, 2, 1)
    # the unknowns (a, b) in row-major order; G's rows are (a, b), columns (c, d)
    a, b = np.nonzero(cluster[:, None] == cluster)
    ar, br = a[:, None], b[:, None]
    gram = (br == b) * (qh @ q).sum(0)[ar, a] + (ar == a) * (q @ qh).sum(0)[b, br]
    # conj(Q[c,a]) Q[d,b], one matrix at a time: flat positions c n + a, d n + b
    ia, ib = a * n + ar, b * n + br
    cross = sum(qk.take(ia).conj() * qk.take(ib) for qk in q)
    gram -= cross + cross.conj().T
    lam = np.linalg.eigvalsh(gram)
    return int(np.sum(lam <= _NULL_TOL * max(lam[-1], 1.0)))
