import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starspec import (
    FAMILY_ROOT,
    build_graph_rep,
    build_hyperplane_rep,
    build_star,
    canonicalize,
    char_from_chi,
    dim_from_n,
    make_instance,
    n_from_dim,
    simple_rep,
    solve,
    to_algebra_rep,
    verify_algebra_rep,
    verify_graph_rep,
)
from starspec.reps import AlgebraRep, GraphRep
from starspec.io import instance_from_dict
from starspec.transfer import SpectralInstance
from starspec.verify import RTOL, commutant_dimension, instance_scale

from conftest import feasible_character, random_feasible_instance
from oracles import hom_dimension, stacked_commutant_dimension


def _unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return q


# Real-root dimensions with a reduction schedule and strict branch chains,
# small and medium root entries on each extended star, one with n0 >= 10 on
# each and one with n0 = 15.
ORACLE_DIMS = {
    (1, 1, 1, 1): [(2, 1, 1, 1, 3), (5, 4, 4, 4, 9), (6, 5, 5, 5, 11)],
    (2, 2, 2): [(2, 3, 1, 3, 1, 3, 5), (3, 7, 3, 6, 3, 6, 10)],
    (1, 3, 3): [(3, 2, 3, 4, 2, 3, 4, 6), (5, 3, 5, 7, 3, 5, 7, 10)],
    (1, 2, 5): [(2, 2, 4, 1, 2, 3, 4, 5, 6), (5, 3, 7, 2, 4, 5, 7, 9, 11),
                (7, 5, 10, 2, 5, 8, 10, 12, 15)],
}


def _construction(branches, d, seed=5):
    g = build_star(branches)
    f, inst = feasible_character(g, d, random.Random(seed))
    return to_algebra_rep(g, canonicalize(g, build_graph_rep(g, d, f)), inst)


def _direct_sum(inst, *reps):
    def block(mats):
        n = sum(m.shape[0] for m in mats)
        out = np.zeros((n, n), complex)
        i = 0
        for m in mats:
            out[i:i + m.shape[0], i:i + m.shape[0]] = m
            i += m.shape[0]
        return out

    return AlgebraRep(
        instance=inst,
        n0=sum(r.n0 for r in reps),
        projections=tuple(
            tuple(block(ps) for ps in zip(*branches))
            for branches in zip(*(r.projections for r in reps))
        ),
    )


ORACLE_CASES = [(b, d) for b, dims in ORACLE_DIMS.items() for d in dims]


@pytest.mark.parametrize(
    "branches,d", ORACLE_CASES,
    ids=[f"{''.join(map(str, b))}-n0={d[-1]}" for b, d in ORACLE_CASES],
)
def test_commutant_matches_stacked_oracle(branches, d):
    rep = _construction(branches, d)
    assert rep.n0 == d[-1]
    assert verify_algebra_rep(rep).overall
    assert commutant_dimension(rep) == stacked_commutant_dimension(rep) == 1


def _conjugated(rep, u):
    return AlgebraRep(
        instance=rep.instance,
        n0=rep.n0,
        projections=tuple(
            tuple(u @ p @ u.conj().T for p in branch) for branch in rep.projections
        ),
    )


@pytest.mark.parametrize(
    "branches,d", ORACLE_CASES,
    ids=[f"{''.join(map(str, b))}-n0={d[-1]}" for b, d in ORACLE_CASES],
)
def test_commutant_same_in_real_and_complex_arithmetic(branches, d):
    """Reflection-functor reps are real and take the real path; a complex
    cast with zero imaginary part takes it too, and a diagonal phase
    rotation makes the matrices genuinely complex.  All three agree with
    the stacked oracle, run in real and in complex arithmetic."""
    rep = _construction(branches, d)
    assert all(p.dtype == np.float64 for b in rep.projections for p in b)
    cast = AlgebraRep(
        instance=rep.instance,
        n0=rep.n0,
        projections=tuple(
            tuple(p.astype(complex) for p in branch) for branch in rep.projections
        ),
    )
    phase = np.diag(np.exp(1j * np.linspace(0.3, 2.9, rep.n0)))
    rotated = _conjugated(rep, phase)
    assert any(p.imag.any() for b in rotated.projections for p in b)
    expected = stacked_commutant_dimension(rep)
    assert stacked_commutant_dimension(rotated) == expected == 1
    for other in (rep, cast, rotated):
        assert commutant_dimension(other) == expected


@pytest.mark.parametrize("complex_rep", [False, True])
def test_commutant_retries_failed_svd_on_conjugate_transpose(
    monkeypatch, complex_rep
):
    """gesdd can fail to converge; the nullspace step then decomposes the
    conjugate transpose instead, and the count is unchanged."""
    small = _construction((2, 2, 2), (2, 3, 1, 3, 1, 3, 5))
    other = _construction((2, 2, 2), (3, 7, 3, 6, 3, 6, 10))
    rep = _direct_sum(small.instance, small, other)
    if complex_rep:
        rep = _conjugated(rep, _unitary(rep.n0, np.random.default_rng(4)))
    expected = stacked_commutant_dimension(rep)
    assert expected == 2
    svd = np.linalg.svd
    calls = []

    def flaky_svd(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    assert commutant_dimension(rep) == expected
    # the retry decomposed the transposed image of the first step
    assert calls[1] == calls[0][::-1]


# Direct sums of the first two ORACLE_DIMS constructions of a star, by
# summand index, and their commutant dimensions: the sum of squared
# multiplicities of the distinct summands.
DIRECT_SUMS = {"distinct": ((0, 1), 2), "isomorphic": ((1, 1), 4),
               "three": ((0, 1, 0), 5)}


def _reordered(rep, order):
    """The same projections with the branches taken in ``order`` and each
    branch's projections reversed: a different generic combination A."""
    return AlgebraRep(
        instance=rep.instance,
        n0=rep.n0,
        projections=tuple(tuple(reversed(rep.projections[j])) for j in order),
    )


@pytest.mark.parametrize("rotated", [False, True], ids=["real", "unitary"])
@pytest.mark.parametrize("case", DIRECT_SUMS)
@pytest.mark.parametrize("branches", ORACLE_DIMS,
                         ids=["".join(map(str, b)) for b in ORACLE_DIMS])
def test_commutant_of_direct_sums(branches, case, rotated):
    """Reducible representations on every star: isomorphic summands give A a
    spectrum of repeated eigenvalues, so its clusters are merged blocks.
    The count is the stacked oracle's, real or conjugated by a random
    complex unitary, and does not depend on the order of the projections
    or of the branches."""
    parts, expected = DIRECT_SUMS[case]
    reps = [_construction(branches, ORACLE_DIMS[branches][i]) for i in parts]
    rep = _direct_sum(reps[0].instance, *reps)
    if rotated:
        rep = _conjugated(rep, _unitary(rep.n0, np.random.default_rng(3)))
    assert stacked_commutant_dimension(rep) == commutant_dimension(rep) == expected
    k = len(branches)
    for order in (range(k), range(k)[::-1], [*range(1, k), 0]):
        assert commutant_dimension(_reordered(rep, order)) == expected


LARGE_CASES = [(b, d) for b, d in ORACLE_CASES if d[-1] >= 10]


@pytest.mark.parametrize(
    "branches,d", LARGE_CASES,
    ids=[f"{''.join(map(str, b))}-n0={d[-1]}" for b, d in LARGE_CASES],
)
def test_commutant_images_have_at_most_n0_columns(monkeypatch, branches, d):
    """The start has one matrix per eigenvalue of the generic combination A,
    so on an irreducible construction no image that `_nullspace`
    decomposes is wider than n0.  A start from one projection of rank r
    would have r^2 + (n0 - r)^2 >= n0^2 / 2 columns."""
    rep = _construction(branches, d)
    svd = np.linalg.svd
    shapes = []

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert commutant_dimension(rep) == 1
    assert shapes and all(cols <= rep.n0 for _, cols in shapes), shapes


@pytest.mark.parametrize("shift_first", [False, True])
def test_commutant_imposes_every_matrix(shift_first):
    """Each matrix cuts the commutant: the two diagonal projections leave the
    diagonal matrices, and the shift E_01 then forces x0 == x1.  The shift
    is not Hermitian, so it stays out of A and is only imposed, wherever it
    stands."""
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    shift = np.zeros((3, 3), complex)
    shift[0, 1] = 1.0
    mats = ((shift, p2), (p1,)) if shift_first else ((p1, p2), (shift,))
    rep = AlgebraRep(instance=inst, n0=3, projections=mats)
    assert commutant_dimension(rep) == stacked_commutant_dimension(rep) == 2


def test_commutant_without_hermitian_matrix():
    """With no Hermitian matrix the start is all n0^2 matrix units: the
    shift E_01 on C^3 is a 2x2 Jordan block plus a zero, whose commutant
    has dimension 2 + 1 + 1 + 1 = 5."""
    inst = make_instance([[2, 1]], 1)
    shift = np.zeros((3, 3))
    shift[0, 1] = 1.0
    rep = AlgebraRep(instance=inst, n0=3, projections=((shift,),))
    assert commutant_dimension(rep) == stacked_commutant_dimension(rep) == 5


def test_commutant_non_hermitian_first_matrix():
    """A construction whose first matrix is skewed off Hermitian."""
    rep = _construction((1, 3, 3), (5, 3, 5, 7, 3, 5, 7, 10))
    first = rep.projections[0][0]
    skewed = first + 1e-3 * np.triu(np.ones_like(first), 1)
    broken = AlgebraRep(
        instance=rep.instance,
        n0=rep.n0,
        projections=((skewed,) + rep.projections[0][1:],) + rep.projections[1:],
    )
    assert commutant_dimension(broken) == stacked_commutant_dimension(broken)


def test_simple_rep_commutant(e6):
    rep = simple_rep(e6, 2)
    assert hom_dimension(rep, rep) == 1


def test_direct_sum_commutant(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    rep = build_graph_rep(e6, d, f)
    doubled = GraphRep(
        graph=e6,
        dims=tuple(2 * v for v in rep.dims),
        ops={
            key: np.kron(np.eye(2), m) for key, m in rep.ops.items()
        },
        character=f,
    )
    assert hom_dimension(rep, rep) == 1
    assert hom_dimension(doubled, doubled) == 4


def test_hom_between_distinct_is_zero(e6, rng):
    d1, f1, _ = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    rep1 = build_graph_rep(e6, d1, f1)
    rep2 = simple_rep(e6, 0)
    assert hom_dimension(rep1, rep2) == 0


def test_algebra_commutant_direct_sum():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = build_hyperplane_rep(inst, seed=11)
    doubled = AlgebraRep(
        instance=inst,
        n0=6,
        projections=tuple(
            tuple(np.kron(np.eye(2), p) for p in branch)
            for branch in rep.projections
        ),
    )
    assert commutant_dimension(rep) == 1
    assert commutant_dimension(doubled) == 4


def test_verification_basis_invariance(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 6, rng)
    rep = build_graph_rep(e6, d, f)
    arep = to_algebra_rep(e6, rep, inst)
    np_rng = np.random.default_rng(9)
    u = _unitary(arep.n0, np_rng)
    rotated = AlgebraRep(
        instance=inst,
        n0=arep.n0,
        projections=tuple(
            tuple(u @ p @ u.conj().T for p in branch)
            for branch in arep.projections
        ),
    )
    r1 = verify_algebra_rep(arep)
    r2 = verify_algebra_rep(rotated)
    assert r1.overall and r2.overall
    assert commutant_dimension(rotated) == commutant_dimension(arep)


def test_fault_nonprojection_detected():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = build_hyperplane_rep(inst, seed=2)
    bad = [list(b) for b in rep.projections]
    bad[0][0] = bad[0][0] * 0.5  # no longer idempotent
    broken = AlgebraRep(instance=inst, n0=3, projections=tuple(tuple(b) for b in bad))
    report = verify_algebra_rep(broken)
    assert not report.overall
    assert any("idempotent" in name for name, ok, _ in report.failures())


def test_fault_wrong_character_detected(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    rep = build_graph_rep(e6, d, f)
    wrong = tuple(v + 1 for v in f)
    report = verify_graph_rep(e6, rep, d, wrong)
    assert not report.overall


def test_adjoint_pair_check(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    rep = build_graph_rep(e6, d, f)
    report = verify_graph_rep(e6, rep, d, f)
    assert any(name.startswith("adjoint") for name, _, _ in report.checks)
    assert report.overall


def test_rank_threshold_flips_with_fault():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = build_hyperplane_rep(inst, seed=5)
    assert commutant_dimension(rep) == 1
    # simultaneously diagonal projections commute with every diagonal matrix
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    flat = AlgebraRep(
        instance=inst, n0=3, projections=((p1, p2), (p1, p2), (p1, p2))
    )
    assert commutant_dimension(flat) == 3
    assert stacked_commutant_dimension(flat) == 3


def test_verify_graph_rep_empty_edge_maps(e6):
    """A simple representation has only empty edge maps, and it verifies."""
    rep = simple_rep(e6, e6.root, character=(1, 2, 1, 2, 1, 2, 0))
    assert all(m.size == 0 for m in rep.ops.values())
    report = verify_graph_rep(e6, rep)
    assert report.overall, report.failures()


# ---------------------------------------------------------------------------
# One relative bound at every scale
# ---------------------------------------------------------------------------

SCALES = [Fraction(1, 10**6), Fraction(1), Fraction(10**6), Fraction(10**12)]
HORN_SCALES = [Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1),
               Fraction(10**3), Fraction(10**6)]
# move sizes, in units of RTOL relative to s, of the weighted-sum change
MOVES = [10.5, 100.0, 1e4, 1e8]


def _scaled(inst, t):
    return SpectralInstance(tuple(tuple(a * t for a in spec) for spec in inst.branches),
                            inst.gamma * t)


def _moved(inst, p, q, step):
    """Spectrum point p = (branch, index) raised by step * r_q and q lowered
    by step * r_p, so that the exact rank trace identity still holds."""
    (bp, ip, rp), (bq, iq, rq) = p, q
    branches = [list(spec) for spec in inst.branches]
    branches[bp][ip] += step * rq
    branches[bq][iq] -= step * rp
    return SpectralInstance(tuple(map(tuple, branches)), inst.gamma)


def _move_points(rep):
    """Two spectrum points with their ranks: the top two of the longest
    branch, or the tops of the first two branches when every branch has
    one point (D4~)."""
    n = rep.generalized_dimension()
    j = max(range(len(n.branches)), key=lambda b: len(n.branches[b]))
    pts = [(j, 0), (j, 1)] if len(n.branches[j]) > 1 else [(0, 0), (1, 0)]
    return [(b, i, n.branches[b][i]) for b, i in pts]


def _check_ladder(rep):
    """The build verifies and is irreducible; every move whose weighted-sum
    change exceeds 10 RTOL s is rejected by the weighted-sum check alone."""
    report = verify_algebra_rep(rep)
    assert report.overall, report.failures()
    assert commutant_dimension(rep) == 1
    inst = rep.instance
    s = instance_scale(inst)
    p, q = _move_points(rep)
    # weighted-sum change per unit step
    unit = np.abs(q[2] * rep.projections[p[0]][p[1]]
                  - p[2] * rep.projections[q[0]][q[1]]).max()
    for m in MOVES:
        step = Fraction(m * RTOL * s / unit)
        moved = AlgebraRep(instance=_moved(inst, p, q, step), n0=rep.n0,
                           projections=rep.projections)
        change = np.abs(moved.weighted_sum() - rep.weighted_sum()).max() / s
        assert change > 10 * RTOL
        failed = {name for name, _, _ in verify_algebra_rep(moved).failures()}
        assert failed == {"weighted sum = gamma I"}, (m, failed)


@pytest.mark.parametrize("scale", SCALES, ids=lambda t: f"x{float(t):g}")
@pytest.mark.parametrize(
    "branches,d", [(b, dims[0]) for b, dims in ORACLE_DIMS.items()],
    ids=lambda x: "".join(map(str, x)) if len(x) <= 4 else f"n0={x[-1]}",
)
def test_scale_ladder_reflection_reps(branches, d, scale):
    g = build_star(branches)
    f, inst = feasible_character(g, d, random.Random(7))
    rep = build_graph_rep(g, d, tuple(x * scale for x in f))
    arep = to_algebra_rep(g, rep, _scaled(inst, scale))
    assert arep.generalized_dimension() == n_from_dim(g, d)
    _check_ladder(arep)


@pytest.mark.parametrize("scale", HORN_SCALES, ids=lambda t: f"x{float(t):g}")
def test_scale_ladder_hyperplane_rep(scale):
    inst = _scaled(make_instance([[20, 10], [21, 9], [19, 11]], 30), scale)
    rep = build_hyperplane_rep(inst, seed=0)
    assert rep.residual() <= RTOL * instance_scale(inst) / 10
    _check_ladder(rep)


def test_small_scale_move_is_rejected():
    """tests/data/e8_feasible.json divided by 10^6, checked against an
    instance whose branch-3 top two points (ranks 1 and 1) moved by +-1e-9,
    1.3e-5 relative to that branch's a_1: an absolute bound of 1e-9 on the
    weighted sum accepted this representation."""
    data = json.loads((Path(__file__).parent / "data" / "e8_feasible.json").read_text())
    inst = _scaled(instance_from_dict(data), Fraction(1, 10**6))
    g = build_star(inst.branch_lengths)
    verdict = solve(g, inst)
    assert verdict.feasible
    d = dim_from_n(g, verdict.witness_dimension)
    arep = to_algebra_rep(g, build_graph_rep(g, d, char_from_chi(g, inst)), inst)
    assert verify_algebra_rep(arep).overall
    r = verdict.witness_dimension.branches[2]
    moved = _moved(inst, (2, 0, r[0]), (2, 1, r[1]), Fraction(1, 10**9))
    report = verify_algebra_rep(AlgebraRep(instance=moved, n0=arep.n0,
                                           projections=arep.projections))
    assert {name for name, _, _ in report.failures()} == {"weighted sum = gamma I"}


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308])
def test_commutant_rejects_entries_that_are_not_finite_or_overflow(entry):
    """No rank of NaN, infinite or overflowing values means anything, so
    the commutant dimension raises instead of counting them."""
    rep = _construction((1, 3, 3), (5, 3, 5, 7, 3, 5, 7, 10))
    first = rep.projections[0][0].copy()
    first[0, 0] = entry
    broken = AlgebraRep(
        instance=rep.instance,
        n0=rep.n0,
        projections=((first,) + rep.projections[0][1:],) + rep.projections[1:],
    )
    with pytest.raises(ValueError, match="not finite"):
        commutant_dimension(broken)
