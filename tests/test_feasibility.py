import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from starspec import (
    FAMILIES,
    FAMILY_INNER,
    FAMILY_LEAF,
    FAMILY_ROOT,
    FeasibilityError,
    build_graph_rep,
    TransferError,
    build_star,
    char_from_chi,
    char_transport_up,
    chi_from_char,
    closed_form_e6,
    horn_check_e6,
    hyperplane,
    iterative_feasible,
    make_instance,
    on_hyperplane,
    solve,
    trajectory_dim,
    unit_vector,
)
from starspec.coxeter import reduction_schedule
from starspec.feasibility import _scaled_character, quadrangle_check_d4
from starspec.io import instance_from_dict
from starspec.rational import identity, mat_mul
from starspec.roots import RootError
from starspec.transfer import n_from_dim

from conftest import candidates_tested, exhausted_instance, random_feasible_instance
from oracles import fraction_horn_check, member_scan_candidates

DATA = Path(__file__).parent / "data"
SYMMETRIC = make_instance([[2, 1], [2, 1], [2, 1]], 3)
SKEWED = make_instance([[10, 1], [2, 1], [2, 1]], "17/3")

# Trajectory tables for the three families: the first period of dimension
# vectors, frozen from the alternating reflection walk.
LEAF_V = [
    (1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 1, 1), (0, 0, 1, 1, 1, 1, 1), (0, 1, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 0, 1, 2), (1, 2, 0, 1, 0, 1, 2), (1, 2, 1, 1, 1, 1, 2),
    (1, 1, 1, 2, 1, 2, 2), (0, 1, 1, 2, 1, 2, 3), (0, 2, 1, 2, 1, 2, 3),
]
INNER_V = [
    (0, 1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 1), (1, 1, 0, 1, 0, 1, 1),
    (0, 1, 1, 1, 1, 1, 2), (0, 1, 1, 2, 1, 2, 2), (1, 1, 1, 2, 1, 2, 3),
]
ROOT_V = [
    (0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 1, 1), (1, 1, 1, 1, 1, 1, 2),
    (1, 2, 1, 2, 1, 2, 2),
]

DELTA = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 3))


def test_hyperplane_rows():
    e6 = build_star([2, 2, 2])
    assert hyperplane(e6).coefficients == tuple(
        Q(v) for v in (1, 1, 1, 1, 1, 1, -3)
    )
    e7 = build_star([3, 3, 1])
    assert hyperplane(e7).coefficients == tuple(
        Q(v) for v in (1, 1, 1, 1, 1, 1, 2, -4)
    )
    d4 = build_star([1, 1, 1, 1])
    assert hyperplane(d4).coefficients == tuple(Q(v) for v in (1, 1, 1, 1, -2))
    e8 = build_star([2, 5, 1])
    assert hyperplane(e8).coefficients == tuple(
        Q(v) for v in (2, 2, 1, 1, 1, 1, 1, 3, -6)
    )


def test_hyperplane_contains_radical_character(e6, e6_class):
    from starspec import chi_from_char

    # the character equal to delta corresponds to an instance on the plane
    inst = chi_from_char(e6, e6_class.delta)
    assert on_hyperplane(e6, inst)


def test_on_hyperplane(e6):
    assert on_hyperplane(e6, SYMMETRIC)
    assert not on_hyperplane(e6, make_instance([[2, 1], [2, 1], [2, 1]], 2))


@pytest.mark.parametrize("lengths", [[1, 1, 1, 1], [1, 3, 3], [1, 2, 5]])
def test_on_hyperplane_matches_solve(lengths, rng):
    """Off E6~, an exhausted scan notes the hyperplane regime exactly when
    the instance is on the hyperplane: random draws off it, and draws whose
    gamma is solved from the level condition on it."""
    g = build_star(lengths)
    level = hyperplane(g).coefficients
    counts = {True: 0, False: 0}
    while min(counts.values()) < 15:
        vals = sorted({rng.randint(1, 50) for _ in range(sum(lengths) + 2)},
                      reverse=True)
        if len(vals) < sum(lengths):
            continue
        spectra, i = [], 0
        for m in lengths:
            spectra.append(vals[i:i + m])
            i += m
        chi = [Q(a) for spec in spectra for a in spec]
        if counts[True] < counts[False]:
            gamma = -sum(c * x for c, x in zip(level, chi)) / level[-1]
        else:
            gamma = rng.randint(1, 70)
        inst = make_instance(spectra, gamma)
        on_h = on_hyperplane(g, inst)
        v = solve(g, inst, scan_bound=4)
        if v.branch_taken != "exhausted":
            continue
        notes = [name for name, _, _ in v.certificate]
        assert ("hyperplane_regime" in notes) == on_h, (lengths, inst)
        counts[on_h] += 1


def test_horn_symmetric_feasible():
    v = horn_check_e6(SYMMETRIC)
    assert v.feasible
    assert v.witness_dimension.flat() == (1, 1, 1, 1, 1, 1, 3)
    margins = [Q(m) for _, m, ok in v.certificate]
    assert all(ok for _, _, ok in v.certificate)
    assert all(m >= 2 for m in margins)


def test_horn_skewed_infeasible():
    v = horn_check_e6(SKEWED)
    assert v.status == "infeasible"
    names = [name for name, _, ok in v.certificate if not ok]
    assert "a2+b1+b2+c1+c2 > 2a1" in names


def test_horn_symmetry_coincidence(e6):
    inst = make_instance([[3, 1], [3, 1], [3, 1]], 4)
    assert on_hyperplane(e6, inst)
    v = horn_check_e6(inst)
    margins = [m for _, m, _ in v.certificate]
    assert margins[0] == margins[1] == margins[2]


def test_horn_boundary_flagged(e6):
    # 2(a1+b1) = a2+b2+c1+c2 exactly, no inequality violated
    inst = make_instance([[4, 2], [4, 2], [8, 4]], 8)
    assert on_hyperplane(e6, inst)
    v = horn_check_e6(inst)
    assert v.status == "degenerate"


def test_horn_requires_hyperplane():
    with pytest.raises(FeasibilityError):
        horn_check_e6(make_instance([[2, 1], [2, 1], [2, 1]], 4))


@pytest.mark.parametrize("spectra, gamma, status, margins", [
    ([[50], [30], [20], [10]], 55, "feasible", ["5", "25", "35", "45"]),
    ([["5/2"], ["3/2"], [1], [1]], 3, "feasible", ["1/2", "3/2", "2", "2"]),
    ([[60], [30], [20], [10]], 60, "degenerate", ["0", "30", "40", "50"]),
    ([[70], [30], [20], [10]], 65, "infeasible", ["-5", "35", "45", "55"]),
])
def test_quadrangle_check_d4(spectra, gamma, status, margins):
    """The margins gamma - a_i, exact, and their status by the one rule."""
    v = quadrangle_check_d4(make_instance(spectra, gamma))
    assert (v.status, v.branch_taken) == (status, "quadrangle_hyperplane")
    assert [m for _, m, _ in v.certificate] == margins


def test_quadrangle_check_d4_domain():
    with pytest.raises(FeasibilityError, match="off the hyperplane"):
        quadrangle_check_d4(make_instance([[50], [30], [20], [10]], 56))
    with pytest.raises(FeasibilityError, match="does not match the graph"):
        quadrangle_check_d4(SYMMETRIC)


def _horn_instance(rest, target, scale=1):
    """Hyperplane instance whose last Horn margin, a2+b1+b2+c1+c2 - 2a1,
    is exactly ``target``: a1 is solved from the other five spectral values
    and gamma from the level condition sum(a) = 3 gamma."""
    a2, b1, b2, c1, c2 = (Q(v) * scale for v in rest)
    a1 = (a2 + b1 + b2 + c1 + c2 - target) / 2
    gamma = (a1 + a2 + b1 + b2 + c1 + c2) / 3
    return make_instance([[a1, a2], [b1, b2], [c1, c2]], gamma)


@pytest.mark.parametrize("target,status", [
    (Q(0), "degenerate"), (Q(1, 6), "feasible"), (Q(-1, 6), "infeasible"),
])
@pytest.mark.parametrize("scale", [1, 10**15 + 37])
def test_horn_margins_near_zero_match_fraction_reference(e6, target, status, scale):
    """Margins exactly 0 and +-1/6, at moderate and at huge magnitudes,
    with non-integer gamma: the integer margins give the status and the
    certificate text of the Fraction sums."""
    inst = _horn_instance((10, 21, 10, 20, 10), target, scale)
    assert inst.gamma.denominator != 1
    assert on_hyperplane(e6, inst)
    v = horn_check_e6(inst)
    assert v.status == status
    assert v.certificate[11][1] == str(target)
    assert (v.status, list(v.certificate)) == fraction_horn_check(inst)


def test_horn_random_rationals_match_fraction_reference(rng):
    """Hyperplane instances around the symmetric point with denominators
    up to 7 in the spectra: every verdict and margin string equals the
    Fraction reference."""
    seen = set()
    for _ in range(400):
        den = rng.choice((2, 3, 5, 6, 7))
        spectra = [[Q(rng.randint(12 * den, 28 * den), den),
                    Q(rng.randint(2 * den, 11 * den), den)] for _ in range(3)]
        inst = make_instance(spectra, sum(a for b in spectra for a in b) / 3)
        status, cert = fraction_horn_check(inst)
        v = horn_check_e6(inst)
        assert (v.status, list(v.certificate)) == (status, cert), inst
        seen.add(status)
    assert seen == {"feasible", "infeasible", "degenerate"}


def test_trajectories_match_frozen_tables(e6):
    for fam, table in ((FAMILY_LEAF, LEAF_V), (FAMILY_INNER, INNER_V),
                       (FAMILY_ROOT, ROOT_V)):
        for i, expect in enumerate(table):
            got = trajectory_dim(e6, fam, i + 1)
            assert got == tuple(Q(v) for v in expect), (fam.name, i + 1)
        # the period wraps with a delta shift
        wrap = trajectory_dim(e6, fam, fam.period + 1)
        assert wrap == tuple(Q(a) + b for a, b in zip(table[0], DELTA))


def test_anchor_matrices_rederived(e6):
    """Frozen anchor tables equal the stepwise condition matrices of their
    anchor dimensions (terminal row last)."""
    for fam in FAMILIES.values():
        d = trajectory_dim(e6, fam, fam.anchor_k)
        sched = reduction_schedule(e6, d)
        assert sched is not None
        n = e6.n_vertices
        rows = identity(n)
        for dcur, token in sched.steps:
            moved = [
                g
                for g in (e6.odd if token == "even" else e6.even)
                if dcur[g] != 0
            ]
            new_rows = [list(r) for r in rows]
            for g in moved:
                new_rows[g] = [
                    sum(rows[h][j] for h in e6.neighbors[g]) - rows[g][j]
                    for j in range(n)
                ]
            rows = tuple(tuple(r) for r in new_rows)
        expect = tuple(
            tuple(rows[i]) for i in range(n) if i != sched.terminal
        ) + (tuple(rows[sched.terminal]),)
        assert expect == fam.anchor_rows, fam.name


def test_anchor_spot_rows():
    assert FAMILY_LEAF.anchor_rows[6] == tuple(Q(v) for v in (2, -2, 1, -2, 1, -2, 3))
    assert FAMILY_INNER.anchor_rows[0] == tuple(Q(v) for v in (0, 0, 1, -1, 1, -1, 1))
    assert FAMILY_ROOT.anchor_rows[0] == tuple(Q(v) for v in (-1, 1, 0, 0, 0, 0, 0))


def test_closed_form_range_errors():
    with pytest.raises(FeasibilityError):
        closed_form_e6(SYMMETRIC, FAMILY_LEAF, 14)
    with pytest.raises(FeasibilityError):
        closed_form_e6(SYMMETRIC, FAMILY_ROOT, 4)


def test_closed_form_feasible_instances(e6, rng):
    for fam in FAMILIES.values():
        for k in (fam.min_k, fam.min_k + 1):
            d, f, inst = random_feasible_instance(e6, fam, k, rng)
            v = closed_form_e6(inst, fam, k)
            assert v.feasible, (fam.name, k, v.certificate)
            assert v.witness_dimension == n_from_dim(e6, d)


def test_oracle_equivalence_sample(e6, rng):
    """Closed-form and iterative verdicts agree on random rational data."""
    for fam in FAMILIES.values():
        for k in (fam.min_k, fam.min_k + 2):
            d = trajectory_dim(e6, fam, k)
            agree = 0
            total = 0
            while total < 50:
                chi = sorted((rng.randint(1, 60) for _ in range(6)), reverse=True)
                try:
                    inst = make_instance(
                        [chi[0:2], chi[2:4], chi[4:6]], rng.randint(1, 90)
                    )
                except Exception:
                    continue
                f = char_from_chi(e6, inst)
                a = closed_form_e6(inst, fam, k).status
                b = iterative_feasible(e6, d, f).status
                total += 1
                agree += a == b
            assert agree == total, (fam.name, k)


def test_closed_form_and_walk_agree_on_boundary_characters(e6):
    """Terminal data with entries in -2..3 (terminal entry 0), transported
    up the schedule, gives characters with zero and negative margins; the
    closed form and the walk, with and without a trajectory, agree on every
    one, and each family has degenerate verdicts among them."""
    rng = random.Random(7)
    for fam in FAMILIES.values():
        seen = set()
        for k in range(fam.min_k, fam.min_k + 3):
            d = trajectory_dim(e6, fam, k)
            sched = reduction_schedule(e6, d)
            for _ in range(100):
                f_term = [Q(rng.randint(-2, 3)) for _ in range(e6.n_vertices)]
                f_term[sched.terminal] = Q(0)
                f = char_transport_up(e6, sched, tuple(f_term))[-1]
                try:
                    inst = chi_from_char(e6, f)
                except TransferError:
                    continue
                status = closed_form_e6(inst, fam, k).status
                for walked in (True, False):
                    assert iterative_feasible(e6, d, f, walked).status == status
                seen.add(status)
        assert "degenerate" in seen, (fam.name, seen)


def test_iterative_examples(e6):
    # a simple seed with vanishing character value is feasible in 0 steps
    f = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 0))
    v = iterative_feasible(e6, unit_vector(e6, e6.root), f)
    assert v.feasible
    # so is one at a leaf, whose dimension has no ranks (the leaf exceeds
    # its inner vertex): feasible without a witness
    v = iterative_feasible(e6, unit_vector(e6, 0), (0,) + f[1:6] + (1,))
    assert v.feasible and v.witness_dimension is None
    # the radical generator never reduces
    with pytest.raises(FeasibilityError):
        iterative_feasible(e6, DELTA, f)
    # non-roots are rejected
    with pytest.raises(FeasibilityError):
        iterative_feasible(e6, tuple(Q(2) for _ in range(7)), f)


@pytest.mark.parametrize("extra", [1, -1], ids=["8_values", "6_values"])
def test_character_of_wrong_length_is_rejected(e6, rng, extra):
    """A character needs one value per vertex: on E6~ an 8-value one was
    judged feasible and built into a rep with 8 character entries, and a
    6-value one raised a bare IndexError."""
    d, f, _ = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    f = f + (1,) if extra > 0 else f[:-1]
    for run in (lambda: iterative_feasible(e6, d, f),
                lambda: iterative_feasible(e6, d, f, collect_trajectory=False),
                lambda: build_graph_rep(e6, d, f)):
        with pytest.raises(FeasibilityError, match="values for 7 vertices"):
            run()


def test_iterative_scaling_covariance(e6, rng):
    fam = FAMILY_ROOT
    d, f, inst = random_feasible_instance(e6, fam, 6, rng)
    v1 = iterative_feasible(e6, d, f)
    scaled = tuple(Q(7, 3) * x for x in f)
    v2 = iterative_feasible(e6, d, scaled)
    assert v1.status == v2.status == "feasible"


def test_terminal_value_without_walk(rng):
    """The early exit on a nonzero terminal value, and the stop at the first
    negative margin when it is 0, give the verdict and terminal value of the
    full walk, for every candidate on all four extended stars."""
    from starspec import char_transport_up, classify
    from starspec.coxeter import defect

    nonzero = zero = stopped = 0
    for lengths in ([1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]):
        g = build_star(lengths)
        for d in member_scan_candidates(g, 8):
            sched = reduction_schedule(g, d)
            if sched is None:
                continue
            assert abs(defect(g, d)) == classify(g).delta[sched.terminal]
            chars = [
                tuple(Q(rng.randint(-20, 40)) for _ in d),
                tuple(Q(rng.randint(-20, 40), rng.choice((2, 3, 7))) for _ in d),
            ]
            f_term = [Q(rng.randint(1, 30), rng.choice((1, 2))) for _ in d]
            f_term[sched.terminal] = Q(0)
            chars.append(char_transport_up(g, sched, tuple(f_term))[-1])
            # terminal value 0 with one negative margin: the walk without a
            # trajectory stops at its first negative margin
            v = rng.choice([i for i in range(len(d)) if i != sched.terminal])
            f_term[v] = -f_term[v]
            chars.append(char_transport_up(g, sched, tuple(f_term))[-1])
            for f in chars:
                fast = iterative_feasible(g, d, f, collect_trajectory=False)
                full = iterative_feasible(g, d, f, collect_trajectory=True)
                assert fast.status == full.status, (lengths, d, f)
                assert fast.certificate[-1] == full.certificate[-1], (lengths, d, f)
                name, value, ok = full.certificate[-1]
                assert name == "terminal_value"
                walked = full.certificate[0][1][-1][2][sched.terminal]
                assert walked == value
                nonzero += not ok
                zero += ok
                stopped += ok and fast.status == "infeasible"
    assert nonzero > 100 and zero > 100 and stopped > 100


E7_PLATEAU = (1, 2, 3, 1, 2, 4, 2, 5)  # on build_star([3, 3, 1])
E8_PLATEAU = (3, 1, 3, 1, 2, 3, 4, 5, 6)  # on build_star([1, 2, 5])


@pytest.mark.parametrize("lengths,d", [([3, 3, 1], E7_PLATEAU),
                                       ([1, 2, 5], E8_PLATEAU)])
def test_plateau_roots_are_solved(lengths, d, rng):
    """Roots whose walk keeps its total dimension over two steps (once
    skipped as if they could not reduce) carry verified irreducible
    representations, and solve finds a witness for them."""
    from starspec import (
        build_graph_rep,
        canonicalize,
        to_algebra_rep,
        verify_algebra_rep,
        verify_graph_rep,
    )
    from starspec.coxeter import defect
    from starspec.verify import commutant_dimension

    from conftest import feasible_character, plateau_walk

    g = build_star(lengths)
    assert plateau_walk(g, d)
    assert defect(g, d) != 0
    assert d in member_scan_candidates(g, d[g.root])
    f, inst = feasible_character(g, d, rng)
    rep = build_graph_rep(g, d, f)
    assert verify_graph_rep(g, rep, d, f).overall
    arep = to_algebra_rep(g, canonicalize(g, rep), inst)
    assert verify_algebra_rep(arep).overall
    assert commutant_dimension(arep) == 1
    for bound in (d[g.root], 60):
        assert solve(g, inst, scan_bound=bound).feasible, bound


def test_plateau_instance_e7():
    """An E7~ instance feasible in E7_PLATEAU, which the plateau rule
    reported infeasible after 16 (bound 5) and 814 (bound 60) candidates."""
    g = build_star([3, 3, 1])
    inst = make_instance([[144, 94, 44], [156, 83, 51], [86]], 180)
    for bound in (5, 60):
        v = solve(g, inst, scan_bound=bound)
        assert v.feasible
        assert v.branch_taken == f"iterative(d={list(E7_PLATEAU)})"
        assert v.certificate == (("terminal_value", "0", True),)


def test_walk_that_misses_a_unit_vector_raises(monkeypatch):
    """A nonzero-defect walk that ends off a unit vector is an error naming
    d, never a skipped candidate."""
    import starspec.feasibility as feasibility
    from starspec.coxeter import descent

    def first_state_only(graph, d):
        yield next(descent(graph, d))

    monkeypatch.setattr(feasibility, "descent", first_state_only)
    g = build_star([3, 3, 1])
    inst = make_instance([[144, 94, 44], [156, 83, 51], [86]], 180)
    message = r"dimension \[1, 2, 3, 1, 2, 4, 2, 5\] has nonzero defect"
    with pytest.raises(FeasibilityError, match=message):
        solve(g, inst, scan_bound=5)
    with pytest.raises(FeasibilityError, match=message):
        iterative_feasible(g, E7_PLATEAU, char_from_chi(g, inst))
    with pytest.raises(FeasibilityError, match=message):
        build_graph_rep(g, E7_PLATEAU, char_from_chi(g, inst))


def test_regular_root_is_rejected(e6):
    regular = (0, 1, 0, 1, 0, 1, 2)
    with pytest.raises(FeasibilityError, match="regular \\(zero defect\\)"):
        iterative_feasible(e6, regular, (1,) * 7)
    with pytest.raises(FeasibilityError, match="regular \\(zero defect\\)"):
        build_graph_rep(e6, regular, (1,) * 7)


def test_non_integer_dimension_is_rejected(e6, rng):
    """A dimension with a non-integer entry is a RootError before the walk
    turns it into ints, so no entry is truncated into a feasible root."""
    d, f, _ = random_feasible_instance(e6, FAMILY_ROOT, 6, rng)
    assert iterative_feasible(e6, d, f).feasible
    for v in range(len(d)):
        bumped = tuple(Q(x) + Q(1, 2) * (i == v) for i, x in enumerate(d))
        for check in (iterative_feasible, build_graph_rep):
            with pytest.raises(RootError):
                check(e6, bumped, f)


def test_candidate_dimensions(e6):
    """The member scan's table, whose size ``solve`` certifies, holds
    nondegenerate real roots in order of root entry."""
    cands = member_scan_candidates(e6, 12)
    assert candidates_tested(solve(e6, exhausted_instance([2, 2, 2]), 12)) \
        == len(cands) > 0
    roots_entries = [int(d[e6.root]) for d in cands]
    assert roots_entries == sorted(roots_entries)
    assert all(d[e6.root] <= 12 for d in cands)
    from starspec import nondegenerate_dim, tits_form

    for d in cands:
        assert tits_form(e6, d) == 1
        assert nondegenerate_dim(e6, d)


def test_solve_symmetric_horn(e6):
    v = solve(e6, SYMMETRIC)
    assert v.feasible and v.branch_taken == "horn_hyperplane"


def test_e6_candidates_come_after_delta(e6):
    """Every E6~ candidate has root entry above delta's 3, so ``solve``
    decides delta by the Horn test before its scan."""
    assert min(d[e6.root] for d in member_scan_candidates(e6, 200)) > 3


@pytest.mark.parametrize("scan_bound", range(5))
def test_solve_horn_at_small_bounds(e6, scan_bound):
    """The Horn verdict does not depend on the scan bound: a feasible one is
    returned, and a boundary one leaves the exhausted scan degenerate."""
    inst = instance_from_dict(json.loads((DATA / "e6_horn.json").read_text()))
    v = solve(e6, inst, scan_bound=scan_bound)
    assert (v.status, v.branch_taken) == ("feasible", "horn_hyperplane")
    boundary = make_instance([[2, 1], [2, 1], [4, 2]], 4)
    assert horn_check_e6(boundary).status == "degenerate"
    v = solve(e6, boundary, scan_bound=scan_bound)
    assert (v.status, v.branch_taken) == ("degenerate", "exhausted")


def test_solve_real_root_instance(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_INNER, 9, rng)
    v = solve(e6, inst, scan_bound=20)
    assert v.feasible
    assert v.branch_taken.startswith("iterative")


def test_solve_infeasible_off_hyperplane(e6):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 50)
    assert not on_hyperplane(e6, inst)
    v = solve(e6, inst, scan_bound=15)
    assert v.status == "infeasible"
    assert v.branch_taken == "exhausted"


def test_solve_requires_extended(e6):
    wild = build_star([3, 3, 3])
    inst = make_instance([[3, 2, 1], [3, 2, 1], [3, 2, 1]], 5)
    with pytest.raises(FeasibilityError):
        solve(wild, inst)


def test_solve_d4(rng):
    """The scan also works on the four-branch star: a feasible instance in
    dimension (1,1,1,1,3) is found, a generic one is rejected."""
    from starspec.coxeter import char_transport_up, reduction_schedule

    g = build_star([1, 1, 1, 1])
    d = tuple(Q(v) for v in (1, 1, 1, 1, 3))
    sched = reduction_schedule(g, d)
    assert sched is not None
    for _ in range(100):
        f_term = [Q(rng.randint(1, 9)) for _ in range(5)]
        f_term[sched.terminal] = Q(0)
        f = char_transport_up(g, sched, tuple(f_term))[-1]
        try:
            inst = make_instance([[f[i]] for i in range(4)], f[g.root])
        except Exception:
            continue
        v = solve(g, inst, scan_bound=10)
        assert v.feasible
        assert v.branch_taken.startswith("iterative")
        break
    else:
        raise AssertionError("no sample drawn")
    bad = make_instance([[2], [3], [4], [5]], 50)
    w = solve(g, bad, scan_bound=10)
    assert w.status == "infeasible"


def test_feasible_witness_trace_identity(e6, rng):
    """Every feasible verdict's witness satisfies the exact trace pairing."""
    from starspec.transfer import trace_pairing

    for fam in FAMILIES.values():
        d, f, inst = random_feasible_instance(e6, fam, fam.min_k, rng)
        for v in (iterative_feasible(e6, d, f),
                  closed_form_e6(inst, fam, fam.min_k)):
            assert v.feasible
            assert trace_pairing(inst, v.witness_dimension) == 0
    sym = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    hv = horn_check_e6(sym)
    assert trace_pairing(sym, hv.witness_dimension) == 0


def test_closed_form_matches_paper_recursion_shape(e6, rng):
    """The closed form's seven values at level k are the anchor rows times
    the full parity matrices of every level above the anchor (no support
    correction is needed there), applied to the character."""
    from starspec.coxeter import parity_matrix
    from starspec.rational import mat_vec

    for fam in FAMILIES.values():
        rows = fam.anchor_rows
        for level in range(fam.anchor_k + 1, fam.min_k + 31):
            token = fam.token_at(level)
            other = "odd" if token == "even" else "even"
            rows = mat_mul(rows, parity_matrix(e6, other))
            if level < fam.min_k:
                continue
            vals = sorted(rng.sample(range(1, 120), 6), reverse=True)
            drawn = make_instance([[Q(v, 2) for v in vals[i:i + 2]]
                                   for i in (0, 2, 4)], rng.randint(1, 150))
            built = random_feasible_instance(e6, fam, level, rng)[2]
            for inst in (drawn, built):
                cert = closed_form_e6(inst, fam, level).certificate
                assert tuple(Q(value) for _, value, _ in cert) == mat_vec(
                    rows, char_from_chi(e6, inst)), (fam.name, level)


def test_horn_and_closed_form_scaling_covariance(e6, rng):
    """All feasibility predicates are homogeneous: scaling chi by a positive
    rational preserves every verdict."""
    t = Q(5, 2)
    for gamma in (3, 4):
        inst = make_instance([[2, 1], [2, 1], [2, 1]], gamma)
        scaled = make_instance(
            [[t * a for a in b] for b in inst.branches], t * inst.gamma
        )
        if on_hyperplane(e6, inst):
            assert horn_check_e6(inst).status == horn_check_e6(scaled).status
        v1 = closed_form_e6(inst, FAMILY_ROOT, 6).status
        v2 = closed_form_e6(scaled, FAMILY_ROOT, 6).status
        assert v1 == v2


def test_closed_form_end_to_end_built_instance(e6, rng):
    """An instance read off a representation built in dimension d_k passes
    the closed-form test for that k."""
    from starspec import build_graph_rep, to_algebra_rep

    d, f, inst = random_feasible_instance(e6, FAMILY_LEAF, 15, rng)
    rep = build_graph_rep(e6, d, f)
    arep = to_algebra_rep(e6, rep, inst)
    assert arep.instance == inst
    assert closed_form_e6(inst, FAMILY_LEAF, 15).feasible


def test_solve_witnesses_are_constructible(e6, rng):
    """Whatever route produced a feasible verdict, its witness dimension
    supports an actual verified construction."""
    import numpy as np

    from starspec import (
        build_graph_rep,
        build_hyperplane_rep,
        classify,
        dim_from_n,
        to_algebra_rep,
        verify_algebra_rep,
    )

    cls = classify(e6)
    cases = []
    for fam in FAMILIES.values():
        cases.append(random_feasible_instance(e6, fam, fam.min_k + 1, rng)[2])
    cases.append(make_instance([[2, 1], [2, 1], [2, 1]], 3))
    for inst in cases:
        verdict = solve(e6, inst, scan_bound=25)
        assert verdict.feasible
        d = dim_from_n(e6, verdict.witness_dimension)
        if tuple(d) == tuple(cls.delta):
            arep = build_hyperplane_rep(inst, seed=1)
        else:
            f = char_from_chi(e6, inst)
            arep = to_algebra_rep(e6, build_graph_rep(e6, d, f), inst)
        assert verify_algebra_rep(arep).overall
        assert arep.generalized_dimension() == verdict.witness_dimension


STARS = ([1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5])

# The wrong verdicts of the hyperplane regime (D4~, E7~, E8~; feasible in
# delta, printed infeasible, infeasible and degenerate) and the D4~
# instance whose only witness lies past the default bound.
REPRODUCERS = (
    ([1, 1, 1, 1], [[50], [30], [20], [10]], 55),
    ([1, 3, 3], [[3], [3, 2, 1], [3, 2, 1]], "9/2"),
    ([1, 2, 5], [[5], [4, 2], [5, 4, 3, 2, 1]], 7),
    ([1, 1, 1, 1], [[371], [379], [360], [386]], 745),
)


def _random_instance(g, rng, plane=False):
    """Distinct spectral values in 1..60 cut into the branches, with gamma
    drawn in 1..90 or, with ``plane``, put on the hyperplane."""
    lengths = g.branch_lengths
    while True:
        vals = sorted({rng.randint(1, 60) for _ in range(sum(lengths) + 3)},
                      reverse=True)
        if len(vals) >= sum(lengths):
            break
    spectra, i = [], 0
    for m in lengths:
        spectra.append(vals[i:i + m])
        i += m
    if not plane:
        return make_instance(spectra, rng.randint(1, 90))
    coeffs = hyperplane(g).coefficients
    flat = [x for spec in spectra for x in spec]
    return make_instance(spectra,
                         Q(sum(c * x for c, x in zip(coeffs, flat)), -coeffs[-1]))


def _solve_by_public_checks(g, inst, bound, candidates):
    """The decision through the public ``iterative_feasible``: every
    candidate up to the bound in order, none skipped, with the note of a
    hyperplane whose delta is not decided (not the E6~ one, where the Horn
    test comes first).  This is the loop ``solve`` ran before it scaled the
    character once and kept the members of zero pairing per series."""
    from starspec import FeasibilityVerdict

    f = char_from_chi(g, inst)
    note = ()
    if on_hyperplane(g, inst):
        assert g.branch_lengths != (2, 2, 2)
        note = (("hyperplane_regime",
                 "imaginary-root existence not decided for this graph", False),)
    scanned = 0
    boundary_seen = False
    for d in candidates:
        if d[g.root] > bound:
            break
        v = iterative_feasible(g, d, f, collect_trajectory=False)
        scanned += 1
        if v.feasible:
            return FeasibilityVerdict(
                status="feasible", branch_taken=f"iterative(d={[int(x) for x in d]})",
                witness_dimension=v.witness_dimension, certificate=v.certificate,
            )
        boundary_seen = boundary_seen or v.status == "degenerate"
    return FeasibilityVerdict(
        status="degenerate" if boundary_seen else "infeasible",
        branch_taken="exhausted",
        certificate=((
            "exhausted_scan",
            f"no feasible real-root dimension with root entry <= {bound} "
            f"({scanned} candidates tested)",
            True,
        ),) + note,
    )


def test_solve_matches_public_check_loop(rng):
    """solve gives the verdict JSON of the public per-candidate loop at
    bounds 0, 3, 12 and 20: on random and built-feasible off-hyperplane
    instances of all four stars, where one divmod per series picks the
    member to walk; on hyperplane draws of D4~, E7~ and E8~, where every
    member of a zero-pairing series is walked (E8~'s degenerate verdicts
    among them); and on the four wrong-verdict reproducers."""
    from starspec import char_transport_up, chi_from_char
    from starspec.io import dumps, verdict_to_dict

    bounds = (0, 3, 12, 20)
    feasible = plane = plane_degenerate = 0
    for lengths in STARS:
        g = build_star(lengths)
        table = member_scan_candidates(g, max(bounds))
        cands = [d for d in table if reduction_schedule(g, d) is not None]
        instances = [_random_instance(g, rng) for _ in range(8)]
        if lengths != [2, 2, 2]:
            instances += [_random_instance(g, rng, plane=True) for _ in range(8)]
        built = 0
        for _ in range(500):
            if built == 8:
                break
            d = rng.choice(cands)
            sched = reduction_schedule(g, d)
            f_term = [Q(rng.randint(1, 30), rng.choice((1, 2))) for _ in d]
            f_term[sched.terminal] = Q(0)
            try:
                instances.append(
                    chi_from_char(g, char_transport_up(g, sched, tuple(f_term))[-1]))
            except Exception:
                continue
            built += 1
        assert built == 8, f"{lengths}: no 8 built instances in 500 draws"
        instances += [make_instance(spectra, gamma)
                      for star, spectra, gamma in REPRODUCERS if star == lengths]
        for inst in instances:
            on_plane = on_hyperplane(g, inst)
            if on_plane and lengths == [2, 2, 2]:
                continue
            for bound in bounds:
                got = verdict_to_dict(solve(g, inst, scan_bound=bound))
                want = verdict_to_dict(_solve_by_public_checks(g, inst, bound, table))
                assert dumps(got) == dumps(want), (lengths, inst, bound)
                feasible += got["feasible"]
                plane += on_plane
                plane_degenerate += on_plane and got["status"] == "degenerate"
    assert feasible >= 40 and plane >= 100 and plane_degenerate >= 2


@pytest.mark.parametrize("lengths", STARS)
def test_large_bound_costs_nothing_off_hyperplane(lengths):
    """Off the hyperplane ``solve`` keeps at most one member per series, so
    at bound 20000 (where the member tables of E8~ hold about 700000
    dimensions) it allocates under 1 MB, on random draws and on the D4~
    instance feasible past the default bound."""
    import tracemalloc

    g = build_star(lengths)
    rng = random.Random(20000)
    instances = [_random_instance(g, rng) for _ in range(3)]
    if lengths == [1, 1, 1, 1]:
        instances.append(make_instance(*REPRODUCERS[-1][1:]))
    for inst in instances:
        assert not on_hyperplane(g, inst)
        solve(g, inst, scan_bound=0)  # the per-graph series table
        tracemalloc.start()
        try:
            verdict = solve(g, inst, scan_bound=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (inst, peak)
    if lengths == [1, 1, 1, 1]:
        assert verdict.branch_taken == "iterative(d=[60, 60, 59, 60, 120])"


def test_scaled_character_mixed_entries():
    """ints and Fractions are read as they are, anything else through
    Fraction: the same integer vector and scale either way."""
    entries = [3, Q(5, 6), Q(-7, 4), "1/3", 0.5]
    as_fractions = [Q(v) for v in entries]
    assert _scaled_character(entries) == _scaled_character(as_fractions) \
        == ([36, 10, -21, 4, 6], 12)
