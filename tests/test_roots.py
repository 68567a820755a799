import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from starspec import (
    build_star,
    coxeter_dim,
    coxeter_series,
    fundamental_roots,
    is_root,
    tits_form,
    unit_vector,
)
from starspec.roots import RootError, series_base, singular_and_regular_series
from starspec.feasibility import solve
from starspec.io import instance_from_dict

from conftest import candidates_tested, exhausted_instance
from oracles import (
    box_scan_roots, branch_permutation, defect_split, member_scan_candidates,
)

DATA = Path(__file__).parent / "data"

# Full table of the 36 positive coset representatives on the (2,2,2) star,
# extending vertex = branch-1 leaf (first coordinate).
DELTA_F_E6 = [
    (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1, 1),
    (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 1, 1), (0, 0, 0, 1, 1, 1, 1), (0, 0, 1, 1, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 1), (0, 0, 1, 1, 0, 1, 1), (0, 0, 1, 1, 1, 1, 1),
    (0, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 1, 1), (0, 1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 1, 1),
    (0, 1, 0, 1, 0, 1, 2), (0, 1, 0, 1, 1, 1, 1), (0, 1, 0, 1, 1, 1, 2),
    (0, 1, 0, 1, 1, 2, 2), (0, 1, 1, 1, 0, 0, 1), (0, 1, 1, 1, 0, 1, 1),
    (0, 1, 1, 1, 0, 1, 2), (0, 1, 1, 1, 1, 1, 1), (0, 1, 1, 1, 1, 1, 2),
    (0, 1, 1, 1, 1, 2, 2), (0, 1, 1, 2, 0, 1, 2), (0, 1, 1, 2, 1, 1, 2),
    (0, 1, 1, 2, 1, 2, 2), (0, 1, 1, 2, 1, 2, 3), (0, 2, 1, 2, 1, 2, 3),
]

K1_BASES = [
    (0, -2, -1, -2, -1, -2, -3), (0, -1, -1, -2, -1, -2, -3),
    (0, -1, -1, -1, -1, -1, -1), (0, -1, 0, 0, 0, 0, -1),
    (0, 0, -1, -1, -1, -1, -1), (0, 0, 0, -1, 0, -1, -1),
    (0, 0, 0, 1, 0, 1, 1), (0, 0, 1, 1, 1, 1, 1),
    (0, 1, 0, 0, 0, 0, 1), (0, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 2, 1, 2, 3), (0, 2, 1, 2, 1, 2, 3),
]
K2_BASES = [
    (0, -1, -1, -2, -1, -2, -2), (0, -1, -1, -1, -1, -1, -2),
    (0, -1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 1, 1, 1, 2), (0, 1, 1, 2, 1, 2, 2),
]
K3_BASES = [
    (0, -1, 0, -1, 0, -1, -1), (0, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 1, 1),
]


def as_q(t):
    return tuple(Q(v) for v in t)


def test_fundamental_roots_table(e6):
    roots = fundamental_roots(e6)
    assert len(roots) == 36
    assert set(roots) == {as_q(t) for t in DELTA_F_E6}
    for r in roots:
        assert tits_form(e6, r) == 1


def test_fundamental_roots_membership(e6):
    roots = set(fundamental_roots(e6))
    assert as_q((0, 0, 0, 0, 0, 0, 1)) in roots
    assert as_q((0, 1, 1, 2, 1, 2, 3)) in roots
    assert as_q((0, 2, 1, 2, 1, 2, 3)) in roots


def test_fundamental_roots_options(e6):
    with_neg = fundamental_roots(e6, include_negative=True)
    assert len(with_neg) == 72
    with_zero = fundamental_roots(e6, include_zero=True)
    assert len(with_zero) == 37
    assert all(v == 0 for v in with_zero[0])


def test_fundamental_roots_requires_extended(e6):
    wild = build_star([3, 3, 3])
    with pytest.raises(RootError):
        fundamental_roots(wild)


def test_is_root(e6, e6_class):
    assert is_root(e6, e6_class.delta) == "imaginary"
    assert is_root(e6, unit_vector(e6, e6.root)) == "real"
    two = tuple(2 * v for v in unit_vector(e6, e6.root))
    assert is_root(e6, two) is None
    with pytest.raises(RootError):
        is_root(e6, (Q(1, 2),) * 7)


def test_root_shift_closure(e6, e6_class):
    delta = e6_class.delta
    for base in fundamental_roots(e6)[:12]:
        shifted = tuple(b + d for b, d in zip(base, delta))
        assert is_root(e6, shifted) == "real"


def test_coxeter_series_k1_k2_k3(e6):
    k1 = coxeter_series(e6, unit_vector(e6, 0))
    k2 = coxeter_series(e6, unit_vector(e6, 1))
    k3 = coxeter_series(e6, unit_vector(e6, e6.root))
    assert len(k1) == 12 and set(k1) == {as_q(t) for t in K1_BASES}
    assert len(k2) == 6 and set(k2) == {as_q(t) for t in K2_BASES}
    assert len(k3) == 4 and set(k3) == {as_q(t) for t in K3_BASES}
    for k in (k1, k2, k3):
        assert list(k) == sorted(k)


def test_coxeter_series_closure(e6, e6_class):
    k3 = coxeter_series(e6, unit_vector(e6, e6.root))
    e = e6_class.extending[0]
    for base in k3:
        for token in ("even", "odd"):
            img = coxeter_dim(e6, token, base)
            assert series_base(img, e6_class.delta, e) in k3


def test_coxeter_series_rejects_non_root(e6):
    with pytest.raises(RootError):
        coxeter_series(e6, (Q(2),) * 7)


def test_reflections_preserve_form(e6):
    import random

    rnd = random.Random(5)
    for _ in range(25):
        x = tuple(Q(rnd.randint(-4, 4)) for _ in range(7))
        for token in ("even", "odd"):
            assert tits_form(e6, coxeter_dim(e6, token, x)) == tits_form(e6, x)


def test_series_decomposition_counts(e6, e6_class):
    """72 signed series split into 58 functor-reachable and 14 regular ones;
    the three tabulated orbits and branch symmetry cover the reachable part."""
    singular, regular = singular_and_regular_series(e6)
    assert len(singular) + len(regular) == 72
    assert len(singular) == 58
    assert len(regular) == 14
    import itertools

    covered = set()
    e = e6_class.extending[0]
    for bases in (K1_BASES, K2_BASES, K3_BASES):
        for b in bases:
            for p in itertools.permutations(range(3)):
                img = branch_permutation(e6, as_q(b), p)
                covered.add(series_base(img, e6_class.delta, e))
    assert covered == singular


STARS = [[1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]]


@pytest.mark.parametrize("lengths", STARS + [[3, 3, 1], [5, 2, 1], [2, 1, 5]])
@pytest.mark.parametrize("include_negative", [False, True])
@pytest.mark.parametrize("include_zero", [False, True])
def test_fundamental_roots_match_box_scan(lengths, include_negative,
                                          include_zero):
    """Growing the table by height gives the box scan's list, entry types
    and order included, for every extending-vertex position."""
    g = build_star(lengths)
    got = fundamental_roots(g, include_negative, include_zero)
    assert got == box_scan_roots(g, include_negative, include_zero)
    assert all(type(v) is int for x in got for v in x)


@pytest.mark.parametrize("lengths,n_series,n_regular", [
    ([1, 1, 1, 1], 24, 6),
    ([2, 2, 2], 72, 14),
    ([1, 3, 3], 126, 20),
    ([1, 2, 5], 240, 28),
])
def test_regular_series_counts(lengths, n_series, n_regular):
    """The regular series are the zero-defect ones: sum r(r-1) over the tube
    ranks, (2,2,2), (3,3,2), (4,3,2) and (5,3,2) on D4~, E6~, E7~, E8~."""
    g = build_star(lengths)
    singular, regular = singular_and_regular_series(g)
    assert len(singular) + len(regular) == n_series
    assert len(regular) == n_regular


@pytest.mark.parametrize("lengths,n_roots,n_singular,n_candidates", [
    ([1, 1, 1, 1], 12, 18, (90, 162, 522)),
    ([2, 2, 2], 36, 58, (174, 330, 1102)),
    ([1, 3, 3], 63, 106, (214, 426, 1486)),
    ([1, 2, 5], 120, 212, (220, 502, 1916)),
])
def test_root_table_sizes(lengths, n_roots, n_singular, n_candidates):
    """The positive roots of D4, E6, E7 and E8, the singular series built
    on them, and the candidates that ``solve`` certifies at bounds 12, 20
    and 60."""
    g = build_star(lengths)
    assert len(fundamental_roots(g)) == n_roots
    assert len(singular_and_regular_series(g)[0]) == n_singular
    inst = exhausted_instance(lengths)
    assert tuple(candidates_tested(solve(g, inst, scan_bound=b))
                 for b in (12, 20, 60)) == n_candidates


def test_fundamental_roots_work_guard(monkeypatch):
    """The E8~ table costs at most (n - 1)(|roots| + 1) form increments at
    the simple vertices, that is at most |roots| + 1 increment passes, and
    no form value, where the box 0 <= x <= delta holds 151200 vectors."""
    import starspec.roots as roots

    passes = 0
    increments = roots._form_increments

    def counted(graph, x):
        nonlocal passes
        passes += 1
        return increments(graph, x)

    def no_form_value(graph, x):
        raise AssertionError("fundamental_roots computed a form value")

    monkeypatch.setattr(roots, "_form_increments", counted)
    monkeypatch.setattr(roots, "tits_form", no_form_value)
    g = build_star([1, 2, 5])
    table = fundamental_roots(g)
    assert len(table) == 120
    assert 0 < passes <= len(table) + 1


PERMUTED = [[5, 2, 1], [3, 1, 3], [2, 5, 1]]


@pytest.mark.parametrize("lengths", STARS + PERMUTED)
def test_singular_split_matches_defect_of_every_base(lengths):
    g = build_star(lengths)
    assert singular_and_regular_series(g) == defect_split(g)


@pytest.mark.parametrize("lengths", STARS + PERMUTED)
def test_candidate_dimensions_match_member_scan(lengths):
    """The count N in "(N candidates tested)", summed over the series'
    k-intervals, is the size of the member scan's table at every bound up to
    60, on an instance that ``solve`` exhausts."""
    g = build_star(lengths)
    inst = exhausted_instance(lengths)
    for bound in range(61):
        verdict = solve(g, inst, scan_bound=bound)
        assert verdict.branch_taken == "exhausted"
        assert candidates_tested(verdict) == len(member_scan_candidates(g, bound))


def test_candidate_count_far_past_the_tables():
    """On the E6~ golden off-hyperplane instance the count at bound 1000 is
    the member scan's, and at bound 10^6 the one the golden file prints."""
    g = build_star([2, 2, 2])
    inst = instance_from_dict(
        json.loads((DATA / "e6_off_hyperplane.json").read_text()))
    far = solve(g, inst, scan_bound=1000)
    assert candidates_tested(far) == len(member_scan_candidates(g, 1000)) == 19276
    assert candidates_tested(solve(g, inst, scan_bound=10**6)) == 19333276


def test_regular_series_orbit_sizes(e6):
    _, regular = singular_and_regular_series(e6)
    left = set(regular)
    sizes = []
    while left:
        seed = next(iter(left))
        orbit = set(coxeter_series(e6, seed))
        sizes.append(len(orbit))
        left -= orbit
    assert sorted(sizes) == [2, 6, 6]


def test_d4_fundamental_roots():
    g = build_star([1, 1, 1, 1])
    roots = fundamental_roots(g)
    # positive roots of the rank-4 even orthogonal system: 12
    assert len(roots) == 12
    assert all(tits_form(g, r) == 1 for r in roots)

