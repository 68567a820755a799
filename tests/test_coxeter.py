from fractions import Fraction as Q

import pytest

from starspec import (
    CoxeterDomainError,
    DimCharPair,
    build_star,
    classify,
    coxeter_char,
    coxeter_dim,
    coxeter_power_matrix_e6,
    coxeter_power_table_e6,
    elementary_coxeter_matrix,
    iterative_feasible,
    reduction_schedule,
    tits_form,
    unit_vector,
)
from starspec.coxeter import (
    char_transport_up,
    defect,
    parity_matrix,
    signed_delta_e6,
)
from starspec.feasibility import FAMILIES, trajectory_dim
from starspec.rational import mat_mul, mat_pow, mat_vec, identity
from starspec.roots import fundamental_roots

from oracles import reflect, transpose

DELTA = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 3))


def test_reflect_fixes_radical(e6):
    for g in range(7):
        assert reflect(e6, g, DELTA) == DELTA


def test_reflect_involution(e6, rng):
    for _ in range(20):
        x = tuple(Q(rng.randint(-5, 5)) for _ in range(7))
        g = rng.randrange(7)
        assert reflect(e6, g, reflect(e6, g, x)) == x


def test_reflect_root_vertex(e6):
    # only the reflected entry moves: -x_g plus the neighbor values (zero
    # here), so the unit vector just flips sign
    out = reflect(e6, e6.root, unit_vector(e6, e6.root))
    assert out == tuple(-v for v in unit_vector(e6, e6.root))
    # with mass on the neighbors the entry picks up their sum
    x = tuple(Q(v) for v in (0, 1, 0, 1, 0, 1, 1))
    assert reflect(e6, e6.root, x) == tuple(Q(v) for v in (0, 1, 0, 1, 0, 1, 2))


def test_reflect_leaf(e6):
    # single-neighbor reflection: only the leaf entry flips sign
    out = reflect(e6, 0, unit_vector(e6, 0))
    assert out == tuple(-v for v in unit_vector(e6, 0))


def test_coxeter_dim_radical(e6):
    assert coxeter_dim(e6, "even", coxeter_dim(e6, "odd", DELTA)) == DELTA


@pytest.mark.parametrize("token", ["even", "odd"])
@pytest.mark.parametrize("lengths", [(1, 1, 1, 1), (2, 2, 2), (1, 3, 3), (1, 2, 5)],
                         ids=["D4~", "E6~", "E7~", "E8~"])
def test_coxeter_dim_is_simultaneous_reflection(lengths, token, rng):
    g = build_star(lengths)
    n = g.n_vertices
    pset = g.even if token == "even" else g.odd
    for _ in range(10):
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
        expected = x
        for v in pset:
            expected = reflect(g, v, expected)
        assert coxeter_dim(g, token, x) == expected
    # parity_matrix is read off coxeter_dim; check it against the product of
    # the oracle's one-vertex reflection matrices instead
    product = identity(n)
    for v in pset:
        product = mat_mul(transpose([reflect(g, v, e) for e in identity(n)]), product)
    assert parity_matrix(g, token) == product


def test_coxeter_char_support_restriction(e6):
    # dimension supported on the root only; the even step reflects the
    # character exactly at the root (the only odd vertex in the support)
    d = unit_vector(e6, e6.root)
    f = tuple(Q(v) for v in (5, 7, 5, 7, 5, 7, 0))
    newpair = coxeter_char(e6, "even", DimCharPair(d, f))
    assert newpair.f[e6.root] == -f[e6.root] + f[1] + f[3] + f[5]
    assert newpair.f[:6] == f[:6]
    # the odd step needs f > 0 on the odd support but then moves the
    # character only at even vertices inside the support: none here
    f2 = tuple(Q(v) for v in (5, 7, 5, 7, 5, 7, 4))
    pair2 = coxeter_char(e6, "odd", DimCharPair(d, f2))
    assert pair2.f == f2
    assert pair2.d == coxeter_dim(e6, "odd", d)


def test_coxeter_char_full_support(e6):
    f = tuple(Q(v) for v in (1, 4, 2, 5, 3, 6, 9))
    pair = coxeter_char(e6, "even", DimCharPair(DELTA, f))
    # dimensions reflect at even vertices, characters at odd vertices
    assert pair.d == coxeter_dim(e6, "even", DELTA)
    for g in (0, 2, 4, 6):
        assert pair.f[g] == -f[g] + sum(f[h] for h in e6.neighbors[g])
    for g in (1, 3, 5):
        assert pair.f[g] == f[g]


def test_coxeter_char_domain_error(e6):
    f = tuple(Q(v) for v in (1, 0, 2, 5, 3, 6, 9))  # zero on an even vertex
    with pytest.raises(CoxeterDomainError) as err:
        coxeter_char(e6, "even", DimCharPair(DELTA, f))
    assert err.value.vertex == 1


def test_coxeter_char_iterated_matches_manual(e6, rng):
    """The alternating fold equals explicit composition of the restricted
    reflections read off the dimension trajectory."""
    for _ in range(10):
        d = trajectory_dim(e6, FAMILIES["root"], 6)
        f = tuple(Q(rng.randint(1, 9)) for _ in range(7))
        pair = DimCharPair(d, f)
        tokens = ["even", "odd", "even"]
        manual_d, manual_f = d, f
        try:
            folded = pair
            for t in tokens:
                folded = coxeter_char(e6, t, folded)
        except CoxeterDomainError:
            continue
        for t in tokens:
            moved = [
                g
                for g in (e6.odd if t == "even" else e6.even)
                if manual_d[g] != 0
            ]
            nf = list(manual_f)
            for g in moved:
                nf[g] = -manual_f[g] + sum(manual_f[h] for h in e6.neighbors[g])
            manual_f = tuple(nf)
            manual_d = coxeter_dim(e6, t, manual_d)
        assert folded == DimCharPair(manual_d, manual_f)


def test_elementary_matrix_orders(e6):
    ce = elementary_coxeter_matrix(e6)
    co = mat_mul(parity_matrix(e6, "even"), parity_matrix(e6, "odd"))
    assert ce != co
    assert mat_mul(ce, co) == identity(7)  # inverse factor orders
    assert mat_vec(ce, DELTA) == DELTA
    assert mat_vec(co, DELTA) == DELTA


def test_power_matrix_exact(e6):
    c = elementary_coxeter_matrix(e6)
    assert coxeter_power_matrix_e6(e6, 0) == identity(7)
    assert coxeter_power_matrix_e6(e6, 6) == mat_pow(c, 6)
    for k in range(0, 8):
        assert coxeter_power_matrix_e6(e6, k) == mat_pow(c, k)


def test_power_table_drift_identity(e6):
    """The period-six table equals the exact transposed power minus the
    rank-one drift ((k-1)/6) outer(sd, delta), for every k in 0..24."""
    sd = signed_delta_e6()
    for k in range(25):
        power_t = transpose(coxeter_power_matrix_e6(e6, k))
        drift = tuple(
            tuple(Q(k - 1, 6) * sd[i] * DELTA[j] for j in range(7)) for i in range(7)
        )
        expected = tuple(
            tuple(power_t[i][j] - drift[i][j] for j in range(7)) for i in range(7)
        )
        assert coxeter_power_table_e6(k) == expected, f"k={k}"


def test_power_table_spot_values():
    # k=2 entry (0,0) instantiates to -1/6; k=1 table is an integer matrix
    assert coxeter_power_table_e6(2)[0][0] == Q(-1, 6)
    t1 = coxeter_power_table_e6(1)
    assert all(v.denominator == 1 for row in t1 for v in row)


def test_power_table_period_six():
    for k in range(12):
        assert coxeter_power_table_e6(k) == coxeter_power_table_e6(k + 6)


def test_coxeter_preserves_form(e6, rng):
    c = elementary_coxeter_matrix(e6)
    for _ in range(15):
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(7))
        assert tits_form(e6, mat_vec(c, x)) == tits_form(e6, x)


def test_coxeter_twelfth_power_shift(e6, rng):
    c12 = coxeter_power_matrix_e6(e6, 12)
    for _ in range(10):
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(7))
        diff = tuple(a - b for a, b in zip(mat_vec(c12, x), x))
        # difference lies on the radical line
        if any(v != 0 for v in diff):
            ratios = {Q(d, delta) for d, delta in zip(diff, DELTA)}
            assert len(ratios) == 1


def test_reduction_schedule_trajectories(e6):
    for name, fam in FAMILIES.items():
        for k in (fam.min_k, fam.min_k + 3):
            d = trajectory_dim(e6, fam, k)
            sched = reduction_schedule(e6, d)
            assert sched is not None, (name, k)
            assert sched.terminal == fam.seed_vertex
            assert len(sched.steps) == k - 1


def test_reduction_schedule_stalls(e6):
    assert reduction_schedule(e6, DELTA) is None
    stalled = tuple(Q(v) for v in (0, 1, 0, 1, 0, 1, 2))
    assert tits_form(e6, stalled) == 1  # a real root that never reduces
    assert reduction_schedule(e6, stalled) is None


def test_reduction_schedule_simple(e6):
    sched = reduction_schedule(e6, unit_vector(e6, 3))
    assert sched is not None and sched.steps == () and sched.terminal == 3


def test_char_transport_roundtrip(e6, rng):
    """char_transport_up retraces the feasibility walk: the states in the
    trajectory certificate of iterative_feasible, from d down, carry the
    schedule's dimensions and tokens and the upward characters in reverse."""
    fam = FAMILIES["leaf"]
    d = trajectory_dim(e6, fam, 15)
    sched = reduction_schedule(e6, d)
    dims = [list(dd) for dd, _ in sched.steps]
    dims.append(list(unit_vector(e6, sched.terminal)))
    tokens = [t for _, t in sched.steps] + ["terminal"]
    for _ in range(5):
        f_term = tuple(Q(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(7))
        chars = char_transport_up(e6, sched, f_term)
        name, steps = iterative_feasible(e6, d, chars[-1]).certificate[0]
        assert name == "steps"
        assert [dd for dd, _, _ in steps] == dims
        assert [tok for _, tok, _ in steps] == tokens
        assert [tuple(Q(x) for x in ff) for _, _, ff in steps] == chars[::-1]


def relaxed_walk(graph, d, first):
    """Alternate parity maps from d, starting with ``first``, until a unit
    vector (its schedule) or a negative entry (None), within 2*sum(d) + 4
    steps and with no test on how the total moves."""
    token, steps = first, []
    for _ in range(2 * sum(d) + 5):
        if min(d) < 0:
            return None
        if sum(d) == 1:
            return tuple(steps), d.index(1)
        steps.append((d, token))
        d = coxeter_dim(graph, token, d)
        token = "odd" if token == "even" else "even"
    return None


@pytest.mark.parametrize("lengths", [[1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]])
def test_schedule_matches_relaxed_walk(lengths):
    """Every positive real root with root entry <= 30, simple roots aside,
    reduces in exactly the direction its defect picks (even first when
    negative, odd first when positive) and in neither when the defect is 0;
    the schedule is that walk."""
    g = build_star(lengths)
    cls = classify(g)
    seen = {-1: 0, 0: 0, 1: 0}
    for base in fundamental_roots(g, include_negative=True):
        k = max(-v // dv for v, dv in zip(base, cls.delta))
        while True:
            d = tuple(b + k * dv for b, dv in zip(base, cls.delta))
            if d[g.root] > 30:
                break
            k += 1
            if min(d) < 0 or not any(d):
                continue
            sign = (defect(g, d) > 0) - (defect(g, d) < 0)
            seen[sign] += 1
            walks = {t: relaxed_walk(g, d, t) for t in ("even", "odd")}
            sched = reduction_schedule(g, d)
            if sign == 0:
                assert walks == {"even": None, "odd": None}, d
                assert sched is None, d
                continue
            first, other = ("even", "odd") if sign < 0 else ("odd", "even")
            assert walks[first] == (sched.steps, sched.terminal), d
            # a simple root is its own schedule from either side
            assert walks[other] is None or sum(d) == 1, d
    assert min(seen.values()) > 50, seen
