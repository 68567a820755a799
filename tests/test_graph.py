from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starspec import (
    GraphError,
    bilinear_form,
    build_star,
    classify,
    tits_form,
    unit_vector,
)
from starspec.graph import is_positive_vector

from oracles import determinant, form_matrix, member_scan_candidates

DELTA_E6 = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 3))


def test_build_star_e6(e6):
    assert e6.n_vertices == 7
    assert e6.root == 6
    assert len(e6.neighbors[e6.root]) == 3
    assert len(e6.edges) == 6  # tree: |E| = |V| - 1
    # proper two-coloring with odd root
    assert e6.parity[e6.root] == "odd"
    for a, b in e6.edges:
        assert e6.parity[a] != e6.parity[b]
    assert e6.odd == (0, 2, 4, 6)
    assert e6.even == (1, 3, 5)


def test_build_star_small_cases():
    g = build_star([1])
    assert g.n_vertices == 2
    assert classify(g).name == "A2"
    d4 = build_star([1, 1, 1, 1])
    assert d4.n_vertices == 5
    assert len(d4.neighbors[d4.root]) == 4


def test_build_star_errors():
    with pytest.raises(GraphError):
        build_star([])
    with pytest.raises(GraphError):
        build_star([2, 0])


def test_tits_form_values(e6):
    assert tits_form(e6, DELTA_E6) == 0
    zero = (Q(0),) * 7
    assert tits_form(e6, zero) == 0
    assert tits_form(e6, unit_vector(e6, e6.root)) == 1


def test_tits_form_mismatch(e6):
    with pytest.raises(GraphError):
        tits_form(e6, (Q(1), Q(2)))


def test_bilinear_form_radical(e6):
    for g in range(7):
        assert bilinear_form(e6, DELTA_E6, unit_vector(e6, g)) == 0


def test_bilinear_form_adjacent_pair(e6):
    # adjacent vertices pair to -1: the root and the inner branch-3 vertex
    assert bilinear_form(e6, unit_vector(e6, e6.root), unit_vector(e6, 5)) == -1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=7, max_size=7))
def test_polarization(vals):
    e6 = build_star([2, 2, 2])
    x = tuple(Q(v) for v in vals)
    assert bilinear_form(e6, x, x) == 2 * tits_form(e6, x)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    st.lists(st.integers(-5, 5), min_size=7, max_size=7),
)
def test_bilinear_symmetry(a, b):
    e6 = build_star([2, 2, 2])
    x, y = tuple(map(Q, a)), tuple(map(Q, b))
    assert bilinear_form(e6, x, y) == bilinear_form(e6, y, x)


def test_classify_e6(e6):
    cls = classify(e6)
    assert cls.kind == "ExtendedDynkin"
    assert cls.name == "E6~"
    assert cls.delta == DELTA_E6
    assert cls.extending == (0, 2, 4)


def test_classify_d4_tilde():
    g = build_star([1, 1, 1, 1])
    cls = classify(g)
    assert cls.kind == "ExtendedDynkin"
    assert cls.name == "D4~"
    assert cls.delta[g.root] == 2
    assert all(cls.delta[v] == 1 for v in range(4))


def test_classify_dynkin_family():
    for lengths, name in (
        ([1, 1], "A3"),
        ([3], "A4"),
        ([2, 3], "A6"),
        ([1, 1, 3], "D6"),
        ([2, 2, 1], "E6"),
        ([1, 2, 3], "E7"),
        ([4, 2, 1], "E8"),
    ):
        cls = classify(build_star(lengths))
        assert cls.kind == "Dynkin"
        assert cls.name == name


def test_classify_extended_family():
    for lengths, name in (([3, 1, 3], "E7~"), ([5, 2, 1], "E8~")):
        cls = classify(build_star(lengths))
        assert cls.kind == "ExtendedDynkin"
        assert cls.name == name
        g = build_star(lengths)
        assert tits_form(g, cls.delta) == 0
        # content gcd one and all entries positive
        assert is_positive_vector(cls.delta)


def test_classify_wild_has_witness():
    for lengths in ([3, 3, 3], [2, 2, 3], [1, 1, 1, 1, 1], [2, 1, 1, 1], [6, 7, 8]):
        g = build_star(lengths)
        cls = classify(g)
        assert cls.kind == "Wild"
        w = cls.witness
        assert is_positive_vector(w)
        assert tits_form(g, w) < 0


def test_classify_permutation_invariant():
    a = classify(build_star([1, 2, 5]))
    b = classify(build_star([5, 1, 2]))
    assert a.kind == b.kind and a.name == b.name


def test_delta_minus_extending_is_highest_root(e6, e6_class):
    for v in e6_class.extending:
        x = tuple(d - e for d, e in zip(e6_class.delta, unit_vector(e6, v)))
        assert tits_form(e6, x) == 1


def test_form_matrix_oracle_is_the_bilinear_form(e6):
    m = form_matrix(e6)
    units = [unit_vector(e6, v) for v in range(e6.n_vertices)]
    assert m == tuple(tuple(bilinear_form(e6, x, y) for y in units) for x in units)


def _sylvester_kind(g):
    """Reference classification from the leading principal minors of the
    form matrix.  The first n-1 vertices are disjoint paths, so those minors
    are always positive and the sign of the full determinant decides:
    positive definite, semidefinite with a one-dimensional radical, or
    indefinite."""
    m = form_matrix(g)
    minors = [
        determinant(tuple(row[:k] for row in m[:k])) for k in range(1, len(m) + 1)
    ]
    assert all(v > 0 for v in minors[:-1])
    if minors[-1] > 0:
        return "Dynkin"
    return "ExtendedDynkin" if minors[-1] == 0 else "Wild"


def test_classify_matches_sylvester_reference():
    """Closed-form classify agrees with the exact Sylvester test on every
    star with 1-5 branches of length 1-5, and its delta and witness carry
    their certificates."""
    from itertools import combinations_with_replacement
    from math import gcd

    from starspec.rational import mat_vec

    shapes = [
        s for k in range(1, 6) for s in combinations_with_replacement(range(1, 6), k)
    ]
    assert len(shapes) == 251
    seen = set()
    for shape in shapes:
        g = build_star(shape)
        cls = classify(g)
        assert cls.kind == _sylvester_kind(g), shape
        seen.add(cls.kind)
        if cls.kind == "ExtendedDynkin":
            delta = cls.delta
            assert all(type(v) is int and v > 0 for v in delta)
            assert gcd(*delta) == 1
            assert mat_vec(form_matrix(g), delta) == (0,) * g.n_vertices
            assert cls.extending == tuple(i for i, v in enumerate(delta) if v == 1)
        if cls.kind == "Wild":
            assert is_positive_vector(cls.witness)
            assert tits_form(g, cls.witness) < 0
    assert seen == {"Dynkin", "ExtendedDynkin", "Wild"}


def test_integer_vectors_are_ints():
    """Dimension-side vectors and the integer matrices are ints, not
    integral Fractions."""
    from starspec import (
        FAMILIES,
        coxeter_power_matrix_e6,
        elementary_coxeter_matrix,
        fundamental_roots,
        hyperplane,
        md_matrix,
        mf_matrix,
    )
    from starspec.coxeter import parity_matrix, signed_delta_e6
    from starspec.rational import identity

    for lengths in ([1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]):
        g = build_star(lengths)
        cls = classify(g)
        vectors = (
            [cls.delta, unit_vector(g, 0), hyperplane(g).coefficients]
            + fundamental_roots(g, include_negative=True, include_zero=True)
            + member_scan_candidates(g, 12)
        )
        for mat in (parity_matrix(g, "even"), parity_matrix(g, "odd"),
                    elementary_coxeter_matrix(g), mf_matrix(g), md_matrix(g),
                    identity(g.n_vertices)):
            vectors += list(mat)
        for v in vectors:
            assert all(type(e) is int for e in v), (lengths, v)
    e6 = build_star([2, 2, 2])
    rows = [signed_delta_e6()] + list(coxeter_power_matrix_e6(e6, 5))
    for fam in FAMILIES.values():
        rows += fam.anchor_rows
    for v in rows:
        assert all(type(e) is int for e in v), v


def test_classify_once_per_graph(monkeypatch):
    """A frozen graph is classified once; equal graphs share the class."""
    import starspec.graph as graph

    calls = []
    ramp = graph._ramp
    monkeypatch.setattr(graph, "_ramp", lambda g: calls.append(g) or ramp(g))
    classify.cache_clear()
    first = classify(build_star([1, 2, 5]))
    assert classify(build_star([1, 2, 5])) is first
    assert len(calls) == 1
