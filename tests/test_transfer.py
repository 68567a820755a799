from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starspec import (
    GeneralizedDimension,
    TransferError,
    build_star,
    char_from_chi,
    chi_from_char,
    dim_from_n,
    make_instance,
    md_matrix,
    mf_matrix,
    n_from_dim,
    nondegenerate_dim,
)
from starspec.graph import ODD
from starspec.rational import mat_vec
from starspec.transfer import trace_pairing

from oracles import determinant, mat_inv

DELTA = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 3))

# stars with 1-5 branches of length 1-8: long branches walk deep into the
# alternating windows
star_lengths = st.lists(st.integers(1, 8), min_size=1, max_size=5)


@st.composite
def instances(draw, lengths=star_lengths):
    """(branch lengths, instance): strictly decreasing positive spectra."""
    lengths = draw(lengths)
    branches = []
    for m in lengths:
        steps = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        den = draw(st.integers(1, 3))
        branches.append([Q(sum(steps[i:]), den) for i in range(m)])
    return lengths, make_instance(branches, draw(st.integers(1, 60)))


@st.composite
def rank_vectors(draw, lengths=star_lengths):
    """(branch lengths, generalized dimension) with ranks 0-5."""
    lengths = draw(lengths)
    branches = tuple(
        tuple(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
        for m in lengths
    )
    return lengths, GeneralizedDimension(n0=draw(st.integers(0, 40)), branches=branches)


@st.composite
def graph_dimensions(draw):
    """(branch lengths, d) with d nondecreasing from each leaf inward, so
    every rank difference is >= 0."""
    g = build_star(draw(star_lengths))
    d = [0] * g.n_vertices
    d[g.root] = draw(st.integers(0, 40))
    for path in g.branches:
        level = 0
        for v in path:
            level += draw(st.integers(0, 4))
            d[v] = level
    return g.branch_lengths, tuple(d)


def test_char_example_branch(e6):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    f = char_from_chi(e6, inst)
    # inner carries a1, outer carries a1 - a2, root carries gamma
    assert f[1] == 2 and f[0] == 1
    assert f[e6.root] == 3


def test_char_single_point_branch():
    g = build_star([1, 1, 1, 1])
    inst = make_instance([[5], [4], [3], [2]], 7)
    f = char_from_chi(g, inst)
    assert tuple(f[:4]) == (Q(5), Q(4), Q(3), Q(2))
    assert f[g.root] == 7


def test_char_longer_branch():
    g = build_star([3])
    inst = make_instance([[7, 4, 1]], 9)
    f = char_from_chi(g, inst)
    # leaf..inner: a2 - a3, a1 - a3, a1
    assert f[:3] == (Q(3), Q(6), Q(7))


def test_chi_roundtrip_symmetric(e6):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    assert chi_from_char(e6, char_from_chi(e6, inst)) == inst


def test_chi_from_char_values(e6):
    f = tuple(Q(v) for v in (2, 5, 2, 5, 2, 5, 4))
    inst = chi_from_char(e6, f)
    assert inst.branches[0] == (Q(5), Q(3))
    assert inst.gamma == 4


def test_chi_from_char_rejects(e6):
    # outer >= inner forces a nonpositive second eigenvalue
    f = tuple(Q(v) for v in (5, 5, 2, 5, 2, 5, 4))
    with pytest.raises(TransferError):
        chi_from_char(e6, f)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_chi_roundtrip_long_branches(case):
    lengths, inst = case
    g = build_star(lengths)
    f = char_from_chi(g, inst)
    for path in g.branches:  # strict chains 0 < f_leaf < ... < f_inner
        chain = [0] + [f[v] for v in path]
        assert all(a < b for a, b in zip(chain, chain[1:]))
    assert chi_from_char(g, f) == inst


def test_dim_examples(e6):
    n = GeneralizedDimension(n0=3, branches=((1, 1), (1, 1), (1, 1)))
    d = dim_from_n(e6, n)
    assert d == DELTA
    assert n_from_dim(e6, d) == n


def test_dim_single_branch_windows():
    g = build_star([4])
    n = GeneralizedDimension(n0=9, branches=((1, 2, 3, 2),))
    d = dim_from_n(g, n)
    # leaf to inner: windows (2..2), (1..2), (1..3), (0..3) of the ranks
    assert d[:4] == (Q(3), Q(5), Q(7), Q(8))
    assert n_from_dim(g, d) == n


def test_dim_degenerate_zero_levels(e6):
    d = tuple(Q(v) for v in (0, 1, 0, 1, 0, 1, 1))
    n = n_from_dim(e6, d)
    assert n.branches == ((1, 0), (1, 0), (1, 0))
    assert not nondegenerate_dim(e6, d)


def test_n_from_dim_rejects_negative(e6):
    d = tuple(Q(v) for v in (2, 1, 1, 2, 1, 2, 3))  # outer above inner
    with pytest.raises(TransferError):
        n_from_dim(e6, d)


@settings(max_examples=50, deadline=None)
@given(rank_vectors())
def test_n_roundtrip_long_branches(case):
    lengths, n = case
    g = build_star(lengths)
    assert n_from_dim(g, dim_from_n(g, n)) == n


def test_nondegenerate_dim(e6):
    assert nondegenerate_dim(e6, DELTA)
    e_root = tuple(Q(int(i == 6)) for i in range(7))
    assert not nondegenerate_dim(e6, e_root)


def test_transfer_matrices_unimodular(e6):
    for mat in (mf_matrix(e6), md_matrix(e6)):
        det = determinant(mat)
        assert det in (1, -1)
        inv = mat_inv(mat)
        assert all(v.denominator == 1 for row in inv for v in row)


@settings(max_examples=60, deadline=None)
@given(instances())
@example(([2, 2, 2], make_instance([[9, 4], [8, 3], [7, 2]], 11)))
def test_mf_matrix_matches_function(case):
    lengths, inst = case
    g = build_star(lengths)
    f = char_from_chi(g, inst)
    assert mat_vec(mf_matrix(g), inst.chi()) == f


@settings(max_examples=60, deadline=None)
@given(graph_dimensions())
@example(((2, 2, 2), DELTA))
def test_md_matrix_matches_function(case):
    lengths, d = case
    g = build_star(lengths)
    n = n_from_dim(g, d)
    assert mat_vec(md_matrix(g), d) == tuple(Q(v) for v in n.flat())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trace_pairing_is_graph_pairing(data):
    """trace_pairing(inst, n) = -sum eps_v f_v d_v with eps = +1 on odd and
    -1 on even vertices: ties chi <-> f to n <-> d without the window table."""
    lengths, inst = data.draw(instances())
    _, n = data.draw(rank_vectors(st.just(lengths)))
    g = build_star(lengths)
    f = char_from_chi(g, inst)
    d = dim_from_n(g, n)
    eps = [1 if p == ODD else -1 for p in g.parity]
    assert trace_pairing(inst, n) == -sum(e * x * y for e, x, y in zip(eps, f, d))


def test_trace_pairing(e6):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    n = GeneralizedDimension(n0=3, branches=((1, 1), (1, 1), (1, 1)))
    assert trace_pairing(inst, n) == 0
    n2 = GeneralizedDimension(n0=3, branches=((2, 0), (1, 1), (1, 1)))
    assert trace_pairing(inst, n2) == 1


def test_instance_validation():
    with pytest.raises(TransferError):
        make_instance([[1, 2]], 3)  # increasing
    with pytest.raises(TransferError):
        make_instance([[2, 0]], 3)  # not positive
    with pytest.raises(TransferError):
        make_instance([[]], 3)  # empty branch
