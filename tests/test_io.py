import json
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starspec import (
    build_graph_rep,
    build_hyperplane_rep,
    build_star,
    make_instance,
    reduction_schedule,
    to_algebra_rep,
)
from starspec.io import (
    JSON_SCHEMAS,
    IOError_,
    algebra_rep_from_dict,
    algebra_rep_to_dict,
    dumps,
    dumps_pretty,
    instance_from_dict,
    instance_to_dict,
    int_in,
    matrix_in,
    matrix_out,
    rational_in,
    rational_out,
)

from conftest import feasible_character
from oracles import member_scan_candidates


def _pretty_json(obj) -> str:
    """The text ``dumps_pretty`` must reproduce."""
    return json.dumps(obj, sort_keys=True, indent=2, default=matrix_out)


def _rep_file(rep, metadata=None):
    """The parsed text of a representation file."""
    return json.loads(dumps_pretty(algebra_rep_to_dict(rep, metadata)))


def test_rational_io():
    assert rational_out(Q(3)) == 3
    assert rational_out(Q(17, 3)) == "17/3"
    assert rational_in("17/3") == Q(17, 3)
    assert rational_in(4) == Q(4)
    with pytest.raises(IOError_):
        rational_in(0.5)
    with pytest.raises(IOError_):
        rational_in(True)
    for bad in (None, "abc", "1/0", [1]):
        with pytest.raises(IOError_):
            rational_in(bad)
    with pytest.raises(IOError_):
        instance_from_dict({"branches": [[2, 1], [2, "x"], [2, 1]], "gamma": 3})


def test_int_io():
    assert int_in(4) == 4 and type(int_in(4)) is int
    assert int_in("6/2") == 3
    for bad in (True, 3.0, 3.9, "1/2", "x", None, [1]):
        with pytest.raises(IOError_):
            int_in(bad)


def test_integer_fields_reject_non_integers():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = _rep_file(build_hyperplane_rep(inst, seed=0))
    for bad in (3.0, True, "7/2"):
        with pytest.raises(IOError_):
            algebra_rep_from_dict(dict(rep, n0=bad))


def test_instance_roundtrip():
    inst = make_instance([[2, 1], ["7/2", 1], [2, 1]], "17/3")
    data = instance_to_dict(inst)
    assert data["gamma"] == "17/3"
    assert instance_from_dict(json.loads(dumps(data))) == inst


def test_instance_bad_input():
    with pytest.raises(IOError_):
        instance_from_dict({"branches": "nope", "gamma": 1})
    with pytest.raises(IOError_):
        instance_from_dict({"gamma": 1})


def test_matrix_roundtrip():
    m = np.array([[1 + 2j, 0.5], [0, -1j]])
    again = matrix_in(matrix_out(m))
    assert np.abs(m - again).max() == 0
    # rows of numbers: a real matrix, integers read as floats
    m = matrix_in([[1, 2], [3, 4]])
    assert m.dtype == np.float64 and m.shape == (2, 2)
    assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("bad", [
    [[[1.0, 0.0, 7.0]]],               # a third entry in a pair
    [[[1.0]]],                          # a short pair
    [[[True, False]]],                  # booleans
    [[[1.0, 0.0], [0.5, True]]],        # a boolean among numbers
    [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0]]],  # ragged rows
    [[["1", "0"]]],                     # strings
    [[[1.0, None]]],
    [[1.0, True]],                      # a boolean among numbers
    [[1.0, "2"]],                       # a string among numbers
    [[1.0, None]],                      # a null among numbers
    [[1.0, float("nan")]],              # NaN among numbers
    [[float("inf"), 1.0]],              # an infinity among numbers
    [[1.0, -float("inf")]],
    [[1.0, 2.0], [3.0]],                # ragged number rows
    [[1.0, [2.0, 0.0]]],                # a row that mixes numbers and pairs
    [[1.0, 2.0], [[3.0, 0.0], [4.0, 0.0]]],  # rows of different shapes
    [[[1.0, 0.0], [2.0, 0.0]], [3.0, 4.0]],
    [[1.0], 2.0],                       # a number where a row should be
    [1.0, 2.0],                         # a vector, not rows
    [[[[1.0, 0.0]]]],                   # pairs nested one level too deep
    {"re": 1.0},
    {"re": [1.0]},
    5,
    1.5,
    "1.0",
    None,
])
def test_matrix_in_rejects_malformed(bad):
    with pytest.raises(IOError_):
        matrix_in(bad)


def test_matrix_in_types():
    m = matrix_in([[[1, 0], [0.5, -2]]])
    assert m.dtype == np.complex128 and m.shape == (1, 2)
    assert m[0, 1] == 0.5 - 2j
    assert matrix_in([]).shape == (0, 0)
    assert matrix_in([[], []]).shape == (2, 0)
    # rows of numbers read as float64, -0.0 and subnormals kept
    m = matrix_in([[1.0, 0.0]])
    assert m.dtype == np.float64 and m.shape == (1, 2) and m.flags.c_contiguous
    m = matrix_in([[1.5, -0.0], [5e-324, -2]])
    assert m.dtype == np.float64 and m.flags.c_contiguous
    assert m.tolist() == [[1.5, -0.0], [5e-324, -2.0]]
    assert np.signbit(m[0, 1])
    # every imaginary part 0.0 or -0.0: a real file reads as float64
    m = matrix_in([[[1.5, 0.0], [-2, -0.0]], [[0, 0], [3.25, -0.0]]])
    assert m.dtype == np.float64 and m.flags.c_contiguous
    assert m.tolist() == [[1.5, -2.0], [0.0, 3.25]]
    # one nonzero imaginary part makes the whole matrix complex128
    m = matrix_in([[[1.5, 0.0], [-2, 0.0]], [[0, 5e-324], [3.25, -0.0]]])
    assert m.dtype == np.complex128 and m.flags.c_contiguous
    assert m[1, 0] == 5e-324j and m[0, 1] == -2


def _reflection_reps():
    """One reflection-functor construction per extended star: the largest
    schedulable candidate with root entry <= 6."""
    rng = random.Random(3)
    for lengths in ([1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]):
        g = build_star(lengths)
        d = max((c for c in member_scan_candidates(g, 6)
                 if reduction_schedule(g, c) is not None), key=sum)
        f, inst = feasible_character(g, d, rng)
        yield to_algebra_rep(g, build_graph_rep(g, d, f), inst)


def test_constructed_reps_read_back_as_written():
    """Every constructed representation is float64, and its file reads back
    as float64 with the bits that were written."""
    horn = make_instance([[20, 10], [23, 7], [17, 13]], 30)
    hyper = [build_hyperplane_rep(horn, seed=seed) for seed in range(3)]
    for rep in (*_reflection_reps(), *hyper):
        again = algebra_rep_from_dict(_rep_file(rep))
        for b1, b2 in zip(rep.projections, again.projections, strict=True):
            for p, q in zip(b1, b2, strict=True):
                assert p.dtype == q.dtype == np.float64
                assert np.array_equal(p, q)


def _pair_matrix(m):
    """A matrix as files were written before real matrices became rows of
    numbers: row-major [re, im] pairs, im 0.0 for a real matrix."""
    return np.stack((m.real, m.imag), axis=-1).astype(float).tolist()


def test_pair_files_read_back_as_row_files():
    """A representation of each extended star (and a Horn one) written as
    [re, im] pairs reads back float64 and equal to its rows read-back."""
    horn = build_hyperplane_rep(make_instance([[20, 10], [23, 7], [17, 13]], 30))
    for rep in (*_reflection_reps(), horn):
        pair_text = json.dumps(algebra_rep_to_dict(rep), default=_pair_matrix)
        # branches, matrices, rows, entries: each entry is a pair
        assert '"projections": [[[[[' in pair_text
        from_pairs = algebra_rep_from_dict(json.loads(pair_text))
        from_rows = algebra_rep_from_dict(_rep_file(rep))
        for b1, b2 in zip(from_pairs.projections, from_rows.projections,
                          strict=True):
            for p, q in zip(b1, b2, strict=True):
                assert p.dtype == q.dtype == np.float64
                assert np.array_equal(p, q)


def test_matrix_out_real_writes_numbers():
    out = matrix_out(np.array([[1.5, -0.0]]))
    assert out == [[1.5, -0.0]]
    assert all(type(v) is float for v in out[0]) and np.signbit(out[0][1])


def test_algebra_rep_rejects_wrong_projection_shape():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    data = _rep_file(build_hyperplane_rep(inst, seed=0))
    data["projections"][2][1] = [row[:2] for row in data["projections"][2][1]]
    with pytest.raises(IOError_, match="3x3"):
        algebra_rep_from_dict(data)


@pytest.mark.parametrize("n0", [0, -1])
def test_algebra_rep_rejects_nonpositive_n0(n0):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    data = _rep_file(build_hyperplane_rep(inst, seed=0))
    data["n0"] = n0
    data["projections"] = [[[] for _ in branch] for branch in data["projections"]]
    with pytest.raises(IOError_, match="n0 must be a positive integer"):
        algebra_rep_from_dict(data)


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_scalars = (st.none() | st.booleans() | st.integers() | _floats
            | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308])
            | st.text(max_size=6))


@st.composite
def _matrices(draw):
    """[re, im] pair matrices as `matrix_out` writes them, 0x0 and 1x1
    included."""
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(1, 3)) if rows else 0
    return [[[draw(_floats), draw(_floats)] for _ in range(cols)]
            for _ in range(rows)]


@st.composite
def _arrays(draw):
    """float64 and complex128 matrices as `algebra_rep_to_dict` keeps
    projections, NaN, infinities and empty shapes included."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def part():
        return np.array([draw(_floats) for _ in range(rows * cols)],
                        float).reshape(rows, cols)

    m = part()
    if draw(st.booleans()):
        m = m.astype(complex)
        m.imag = part()  # leaves the real parts, infinities included
    return m


_json = st.recursive(
    _scalars | _matrices() | _arrays(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_json)
def test_dumps_pretty_matches_indented_json(obj):
    assert dumps_pretty(obj) == _pretty_json(obj)


def test_dumps_pretty_matches_on_files_and_schemas():
    # float64 projections of the hyperplane optimizer
    horn = []
    for spectra in ([[2, 1], [2, 1], [2, 1]], [[20, 10], [23, 7], [17, 13]]):
        inst = make_instance(spectra, Q(sum(map(sum, spectra)), 3))
        horn += [algebra_rep_to_dict(build_hyperplane_rep(inst, seed=seed),
                                     metadata={"seed": seed, "residual": 1e-12})
                 for seed in (0, 1)]
    # the simple E6~ graph representation at the root: empty edge maps
    grep = {"branches": [2, 2, 2], "dims": [0, 0, 0, 0, 0, 0, 1],
            "edges": {"0,1": [], "1,6": [[]], "2,3": [], "3,6": [[]],
                      "4,5": [], "5,6": [[]]},
            "type": "graph_rep"}
    nested = {"a": [[1, [2]], [], [[]], [{}], ["x", 1.5]], "3": {"b": None}}
    number_keys = {1: [1], 2.5: {}, True: "t"}
    for obj in (*horn, grep, JSON_SCHEMAS, nested, number_keys, [[[-0.0, 1e-310]]]):
        assert dumps_pretty(obj) == _pretty_json(obj)


@pytest.mark.parametrize("lengths", [[1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]])
def test_dumps_pretty_matches_on_reflection_reps(lengths):
    """Real float64 projections of reflection-functor constructions, the
    smallest and the largest schedulable candidate with root entry <= 6."""
    g = build_star(lengths)
    dims = [d for d in member_scan_candidates(g, 6)
            if reduction_schedule(g, d) is not None]
    rng = random.Random(5)
    for d in (dims[0], max(dims, key=sum)):
        f, inst = feasible_character(g, d, rng)
        arep = to_algebra_rep(g, build_graph_rep(g, d, f), inst)
        assert all(p.dtype == np.float64 for b in arep.projections for p in b)
        obj = algebra_rep_to_dict(arep, metadata={"dimension": list(d)})
        assert dumps_pretty(obj) == _pretty_json(obj)


@pytest.mark.parametrize("m", [
    np.array([[-0.0, 1.5], [1e-310, -2.5e300]]),
    np.array([[complex(1, -0.0), complex(-0.0, -0.0)], [0.5j, -1e-310]]),
    np.array([[np.nan, np.inf], [-np.inf, 1.0]]),
    np.array([[complex(np.nan, 0.0), complex(1.0, -np.inf)]]),
    np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((2, 0), complex),
    np.array([[1, 2], [3, 4]]), np.array([[0.1]], np.float32), np.array([0.5, -0.0]),
], ids=["negative-zero", "complex-negative-zero", "nonfinite", "complex-nonfinite",
        "0x0", "3x0", "0x3", "complex-2x0", "int", "float32", "1d"])
def test_dumps_pretty_matches_on_array_leaves(m):
    for obj in (m, [m, m], {"b": {"m": m}, "a": [[m]]}):
        assert dumps_pretty(obj) == _pretty_json(obj)


def test_algebra_rep_roundtrip():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = build_hyperplane_rep(inst, seed=0)
    data = _rep_file(rep, metadata={"seed": 0})
    again = algebra_rep_from_dict(data)
    assert again.instance == rep.instance
    assert again.n0 == rep.n0
    worst = max(
        np.abs(p1 - p2).max()
        for b1, b2 in zip(rep.projections, again.projections)
        for p1, p2 in zip(b1, b2)
    )
    assert worst < 1e-15


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_algebra_rep_projection_count(change):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    data = _rep_file(build_hyperplane_rep(inst, seed=0))
    branch = data["projections"][1]
    if change == "missing":
        branch.pop()
    else:
        branch.append(branch[0])
    with pytest.raises(IOError_, match="projection counts"):
        algebra_rep_from_dict(data)


def test_dumps_deterministic():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    a = dumps(instance_to_dict(inst))
    b = dumps(instance_to_dict(make_instance([[2, 1], [2, 1], [2, 1]], 3)))
    assert a == b
