import json
from fractions import Fraction as Q

import numpy as np
import pytest

from starspec import build_star, build_hyperplane_rep, make_instance, simple_rep
from starspec.io import (
    IOError_,
    algebra_rep_from_dict,
    algebra_rep_to_dict,
    dumps,
    graph_rep_from_dict,
    graph_rep_to_dict,
    instance_from_dict,
    instance_to_dict,
    int_in,
    matrix_in,
    matrix_out,
    rational_in,
    rational_out,
)


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
    g = build_star([2, 2, 2])
    data = json.loads(dumps(graph_rep_to_dict(simple_rep(g, g.root))))
    for bad in ([0, 0, 0, 0, 0, 0, 1.0], [0, 0, 0, 0, 0, 0, True]):
        with pytest.raises(IOError_):
            graph_rep_from_dict(dict(data, dims=bad))
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = algebra_rep_to_dict(build_hyperplane_rep(inst, seed=0))
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
    with pytest.raises(IOError_):
        matrix_in([[1, 2], [3, 4]])


def test_algebra_rep_roundtrip():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = build_hyperplane_rep(inst, seed=0)
    data = json.loads(dumps(algebra_rep_to_dict(rep, metadata={"seed": 0})))
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
    data = json.loads(dumps(algebra_rep_to_dict(build_hyperplane_rep(inst, seed=0))))
    branch = data["projections"][1]
    if change == "missing":
        branch.pop()
    else:
        branch.append(branch[0])
    with pytest.raises(IOError_, match="projection counts"):
        algebra_rep_from_dict(data)


def test_graph_rep_roundtrip():
    g = build_star([2, 2, 2])
    rep = simple_rep(g, g.root, character=tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 0)))
    data = json.loads(dumps(graph_rep_to_dict(rep)))
    again = graph_rep_from_dict(data)
    assert again.dims == rep.dims
    assert again.character == rep.character
    assert set(again.ops) == set(rep.ops)


def test_dumps_deterministic():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    a = dumps(instance_to_dict(inst))
    b = dumps(instance_to_dict(make_instance([[2, 1], [2, 1], [2, 1]], 3)))
    assert a == b
