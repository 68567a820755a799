"""The package's records are immutable NamedTuples: construction still
validates where it did, no field can be assigned, and equal graphs share
one cache entry."""
from fractions import Fraction as Q

import pytest

from starspec import (
    FAMILY_ROOT,
    SpectralInstance,
    TransferError,
    build_hyperplane_rep,
    build_star,
    classify,
    hyperplane,
    make_instance,
    n_from_dim,
    reduction_schedule,
    solve,
    trajectory_dim,
    verify_algebra_rep,
)

from oracles import simple_rep

SPECTRA = ((Q(2), Q(1)),) * 3


@pytest.mark.parametrize("branches, message", [
    (((),) + SPECTRA[1:], "branch 1 has an empty spectrum"),
    (SPECTRA[:1] + ((Q(2), Q(0)),) + SPECTRA[2:], "branch 2 spectrum must be positive"),
    (SPECTRA[:2] + ((Q(1), Q(1)),), "branch 3 spectrum must be strictly decreasing"),
])
def test_spectral_instance_validates_every_construction(branches, message):
    with pytest.raises(TransferError, match=message):
        SpectralInstance(branches, Q(3))
    with pytest.raises(TransferError, match=message):
        SpectralInstance(branches=branches, gamma=Q(3))
    with pytest.raises(TransferError, match=message):
        SpectralInstance(SPECTRA, Q(3))._replace(branches=branches)


def test_spectral_instance_replace_keeps_the_type():
    inst = SpectralInstance(SPECTRA, Q(3))._replace(gamma=Q(4))
    assert type(inst) is SpectralInstance
    assert inst.branch_lengths == (2, 2, 2)
    assert inst.chi() == (2, 1, 2, 1, 2, 1, 4)


def _records():
    e6 = build_star([2, 2, 2])
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    arep = build_hyperplane_rep(inst, seed=1)
    d = trajectory_dim(e6, FAMILY_ROOT, 5)
    return [e6, classify(e6), inst, n_from_dim(e6, d), reduction_schedule(e6, d),
            solve(e6, inst), hyperplane(e6), FAMILY_ROOT, simple_rep(e6, 0),
            arep, verify_algebra_rep(arep)]


def test_no_record_field_can_be_assigned():
    records = _records()
    assert len({type(r) for r in records}) == 11
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_equal_graphs_share_a_classify_entry():
    classify(build_star([1, 3, 3]))
    hits = classify.cache_info().hits
    assert classify(build_star([1, 3, 3])).name == "E7~"
    assert classify.cache_info().hits == hits + 1
