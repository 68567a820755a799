"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
criterion also enforces its runtime budget.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q

import numpy as np
import pytest

from starspec import (
    FAMILIES,
    build_graph_rep,
    build_hyperplane_rep,
    build_star,
    canonicalize,
    char_from_chi,
    chi_from_char,
    closed_form_e6,
    coxeter_power_matrix_e6,
    coxeter_power_table_e6,
    coxeter_series,
    dim_from_n,
    fundamental_roots,
    horn_check_e6,
    iterative_feasible,
    make_instance,
    md_matrix,
    mf_matrix,
    n_from_dim,
    on_hyperplane,
    solve,
    tits_form,
    to_algebra_rep,
    trajectory_dim,
    unit_vector,
    verify_algebra_rep,
)
from starspec.coxeter import signed_delta_e6
from starspec.rational import mat_vec
from starspec.transfer import GeneralizedDimension, trace_pairing
from starspec.verify import commutant_dimension

from conftest import feasible_character, plateau_walk, random_feasible_instance
from oracles import determinant, mat_inv, member_scan_candidates, transpose
from test_roots import DELTA_F_E6, K1_BASES, K2_BASES, K3_BASES

DELTA = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 3))


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number}: FAIL - {description}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"criterion {number} took {dt:.2f}s (budget {budget_s}s)"
    print(f"acceptance {number}: PASS ({dt:.2f}s) - {description}")


def test_criterion_1_root_tables(e6):
    with criterion(1, "root tables: 36 fundamental roots, orbits 12/6/4", 1.0):
        roots = fundamental_roots(e6)
        assert len(roots) == 36
        assert set(roots) == {tuple(Q(v) for v in t) for t in DELTA_F_E6}
        k1 = coxeter_series(e6, unit_vector(e6, 0))
        k2 = coxeter_series(e6, unit_vector(e6, 1))
        k3 = coxeter_series(e6, unit_vector(e6, e6.root))
        assert set(k1) == {tuple(Q(v) for v in t) for t in K1_BASES}
        assert set(k2) == {tuple(Q(v) for v in t) for t in K2_BASES}
        assert set(k3) == {tuple(Q(v) for v in t) for t in K3_BASES}
        assert (len(k1), len(k2), len(k3)) == (12, 6, 4)


def test_criterion_2_coxeter_matrices(e6):
    """Exact rational identity pinning every entry of the closed-form power
    tables against k-fold products of the elementary Coxeter matrix.

    The tables are drift-normalized: they equal the transposed exact power
    minus ((k-1)/6) times the rank-one matrix outer(sd, delta).  That
    rank-one correction is forced: the table depends only on k mod 6 while
    exact powers accumulate a radical shift, so literal equality is
    impossible already at k = 0.  The identity below is the strongest
    statement that holds, and it verifies all printed entries.
    """
    with criterion(2, "closed-form power tables vs exact powers, k=0..24", 1.0):
        sd = signed_delta_e6()
        for k in range(25):
            power_t = transpose(coxeter_power_matrix_e6(e6, k))
            expected = tuple(
                tuple(power_t[i][j] - Q(k - 1, 6) * sd[i] * DELTA[j]
                      for j in range(7))
                for i in range(7)
            )
            assert coxeter_power_table_e6(k) == expected, f"k={k}"
        assert coxeter_power_matrix_e6(e6, 0) == tuple(
            tuple(Q(int(i == j)) for j in range(7)) for i in range(7)
        )


def test_criterion_3_transfer_unimodularity(e6):
    with criterion(3, "transfer matrices unimodular; 1000 round trips", 5.0):
        mf = mf_matrix(e6)
        md = md_matrix(e6)
        for mat in (mf, md):
            assert determinant(mat) in (1, -1)
            inv = mat_inv(mat)
            assert all(v.denominator == 1 for row in inv for v in row)
        rng = random.Random(100)
        for _ in range(1000):
            vals = sorted({rng.randint(1, 400) for _ in range(8)}, reverse=True)
            if len(vals) < 6:
                continue
            inst = make_instance(
                [vals[0:2], vals[2:4], vals[4:6]],
                Q(rng.randint(1, 500), rng.randint(1, 4)),
            )
            f = char_from_chi(e6, inst)
            assert chi_from_char(e6, f) == inst
            assert mat_vec(mf, inst.chi()) == f
            n = GeneralizedDimension(
                n0=rng.randint(1, 30),
                branches=tuple(
                    (rng.randint(0, 9), rng.randint(0, 9)) for _ in range(3)
                ),
            )
            assert n_from_dim(e6, dim_from_n(e6, n)) == n


def test_criterion_4_oracle_equivalence(e6):
    with criterion(4, "closed form vs iterative oracle, 1000 chi per family"
                      " per k (6 k values each)", 60.0):
        for fam in FAMILIES.values():
            for k in range(fam.min_k, fam.min_k + 6):
                d = trajectory_dim(e6, fam, k)
                rng = random.Random(1000 * fam.min_k + k)
                feas_seen = 0
                done = 0
                while done < 1000:
                    if done % 10 == 9:
                        # seed in known-feasible points so both verdict
                        # branches are exercised
                        _, _, inst = random_feasible_instance(e6, fam, k, rng)
                    else:
                        vals = sorted({rng.randint(1, 120) for _ in range(8)},
                                      reverse=True)
                        if len(vals) < 6:
                            continue
                        den = rng.choice((1, 1, 2, 3))
                        inst = make_instance(
                            [[Q(vals[0], den), Q(vals[1], den)],
                             [Q(vals[2], den), Q(vals[3], den)],
                             [Q(vals[4], den), Q(vals[5], den)]],
                            Q(rng.randint(1, 150), den),
                        )
                    f = char_from_chi(e6, inst)
                    a = closed_form_e6(inst, fam, k).status
                    b = iterative_feasible(
                        e6, d, f, collect_trajectory=False
                    ).status
                    assert a == b, (fam.name, k, inst)
                    feas_seen += a == "feasible"
                    done += 1
                assert feas_seen >= 100, (fam.name, k)


def test_criterion_5_horn_case(e6):
    with criterion(5, "Horn case: symmetric feasible, skewed infeasible", 1.0):
        sym = make_instance([[2, 1], [2, 1], [2, 1]], 3)
        v = horn_check_e6(sym)
        assert v.feasible
        assert all(ok for _, _, ok in v.certificate)
        assert all(Q(m) > 0 for _, m, _ in v.certificate)
        skew = make_instance([[10, 1], [2, 1], [2, 1]], "17/3")
        w = horn_check_e6(skew)
        assert w.status == "infeasible"
        failed = {name for name, _, ok in w.certificate if not ok}
        assert "a2+b1+b2+c1+c2 > 2a1" in failed


def test_criterion_6_construction_soundness(e6):
    with criterion(6, "50 constructions per family: verified, irreducible,"
                      " exact trace ranks", 120.0):
        rng = random.Random(600)
        for fam in FAMILIES.values():
            for i in range(50):
                k = fam.min_k + (i % 3)
                d, f, inst = random_feasible_instance(e6, fam, k, rng)
                rep = build_graph_rep(e6, d, f)
                can = canonicalize(e6, rep)
                arep = to_algebra_rep(e6, can, inst)
                report = verify_algebra_rep(arep)
                assert report.overall, (fam.name, k, report.failures())
                resid = float(np.abs(
                    arep.weighted_sum() - float(inst.gamma) * np.eye(arep.n0)
                ).max())
                assert resid < 1e-9
                assert commutant_dimension(arep) == 1
                n = arep.generalized_dimension()
                assert n == n_from_dim(e6, d)
                assert trace_pairing(inst, n) == 0


def test_criterion_7_hyperplane_construction(e6):
    with criterion(7, "50 Horn-feasible instances: optimizer residual < 1e-8,"
                      " verified, irreducible", 120.0):
        rng = random.Random(700)
        built = 0
        attempts = 0
        while built < 50:
            attempts += 1
            assert attempts < 500
            # jitter around the fully symmetric point: the twelve margins
            # are comfortably positive there, so moderate spread survives
            spectra = [
                [rng.randint(17, 23), rng.randint(7, 13)] for _ in range(3)
            ]
            gamma = Q(sum(sum(s) for s in spectra), 3)
            inst = make_instance(spectra, gamma)
            assert on_hyperplane(e6, inst)
            if not horn_check_e6(inst).feasible:
                continue
            rep = build_hyperplane_rep(inst, seed=built)
            resid = float(np.abs(
                rep.weighted_sum() - float(gamma) * np.eye(3)
            ).max())
            assert resid < 1e-8
            report = verify_algebra_rep(rep)
            assert report.overall, report.failures()
            assert commutant_dimension(rep) == 1
            built += 1


def test_criterion_8_dichotomy(e6, e6_class):
    with criterion(8, "500 off-hyperplane instances: no imaginary-root witness",
                   30.0):
        rng = random.Random(800)
        delta_n = n_from_dim(e6, e6_class.delta)
        done = 0
        while done < 500:
            vals = sorted({rng.randint(1, 50) for _ in range(8)}, reverse=True)
            if len(vals) < 6:
                continue
            inst = make_instance(
                [vals[0:2], vals[2:4], vals[4:6]], rng.randint(1, 70)
            )
            if on_hyperplane(e6, inst):
                continue
            verdict = solve(e6, inst, scan_bound=12)
            assert verdict.branch_taken != "horn_hyperplane"
            if verdict.feasible:
                w = verdict.witness_dimension
                assert w is not None
                assert w != delta_n
                d = dim_from_n(e6, w)
                assert tits_form(e6, d) == 1  # real-root witness only
            done += 1


@pytest.mark.parametrize("lengths,has_plateau", [([1, 1, 1, 1], False),
                                                 ([2, 2, 2], False),
                                                 ([1, 3, 3], True),
                                                 ([1, 2, 5], True)])
def test_criterion_8_companion_witnesses(lengths, has_plateau):
    """Criterion 8's witness branch, which its random draws never reach:
    off-hyperplane instances built feasible in real-root dimensions, the
    E7~ and E8~ plateau dimensions among them, get a feasible verdict whose
    witness the iterative route accepts."""
    g = build_star(lengths)
    rng = random.Random(808)
    candidates = member_scan_candidates(g, 20)
    plateau = [d for d in candidates if plateau_walk(g, d)]
    assert bool(plateau) == has_plateau
    dims = rng.sample(candidates, 16) + rng.sample(plateau, min(6, len(plateau)))
    checked = plateau_witnesses = 0
    for d in dims:
        _, inst = feasible_character(g, d, rng)
        if on_hyperplane(g, inst):
            continue
        verdict = solve(g, inst, scan_bound=20)
        assert verdict.feasible, (d, verdict)
        w = dim_from_n(g, verdict.witness_dimension)
        assert w[g.root] <= d[g.root]
        assert iterative_feasible(g, w, char_from_chi(g, inst)).feasible
        checked += 1
        plateau_witnesses += plateau_walk(g, w)
    assert checked >= len(dims) - 2
    assert (plateau_witnesses > 0) == has_plateau
