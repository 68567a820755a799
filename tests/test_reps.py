import json
import random
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from starspec import (
    DimCharPair,
    FAMILY_INNER,
    FAMILY_LEAF,
    FAMILY_ROOT,
    FeasibilityError,
    build_graph_rep,
    build_hyperplane_rep,
    build_star,
    canonicalize,
    char_from_chi,
    chi_from_char,
    coxeter_char,
    dim_from_n,
    make_instance,
    on_hyperplane,
    reduction_schedule,
    solve,
    tits_form,
    to_algebra_rep,
    unit_vector,
    verify_algebra_rep,
    verify_graph_rep,
)
import starspec.reps as reps_module
from starspec.reps import ConstructionError, RepError
from starspec.transfer import nondegenerate_dim
from starspec.verify import commutant_dimension

from conftest import ORACLE_CASES, feasible_character, random_feasible_instance
from oracles import (
    box_scan_roots,
    fraction_route_rep,
    from_algebra_rep,
    graph_rep_replay,
    hom_dimension,
    horn_lm,
    member_scan_candidates,
    reflect_pair,
    simple_rep,
    vertex_operator,
)


def test_simple_rep(e6):
    rep = simple_rep(e6, e6.root)
    assert rep.dims == (0, 0, 0, 0, 0, 0, 1)
    assert tits_form(e6, rep.dims) == 1
    op = vertex_operator(rep, e6.root)
    assert np.abs(op).max() == 0  # no nonzero neighbors: character value 0


def test_simple_rep_character_guard(e6):
    with pytest.raises(RepError):
        simple_rep(e6, 2, character=tuple(Q(1) for _ in range(7)))


def test_reflect_rep_matches_pair_maps(e6, rng):
    """The oracle's reflection of a built representation is locally scalar
    with the reflected pair."""
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    out = reflect_pair(e6, "even", build_graph_rep(e6, d, f))
    newpair = coxeter_char(e6, "even", DimCharPair(d, f))
    assert out.dims == tuple(int(v) for v in newpair.d)
    assert out.character == newpair.f
    report = verify_graph_rep(e6, out, newpair.d, newpair.f)
    assert report.overall, report.failures()


def test_reflect_rep_double_is_identity_up_to_unitary(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_INNER, 8, rng)
    rep = build_graph_rep(e6, d, f)
    back = reflect_pair(e6, "odd", reflect_pair(e6, "odd", rep))
    assert back.dims == rep.dims
    # same (d, f) and a one-dimensional intertwiner space both ways round
    assert hom_dimension(rep, back) == 1
    assert hom_dimension(back, rep) == 1
    assert hom_dimension(rep, rep) == 1


def test_reflect_rep_keeps_zero_outside_parity(e6):
    f = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 0))
    out = reflect_pair(e6, "even", simple_rep(e6, e6.root, character=f))
    # odd vertices keep dimension zero; even neighbors of the root light up
    assert out.dims == (0, 1, 0, 1, 0, 1, 1)


def test_build_graph_rep_families(e6, rng):
    for fam, k in ((FAMILY_ROOT, 5), (FAMILY_INNER, 8), (FAMILY_LEAF, 15)):
        d, f, inst = random_feasible_instance(e6, fam, k, rng)
        rep = build_graph_rep(e6, d, f)
        assert rep.dims == tuple(int(v) for v in d)
        report = verify_graph_rep(e6, rep, d, f)
        assert report.overall, (fam.name, report.failures())
        assert hom_dimension(rep, rep) == 1


def test_build_graph_rep_simple_case(e6):
    """The simple representation at the root is feasible but degenerate:
    the oracle's replay builds it, and `build_graph_rep` refuses it."""
    f = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 0))
    d = unit_vector(e6, e6.root)
    assert graph_rep_replay(e6, d, f).dims == (0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(RepError, match="representation dimension is degenerate"):
        build_graph_rep(e6, d, f)


def test_build_graph_rep_rejects_infeasible(e6):
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 50)
    f = char_from_chi(e6, inst)
    d = unit_vector(e6, e6.root)  # terminal value gamma = 50, not 0
    with pytest.raises(FeasibilityError):
        build_graph_rep(e6, d, f)


def test_canonicalize_leaf_edge_form(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 6, rng)
    rep = build_graph_rep(e6, d, f)
    can = canonicalize(e6, rep)
    # character and dimension are untouched
    assert can.dims == rep.dims
    report = verify_graph_rep(e6, can, d, f)
    assert report.overall, report.failures()
    for leaf, inner, spec in ((0, 1, inst.branches[0]), (2, 3, inst.branches[1]),
                              (4, 5, inst.branches[2])):
        mat = can.gamma(leaf, inner)  # H_inner -> H_leaf
        n_leaf, n_inner = mat.shape
        # single nonzero block sqrt(a1 - a2) I in the rightmost columns
        scale = float(np.sqrt(float(spec[0] - spec[1])))
        target = np.zeros_like(mat)
        target[:, n_inner - n_leaf:] = scale * np.eye(n_leaf)
        assert np.abs(np.abs(mat) - np.abs(target)).max() < 1e-9


def test_canonicalize_idempotent_shape(e6, rng):
    # non-root edges are already canonical after one pass, so a second pass
    # changes them at most by phases; root edges keep their freedom
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 6, rng)
    rep = build_graph_rep(e6, d, f)
    can1 = canonicalize(e6, rep)
    can2 = canonicalize(e6, can1)
    for key in can1.ops:
        if e6.root in key:
            continue
        assert np.abs(np.abs(can1.ops[key]) - np.abs(can2.ops[key])).max() < 1e-9


def test_long_branch_pipeline(rng):
    """Full pipeline on the (5,2,1) star: branches of length five exercise
    the general alternating-ends bookkeeping."""
    from starspec import chi_from_char
    from starspec.coxeter import char_transport_up

    g = build_star([5, 2, 1])
    cands = member_scan_candidates(g, 8)
    # sincere dimension that actually reduces (regular roots never do)
    d = next(
        c for c in cands
        if all(v > 0 for v in c) and reduction_schedule(g, c) is not None
    )
    sched = reduction_schedule(g, d)
    for _ in range(300):
        f_term = [Q(rng.randint(1, 20)) for _ in range(g.n_vertices)]
        f_term[sched.terminal] = Q(0)
        f = char_transport_up(g, sched, tuple(f_term))[-1]
        try:
            inst = chi_from_char(g, f)
        except Exception:
            continue
        rep = build_graph_rep(g, d, f)
        assert verify_graph_rep(g, rep, d, f).overall
        can = canonicalize(g, rep)
        assert verify_graph_rep(g, can, d, f).overall
        # canonical non-root edges have at most one nonzero entry per row
        # and per column (zero block next to scaled identity blocks)
        for path in g.branches:
            for a, b in zip(path, path[1:]):
                mat = np.abs(can.gamma(a, b))
                mask = mat > 1e-8
                assert mask.sum(axis=0).max() <= 1
                assert mask.sum(axis=1).max() <= 1
        arep = to_algebra_rep(g, can, inst)
        assert verify_algebra_rep(arep).overall
        assert commutant_dimension(arep) == 1
        return
    pytest.skip("no valid long-branch sample drawn")


def test_canonicalize_is_isomorphic_and_keeps_root():
    """canonicalize returns an isomorphic copy with the same root Gram
    matrices T T^*, still locally scalar with the character; long branches
    (E7~, E8~ in both branch orders) reach deep windows."""
    n_cases = 0
    for lengths in ([1, 1, 1, 1], [2, 2, 2], [3, 3, 1], [2, 5, 1], [5, 2, 1]):
        g = build_star(lengths)
        # the first schedulable candidate at each root entry up to 12
        dims = {}
        for d in member_scan_candidates(g, 12):
            if reduction_schedule(g, d) is not None:
                dims.setdefault(d[g.root], d)
        rng = random.Random(7)
        for d in dims.values():
            f, inst = feasible_character(g, d, rng)
            rep = build_graph_rep(g, d, f)
            can = canonicalize(g, rep)
            assert can.dims == rep.dims and can.character == rep.character
            assert hom_dimension(rep, can) == 1, (lengths, d)
            scale = max(float(spec[0]) for spec in inst.branches)
            for path in g.branches:
                t_rep, t_can = (r.gamma(g.root, path[-1]) for r in (rep, can))
                gram_gap = np.abs(t_rep @ t_rep.T - t_can @ t_can.T).max()
                assert gram_gap < 1e-10 * scale, (lengths, d)
            report = verify_graph_rep(g, can, d, f)
            assert report.overall, (lengths, d, report.failures())
            # build_graph_rep lays out its root eigenspaces as canonicalize
            # does: a fixed point up to the basis of each root eigenspace,
            # so root edges are compared by their Gram matrices
            for key, mat in rep.ops.items():
                other = can.ops[key]
                if g.root in key:
                    mat, other = mat @ mat.T, other @ other.T
                assert np.abs(mat - other).max() < 1e-12 * scale, (lengths, d, key)
            n_cases += 1
    assert n_cases >= 40


CLOSE_SPECTRUM = Path(__file__).parent / "data" / "e6_close_spectrum.json"


def test_close_spectrum_constructs(e6):
    """Spectrum points 2e-10 apart on branch 1: the rank-ordered split
    separates them, so the construction verifies."""
    from starspec.io import instance_from_dict

    inst = instance_from_dict(json.loads(CLOSE_SPECTRUM.read_text()))
    d = (1, 2, 1, 2, 1, 2, 4)
    f = char_from_chi(e6, inst)
    assert solve(e6, inst).feasible
    arep = to_algebra_rep(e6, build_graph_rep(e6, d, f), inst)
    assert arep.generalized_dimension().branches == ((1, 1),) * 3
    gamma = float(inst.gamma)
    assert np.abs(arep.weighted_sum() - gamma * np.eye(4)).max() < 1e-12 * gamma
    assert verify_algebra_rep(arep).overall
    assert commutant_dimension(arep) == 1


E8_PAST_BOUND = Path(__file__).parent / "data" / "e8_past_bound.json"


def test_witness_past_default_bound_constructs():
    """The E8~ witness at scan bound 100 has root entry 98, past the
    benchmark's depths: its root steps keep the certificate, and the
    construction verifies and is irreducible."""
    from starspec.io import instance_from_dict

    inst = instance_from_dict(json.loads(E8_PAST_BOUND.read_text()))
    g = build_star(inst.branch_lengths)
    verdict = solve(g, inst, scan_bound=100)
    d = dim_from_n(g, verdict.witness_dimension)
    assert d[g.root] == 98
    arep = to_algebra_rep(g, build_graph_rep(g, d, char_from_chi(g, inst)), inst)
    assert verify_algebra_rep(arep).overall
    assert commutant_dimension(arep) == 1


@pytest.mark.parametrize("scale", [1, 10**6, 10**12])
@pytest.mark.parametrize("lengths", [[1, 1, 1, 1], [2, 2, 2], [3, 3, 1], [1, 2, 5]])
def test_large_characters_construct(lengths, scale):
    """Scaling a feasible character keeps it feasible; the eigenvalue
    checks of to_algebra_rep scale with a_1, so the construction succeeds
    with a residual small relative to gamma.  On E6~ the first case is
    [[94,35],[90,32],[88,21]], gamma 158, in (1,3,1,3,1,3,4)."""
    g = build_star(lengths)
    rng = random.Random(3)
    pairs = []
    if lengths == [2, 2, 2]:
        inst = make_instance([[94, 35], [90, 32], [88, 21]], 158)
        pairs.append(((1, 3, 1, 3, 1, 3, 4), char_from_chi(g, inst)))
    for d in member_scan_candidates(g, 8):
        if len(pairs) == 2:
            break
        if d[g.root] >= 4 and reduction_schedule(g, d) is not None:
            pairs.append((d, feasible_character(g, d, rng)[0]))
    assert len(pairs) == 2
    for d, f in pairs:
        f = tuple(scale * x for x in f)
        arep = to_algebra_rep(g, build_graph_rep(g, d, f), chi_from_char(g, f))
        gamma = float(arep.instance.gamma)
        residual = np.abs(arep.weighted_sum() - gamma * np.eye(arep.n0)).max()
        assert residual < 1e-13 * gamma, (d, scale, residual)
        assert commutant_dimension(arep) == 1


def _assert_matches_oracle(g, rep, ref, d, f):
    """``rep`` and the oracle ``ref`` are isomorphic, with exactly the dims
    and character and the same root Gram spectra within 1e-12 times the
    character scale; ``rep`` is locally scalar with (d, f)."""
    assert rep.dims == ref.dims == tuple(d)
    assert rep.character == ref.character == tuple(f)
    assert list(map(type, rep.character)) == list(map(type, ref.character))
    assert rep.ops.keys() == ref.ops.keys()
    assert hom_dimension(rep, ref) == 1, d
    scale = max(abs(float(x)) for x in f)
    for path in g.branches:
        t_rep, t_ref = (r.gamma(g.root, path[-1]) for r in (rep, ref))
        gap = np.abs(np.linalg.eigvalsh(t_rep @ t_rep.T)
                     - np.linalg.eigvalsh(t_ref @ t_ref.T)).max()
        assert gap < 1e-12 * scale, (d, gap)
    report = verify_graph_rep(g, rep, d, f)
    assert report.overall, (d, report.failures())


@pytest.mark.parametrize(
    "lengths", [[1, 1, 1, 1], [2, 2, 2], [3, 3, 1], [1, 2, 5], [2, 5, 1], [5, 2, 1]])
def test_build_graph_rep_matches_fraction_route(lengths):
    """The replay of the feasibility walk's states builds a representation
    isomorphic to the Fraction route's (the character pushed down the
    schedule, then recomputed and checked at every upward step by
    coxeter_char) and to the replay that builds a `GraphRep` per step,
    with exactly their dims and character and their root Gram spectra, on
    the first schedulable candidate at each root entry up to 12, with an
    integer character and with that character times 7/3 (common
    denominator 3)."""
    g = build_star(lengths)
    dims = {}
    for d in member_scan_candidates(g, 12):
        if reduction_schedule(g, d) is not None:
            dims.setdefault(d[g.root], d)
    assert len(dims) >= 5
    rng = random.Random(11)
    pairs = []
    for d in dims.values():
        f, _ = feasible_character(g, d, rng)
        pairs += [(d, f), (d, tuple(Q(7, 3) * x for x in f))]
    for d, f in pairs:
        rep = build_graph_rep(g, d, f)
        for ref in (fraction_route_rep(g, d, f), graph_rep_replay(g, d, f)):
            _assert_matches_oracle(g, rep, ref, d, f)


@pytest.mark.parametrize(
    "branches,d", ORACLE_CASES,
    ids=[f"{''.join(map(str, b))}-n0={d[-1]}" for b, d in ORACLE_CASES],
)
def test_build_graph_rep_matches_graph_rep_oracle(branches, d):
    """`build_graph_rep` matches the replay that builds a `GraphRep` per
    step and the Fraction route, up to isomorphism, on small and medium
    dimensions of every extended star."""
    g = build_star(branches)
    f, _ = feasible_character(g, d, random.Random(5))
    rep = build_graph_rep(g, d, f)
    for ref in (graph_rep_replay(g, d, f), fraction_route_rep(g, d, f)):
        _assert_matches_oracle(g, rep, ref, d, f)


@pytest.mark.parametrize("lengths", [[1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]])
def test_degenerate_dims_are_refused(lengths):
    """A feasible pair in a degenerate dimension has no algebra
    representation, so `build_graph_rep` refuses it, while the oracle's
    replay builds a locally scalar representation: a unit vector at a leaf
    (character 0 there), which is not generated at the root, and the four
    largest schedulable degenerate roots below delta."""
    g = build_star(lengths)
    rng = random.Random(13)
    leaf = g.branches[0][0]
    f = tuple(Q(0) if v == leaf else Q(rng.randint(1, 9))
              for v in range(g.n_vertices))
    cases = [(unit_vector(g, leaf), f)]
    degenerate = [d for d in box_scan_roots(g) if not nondegenerate_dim(g, d)
                  and reduction_schedule(g, d) is not None]
    for d in sorted(degenerate, key=sum)[-4:]:
        cases.append((d, feasible_character(g, d, rng)[0]))
    for d, f in cases:
        with pytest.raises(RepError, match="representation dimension is degenerate"):
            build_graph_rep(g, d, f)
        ref = graph_rep_replay(g, d, f)
        assert ref.dims == tuple(d)
        assert verify_graph_rep(g, ref, d, f).overall, d


@pytest.mark.parametrize("bumped", ["inner", "root"])
def test_build_graph_rep_rejects_root_that_is_not_locally_scalar(monkeypatch, bumped):
    """A walk state whose character is raised by 1/scale at one vertex is
    caught by the root certificate m m^T = f_root I.  At an inner vertex,
    f_v I - A_j becomes invertible and the next root step's factors miss
    its smallest eigenvalues; at the root, the step's own f_root is off."""
    g = build_star([2, 2, 2])
    d = (3, 7, 3, 6, 3, 6, 10)
    f, _ = feasible_character(g, d, random.Random(5))
    walk = reps_module._walk_pair
    vertex = g.branches[0][-1] if bumped == "inner" else g.root
    step_token = "even" if vertex in g.even else "odd"

    def bump(*args):
        verdict, states, scale = walk(*args)
        i = next(i for i, (_, token, _) in enumerate(states) if token == step_token)
        dcur, token, fcur = states[i]
        fcur = list(fcur)
        fcur[vertex] += 1
        states[i] = (dcur, token, fcur)
        return verdict, states, scale

    monkeypatch.setattr(reps_module, "_walk_pair", bump)
    with pytest.raises(RepError, match=r"the root is not locally scalar: residual "):
        build_graph_rep(g, d, f)


@pytest.mark.parametrize("shift", [-1, 1])
def test_build_graph_rep_rejects_wrong_kernel_dimension(monkeypatch, shift):
    """A root step whose state names a root dimension other than its
    kernel's is a `RepError` naming the root: the kernel of the stacked
    root factors keeps its dimension whatever the state says."""
    g = build_star([2, 2, 2])
    d = (3, 7, 3, 6, 3, 6, 10)
    f, _ = feasible_character(g, d, random.Random(5))
    walk = reps_module._walk_pair
    root_token = "even" if g.root in g.even else "odd"

    def shifted(*args):
        verdict, states, scale = walk(*args)
        i = next(i for i, (_, token, _) in enumerate(states) if token == root_token)
        dcur, token, fcur = states[i]
        dcur = list(dcur)
        dcur[g.root] += shift
        states[i] = (tuple(dcur), token, fcur)
        return verdict, states, scale

    monkeypatch.setattr(reps_module, "_walk_pair", shifted)
    with pytest.raises(RepError, match=rf"kernel dimension \d+ at vertex {g.root} "
                                       "does not match the reflected dimension"):
        build_graph_rep(g, d, f)


# D4~ delta on the hyperplane a_1 + ... + a_4 = 2 gamma: two-dimensional,
# the margins gamma - a_i are 5, 25, 35, 45
D4_REPRODUCER = make_instance([[50], [30], [20], [10]], 55)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hyperplane_rep_matches_horn_sweep_oracle(seed):
    """The vectorized optimizer gives the projections of the one that builds
    each Jacobian column from its own generator, to within 1e-10 (the two
    round differently, so their paths part in the last bits), on
    Horn-feasible E6~ draws near (20, 10) per branch and on the D4~
    reproducer at each build seed."""
    rng = random.Random(seed)
    draws = [[[rng.randint(17, 23), rng.randint(7, 13)] for _ in range(3)]
             for _ in range(3)]
    for inst in [make_instance(spectra, Q(sum(map(sum, spectra)), 3))
                 for spectra in draws] + [D4_REPRODUCER]:
        got = build_hyperplane_rep(inst, seed=seed)
        ref = horn_lm(inst, seed=seed)
        for b1, b2 in zip(got.projections, ref.projections, strict=True):
            for p, q in zip(b1, b2, strict=True):
                assert p.dtype == q.dtype == np.float64
                assert np.abs(p - q).max() < 1e-10


# Horn-feasible draws near (20, 10) per branch on which an eigenvector-
# alignment sweep from the seed-1 start needs more than 10,000 sweeps
SWEEP_PLATEAUS = [
    ([[21, 8], [23, 7], [23, 11]], 31), ([[17, 13], [23, 11], [17, 9]], 30),
    ([[18, 8], [19, 8], [20, 11]], 28), ([[18, 9], [21, 10], [20, 9]], 29),
    ([[17, 9], [17, 7], [17, 11]], 26), ([[17, 10], [19, 10], [19, 12]], 29),
    ([[20, 12], [19, 8], [18, 13]], 30), ([[17, 9], [23, 7], [21, 13]], 30),
    ([[20, 13], [23, 8], [17, 9]], 30), ([[18, 13], [21, 8], [17, 13]], 30),
    ([[20, 9], [22, 7], [20, 9]], 29), ([[21, 11], [18, 8], [19, 13]], 30),
]
# the segment from the Horn boundary instance (2,1), (2,1), (4,2), gamma 4,
# toward (2,1)^3, gamma 3, at t = 10^-e: smallest Horn margin 3t at scale 4
NEAR_BOUNDARY = [([[2, 1], [2, 1], [4 - 2 * Q(1, 10 ** e), 2 - Q(1, 10 ** e)]],
                  4 - Q(1, 10 ** e)) for e in range(4, 9)]


@pytest.mark.parametrize("spectra, gamma, seeds", (
    [pytest.param(spectra, gamma, [1], id=f"plateau{i}")
     for i, (spectra, gamma) in enumerate(SWEEP_PLATEAUS)]
    + [pytest.param(spectra, gamma, [0, 1, 2], id=f"t=1e-{e}")
       for e, (spectra, gamma) in enumerate(NEAR_BOUNDARY, start=4)]
))
def test_hyperplane_rep_builds_hard_instances(monkeypatch, spectra, gamma, seeds):
    """Each builds a verified irreducible representation within 60
    optimizer steps at each seed."""
    monkeypatch.setattr(reps_module, "_MAX_ITERS", 60)
    for seed in seeds:
        rep = build_hyperplane_rep(make_instance(spectra, gamma), seed=seed)
        assert verify_algebra_rep(rep).overall
        assert commutant_dimension(rep) == 1


def test_to_algebra_rep(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_INNER, 9, rng)
    rep = build_graph_rep(e6, d, f)
    arep = to_algebra_rep(e6, rep, inst)
    report = verify_algebra_rep(arep)
    assert report.overall, report.failures()
    n = arep.generalized_dimension()
    from starspec import n_from_dim

    assert n == n_from_dim(e6, d)
    resid = np.abs(arep.weighted_sum() - float(inst.gamma) * np.eye(arep.n0)).max()
    assert resid < 1e-9
    assert commutant_dimension(arep) == 1


def test_to_algebra_rep_d4_star(rng):
    """Four-branch toy: single eigenvalue per branch, ranks (1,1,1,1;3)."""
    from starspec.coxeter import char_transport_up

    g = build_star([1, 1, 1, 1])
    d = tuple(Q(v) for v in (1, 1, 1, 1, 3))
    assert tits_form(g, d) == 1
    sched = reduction_schedule(g, d)
    assert sched is not None
    for _ in range(50):
        f_term = [Q(rng.randint(1, 9)) for _ in range(5)]
        f_term[sched.terminal] = Q(0)
        f = char_transport_up(g, sched, tuple(f_term))[-1]
        try:
            inst = make_instance([[f[i]] for i in range(4)], f[g.root])
        except Exception:
            continue
        rep = build_graph_rep(g, d, f)
        arep = to_algebra_rep(g, rep, inst)
        report = verify_algebra_rep(arep)
        assert report.overall, report.failures()
        assert arep.generalized_dimension().flat() == (1, 1, 1, 1, 3)
        return
    pytest.skip("no valid sample drawn")


def test_to_algebra_rep_rejects_degenerate(e6):
    f = tuple(Q(v) for v in (1, 2, 1, 2, 1, 2, 0))
    rep = graph_rep_replay(e6, unit_vector(e6, e6.root), f)
    with pytest.raises(RepError):
        to_algebra_rep(e6, rep, chi_from_char(e6, f))


def test_to_algebra_rep_rejects_instance_of_another_star(e6, rng):
    d, f, _ = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    rep = build_graph_rep(e6, d, f)
    with pytest.raises(RepError, match="does not match the graph"):
        to_algebra_rep(e6, rep, make_instance([[2, 1], [2, 1]], 3))


def test_build_hyperplane_rep_symmetric():
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    rep = build_hyperplane_rep(inst, seed=7)
    resid = np.abs(rep.weighted_sum() - 3.0 * np.eye(3)).max()
    assert resid < 1e-8
    report = verify_algebra_rep(rep)
    assert report.overall, report.failures()
    assert commutant_dimension(rep) == 1


def test_build_hyperplane_rep_reproducible():
    inst = make_instance([[5, 2], [4, 1], [6, 3]], 7)
    r1 = build_hyperplane_rep(inst, seed=3)
    r2 = build_hyperplane_rep(inst, seed=3)
    for b1, b2 in zip(r1.projections, r2.projections):
        for p1, p2 in zip(b1, b2):
            assert np.abs(p1 - p2).max() == 0


def test_build_hyperplane_rep_rejects_negative_seed():
    """Seed s draws from random.Random(s), which seeds from the absolute
    value: a negative seed would reuse the draws of a non-negative one, so
    it is refused."""
    inst = make_instance([[5, 2], [4, 1], [6, 3]], 7)
    with pytest.raises(ValueError, match="non-negative"):
        build_hyperplane_rep(inst, seed=-1)
    assert verify_algebra_rep(build_hyperplane_rep(inst, seed=0)).overall


def test_build_hyperplane_rep_rejects_infeasible():
    with pytest.raises(FeasibilityError):
        build_hyperplane_rep(make_instance([[10, 1], [2, 1], [2, 1]], "17/3"))
    with pytest.raises(FeasibilityError):
        build_hyperplane_rep(make_instance([[2, 1], [2, 1], [2, 1]], 4))
    with pytest.raises(FeasibilityError, match="no imaginary root"):
        build_hyperplane_rep(make_instance([[2, 1], [2, 1]], 3))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_hyperplane_rep_d4_delta(seed):
    """The optimizer sizes itself by D4~'s delta, ranks (1;1;1;1) at root
    entry 2, and builds a verified irreducible representation."""
    rep = build_hyperplane_rep(D4_REPRODUCER, seed=seed)
    assert rep.n0 == 2
    assert rep.generalized_dimension().flat() == (1, 1, 1, 1, 2)
    assert verify_algebra_rep(rep).overall
    assert commutant_dimension(rep) == 1


def test_d4_check_agrees_with_the_optimizer(monkeypatch):
    """Off the wall gamma = a_i the D4~ check and the optimizer agree on
    random hyperplane draws: a feasible one builds, and an infeasible one,
    the check bypassed, is a ConstructionError."""
    check = reps_module.feasibility.quadrangle_check_d4
    monkeypatch.setattr(reps_module.feasibility, "quadrangle_check_d4",
                        lambda inst: check(inst)._replace(status="feasible"))
    rng = random.Random(4)
    seen = []
    for _ in range(20):
        values = [rng.randint(1, 40) for _ in range(4)]
        gamma = Q(sum(values), 2)
        if gamma in values:
            continue
        inst = make_instance([[a] for a in values], gamma)
        status = check(inst).status
        seen.append(status)
        if status == "feasible":
            assert commutant_dimension(build_hyperplane_rep(inst, seed=1)) == 1
        else:
            with pytest.raises(ConstructionError):
                build_hyperplane_rep(inst, seed=1)
    assert {"feasible", "infeasible"} <= set(seen)


def test_build_hyperplane_rep_refuses_d4_boundary():
    """At gamma = a_1 every solution has collinear Bloch vectors, whose
    projections commute: no irreducible representation exists.  The
    optimizer alone still gets within verify's bounds with a numerical
    commutant of 1 there, so the existence check has to refuse it first."""
    with pytest.raises(FeasibilityError, match="degenerate"):
        build_hyperplane_rep(make_instance([[60], [30], [20], [10]], 60), seed=0)


@pytest.mark.parametrize("spectra, gamma, name", [
    ([[3], [3, 2, 1], [3, 2, 1]], "9/2", "E7~"),
    ([[5], [4, 2], [5, 4, 3, 2, 1]], 7, "E8~"),
])
def test_build_hyperplane_rep_refuses_undecided_stars(spectra, gamma, name):
    """Existence in delta is not decided on E7~ and E8~, so instances on
    their hyperplanes are refused rather than handed to the optimizer."""
    inst = make_instance(spectra, gamma)
    assert on_hyperplane(build_star(inst.branch_lengths), inst)
    with pytest.raises(FeasibilityError, match=f"not yet decided on {name}"):
        build_hyperplane_rep(inst)


def test_injected_fault_detected(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    rep = build_graph_rep(e6, d, f)
    key = next(iter(rep.ops))
    rep.ops[key] = rep.ops[key] + 1e-3
    report = verify_graph_rep(e6, rep, d, f)
    assert not report.overall
    worst = max(
        float(detail.split()[-1])
        for name, ok, detail in report.checks
        if not ok and name.startswith("scalar")
    )
    assert 1e-5 < worst < 1e-1  # same order as the perturbation


def test_from_algebra_rep_roundtrip_hyperplane(e6):
    """Forward construction from projections is locally scalar even in the
    minimal imaginary-root dimension, and re-extraction is the identity."""
    inst = make_instance([[2, 1], [2, 1], [2, 1]], 3)
    arep = build_hyperplane_rep(inst, seed=1)
    grep = from_algebra_rep(e6, arep)
    assert grep.dims == (1, 2, 1, 2, 1, 2, 3)
    assert verify_graph_rep(e6, grep).overall
    back = to_algebra_rep(e6, grep, inst)
    worst = max(
        np.abs(p1 - p2).max()
        for b1, b2 in zip(arep.projections, back.projections)
        for p1, p2 in zip(b1, b2)
    )
    assert worst < 1e-12


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_from_algebra_rep_projection_count(e6, change):
    arep = build_hyperplane_rep(make_instance([[2, 1], [2, 1], [2, 1]], 3), seed=1)
    branch = arep.projections[1]
    branch = branch[:-1] if change == "missing" else branch + branch[:1]
    arep = arep._replace(
        projections=(arep.projections[0], branch, arep.projections[2]))
    with pytest.raises(RepError, match="projection counts"):
        from_algebra_rep(e6, arep)


def test_from_algebra_rep_roundtrip_real_root(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_LEAF, 16, rng)
    rep = build_graph_rep(e6, d, f)
    arep = to_algebra_rep(e6, rep, inst)
    grep = from_algebra_rep(e6, arep)
    assert grep.dims == rep.dims
    assert verify_graph_rep(e6, grep, d, f).overall
    back = to_algebra_rep(e6, grep, inst)
    worst = max(
        np.abs(p1 - p2).max()
        for b1, b2 in zip(arep.projections, back.projections)
        for p1, p2 in zip(b1, b2)
    )
    assert worst < 1e-10
    # forward-built and functor-built representations are unitarily
    # equivalent: one-dimensional intertwiner spaces both ways
    assert hom_dimension(rep, grep) == 1
    assert hom_dimension(grep, rep) == 1


def test_every_route_is_real(e6, rng):
    d, f, inst = random_feasible_instance(e6, FAMILY_INNER, 9, rng)
    rep = build_graph_rep(e6, d, f)
    can = canonicalize(e6, rep)
    arep = to_algebra_rep(e6, can, inst)
    for grep in (rep, can, from_algebra_rep(e6, arep)):
        assert {m.dtype for m in grep.ops.values()} == {np.dtype(np.float64)}
        assert vertex_operator(grep, e6.root).dtype == np.float64
    assert {p.dtype for b in arep.projections for p in b} == {np.dtype(np.float64)}
    assert arep.weighted_sum().dtype == np.float64
    hyper = build_hyperplane_rep(make_instance([[2, 1], [2, 1], [2, 1]], 3), seed=1)
    assert {p.dtype for b in hyper.projections for p in b} == {np.dtype(np.float64)}
    assert hyper.weighted_sum().dtype == np.float64
    assert vertex_operator(from_algebra_rep(e6, hyper), e6.root).dtype == np.float64


def test_from_algebra_rep_long_branch(rng):
    from starspec import chi_from_char
    from starspec.coxeter import char_transport_up

    g = build_star([5, 2, 1])
    d = next(
        c for c in member_scan_candidates(g, 8)
        if all(v > 0 for v in c) and reduction_schedule(g, c) is not None
    )
    sched = reduction_schedule(g, d)
    for _ in range(300):
        f_term = [Q(rng.randint(1, 20)) for _ in range(g.n_vertices)]
        f_term[sched.terminal] = Q(0)
        f = char_transport_up(g, sched, tuple(f_term))[-1]
        try:
            inst = chi_from_char(g, f)
        except Exception:
            continue
        rep = build_graph_rep(g, d, f)
        arep = to_algebra_rep(g, rep, inst)
        grep = from_algebra_rep(g, arep)
        assert grep.dims == rep.dims
        assert verify_graph_rep(g, grep, d, f).overall
        return
    pytest.skip("no valid sample drawn")
