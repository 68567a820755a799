"""Reference computations that the library does not need.

* One dense SVD of a stacked linear system each, to check the shrinking
  basis of `starspec.verify.commutant_dimension` and the reflection functors
  against.  Ranks use the same relative floor as `starspec.verify`.
* Exact rational inverse, determinant and transpose of small matrices.
  Inverse and determinant lift the entries to Fraction first: the library's
  integer matrices hold ints, and int / int is a float.
* The construction by the Fraction route: the character pushed down the
  schedule, then every upward step recomputed by `coxeter_char` and taken
  by the reflection below.
* The Horn margins of the (2,2,2) star as Fraction sums over chi.
* The root table of an extended star by a scan of the box 0 <= x <= delta,
  its singular/regular split by the defect of every base, and the
  candidate table that `solve` only counts, by testing every series member
  from k = 0 up.
* One-vertex reflections, the form's Gram matrix and branch permutations,
  the single steps that the library only takes in bulk or never.
* The vertex operator of a graph representation read through
  `GraphRep.gamma`, which `starspec.verify` builds from the edge maps.
* The simple representations, the one reflection functor of the tests,
  and the reflection replay with one `GraphRep` per step, each block read
  through `GraphRep.gamma` and stored by an orientation test.  The replay
  rebuilds any feasible pair, degenerate dimensions too, which the
  library's root-operator replay refuses.
* The forward layout of given projections, `to_algebra_rep` backwards.
* The delta optimizer with one Jacobian column built per generator, to
  check the library's vectorized one against to within rounding.
"""
import functools
import itertools
import random
from fractions import Fraction

import numpy as np

from starspec.coxeter import (
    DimCharPair, _parity_set, coxeter_char, defect, reduction_schedule,
)
from starspec.feasibility import HORN_E6, _walk_pair
from starspec.graph import EVEN, build_star, classify, is_positive_vector, tits_form
from starspec.rational import Q, QMat
from starspec.reps import _MAX_ITERS, AlgebraRep, GraphRep, RepError, _layout
from starspec.roots import fundamental_roots
from starspec.transfer import (
    RTOL, char_from_chi, instance_scale, n_from_dim, nondegenerate_dim,
)
from starspec.verify import _rank, commutant_dimension, verify_algebra_rep


def stacked_commutant_dimension(rep: AlgebraRep) -> int:
    """Nullity of the stacked system of PX - XP = 0 over every given matrix
    P, one dense SVD of k n0^2 x n0^2 (column-major vec)."""
    n = rep.n0
    eye = np.eye(n)
    system = np.vstack([
        np.kron(p.T, eye) - np.kron(eye, p)
        for branch in rep.projections for p in branch
    ])
    return n * n - _rank(np.linalg.svd(system, compute_uv=False))


def graph_intertwiner_system(
    rep1: GraphRep, rep2: GraphRep
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Coefficient matrix of the full commuting-square system.

    Unknowns are the per-vertex blocks C_g (rep1 -> rep2), flattened
    column-major per vertex; equations cover both directions of every edge.
    """
    graph = rep1.graph
    sizes = [(rep2.dims[g], rep1.dims[g]) for g in range(graph.n_vertices)]
    offsets = []
    off = 0
    for r, c in sizes:
        offsets.append(off)
        off += r * c
    total = off
    rows: list[np.ndarray] = []

    def add_equations(a: int, b: int) -> None:
        # C_a Gamma1_{a,b} - Gamma2_{a,b} C_b = 0
        g1 = rep1.gamma(a, b)
        g2 = rep2.gamma(a, b)
        ra, ca = sizes[a]
        rb, cb = sizes[b]
        if ra * cb == 0:
            return
        m1 = np.kron(g1.T, np.eye(ra))  # vec(C_a G1), column-major vec
        m2 = np.kron(np.eye(cb), g2)    # vec(G2 C_b)
        block = np.zeros((ra * cb, total), complex)
        block[:, offsets[a]:offsets[a] + ra * ca] = m1
        block[:, offsets[b]:offsets[b] + rb * cb] -= m2
        rows.append(block)

    for far, near in graph.edges:
        add_equations(near, far)
        add_equations(far, near)
    if rows:
        system = np.vstack(rows)
    else:
        system = np.zeros((0, total), complex)
    return system, sizes


def hom_dimension(rep1: GraphRep, rep2: GraphRep) -> int:
    """Dimension of the space of intertwiners rep1 -> rep2; with rep1 ==
    rep2 it is the commutant dimension of a graph representation."""
    system, sizes = graph_intertwiner_system(rep1, rep2)
    total = sum(r * c for r, c in sizes)
    if total == 0:
        return 0
    if system.shape[0] == 0:
        return total
    return total - _rank(np.linalg.svd(system, compute_uv=False))


def vertex_operator(rep: GraphRep, g: int) -> np.ndarray:
    """Sum over the neighbours h of g of T T^* with T = gamma(g, h)."""
    out = np.zeros((rep.dims[g], rep.dims[g]))
    for h in rep.graph.neighbors[g]:
        m = rep.gamma(g, h)
        out = out + m @ m.conj().T
    return out


def reflect(graph, g: int, x: tuple) -> tuple:
    """Reflection at vertex g: entry g becomes -x_g plus the sum over its
    neighbours; `coxeter_dim` takes this step at a whole parity class."""
    y = list(x)
    y[g] = -x[g] + sum(x[h] for h in graph.neighbors[g])
    return tuple(y)


def form_matrix(graph) -> tuple:
    """Gram matrix of the bilinear form: 2I minus the adjacency matrix."""
    n = graph.n_vertices
    m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b in graph.edges:
        m[a][b] = m[b][a] = -1
    return tuple(map(tuple, m))


def branch_permutation(graph, x: tuple, perm) -> tuple:
    """x pushed along a permutation of equal-length branches: branch b
    takes the entries of branch perm[b]."""
    lengths = graph.branch_lengths
    assert all(lengths[b] == lengths[src] for b, src in enumerate(perm))
    out = list(x)
    for b, src in enumerate(perm):
        for v, w in zip(graph.branches[b], graph.branches[src]):
            out[v] = x[w]
    return tuple(out)


def transpose(a: QMat) -> QMat:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_inv(a: QMat) -> QMat:
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(a)
    m = [[Q(v) for v in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        d = m[c][c]
        m[c] = [v / d for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def determinant(a: QMat) -> Fraction:
    n = len(a)
    m = [[Q(v) for v in row] for row in a]
    det = Q(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def fraction_route_rep(graph, d, f) -> GraphRep:
    """A representation with (d, f) built without the feasibility walk: f
    is transported down the schedule in Fractions (each step reflects it at
    the other parity inside the support of the current dimension), and the
    upward replay takes every step by `reflect_pair`, which recomputes and
    checks the character.  Assumes the pair is feasible."""
    schedule = reduction_schedule(graph, d)
    for dcur, token in schedule.steps:
        other = graph.odd if token == EVEN else graph.even
        f = tuple(
            -f[g] + sum(f[h] for h in graph.neighbors[g])
            if g in other and dcur[g] != 0 else f[g]
            for g in range(graph.n_vertices)
        )
    rep = simple_rep(graph, schedule.terminal, character=f)
    for _, token in reversed(schedule.steps):
        rep = reflect_pair(graph, token, rep)
    return rep


def fraction_horn_check(inst) -> tuple[str, list]:
    """Status and certificate of the Horn criterion with every margin summed
    in Fractions over chi (the instance is assumed on the hyperplane)."""
    chi6 = inst.chi()[:6]
    cert = []
    n_neg = n_zero = 0
    for name, coeffs in HORN_E6:
        margin = sum(c * x for c, x in zip(coeffs, chi6))
        n_neg += margin < 0
        n_zero += margin == 0
        cert.append((name, str(margin), bool(margin > 0)))
    if n_neg:
        return "infeasible", cert
    if n_zero:
        return "degenerate", cert + [
            ("boundary", "existence undecided at equality", False)]
    return "feasible", cert


@functools.lru_cache(maxsize=None)
def _box_scan(graph) -> tuple:
    cls = classify(graph)
    e = cls.extending[0]
    ranges = [[0] if i == e else range(dmax + 1)
              for i, dmax in enumerate(cls.delta)]
    return tuple(c for c in itertools.product(*ranges)
                 if tits_form(graph, c) == 1)


def box_scan_roots(graph, include_negative=False, include_zero=False) -> list:
    """`starspec.roots.fundamental_roots` by brute force: every vector
    0 <= x <= delta with zero entry at the first extending vertex and form
    value 1, in lexicographic order, with the same options."""
    out = list(_box_scan(graph))
    result = [(0,) * graph.n_vertices] if include_zero else []
    result.extend(out)
    if include_negative:
        result.extend(tuple(-v for v in x) for x in out)
    return result


def defect_split(graph) -> tuple[set, set]:
    """`starspec.roots.singular_and_regular_series` with the defect taken
    of every base, negatives included."""
    singular, regular = set(), set()
    for base in fundamental_roots(graph, include_negative=True):
        (regular if defect(graph, base) == 0 else singular).add(base)
    return singular, regular


def member_scan_candidates(graph, bound: int) -> list:
    """The candidates of `starspec.feasibility.solve` member by member, the
    table whose size its "(N candidates tested)" counts: each singular
    series b + k*delta is walked from k = 0 until its root entry passes the
    bound, and every positive member with nondegenerate chains is kept,
    sorted by root entry then lexicographically."""
    delta = classify(graph).delta
    out = set()
    for base in defect_split(graph)[0]:
        k = 0
        while True:
            member = tuple(b + k * d for b, d in zip(base, delta))
            if member[graph.root] > bound:
                break
            if is_positive_vector(member) and nondegenerate_dim(graph, member):
                out.add(member)
            k += 1
    return sorted(out, key=lambda v: (v[graph.root], v))


def kernel_basis(m: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of ker(m) as columns, by SVD, rank confirmed at
    ``dim`` by the singular values around it (1e-10 times the largest).  The
    independent reference of ``graph_rep_replay``: `starspec.reps` takes its
    root kernels by QR completion instead, certified by local scalarity."""
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=m.dtype)
    _, s, vh = np.linalg.svd(m)
    floor = 1e-10 * s[0]
    rank = cols - dim
    if not (0 <= rank <= len(s) and (rank == 0 or s[rank - 1] > floor)
            and (rank == len(s) or s[rank] <= floor)):
        rank = int(np.sum(s > floor))
    return vh[rank:].conj().T


def simple_rep(graph, g: int, character=None) -> GraphRep:
    """One-dimensional space at g, zero elsewhere; all edge maps zero."""
    if not 0 <= g < graph.n_vertices:
        raise RepError(f"unknown vertex {g}")
    if character is not None and character[g] != 0:
        raise RepError("a simple representation has character value 0 at its vertex")
    dims = tuple(int(v == g) for v in range(graph.n_vertices))
    ops = {(far, near): np.zeros((dims[near], dims[far])) for far, near in graph.edges}
    return GraphRep(graph=graph, dims=dims, ops=ops, character=character)


def graph_rep_reflection(graph, token, rep: GraphRep, new_dims, weights) -> GraphRep:
    """One reflection functor into a new `GraphRep`: the kernel at each
    token-parity vertex v, from the incident maps read through
    `GraphRep.gamma`, is scaled by sqrt(weights[v]), and each block is
    stored rootward by testing which endpoint is the far one."""
    new_rep = GraphRep(graph=graph, dims=tuple(new_dims), ops={})
    for v in _parity_set(graph, token):
        nb = graph.neighbors[v]
        blocks = [rep.gamma(v, h) for h in nb]
        assembled = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        k_basis = kernel_basis(assembled, new_dims[v])
        assert k_basis.shape[1] == new_dims[v]
        scale = float(np.sqrt(weights[v]))
        off = 0
        for h in nb:
            block = k_basis[off:off + rep.dims[h], :]  # H_v^new -> H_h
            off += rep.dims[h]
            if (v, h) in rep.ops:
                new_rep.ops[(v, h)] = scale * block
            else:
                new_rep.ops[(h, v)] = scale * block.conj().T
    return new_rep


def reflect_pair(graph, token, rep: GraphRep) -> GraphRep:
    """`graph_rep_reflection` of a representation that carries its
    character, weighted by that character, with the reflected character
    recomputed by `coxeter_char`, which checks that the old one is positive
    wherever the step reflects."""
    pair = coxeter_char(graph, token, DimCharPair(rep.dims, rep.character))
    out = graph_rep_reflection(graph, token, rep, pair.d,
                               [float(x) for x in rep.character])
    return out._replace(character=pair.f)


def graph_rep_replay(graph, d, f) -> GraphRep:
    """The feasibility walk's states replayed upward from the simple
    representation at the terminal vertex, one `GraphRep` per step, where
    `starspec.reps.build_graph_rep` carries the root branch operators
    alone; degenerate dimensions replay too.  Assumes the pair is
    feasible."""
    verdict, states, scale = _walk_pair(graph, d, f, False)
    assert verdict.feasible, verdict.status
    rep = simple_rep(graph, states[-1][0].index(1))
    for dcur, token, fcur in reversed(states[:-1]):
        rep = graph_rep_reflection(graph, token, rep, dcur,
                                   [x / scale for x in fcur])
    return rep._replace(character=tuple(f))


def from_algebra_rep(graph, arep: AlgebraRep) -> GraphRep:
    """Graph representation from projections: `starspec.reps._layout` on
    the isometries onto the projection images, with the instance's
    spectra and character."""
    inst = arep.instance
    if inst.branch_lengths != graph.branch_lengths:
        raise RepError("representation does not match the graph")
    if tuple(map(len, arep.projections)) != inst.branch_lengths:
        raise RepError("projection counts do not match the instance spectra")
    eigs = [[np.linalg.eigh(p) for p in branch] for branch in arep.projections]
    isometries = [[vecs[:, vals > 0.5] for vals, vecs in branch] for branch in eigs]
    spectra = [[float(a) for a in spec] for spec in inst.branches]
    return _layout(graph, spectra, arep.n0, isometries, char_from_chi(graph, inst))


def horn_lm(inst, seed: int = 0) -> AlgebraRep:
    """`starspec.reps.build_hyperplane_rep` one generator at a time: each
    Jacobian column is ``U (E D - D E) U^T`` for a skew matrix unit E of one
    branch that does not commute with D, the residual is
    ``sum_j U_j D_j U_j^T - gamma I`` with its off-diagonal entries read once
    each and scaled by sqrt(2), and the Cayley factor is
    ``(I + K/2)(I - K/2)^-1``.  D_j holds the branch spectrum, each value as
    often as its rank in delta (``n_from_dim``), then zeros.  Raises
    AssertionError where the library raises ConstructionError; assumes an
    instance whose delta is feasible and a non-negative seed."""
    graph = build_star(inst.branch_lengths)
    dim = n_from_dim(graph, classify(graph).delta)
    n = dim.n0
    gamma = float(inst.gamma)
    diags = []
    for spec, ranks in zip(inst.branches, dim.branches):
        values = [float(a) for a, r in zip(spec, ranks) for _ in range(r)]
        diags.append(np.diag(values + [0.0] * (n - len(values))))
    # per branch, the pairs a < b whose generator moves D
    pairs = [[(a, b) for a, b in itertools.combinations(range(n), 2)
              if d[a, a] != d[b, b]] for d in diags]
    stop = RTOL * instance_scale(inst) / 10
    rng = random.Random(seed)
    units = []
    for _ in diags:
        z = np.array([rng.normalvariate(0.0, 1.0) for _ in range(n * n)])
        q, _ = np.linalg.qr(z.reshape(n, n))
        units.append(q)

    def flat(m):
        return np.array([m[a, b] * (1.0 if a == b else np.sqrt(2.0))
                         for a in range(n) for b in range(a, n)])

    def residual(us):
        return flat(sum(u @ d @ u.T for u, d in zip(us, diags)) - gamma * np.eye(n))

    res = residual(units)
    damping = 1e-3
    for _ in range(_MAX_ITERS):
        if np.linalg.norm(res) < stop or damping > 1e16:
            break
        cols = []
        for u, d, branch_pairs in zip(units, diags, pairs):
            for a, b in branch_pairs:
                e = np.zeros((n, n))
                e[a, b], e[b, a] = 1.0, -1.0
                cols.append(flat(u @ (e @ d - d @ e) @ u.T))
        jac = np.array(cols).T
        scale = np.sqrt(damping) * np.sqrt((jac ** 2).sum(axis=0))
        step = iter(np.linalg.lstsq(np.vstack([jac, np.diag(scale)]),
                                    np.concatenate([-res, np.zeros(len(cols))]),
                                    rcond=None)[0])
        trial = []
        for u, branch_pairs in zip(units, pairs):
            k = np.zeros((n, n))
            # zip asks branch_pairs first, so no step entry is lost at its end
            for (a, b), x in zip(branch_pairs, step):
                k[a, b], k[b, a] = x, -x
            trial.append(u @ (np.eye(n) + k / 2) @ np.linalg.inv(np.eye(n) - k / 2))
        trial_res = residual(trial)
        if np.linalg.norm(trial_res) < np.linalg.norm(res):
            units, res = trial, trial_res
            damping /= 3
        else:
            damping *= 10
    # the projection of a spectral value sums the lines of its r columns
    projections = tuple(
        tuple(sum(np.outer(c, c) for c in itertools.islice(cols, r)) for r in ranks)
        for cols, ranks in zip((iter(u.T) for u in units), dim.branches)
    )
    rep = AlgebraRep(instance=inst, n0=n, projections=projections)
    if not (verify_algebra_rep(rep).overall and commutant_dimension(rep) == 1):
        raise AssertionError("the optimizer gave no verified irreducible representation")
    return rep
