"""Existence of irreducible non-degenerate representations.

Three decision routes:

* ``iterative_feasible``: simulate the reduction of a (dimension, character)
  pair through the alternating reflection schedule, checking the positivity
  preconditions stepwise; works on every extended Dynkin star.
* ``closed_form_e6``: for the (2,2,2) star, evaluate seven frozen linear
  conditions per trajectory family at its anchor, on the character carried
  down to the anchor by the full parity maps; equivalent to the iterative
  route on its domain, but computed through an entirely different code
  path.
* ``horn_check_e6`` and ``quadrangle_check_d4``: the level-hyperplane case
  in the minimal imaginary-root dimension, decided by twelve strict
  Horn-type inequalities on E6~ and four on D4~ (``solve`` runs only Horn).

``solve`` orchestrates the routes.  On the E6~ hyperplane it runs the Horn
test first: delta has root entry 3 and every candidate real-root dimension
has root entry >= 4, so in the order by root entry the imaginary root
comes before every candidate.  It then walks the real-root candidates that
the trace identity leaves, at most one per singular series off the
hyperplane.

Every condition is homogeneous with integer coefficients, so each route
clears denominators once and sums ints; only certificates print Fractions.
Each route turns its margins into a status by the one rule of ``_status``.
The level test of ``solve``, ``on_hyperplane`` and ``horn_check_e6`` is the
one pairing P(delta, f) = 0.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm as _lcm
from typing import Iterable, Literal, NamedTuple, Optional

from .coxeter import (
    EVEN,
    ODD,
    Token,
    _char_step,
    _other,
    _parity_set,
    coxeter_dim,
    defect,
    descent,
    pairing,
)
from .graph import (
    GVec,
    IVec,
    StarGraph,
    build_star,
    classify,
    is_positive_vector,
    unit_vector,
)
from .rational import IMat, Q, mat_vec
from .roots import is_root, singular_and_regular_series
from .transfer import (
    GeneralizedDimension,
    SpectralInstance,
    TransferError,
    _char,
    n_from_dim,
)


class FeasibilityError(ValueError):
    pass


Status = Literal["feasible", "infeasible", "degenerate"]


class FeasibilityVerdict(NamedTuple):
    status: Status
    branch_taken: str
    witness_dimension: Optional[GeneralizedDimension] = None
    certificate: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _status(strict: Iterable[int], equal: Iterable[int] = ()) -> Status:
    """The margin rule of every route: infeasible if an equality margin is
    nonzero or a strict margin is negative, degenerate if a strict margin
    is 0, feasible otherwise."""
    low = min(strict, default=1)
    if any(equal) or low < 0:
        return "infeasible"
    return "degenerate" if low == 0 else "feasible"


class Hyperplane(NamedTuple):
    """Level condition <coeffs, chi> = 0, displayed as spectra sum = c*gamma.

    The coefficients are the (int) ranks attached to the radical generator
    delta; existence in the minimal imaginary-root dimension forces this
    trace identity, so off the hyperplane only real-root dimensions can
    occur.  Up to sign and scale the form is P(delta, f), which
    ``on_hyperplane`` tests.
    """

    coefficients: tuple[int, ...]

    def display(self) -> str:
        parts = []
        names = _chi_names(len(self.coefficients) - 1)
        for c, nm in zip(self.coefficients[:-1], names[:-1]):
            if c == 0:
                continue
            parts.append(nm if c == 1 else f"{c}*{nm}")
        rhs = str(-self.coefficients[-1])
        return " + ".join(parts) + f" = {rhs}*gamma"


def _chi_names(n_spectra: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n_spectra)] + ["gamma"]


def hyperplane(graph: StarGraph) -> Hyperplane:
    """Trace-identity hyperplane of an extended Dynkin star."""
    delta = classify(graph).delta
    if delta is None:
        raise FeasibilityError("hyperplane requires an extended Dynkin graph")
    n = n_from_dim(graph, delta)
    coeffs = list(n.flat())
    coeffs[-1] = -coeffs[-1]
    return Hyperplane(coefficients=tuple(coeffs))


def _scaled_instance(
    graph: StarGraph, inst: SpectralInstance
) -> tuple[list[int], IVec, int]:
    """chi and its character f by the window rule of ``transfer``, as ints,
    with the one scale that clears both (the rule is unimodular over the
    integers)."""
    if inst.branch_lengths != graph.branch_lengths:
        raise FeasibilityError("instance does not match the graph")
    chint, scale = _scaled_character(inst.chi())
    return chint, _char(graph, chint), scale


def _on_level(graph: StarGraph, fint: IVec) -> bool:
    """The level test P(delta, f) = 0, with P(delta, .) = ``coxeter.defect``;
    it is homogeneous, so an integer character is read as it is."""
    return defect(graph, fint) == 0


def on_hyperplane(graph: StarGraph, inst: SpectralInstance) -> bool:
    return _on_level(graph, _scaled_instance(graph, inst)[1])


# ---------------------------------------------------------------------------
# Delta on the hyperplane: Horn on (2,2,2), the quadrangle on (1,1,1,1)
# ---------------------------------------------------------------------------

# the (2,2,2) star of the Horn and closed-form routes
E6_STAR = build_star([2, 2, 2])

# coefficients on (a1, a2, b1, b2, c1, c2); all inequalities are strict > 0
HORN_E6: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("2(a1+b1) > a2+b2+c1+c2", (2, -1, 2, -1, -1, -1)),
    ("2(a1+c1) > a2+b1+b2+c2", (2, -1, -1, -1, 2, -1)),
    ("2(b1+c1) > a1+a2+b2+c2", (-1, -1, 2, -1, 2, -1)),
    ("a1+a2+b1+c1 > 2(b2+c2)", (1, 1, 1, -2, 1, -2)),
    ("2(a2+b2+c1) > a1+b1+c2", (-1, 2, -1, 2, 2, -1)),
    ("a1+b1+b2+c1 > 2(a2+c2)", (1, -2, 1, 1, 1, -2)),
    ("2(a2+b1+c2) > a1+b2+c1", (-1, 2, 2, -1, -1, 2)),
    ("2(a1+b2+c2) > a2+b1+c1", (2, -1, -1, 2, -1, 2)),
    ("a1+a2+b1+b2+c2 > 2c1", (1, 1, 1, 1, -2, 1)),
    ("a1+b1+c1+c2 > 2(a2+b2)", (1, -2, 1, -2, 1, 1)),
    ("a1+a2+b2+c1+c2 > 2b1", (1, 1, -2, 1, 1, 1)),
    ("a2+b1+b2+c1+c2 > 2a1", (-2, 1, 1, 1, 1, 1)),
)


def horn_check_e6(inst: SpectralInstance) -> FeasibilityVerdict:
    """Existence in generalized dimension (1,1;1,1;1,1;3) on the hyperplane.

    Feasible iff the chi parameters lie on the hyperplane and all twelve
    strict inequalities hold; equality in any of them is reported as a
    boundary case whose status the criterion does not decide.
    """
    if inst.branch_lengths != (2, 2, 2):
        raise FeasibilityError("the Horn criterion applies to the (2,2,2) star")
    chint, fint, scale = _scaled_instance(E6_STAR, inst)
    if not _on_level(E6_STAR, fint):
        raise FeasibilityError("instance is off the hyperplane")
    # zip stops at the six spectral values: gamma has no Horn coefficient
    margins = [sum(c * x for c, x in zip(coeffs, chint)) for _, coeffs in HORN_E6]
    cert = [(name, str(Q(m, scale)), m > 0)
            for (name, _), m in zip(HORN_E6, margins)]
    status = _status(margins)
    if status == "degenerate":
        cert.append(("boundary", "existence undecided at equality", False))
    witness = (GeneralizedDimension(n0=3, branches=((1, 1),) * 3)
               if status == "feasible" else None)
    return FeasibilityVerdict(status=status, branch_taken="horn_hyperplane",
                              witness_dimension=witness, certificate=tuple(cert))


def quadrangle_check_d4(inst: SpectralInstance) -> FeasibilityVerdict:
    """Existence in delta = (1,1,1,1;2) on the D4~ hyperplane: the Bloch
    vectors of four rank-one projections on C^2 with sum a_i P_i = gamma I
    close a quadrangle with sides a_i.  Feasible iff every margin
    gamma - a_i = P(e_root + e_leaf_i, f) is positive; at 0 the vectors are
    collinear and the projections commute."""
    graph = build_star([1, 1, 1, 1])
    _, fint, scale = _scaled_instance(graph, inst)
    if not _on_level(graph, fint):
        raise FeasibilityError("instance is off the hyperplane")
    margins = [fint[-1] - x for x in fint[:-1]]  # even leaves, odd root
    return FeasibilityVerdict(
        status=_status(margins), branch_taken="quadrangle_hyperplane",
        certificate=tuple((f"gamma > a{i}", str(Q(m, scale)), m > 0)
                          for i, m in enumerate(margins, 1)))


# ---------------------------------------------------------------------------
# Closed-form route on the (2,2,2) star
# ---------------------------------------------------------------------------

class SeriesFamily(NamedTuple):
    """One simple-seeded trajectory family of real-root dimensions."""

    name: str
    seed_vertex: int
    first_token: Token
    period: int
    min_k: int
    anchor_k: int
    anchor_rows: IMat

    def token_at(self, level: int) -> Token:
        """Parity map that builds the given level from the one below."""
        return self.first_token if level % 2 == 0 else _other(self.first_token)


# Frozen anchor condition matrices (rows act on characters in vertex order;
# terminal-vertex row last, remaining vertices in canonical order).  Each is
# the exact stepwise condition matrix of its anchor dimension; the tests
# re-derive them from the schedule machinery.
_ANCHOR_LEAF = (
    (3, -3, 1, -3, 1, -3, 5),
    (1, -1, 1, -2, 1, -1, 2),
    (3, -3, 2, -3, 1, -2, 4),
    (1, -1, 1, -1, 1, -2, 2),
    (3, -3, 1, -2, 2, -3, 4),
    (5, -4, 2, -4, 2, -4, 6),
    (2, -2, 1, -2, 1, -2, 3),
)
_ANCHOR_INNER = (
    (0, 0, 1, -1, 1, -1, 1),
    (0, 0, 0, -1, 0, 0, 1),
    (1, -1, 0, -1, 1, -1, 2),
    (0, 0, 0, 0, 0, -1, 1),
    (1, -1, 1, -1, 0, -1, 2),
    (2, -1, 1, -2, 1, -2, 3),
    (1, -1, 1, -2, 1, -2, 3),
)
_ANCHOR_ROOT = (
    (-1, 1, 0, 0, 0, 0, 0),
    (-1, 1, 0, 1, 0, 1, -1),
    (0, 0, -1, 1, 0, 0, 0),
    (0, 1, -1, 1, 0, 1, -1),
    (0, 0, 0, 0, -1, 1, 0),
    (0, 1, 0, 1, -1, 1, -1),
    (-1, 2, -1, 2, -1, 2, -2),
)

FAMILY_LEAF = SeriesFamily("leaf", 0, EVEN, 12, 15, 13, _ANCHOR_LEAF)
FAMILY_INNER = SeriesFamily("inner", 1, ODD, 6, 8, 6, _ANCHOR_INNER)
FAMILY_ROOT = SeriesFamily("root", 6, EVEN, 4, 5, 4, _ANCHOR_ROOT)

FAMILIES: dict[str, SeriesFamily] = {
    f.name: f for f in (FAMILY_LEAF, FAMILY_INNER, FAMILY_ROOT)
}


def trajectory_dim(graph: StarGraph, family: SeriesFamily, k: int) -> IVec:
    """k-th dimension of a family: alternating reflections of the seed."""
    if k < 1:
        raise FeasibilityError("trajectory index starts at 1")
    d = unit_vector(graph, family.seed_vertex)
    for level in range(2, k + 1):
        d = coxeter_dim(graph, family.token_at(level), d)
    return d


def closed_form_e6(
    inst: SpectralInstance, family: SeriesFamily | str, k: int
) -> FeasibilityVerdict:
    """Decide existence in the family's k-th real-root dimension.

    The character is carried from level k down to the family's anchor, each
    level by the full parity map opposite to the one that built it (at or
    above the anchor every intermediate dimension is sincere, so no support
    restriction applies), and the frozen anchor rows are applied once.
    Feasible iff the six resulting condition values are strictly positive
    and the terminal one is exactly zero.  Only indices in the family's
    stated non-degenerate range are allowed; smaller ones belong to the
    iterative route.
    """
    if isinstance(family, str):
        family = FAMILIES[family]
    if inst.branch_lengths != (2, 2, 2):
        raise FeasibilityError("closed-form route applies to the (2,2,2) star")
    if k < family.min_k:
        raise FeasibilityError(
            f"index {k} below the closed-form range of family "
            f"'{family.name}' (needs k >= {family.min_k})"
        )
    _, fint, scale = _scaled_instance(E6_STAR, inst)
    for level in range(k, family.anchor_k, -1):
        fint = coxeter_dim(E6_STAR, _other(family.token_at(level)), fint)
    vals = mat_vec(family.anchor_rows, fint)
    cert = tuple((f"condition {i + 1}", str(Q(v, scale)), v > 0)
                 for i, v in enumerate(vals[:6]))
    cert += (("terminal", str(Q(vals[6], scale)), vals[6] == 0),)
    status = _status(vals[:6], vals[6:])
    witness = (n_from_dim(E6_STAR, trajectory_dim(E6_STAR, family, k))
               if status == "feasible" else None)
    return FeasibilityVerdict(status=status,
                              branch_taken=f"closed_form({family.name}, k={k})",
                              witness_dimension=witness, certificate=cert)


# ---------------------------------------------------------------------------
# Iterative route (any extended Dynkin star)
# ---------------------------------------------------------------------------

def iterative_feasible(
    graph: StarGraph, d: GVec, f: GVec, collect_trajectory: bool = True
) -> FeasibilityVerdict:
    """Reduce (d, f) along the alternating schedule and check every step.

    d must be a positive real root of nonzero defect, which the schedule
    takes to a simple one; the pair is feasible iff the character stays
    strictly positive on every active support and off-support vertex along
    the way and vanishes at the terminal vertex.  Zero margins are reported
    as degenerate.  A feasible verdict carries d's ranks as its witness,
    and no witness when d has none (a dimension that grows outward along a
    branch, such as a unit vector at a leaf).

    The terminal value needs no walk.  Let P(d, f) = sum eps_i d_i f_i with
    eps = +1 on odd and -1 on even vertices (``coxeter.pairing``).  A step
    of either parity reflects d at one parity class and f at the other, on
    the support of d only; f entries off the support meet d_g = 0 and do not
    count.  Expanding P after the step, the two cross terms over each edge
    cancel and what is left is -P.  The defect D(d) = P(delta, d)
    (``coxeter.defect``) flips sign at every step as well.  At the terminal
    unit vector e_t the pairing is eps_t f_t and the defect is
    eps_t delta_t with delta_t > 0, so the terminal value is

        f_t = sign(D(d)) * P(d, f).

    This is the trace identity behind ``Hyperplane``: a representation in
    dimension d forces a linear condition on the character.  When it is
    nonzero the pair is infeasible whatever the stepwise margins, so
    without a requested trajectory the character is not walked.
    """
    return _walk_pair(graph, d, f, collect_trajectory)[0]


def _walk_pair(
    graph: StarGraph, d: GVec, f: GVec, collect_trajectory: bool
) -> tuple[FeasibilityVerdict, list, int]:
    """``iterative_feasible`` together with the states of its walk (none
    when the trace identity settles the pair) and the common denominator
    of their integer characters; ``build_graph_rep`` replays the states."""
    if len(f) != graph.n_vertices:
        raise FeasibilityError(f"character has {len(f)} values for "
                               f"{graph.n_vertices} vertices")
    if is_root(graph, d) != "real" or not is_positive_vector(d):
        raise FeasibilityError(f"dimension {d} is not a positive real root")
    dfc = defect(graph, d)
    if dfc == 0:
        raise FeasibilityError(f"dimension {list(d)} is a regular (zero defect) "
                               "root; the hyperplane route applies instead")
    # is_root has rejected non-integer entries, so int() truncates nothing
    dint = tuple(int(v) for v in d)
    fint, scale = _scaled_character(f)
    value = pairing(graph, dint, fint)
    if value == 0 or collect_trajectory:
        return (*_check_walk(graph, dint, fint, scale, collect_trajectory), scale)
    if dfc < 0:
        value = -value  # the trace identity
    return FeasibilityVerdict(
        status="infeasible", branch_taken="iterative",
        certificate=(("terminal_value", str(Q(value, scale)), False),),
    ), [], scale


def _scaled_character(f: GVec) -> tuple[list[int], int]:
    """Integer vector (a character, or chi) and its common denominator.

    Every condition is homogeneous in f, so clearing denominators once lets
    the walk run in plain integer arithmetic.  ints and Fractions carry
    their numerator and denominator and are read as they are.
    """
    fq = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in f]
    scale = _lcm(*(v.denominator for v in fq))
    return [v.numerator * (scale // v.denominator) for v in fq], scale


def _check_walk(
    graph: StarGraph,
    d: IVec,
    fcur: list[int],
    scale: int,
    collect_trajectory: bool,
) -> tuple[FeasibilityVerdict, list]:
    """The checks of ``iterative_feasible`` on a nonzero-defect root d and
    the character ``fcur / scale``, walked along ``descent``.  Without a
    trajectory the caller has found P(d, f) = 0, so the walk stops at the
    first negative margin with the full walk's verdict and certificate.

    Also returns the states walked, (dimension, token, integer character)
    from d down, the last one with token "terminal" when the walk got there.
    """
    strict: list[int] = []
    states = []
    for dcur, token in descent(graph, d):
        if token is None:
            break
        margins = [fcur[g] for g in range(graph.n_vertices) if dcur[g] == 0]
        margins += [fcur[g] for g in _parity_set(graph, token) if dcur[g] != 0]
        states.append((dcur, token, fcur))
        if not collect_trajectory and min(margins, default=0) < 0:
            return FeasibilityVerdict(
                status="infeasible", branch_taken="iterative",
                certificate=(("terminal_value", "0", True),)), states
        strict += margins
        fcur = _char_step(graph, token, dcur, fcur)
    else:
        raise FeasibilityError(f"dimension {list(d)} has nonzero defect but "
                               "its walk misses a unit vector")
    g_term = dcur.index(1)
    eq = fcur[g_term]
    strict += [fcur[g] for g in range(graph.n_vertices) if g != g_term]
    states.append((dcur, "terminal", fcur))
    cert: tuple = (("terminal_value", str(Q(eq, scale)) if eq else "0", eq == 0),)
    if collect_trajectory:
        steps_entry = (
            "steps",
            tuple(
                (list(dd), tok, [str(Q(x, scale)) for x in ff])
                for dd, tok, ff in states
            ),
        )
        cert = (steps_entry,) + cert
    status = _status(strict, (eq,))
    witness = None
    if status == "feasible":
        try:
            witness = n_from_dim(graph, d)
        except TransferError:  # d grows outward somewhere: no ranks
            pass
    return FeasibilityVerdict(status=status, branch_taken="iterative",
                              witness_dimension=witness, certificate=cert), states


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _series_table(graph: StarGraph) -> tuple[tuple[IVec, int], ...]:
    """(base, k_lo) per singular series: its members base + k*delta with
    k >= k_lo are exactly those with nondegenerate chains.

    Delta strictly increases from each leaf to the root, so every strict
    chain condition m_prev < m_v (m_prev = 0 before the leaf) on
    m = base + k*delta is the lower bound
    k >= floor((b_prev - b_v) / (delta_v - delta_prev)) + 1.  A
    nondegenerate member is positive, and the extending vertex's bound is
    k >= 1.  The scan bound only cuts each series from above, so the table
    does not depend on it.
    """
    delta = classify(graph).delta
    root = graph.root
    leaves = [(path[0], delta[path[0]]) for path in graph.branches]
    links = [(prev, v, delta[v] - delta[prev]) for path in graph.branches
             for prev, v in zip(path, path[1:] + (root,))]
    return tuple(
        (base, 1 + max([-base[v] // step for v, step in leaves]
                       + [(base[prev] - base[v]) // step for prev, v, step in links]))
        for base in singular_and_regular_series(graph)[0]
    )


def check_scan_bound(scan_bound: int) -> None:
    """Raise FeasibilityError on a negative scan bound."""
    if scan_bound < 0:
        raise FeasibilityError(f"scan bound {scan_bound} is negative")


def solve(
    graph: StarGraph,
    inst: SpectralInstance,
    scan_bound: int = 60,
) -> FeasibilityVerdict:
    """Decide existence of an irreducible non-degenerate representation.

    Dimensions are tried in order of root entry.  On the hyperplane of the
    (2,2,2) star the imaginary root delta comes first, decided by the Horn
    criterion: a nondegenerate dimension with root entry 3 has the chains
    1 < 2 < 3 on every branch, which is delta, so every candidate has root
    entry >= 4.  On the other stars' hyperplanes delta is not decided, and
    the certificate says so.  Real-root dimensions up to the bound come
    next.  Off the hyperplane no imaginary-root witness is possible, so the
    search is exhaustive for the reported window.

    The candidates are the members b + k*delta, k_lo <= k <= k_hi, of the
    singular series (``_series_table``), k_hi the last one within the
    bound; the certificate counts them all.  Only a member with
    P(d, f) = P(b, f) + k*P(delta, f) = 0 can be feasible (the trace
    identity of ``iterative_feasible``), so off the hyperplane one
    ``divmod`` per series finds its one possible member, at any bound.  On
    the hyperplane every member of a series with P(b, f) = 0 is walked up
    to the bound, and no member of the others.
    """
    cls = classify(graph)
    if cls.kind != "ExtendedDynkin":
        raise FeasibilityError("solve requires an extended Dynkin star")
    check_scan_bound(scan_bound)
    _, fint, scale = _scaled_instance(graph, inst)
    boundary_seen = False
    note: tuple = ()
    p_delta = defect(graph, fint)
    if p_delta == 0:
        if cls.name == "E6~":
            horn = horn_check_e6(inst)
            if horn.feasible:
                return horn
            boundary_seen = horn.status == "degenerate"
        else:
            note = (("hyperplane_regime",
                     "imaginary-root existence not decided for this graph", False),)
    delta, root = cls.delta, graph.root
    tested = 0
    members = []
    for base, k_lo in _series_table(graph):
        k_hi = (scan_bound - base[root]) // delta[root]
        tested += max(0, k_hi - k_lo + 1)
        p_base = pairing(graph, base, fint)
        if p_delta:
            k, rest = divmod(-p_base, p_delta)
            ks = (k,) if rest == 0 and k_lo <= k <= k_hi else ()
        else:
            ks = range(k_lo, k_hi + 1) if p_base == 0 else ()
        members += [tuple([b + k * d for b, d in zip(base, delta)]) for k in ks]
    members.sort(key=lambda v: (v[root], v))
    for d in members:
        verdict = _check_walk(graph, d, fint, scale, False)[0]
        if verdict.feasible:
            return verdict._replace(branch_taken=f"iterative(d={list(d)})")
        boundary_seen = boundary_seen or verdict.status == "degenerate"
    cert = ((
        "exhausted_scan",
        f"no feasible real-root dimension with root entry <= {scan_bound} "
        f"({tested} candidates tested)",
        True,
    ),) + note
    return FeasibilityVerdict(
        status="degenerate" if boundary_seen else "infeasible",
        branch_taken="exhausted", certificate=cert,
    )
