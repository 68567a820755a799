"""Reflections and Coxeter transformations on dimensions and characters.

The two parity maps act on G-vectors by simultaneous reflection at all odd
(resp. all even) vertices; same-parity vertices are never adjacent, so the
order inside one parity class does not matter.

On (dimension, character) pairs the reflection functors act crosswise: the
'even' step reflects the dimension at even vertices but the character at the
odd vertices inside the current support, and requires the character to be
strictly positive on the even part of the support.  The 'odd' step is the
mirror image.  This pairing is what keeps every vertex operator scalar at
the matrix level.

The defect of Dlab and Ringel, sum eps_i delta_i d_i with eps = +1 on odd
and -1 on even vertices, decides which positive real roots walk down to a
simple root.  Each parity step negates it, since delta spans the radical.
A root of defect 0 is regular and never reduces; otherwise the walk starts
even when the defect is negative and odd when it is positive.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .graph import EVEN, ODD, GVec, GraphError, IVec, Parity, StarGraph, classify
from .rational import IMat, QMat, mat_mul, mat_pow, matrix_of

Token = Parity


class CoxeterDomainError(ValueError):
    """A functor precondition failed; carries the offending vertex."""

    def __init__(self, message: str, vertex: int, value: Fraction):
        super().__init__(f"{message} (vertex {vertex}, value {value})")
        self.vertex = vertex
        self.value = value


class DimCharPair(NamedTuple):
    d: GVec
    f: GVec


def _parity_set(graph: StarGraph, token: Token) -> tuple[int, ...]:
    return graph.even if token == EVEN else graph.odd


def _other(token: Token) -> Token:
    return ODD if token == EVEN else EVEN


def coxeter_dim(graph: StarGraph, token: Token, d: GVec) -> GVec:
    """Reflect simultaneously at all vertices of the given parity."""
    y = list(d)
    for g in _parity_set(graph, token):
        y[g] = -d[g] + sum(d[h] for h in graph.neighbors[g])
    return tuple(y)


def _char_step(graph: StarGraph, token: Token, d: GVec, f: GVec) -> GVec:
    """The character half of a `token` step from dimension d: f reflected
    at the other parity inside the support of d, an involution."""
    y = list(f)
    for g in _parity_set(graph, _other(token)):
        if d[g] != 0:
            y[g] = -f[g] + sum(f[h] for h in graph.neighbors[g])
    return tuple(y)


def check_pair_domain(graph: StarGraph, token: Token, pair: DimCharPair) -> None:
    """Raise CoxeterDomainError unless the pair admits the `token` functor.

    Required: d(g) + f(g) > 0 at every vertex, and f(g) > 0 on the
    token-parity part of the support of d.
    """
    d, f = pair
    for g in range(graph.n_vertices):
        if d[g] + f[g] <= 0:
            raise CoxeterDomainError("pair leaves the admissible set", g, f[g])
    for g in _parity_set(graph, token):
        if d[g] != 0 and f[g] <= 0:
            raise CoxeterDomainError(
                "character not positive on active support", g, f[g]
            )


def coxeter_char(graph: StarGraph, token: Token, pair: DimCharPair) -> DimCharPair:
    """One reflection-functor step on a (dimension, character) pair."""
    check_pair_domain(graph, token, pair)
    d, f = pair
    return DimCharPair(coxeter_dim(graph, token, d), _char_step(graph, token, d, f))


def pairing(graph: StarGraph, x: GVec, y: GVec):
    """sum eps_i x_i y_i with eps = +1 on odd and -1 on even vertices."""
    return (sum(x[i] * y[i] for i in graph.odd)
            - sum(x[i] * y[i] for i in graph.even))


def defect(graph: StarGraph, d: GVec) -> int:
    """Defect of d on an extended Dynkin star: its pairing with delta."""
    delta = classify(graph).delta
    if delta is None:
        raise GraphError("the defect needs an extended Dynkin graph")
    return pairing(graph, delta, d)


def descent(graph: StarGraph, d: IVec) -> Iterator[tuple[IVec, Optional[Token]]]:
    """Lazy defect-directed walk from a positive real root.

    Yields the (dimension, token) state before each step and, when the walk
    reaches a unit vector, that vector with token None.  It yields nothing
    for defect 0, and stops without the unit vector when an entry turns
    negative or after 2*sum(d) + 4 steps.
    """
    dfc = defect(graph, d)
    token: Token = EVEN if dfc < 0 else ODD
    limit = 2 * sum(d) + 4
    for n in range(limit + 1 if dfc else 0):
        if min(d) < 0:
            return
        if sum(d) == 1:
            yield d, None
            return
        if n == limit:
            return
        yield d, token
        d = coxeter_dim(graph, token, d)
        token = _other(token)


class ReductionSchedule(NamedTuple):
    """Alternating functor schedule taking a dimension down to a simple one.

    ``steps[i]`` is the (dimension, token) state before the i-th application;
    ``terminal`` is the vertex carrying the final one-dimensional space.
    """

    steps: tuple[tuple[IVec, Token], ...]
    terminal: int


def reduction_schedule(graph: StarGraph, d: GVec) -> Optional[ReductionSchedule]:
    """The whole ``descent`` of a positive real root, or None when it misses
    a unit vector (imaginary and regular roots).

    The schedule's dimensions are ints whatever numeric type d arrives in.
    """
    states = list(descent(graph, tuple(int(v) for v in d)))
    if not states or states[-1][1] is not None:
        return None
    return ReductionSchedule(tuple(states[:-1]), states[-1][0].index(1))


def char_transport_up(
    graph: StarGraph, schedule: ReductionSchedule, f_term: GVec
) -> list[GVec]:
    """Characters along the upward replay, from terminal to full dimension.

    Returns the list [f at simple, ..., f at schedule start]; each upward
    step inverts the corresponding downward reflection (an involution on the
    same vertex set).
    """
    chars = [f_term]
    for dcur, token in reversed(schedule.steps):
        chars.append(_char_step(graph, token, dcur, chars[-1]))
    return chars


# ---------------------------------------------------------------------------
# Matrices (integer, except the drift-normalized power tables)
# ---------------------------------------------------------------------------

def parity_matrix(graph: StarGraph, token: Token) -> IMat:
    """Matrix of the parity reflection in the canonical vertex basis: the
    columns of ``coxeter_dim`` on the unit vectors."""
    return matrix_of(lambda x: coxeter_dim(graph, token, x), graph.n_vertices)


def elementary_coxeter_matrix(graph: StarGraph) -> IMat:
    """Composite Coxeter matrix: the even map first, then the odd one
    (matrix product odd * even), the order of the power tables below."""
    return mat_mul(parity_matrix(graph, ODD), parity_matrix(graph, EVEN))


def coxeter_power_matrix_e6(graph: StarGraph, k: int) -> IMat:
    """Exact k-th power of the composite Coxeter matrix on the E6~ star."""
    if graph.branch_lengths != (2, 2, 2):
        raise GraphError("power matrices are specific to the (2,2,2) star")
    if k < 0:
        raise ValueError("negative power not allowed here")
    return mat_pow(elementary_coxeter_matrix(graph), k)


def coxeter_power_table_e6(k: int) -> QMat:
    """Period-six normalized table of the transposed Coxeter powers on E6~.

    The table depends only on k mod 3 together with (-1)^k.  It differs from
    the exact transposed power by an explicit rank-one drift:

        table(k) = (C^k)^T - ((k-1)/6) * outer(sd, delta)

    where delta = (1,2,1,2,1,2,3) and sd = (1,-2,1,-2,1,-2,3) is its
    parity-signed companion.  In particular table(k) is not multiplicative
    in k; use coxeter_power_matrix_e6 for exact powers.
    """
    u = (-1) ** (k % 2)
    if k % 3 == 0:
        rows = [
            [11 + 3 * u, 4, -1 + 3 * u, 4, -1 + 3 * u, 4, 3 * (3 - u)],
            [-4, 4, -4, -8, -4, -8, -12],
            [-1 + 3 * u, 4, 11 + 3 * u, 4, -1 + 3 * u, 4, 3 * (3 - u)],
            [-4, -8, -4, 4, -4, -8, -12],
            [-1 + 3 * u, 4, -1 + 3 * u, 4, 11 + 3 * u, 4, 3 * (3 - u)],
            [-4, -8, -4, -8, -4, 4, -12],
            [3 * (3 - u), 12, 3 * (3 - u), 12, 3 * (3 - u), 12, 3 * (9 + u)],
        ]
        den = 12
    elif k % 3 == 1:
        rows = [
            [1 + u, 4, 1 + u, 0, 1 + u, 0, 3 - u],
            [-4, -4, 0, 0, 0, 0, -4],
            [1 + u, 0, 1 + u, 4, 1 + u, 0, 3 - u],
            [0, 0, -4, -4, 0, 0, -4],
            [1 + u, 0, 1 + u, 0, 1 + u, 4, 3 - u],
            [0, 0, 0, 0, -4, -4, -4],
            [3 - u, 4, 3 - u, 4, 3 - u, 4, 9 + u],
        ]
        den = 4
    else:
        rows = [
            [-5 + 3 * u, -4, 7 + 3 * u, 8, 7 + 3 * u, 8, 3 * (3 - u)],
            [4, -4, -8, -4, -8, -4, -12],
            [7 + 3 * u, 8, -5 + 3 * u, -4, 7 + 3 * u, 8, 3 * (3 - u)],
            [-8, -4, 4, -4, -8, -4, -12],
            [7 + 3 * u, 8, 7 + 3 * u, 8, -5 + 3 * u, -4, 3 * (3 - u)],
            [-8, -4, -8, -4, 4, -4, -12],
            [3 * (3 - u), 12, 3 * (3 - u), 12, 3 * (3 - u), 12, 3 * (9 + u)],
        ]
        den = 12
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def signed_delta_e6() -> IVec:
    """Parity-signed companion of the E6~ radical generator."""
    return (1, -2, 1, -2, 1, -2, 3)
