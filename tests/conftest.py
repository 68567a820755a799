import random
import re
from fractions import Fraction as Q

import pytest

from starspec import (
    build_star,
    char_transport_up,
    chi_from_char,
    classify,
    make_instance,
    reduction_schedule,
    trajectory_dim,
)


# Real-root dimensions with a reduction schedule and strict branch chains,
# small and medium root entries on each extended star, one with n0 >= 10 on
# each and one with n0 = 15.
ORACLE_DIMS = {
    (1, 1, 1, 1): [(2, 1, 1, 1, 3), (5, 4, 4, 4, 9), (6, 5, 5, 5, 11)],
    (2, 2, 2): [(2, 3, 1, 3, 1, 3, 5), (3, 7, 3, 6, 3, 6, 10)],
    (1, 3, 3): [(3, 2, 3, 4, 2, 3, 4, 6), (5, 3, 5, 7, 3, 5, 7, 10)],
    (1, 2, 5): [(2, 2, 4, 1, 2, 3, 4, 5, 6), (5, 3, 7, 2, 4, 5, 7, 9, 11),
                (7, 5, 10, 2, 5, 8, 10, 12, 15)],
}
ORACLE_CASES = [(b, d) for b, dims in ORACLE_DIMS.items() for d in dims]


@pytest.fixture(scope="session")
def e6():
    return build_star([2, 2, 2])


@pytest.fixture(scope="session")
def e6_class(e6):
    return classify(e6)


def random_feasible_instance(graph, family, k, rng):
    """Instance feasible in the family's k-th dimension, by construction."""
    d = trajectory_dim(graph, family, k)
    f, inst = feasible_character(graph, d, rng)
    return d, f, inst


def feasible_character(graph, d, rng):
    """Character and instance feasible in dimension d, by construction.

    Draws positive terminal character data, transports it up the schedule,
    and rejects draws whose top character is not a valid instance.
    """
    sched = reduction_schedule(graph, d)
    assert sched is not None
    for _ in range(500):
        f_term = [Q(rng.randint(1, 30)) for _ in range(graph.n_vertices)]
        f_term[sched.terminal] = Q(0)
        chars = char_transport_up(graph, sched, tuple(f_term))
        f = chars[-1]
        try:
            inst = chi_from_char(graph, f)
        except Exception:
            continue
        return f, inst
    raise AssertionError("could not sample a feasible instance")


def plateau_walk(graph, d):
    """Whether the walk of d keeps or raises its total dimension over two
    steps somewhere: the rule that once skipped such roots as if they could
    not reduce (192 of the 426 E7~ and 284 of the 502 E8~ candidates with
    root entry <= 20)."""
    every_other = [sum(dd) for dd, _ in reduction_schedule(graph, d).steps[::2]]
    return any(later >= earlier
               for later, earlier in zip(every_other[1:], every_other))


def exhausted_instance(lengths):
    """Off-hyperplane instance with spectra (m, ..., 1) on a branch of length
    m and gamma 100: every trace is at most 5 n0 per branch, so the trace
    identity fails in every dimension and ``solve`` exhausts any bound."""
    return make_instance([list(range(m, 0, -1)) for m in lengths], 100)


def candidates_tested(verdict):
    """N of an exhausted verdict's "(N candidates tested)"."""
    name, text, _ = verdict.certificate[0]
    assert name == "exhausted_scan"
    return int(re.search(r"\((\d+) candidates tested\)", text).group(1))


@pytest.fixture
def rng():
    return random.Random(20240817)
