"""Seeded inputs, operations and correctness checks of the three workloads.

Inputs come from a ``random.Random`` seeded on the command line; the program
only ever sees the generated instance and dimension dicts, exactly as the
CLI would read them from files.  Operations call public starspec functions
by attribute lookup on the module at call time, so the tracer's rebinding of
those names is seen.  The checks run after each op, outside its timed
interval.
"""
from __future__ import annotations

import itertools
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

import starspec as S
from starspec import io as sio
from starspec import transfer as st
from starspec.graph import EVEN, ODD

STARS = {"D4~": (1, 1, 1, 1), "E6~": (2, 2, 2), "E7~": (1, 3, 3), "E8~": (1, 2, 5)}


def rational_out(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def instance_dict(spectra, gamma) -> dict:
    return {"branches": [[rational_out(a) for a in spec] for spec in spectra],
            "gamma": rational_out(gamma)}


def nondegenerate(graph, d) -> bool:
    """Strict chains 0 < d_leaf < ... < d_inner < d_root on every branch."""
    for path in graph.branches:
        prev = 0
        for v in path:
            if d[v] <= prev:
                return False
            prev = d[v]
        if prev >= d[graph.root]:
            return False
    return True


def vertex_kind(graph, v: int) -> str:
    if v == graph.root:
        return "root"
    return "leaf" if any(v == path[0] for path in graph.branches) else "inner"


class Star:
    """Graph, radical generator, level form and real-root dimension pool of
    one extended Dynkin star, computed once outside every timed interval."""

    def __init__(self, name: str, max_root: int):
        self.name = name
        self.graph = S.build_star(STARS[name])
        self.delta = S.classify(self.graph).delta
        self.level = S.hyperplane(self.graph).coefficients
        self.pool = self._trajectory_pool(max_root)

    def _trajectory_pool(self, max_root: int) -> dict[str, list[tuple]]:
        """Nondegenerate dimensions reached from a simple root by alternating
        parity maps, keyed by the kind of the seed vertex.

        A trajectory that grows raises the total dimension every two steps;
        a plateau means the walk stalled, so it is stopped there.
        """
        g = self.graph
        pool: dict[str, set] = {}
        for v in range(g.n_vertices):
            for token in (EVEN, ODD):
                d = S.unit_vector(g, v)
                totals = [1]
                while True:
                    d = S.coxeter_dim(g, token, d)
                    token = ODD if token == EVEN else EVEN
                    totals.append(sum(d))
                    if (any(x < 0 for x in d) or d[g.root] > max_root
                            or (len(totals) > 2 and totals[-1] <= totals[-3])):
                        break
                    if nondegenerate(g, d):
                        pool.setdefault(vertex_kind(g, v), set()).add(d)
        return {k: sorted(v, key=lambda x: (x[g.root], x)) for k, v in sorted(pool.items())}

    def dims_with_root(self, n0: int) -> list[tuple]:
        return sorted({d for dims in self.pool.values() for d in dims
                       if d[self.graph.root] == n0})

    def level_value(self, spectra, gamma) -> Fraction:
        chi = [Fraction(a) for spec in spectra for a in spec] + [Fraction(gamma)]
        return sum(c * x for c, x in zip(self.level, chi))

    def random_spectra(self, rng: random.Random) -> list[list[int]]:
        """Distinct values in 1..50, sorted down and cut into branches (the
        draw of acceptance criterion 8, for any branch lengths)."""
        m = sum(STARS[self.name])
        while True:
            vals = sorted({rng.randint(1, 50) for _ in range(m + 2)}, reverse=True)
            if len(vals) >= m:
                break
        out, i = [], 0
        for length in STARS[self.name]:
            out.append(vals[i:i + length])
            i += length
        return out

    def off_instance(self, rng: random.Random) -> dict:
        while True:
            spectra = self.random_spectra(rng)
            gamma = rng.randint(1, 70)
            if self.level_value(spectra, gamma) != 0:
                return instance_dict(spectra, gamma)

    def plane_instance(self, rng: random.Random) -> dict:
        spectra = self.random_spectra(rng)
        gamma = -self.level_value(spectra, 0) / self.level[-1]
        return instance_dict(spectra, gamma)

    def feasible_instance(self, d: tuple, rng: random.Random) -> dict:
        """Instance feasible in dimension d by construction: positive terminal
        character data transported up d's reduction schedule."""
        g = self.graph
        schedule = S.reduction_schedule(g, d)
        if schedule is None:
            raise RuntimeError(f"{self.name}: trajectory dimension {d} has no schedule")
        for _ in range(1000):
            f_term = [Fraction(rng.randint(1, 30)) for _ in range(g.n_vertices)]
            f_term[schedule.terminal] = Fraction(0)
            f = S.char_transport_up(g, schedule, tuple(f_term))[-1]
            try:
                inst = S.chi_from_char(g, f)
            except S.TransferError:
                # the character does not give strictly decreasing positive spectra
                continue
            return instance_dict(inst.branches, inst.gamma)
        raise RuntimeError(f"{self.name}: no valid character for {d}")


def horn_instance(rng: random.Random) -> dict:
    """E6~ instance on the hyperplane jittered around the symmetric point
    (20, 10) per branch.  All twelve Horn margins are 30 there and each moves
    by at most 8 * 3 = 24 under the jitter, so every draw is Horn-feasible."""
    spectra = [[rng.randint(17, 23), rng.randint(7, 13)] for _ in range(3)]
    return instance_dict(spectra, Fraction(sum(map(sum, spectra)), 3))


@dataclass
class Input:
    index: int
    kind: str                      # off, built, plane, horn, small, medium, large
    star: str
    data: dict                     # instance dict (and dimension dict for construct)
    d: Optional[tuple] = None      # the benchmark's own dimension, when it picked one


def no_span(name: str):
    return nullcontext()


# ---------------------------------------------------------------------------
# decide-e6 and decide-stars: the `starspec feasible` path
# ---------------------------------------------------------------------------

def decide_op(inp: Input, bound: int, span=no_span):
    with span("io.read"):
        inst = sio.instance_from_dict(inp.data)
    graph = S.build_star(inst.branch_lengths)
    verdict = S.solve(graph, inst, scan_bound=bound)
    with span("io.verdict"):
        text = sio.dumps(sio.verdict_to_dict(verdict))
    return verdict, text


def check_decide(star: Star, inp: Input, result) -> list[str]:
    verdict, text = result
    g = star.graph
    inst = sio.instance_from_dict(inp.data)
    problems = []
    if json.loads(text)["status"] != verdict.status:
        problems.append("verdict JSON disagrees with the verdict")
    if inp.kind in ("built", "horn") and not verdict.feasible:
        problems.append(f"built to be feasible, got {verdict.status}")
    if inp.kind in ("off", "built") and verdict.branch_taken == "horn_hyperplane":
        problems.append("off-hyperplane verdict took horn_hyperplane")
    if verdict.feasible:
        w = verdict.witness_dimension
        d = S.dim_from_n(g, w)
        if st.trace_pairing(inst, w) != 0:
            problems.append("witness violates the trace identity")
        if verdict.branch_taken == "horn_hyperplane":
            if tuple(d) != tuple(star.delta) or S.tits_form(g, d) != 0:
                problems.append("Horn witness is not delta")
        elif S.tits_form(g, d) != 1:
            problems.append("witness is not a real root")
        elif not S.iterative_feasible(g, d, S.char_from_chi(g, inst),
                                      collect_trajectory=False).feasible:
            problems.append("witness fails the stepwise check")
    return problems


# ---------------------------------------------------------------------------
# construct-verify: `starspec construct --dimension -o` then `verify --rep`
# ---------------------------------------------------------------------------

@dataclass
class Construction:
    built: object
    read_back: object
    overall: bool
    failures: tuple
    commutant: int
    bytes: int


def construct_op(inp: Input, span=no_span) -> Construction:
    with span("io.read"):
        inst = sio.instance_from_dict(inp.data["instance"])
        n = (sio.gen_dim_from_dict(inp.data["dimension"])
             if "dimension" in inp.data else None)
    graph = S.build_star(inst.branch_lengths)
    if n is None:
        arep = S.build_hyperplane_rep(inst, seed=0)
    else:
        d = S.dim_from_n(graph, n)
        rep = S.build_graph_rep(graph, d, S.char_from_chi(graph, inst))
        arep = S.to_algebra_rep(graph, S.canonicalize(graph, rep), inst)
    with span("io.write"):
        text = sio.dumps_pretty(sio.algebra_rep_to_dict(arep))
    with span("io.read"):
        back = sio.algebra_rep_from_dict(json.loads(text))
    report = S.verify_algebra_rep(back)
    return Construction(arep, back, report.overall, report.failures(),
                        S.commutant_dimension(back), len(text))


def check_construct(star: Star, inp: Input, c: Construction) -> list[str]:
    problems = []
    if not c.overall:
        problems.append(f"verify_algebra_rep failed: {c.failures[:3]}")
    if c.commutant != 1:
        problems.append(f"commutant dimension {c.commutant}")
    d = star.delta if inp.d is None else inp.d
    if c.read_back.generalized_dimension() != S.n_from_dim(star.graph, d):
        problems.append("generalized dimension differs from n_from_dim(d)")
    for b1, b2 in zip(c.built.projections, c.read_back.projections):
        if not all(np.allclose(p, q, rtol=0, atol=1e-12) for p, q in zip(b1, b2)):
            problems.append("written and read representations differ")
            break
    return problems


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    stars: tuple[str, ...]
    max_root: int
    cycle: tuple[tuple[str, str], ...]
    trace_cycles: int               # cycles per traced pass
    warmup: int                     # leading cycle entries run once in set-up
    run_op: Callable
    check: Callable
    bound: Optional[int] = None
    numpy_probe: bool = False       # ops spend much of their time in numpy

    def op(self, inp: Input, span=no_span):
        if self.bound is None:
            return self.run_op(inp, span)
        return self.run_op(inp, self.bound, span)

    def make_stars(self) -> dict[str, Star]:
        return {name: Star(name, self.max_root) for name in self.stars}

    def inputs(self, stars: dict[str, Star], seed) -> Iterator[Input]:
        """Endless input stream.  The cycle fixes the kind and star of each
        op and a fixed sequence walks the dimensions, so every run has the
        same sizes; the seed draws the spectra and characters."""
        rng = random.Random(seed)
        turns: dict[tuple, int] = {}
        for i in itertools.count():
            kind, name = self.cycle[i % len(self.cycle)]
            star = stars[name]
            turn = turns[kind, name] = turns.get((kind, name), -1) + 1
            if kind == "off":
                yield Input(i, kind, name, star.off_instance(rng))
            elif kind == "plane":
                yield Input(i, kind, name, star.plane_instance(rng))
            elif kind == "horn":
                data = horn_instance(rng)
                yield Input(i, kind, name, data if self.bound else {"instance": data})
            elif kind == "built":
                # rotate over the trajectory families (seed-vertex kinds)
                families = list(star.pool)
                d = spread_pick(star.pool[families[turn % len(families)]],
                                turn // len(families))
                yield Input(i, kind, name, star.feasible_instance(d, rng), d)
            else:
                entries = construct_root_entries(star, kind)
                d = spread_pick(star.dims_with_root(entries[turn % len(entries)]),
                                turn // len(entries))
                n = S.n_from_dim(star.graph, d)
                data = {"instance": star.feasible_instance(d, rng),
                        "dimension": sio.gen_dim_to_dict(n)}
                yield Input(i, kind, name, data, d)


# Root entries of the construction sizes.  Small and medium ops step through
# their band in order; large ops use one root entry per star, chosen so that
# the four stars cost about the same (the commutant SVD grows as
# projections * n0^6), which keeps the tail percentile inside one cluster of
# similar ops.
BANDS = {"small": range(3, 9), "medium": range(9, 15)}
LARGE_N0 = {"D4~": 21, "E6~": 19, "E7~": 19, "E8~": 19}


def construct_root_entries(star: Star, kind: str) -> list[int]:
    if kind == "large":
        return [LARGE_N0[star.name]]
    return [r for r in BANDS[kind] if star.dims_with_root(r)]


GOLDEN = (5 ** 0.5 - 1) / 2


def spread_pick(items: list, k: int):
    """k-th item of a fixed low-discrepancy walk: any prefix of k = 0, 1, ...
    is spread evenly over the list."""
    return items[int(len(items) * ((k * GOLDEN) % 1.0))]


WORKLOADS = {
    # E6~ at scan bound 12.  Most ops are off-hyperplane draws that end in a
    # full candidate scan; built ops reach the witness branch; horn ops are
    # decided by the Horn route, plane ops are on the hyperplane but mostly
    # Horn-infeasible, so they scan as well.
    "decide-e6": Workload(
        name="decide-e6", stars=("E6~",), max_root=12, bound=12,
        cycle=(("off", "E6~"), ("built", "E6~"), ("off", "E6~"), ("plane", "E6~"),
               ("off", "E6~"), ("built", "E6~"), ("off", "E6~"), ("horn", "E6~"),
               ("off", "E6~"), ("off", "E6~")),
        trace_cycles=4, warmup=1, run_op=decide_op, check=check_decide),
    # D4~, E7~ and E8~ at scan bound 20: their root and candidate tables land
    # in set-up, and their hyperplane regime is still a bounded scan.  D4~
    # gets three extra full scans per cycle, so the median falls inside a
    # block of ops of one cost (D4~ scans) rather than on the edge between
    # two, and the tail inside the E8~ scans.
    "decide-stars": Workload(
        name="decide-stars", stars=("D4~", "E7~", "E8~"), max_root=20, bound=20,
        cycle=(("off", "D4~"), ("off", "E7~"), ("off", "E8~"), ("built", "D4~"),
               ("plane", "D4~"), ("built", "E7~"), ("off", "D4~"), ("plane", "E7~"),
               ("built", "E8~"), ("plane", "D4~"), ("plane", "E8~"), ("off", "D4~")),
        trace_cycles=2, warmup=3, run_op=decide_op, check=check_decide),
    # Verified constructions on all four stars plus Horn-feasible E6~
    # hyperplane instances; one feasibility check per op.
    "construct-verify": Workload(
        name="construct-verify", stars=("D4~", "E6~", "E7~", "E8~"), max_root=21,
        cycle=tuple(op for large in (("D4~", "E6~"), ("E7~", "E8~")) for op in (
            ("horn", "E6~"), ("small", "D4~"), ("small", "E6~"), ("small", "E7~"),
            ("small", "E8~"), ("large", large[0]), ("medium", "D4~"), ("medium", "E6~"),
            ("horn", "E6~"), ("medium", "E7~"), ("medium", "E8~"), ("large", large[1]))),
        trace_cycles=1, warmup=5, run_op=construct_op, check=check_construct,
        numpy_probe=True),
}
