"""A digest of seeded ``solve`` verdicts on all four extended stars.

Every line is the verdict JSON that ``starspec feasible`` prints, so any
byte change to a status, witness, certificate or "(N candidates tested)"
count changes the digest.  The draws use only the exact decision path:
this file imports no numpy.
"""
import hashlib
import random
from collections import Counter
from fractions import Fraction as Q
from operator import mul

from starspec.coxeter import char_transport_up, defect, reduction_schedule
from starspec.feasibility import hyperplane, solve
from starspec.graph import build_star, classify
from starspec.io import dumps, verdict_to_dict
from starspec.roots import fundamental_roots
from starspec.transfer import TransferError, chi_from_char, make_instance, nondegenerate_dim

STARS = [[1, 1, 1, 1], [2, 2, 2], [1, 3, 3], [1, 2, 5]]
BOUNDS = (12, 20, 60)
# draws per star and bound: off the hyperplane, on it, built feasible
DRAWS = (90, 80, 80)


def _spectra(rng, lengths):
    """Distinct values, from a small range half of the time so that ties
    with the walls and the terminal conditions occur, cut into strictly
    decreasing branches."""
    top = rng.choice((12, 40))
    values = rng.sample(range(1, top + 1), sum(lengths))
    out, i = [], 0
    for length in lengths:
        out.append(sorted(values[i:i + length], reverse=True))
        i += length
    return out


def _candidates(g, bound):
    """Every positive member x + k*delta of nonzero defect with strict
    chains and root entry <= bound, x a table root or its negative."""
    delta = classify(g).delta
    out = []
    for x in fundamental_roots(g, include_negative=True):
        if defect(g, x) == 0:
            continue
        for k in range(bound + 2):
            d = tuple(b + k * v for b, v in zip(x, delta))
            if d[g.root] > bound:
                break
            if min(d) >= 0 and nondegenerate_dim(g, d):
                out.append(d)
    return sorted(out, key=lambda d: (d[g.root], d))


def _built(rng, g, d):
    """An instance feasible in d: positive terminal data transported up
    d's reduction schedule, redrawn until it gives valid spectra."""
    schedule = reduction_schedule(g, d)
    while True:
        f_term = [rng.randint(1, 30) for _ in range(g.n_vertices)]
        f_term[schedule.terminal] = 0
        try:
            return chi_from_char(g, char_transport_up(g, schedule, tuple(f_term))[-1])
        except TransferError:
            continue


def _verdict_lines():
    rng = random.Random(38)
    lines = []
    for lengths in STARS:
        g = build_star(lengths)
        level = hyperplane(g).coefficients
        for bound in BOUNDS:
            n_off, n_plane, n_built = DRAWS
            draws = []
            for _ in range(n_off):
                draws.append(make_instance(_spectra(rng, lengths),
                                           Q(rng.randint(2, 140), 2)))
            for _ in range(n_plane):
                spectra = _spectra(rng, lengths)
                chi = [a for spec in spectra for a in spec]
                draws.append(make_instance(
                    spectra, Q(-sum(map(mul, level, chi)), level[-1])))
            candidates = _candidates(g, bound)
            for _ in range(n_built):
                draws.append(_built(rng, g, rng.choice(candidates)))
            lines += [dumps(verdict_to_dict(solve(g, inst, scan_bound=bound)))
                      for inst in draws]
    return lines


def test_verdict_digest():
    """3,000 verdicts: their status mix, then the sha256 of their lines."""
    lines = _verdict_lines()
    statuses = Counter(line.split('"status":"')[1].split('"')[0] for line in lines)
    assert statuses == DIGEST_STATUSES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST


# frozen at the decision code of 88af294
DIGEST_STATUSES = {"infeasible": 1867, "feasible": 1088, "degenerate": 45}
DIGEST = "fb78974339618b3126eacfca2e516297f2b10b1eaf2b5234cf48af3994034207"
