"""Building explicit solutions and checking them independently.

Real-root dimensions: replay the reduction schedule upward from a
one-dimensional seed through the matrix reflection functors, bring the
branch maps to canonical diagonal form, and read off the orthoprojections
from the root-edge operators.  Hyperplane dimension: a seeded
Levenberg-Marquardt optimizer over the three real orthogonal orbits.
"""
import random
from fractions import Fraction as Q

import numpy as np

from starspec import (
    FAMILY_INNER,
    build_graph_rep,
    build_hyperplane_rep,
    build_star,
    canonicalize,
    char_transport_up,
    chi_from_char,
    make_instance,
    reduction_schedule,
    to_algebra_rep,
    trajectory_dim,
    verify_algebra_rep,
    verify_graph_rep,
)
from starspec.verify import commutant_dimension

g = build_star([2, 2, 2])
rng = random.Random(12)

# --- real-root construction -------------------------------------------
k = 9
d = trajectory_dim(g, FAMILY_INNER, k)
sched = reduction_schedule(g, d)
print("target dimension:", list(d), " terminal vertex:",
      sched.terminal, " steps:", len(sched.steps))

# sample a feasible character: positive terminal data transported upward
for _ in range(500):
    f_term = [Q(rng.randint(1, 12)) for _ in range(7)]
    f_term[sched.terminal] = Q(0)
    f = char_transport_up(g, sched, tuple(f_term))[-1]
    try:
        inst = chi_from_char(g, f)
        break
    except Exception:
        continue
else:
    raise SystemExit("no valid instance among 500 sampled characters")
print("instance spectra:", [[str(a) for a in b] for b in inst.branches],
      " gamma:", inst.gamma)

rep = build_graph_rep(g, d, f)
print("graph representation dims:", rep.dims)
print("locally scalar:", verify_graph_rep(g, rep, d, f).overall)

can = canonicalize(g, rep)
print("canonical leaf-edge block (branch 1):")
print(np.round(can.gamma(0, 1), 4))

arep = to_algebra_rep(g, can, inst)
report = verify_algebra_rep(arep)
print("projection ranks:", arep.generalized_dimension().flat())
print("algebra verification:", report.overall,
      " commutant dimension:", commutant_dimension(arep))

# --- hyperplane construction ------------------------------------------
inst2 = make_instance([[2, 1], [2, 1], [2, 1]], 3)
rep2 = build_hyperplane_rep(inst2, seed=0)
resid = np.abs(rep2.weighted_sum() - 3.0 * np.eye(3)).max()
print("\nhyperplane instance ((2,1),(2,1),(2,1)), gamma=3")
print("optimizer residual:", f"{resid:.2e}")
print("verification:", verify_algebra_rep(rep2).overall,
      " commutant dimension:", commutant_dimension(rep2))
print("branch operator spectra:")
for j in range(3):
    print("  ", np.round(np.linalg.eigvalsh(rep2.branch_operator(j)), 8))
