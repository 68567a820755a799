"""Coxeter walks: how dimensions climb and characters move.

Starting from a one-dimensional seed, alternating the two parity
reflections walks through an infinite ladder of dimension vectors; after
one period the walk repeats shifted by delta.  On pairs (dimension,
character) the steps act crosswise: an 'even' step reflects the dimension
at even vertices but the character at odd vertices inside the support.
"""
from fractions import Fraction as Q

from starspec import (
    FAMILIES,
    build_star,
    coxeter_power_matrix_e6,
    coxeter_power_table_e6,
    trajectory_dim,
)
from starspec.coxeter import signed_delta_e6

g = build_star([2, 2, 2])
DELTA = (1, 2, 1, 2, 1, 2, 3)

for fam in FAMILIES.values():
    print(f"family '{fam.name}': seed vertex {fam.seed_vertex}, "
          f"period {fam.period}, closed-form range k >= {fam.min_k}")
    for k in range(1, fam.period + 2):
        d = trajectory_dim(g, fam, k)
        print(f"   k={k:2}  d = {list(d)}")
    print()

# Powers of the composite Coxeter matrix: exact versus the period-six
# normalized tables.  The tables drop the radical drift: the difference is
# the rank-one matrix ((k-1)/6) outer(sd, delta).
sd = signed_delta_e6()
for k in (0, 1, 2, 6, 7, 13):
    exact_t = tuple(zip(*coxeter_power_matrix_e6(g, k)))  # transposed
    table = coxeter_power_table_e6(k)
    diff = {
        Q(exact_t[i][j] - table[i][j], 1) / (sd[i] * DELTA[j])
        for i in range(7) for j in range(7)
        if exact_t[i][j] != table[i][j]
    }
    coef = diff.pop() if diff else Q(0)
    print(f"k={k:2}: table == exact^T - ({coef}) * outer(sd, delta)"
          f"   with (k-1)/6 = {Q(k - 1, 6)}")
