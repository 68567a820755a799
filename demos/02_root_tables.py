"""Root tables on the (2,2,2) star.

Integer vectors with q = 1 (real roots) come in shifted series: adding the
radical generator delta to a root gives another root.  Fixing an extending
vertex, every series has exactly one representative vanishing there, and
the positive representatives form a finite table.  The two parity maps act
on the series; orbits of the simple roots are the raw material for the
representation theory.
"""
from starspec import build_star, coxeter_series, fundamental_roots, unit_vector
from starspec.coxeter import defect

g = build_star([2, 2, 2])

table = fundamental_roots(g)
print(f"fundamental table: {len(table)} positive representatives")
for row in table:
    print("  ", list(row))

print("\norbits of the three seed types (up to branch symmetry):")
for label, seed in (("K1 (leaf seed)", 0), ("K2 (inner seed)", 1),
                    ("K3 (root seed)", g.root)):
    bases = coxeter_series(g, unit_vector(g, seed))
    print(f"  {label}: {len(bases)} series")
    for base in bases:
        print("     ", list(base))

# the defect is linear, so a base and its negative fall on the same side
bases = fundamental_roots(g, include_negative=True)
regular = [b for b in bases if defect(g, b) == 0]
singular = [b for b in bases if defect(g, b) != 0]
print(f"\nof all {len(singular) + len(regular)} signed series, "
      f"{len(singular)} reduce to a simple root and {len(regular)} are "
      "regular (zero defect):")
for b in sorted(regular):
    print("  regular:", list(b))
print("regular series never reduce to a simple root; the feasibility scan")
print("leaves them out.")
