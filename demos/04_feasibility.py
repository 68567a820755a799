"""Deciding existence: hyperplane test, Horn inequalities, Coxeter reduction.

An instance is three target spectra plus the level gamma.  Existence of an
irreducible non-degenerate solution splits into two regimes: on the trace
hyperplane the ambient dimension is 3 and twelve strict inequalities
decide; off it, only the real-root ladder dimensions can occur, and a
stepwise reduction (or its closed-form compression) decides each one.
"""
from starspec import (
    FAMILY_ROOT,
    build_star,
    char_from_chi,
    closed_form_e6,
    horn_check_e6,
    hyperplane,
    iterative_feasible,
    make_instance,
    on_hyperplane,
    solve,
    trajectory_dim,
)

g = build_star([2, 2, 2])
print("hyperplane:", hyperplane(g).display())

sym = make_instance([[2, 1], [2, 1], [2, 1]], 3)
print("\nsymmetric instance ((2,1),(2,1),(2,1)), gamma=3")
print("  on hyperplane:", on_hyperplane(g, sym))
v = horn_check_e6(sym)
print("  Horn verdict:", v.status, " witness ranks:", v.witness_dimension.flat())
for name, margin, ok in v.certificate[:4]:
    print(f"    {name:30} margin {margin:>4}  {'ok' if ok else 'VIOLATED'}")

skew = make_instance([[10, 1], [2, 1], [2, 1]], "17/3")
print("\nskewed instance ((10,1),(2,1),(2,1)), gamma=17/3")
w = horn_check_e6(skew)
print("  Horn verdict:", w.status)
for name, margin, ok in w.certificate:
    if not ok:
        print(f"    violated: {name}  (margin {margin})")

# Off the hyperplane: scan the real-root ladder.
off = make_instance([[25, 11], [23, 10], [24, 9]], 17)
print("\noff-hyperplane instance, gamma=17:",
      "on plane" if on_hyperplane(g, off) else "off plane")
verdict = solve(g, off, scan_bound=20)
print("  solve:", verdict.status, "via", verdict.branch_taken)

# The two decision routes agree point by point.
k = 6
d = trajectory_dim(g, FAMILY_ROOT, k)
f = char_from_chi(g, off)
print(f"\nroot-family dimension k={k}: d = {list(d)}")
print("  closed form :", closed_form_e6(off, FAMILY_ROOT, k).status)
print("  iterative   :", iterative_feasible(g, d, f).status)
