"""Star graphs, their quadratic form, and the Dynkin trichotomy.

A star graph is a tree: one root, n simple paths hanging off it.  Vectors
on the vertices are measured by the form q(x) = sum x_i^2 - sum_edges x_i x_j,
and everything downstream (which spectra are achievable, in which ambient
dimensions) is governed by whether q is positive definite, semi-definite,
or indefinite.
"""
from starspec import build_star, classify, tits_form, bilinear_form, unit_vector

# The three-branch star with two vertices per branch.
g = build_star([2, 2, 2])
print("vertices:", g.n_vertices, " edges:", len(g.edges), " root:", g.root)
print("parity:", g.parity)

cls = classify(g)
print("\nclass:", cls.kind, cls.name)
print("radical generator delta:", list(cls.delta))
print("q(delta) =", tits_form(g, cls.delta))
print("extending vertices (delta = 1):", cls.extending)

# delta pairs to zero with everything: it spans the radical of the form
print("\npairings (delta, e_v):",
      [str(bilinear_form(g, cls.delta, unit_vector(g, v))) for v in range(7)])

# Removing an extending vertex leaves the positive definite core; delta
# minus that unit vector is its highest root.
e = cls.extending[0]
x = tuple(d - u for d, u in zip(cls.delta, unit_vector(g, e)))
print("q(delta - e_ext) =", tits_form(g, x))

# The whole landscape of small stars.
print("\nsmall stars:")
for lengths in ([1], [3], [1, 1], [1, 1, 1], [2, 2, 1], [1, 2, 3], [4, 2, 1],
                [1, 1, 1, 1], [2, 2, 2], [3, 3, 1], [5, 2, 1],
                [3, 3, 3], [1, 1, 1, 1, 1]):
    c = classify(build_star(lengths))
    extra = ""
    if c.kind == "Wild":
        w = c.witness
        extra = f"  witness q = {tits_form(build_star(lengths), w)}"
    print(f"  {lengths!s:18} -> {c.kind:14} {c.name or '':5}{extra}")
