"""Exact linear algebra on small dense matrices.

Characters, spectra, chi and the drift-normalized Coxeter power tables are
``fractions.Fraction`` so that verdicts are exact.  Everything whose values
are integers stays a plain int: dimension vectors, roots, and the parity,
Coxeter, transfer and condition matrices.  The decision layer clears
the denominators of chi or of a character once and then evaluates its
conditions as integer sums.  Matrices are tuples of tuples and vectors are
tuples; the helpers below work on int and Fraction entries alike and keep
integer matrices int.  Sizes here are tiny (the number of graph vertices),
so no attempt is made to be clever.
"""
from __future__ import annotations

from fractions import Fraction

Q = Fraction
QVec = tuple[Fraction, ...]
QMat = tuple[QVec, ...]
IMat = tuple[tuple[int, ...], ...]


def identity(n: int) -> IMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matrix_of(linear_map, n: int):
    """Matrix of a linear map on length-n vectors: its columns are the
    images of the unit vectors."""
    return tuple(zip(*map(linear_map, identity(n))))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a, x) -> tuple:
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def mat_pow(a, k: int):
    """a**k by repeated squaring, for k >= 0."""
    if k < 0:
        raise ValueError("negative power")
    out = identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def parse_fraction(s) -> Fraction:
    """Parse an int, float-free string like '3' or '17/3', or Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Q(s)
    if isinstance(s, str):
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {type(s).__name__}: {s!r}")
