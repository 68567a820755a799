"""Exact rational linear algebra on small dense matrices.

Characters, spectra and the condition matrices of the closed-form route are
``fractions.Fraction`` so that verdicts are exact; dimension vectors and
roots are plain ints and need none of this.  Matrices are tuples of tuples;
vectors are tuples.  Sizes here are tiny (the number of graph
vertices), so no attempt is made to be clever.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Q = Fraction
QVec = tuple[Fraction, ...]
QMat = tuple[QVec, ...]


def qvec(entries: Sequence) -> QVec:
    return tuple(Fraction(e) for e in entries)


def qmat(rows: Sequence[Sequence]) -> QMat:
    return tuple(qvec(r) for r in rows)


def identity(n: int) -> QMat:
    return tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a: QMat, b: QMat) -> QMat:
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a: QMat, x: QVec) -> QVec:
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def mat_pow(a: QMat, k: int) -> QMat:
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
