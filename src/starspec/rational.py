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


def transpose(a: QMat) -> QMat:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_pow(a: QMat, k: int) -> QMat:
    if k < 0:
        return mat_pow(mat_inv(a), -k)
    out = identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def mat_inv(a: QMat) -> QMat:
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(a)
    m = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        d = m[c][c]
        m[c] = [v / d for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def determinant(a: QMat) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    det = Q(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def parse_fraction(s) -> Fraction:
    """Parse an int, float-free string like '3' or '17/3', or Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Q(s)
    if isinstance(s, str):
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {type(s).__name__}: {s!r}")
