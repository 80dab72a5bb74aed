"""Small exact linear-algebra helpers over ints and :class:`fractions.Fraction`.

Matrices are tuples of row tuples of ints (Cartan matrices) or Fractions
(their inverses and Gram matrices).  Everything here is sized for
Cartan-matrix work (rank at most 8), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[int | Fraction, ...], ...]
Vector = tuple[int | Fraction, ...]


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    """Matrix times column vector."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_mat(v: Sequence, a: Matrix) -> Vector:
    """Row vector times matrix."""
    return tuple(
        sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))
    )


def mat_inv(a: Matrix) -> Matrix:
    """Exact inverse, in Fractions, by Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == r)) for i in range(n)] for r, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    total = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (total - offset - len(row)))
        offset += len(b)
    return tuple(rows)
