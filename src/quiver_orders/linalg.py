"""Exact dense linear algebra over a coefficient field from fields.py.

Matrices are tuples of row tuples (possibly with zero rows or columns).
Everything is deterministic: elimination always picks the first usable pivot.
"""

from __future__ import annotations

Matrix = tuple[tuple[object, ...], ...]
Vector = tuple[object, ...]


def shape(A: Matrix) -> tuple[int, int]:
    return (len(A), len(A[0]) if A else 0)


def zeros(F, r: int, c: int) -> Matrix:
    return tuple(tuple(F.zero for _ in range(c)) for _ in range(r))


def transpose(A: Matrix) -> Matrix:
    r, c = shape(A)
    return tuple(tuple(A[i][j] for i in range(r)) for j in range(c))


def rref(F, A: Matrix, ncols: int | None = None) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    `ncols` disambiguates the width of a matrix with no rows.
    """
    rows = [list(r) for r in A]
    nr, nc = shape(A)
    if not A and ncols is not None:
        nc = ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c] != F.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(F, A: Matrix) -> int:
    return len(rref(F, A)[1])


def nullspace(F, A: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of {x : A x = 0}, one vector per free column, in column order.

    `ncols` disambiguates the width of a matrix with no rows (the kernel of
    an empty map is the whole space).
    """
    R, pivots = rref(F, A, ncols=ncols)
    nc = ncols if (not A and ncols is not None) else shape(A)[1]
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(nc):
        if free in pivot_set:
            continue
        v = [F.zero] * nc
        v[free] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][free])
        basis.append(tuple(v))
    return basis
