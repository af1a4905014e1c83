"""Exact dense linear algebra over a coefficient field from fields.py.

Matrices are tuples of row tuples (possibly with zero rows or columns).
Everything is deterministic: elimination always picks the first usable pivot.
"""

from __future__ import annotations

Matrix = tuple[tuple[object, ...], ...]
Vector = tuple[object, ...]


def mat(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def shape(A: Matrix) -> tuple[int, int]:
    return (len(A), len(A[0]) if A else 0)


def zeros(F, r: int, c: int) -> Matrix:
    return tuple(tuple(F.zero for _ in range(c)) for _ in range(r))


def identity(F, n: int) -> Matrix:
    return tuple(
        tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n)
    )


def transpose(A: Matrix) -> Matrix:
    r, c = shape(A)
    return tuple(tuple(A[i][j] for i in range(r)) for j in range(c))


def mat_mul(F, A: Matrix, B: Matrix) -> Matrix:
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise ValueError("shape mismatch")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = F.zero
            for k in range(ca):
                acc = F.add(acc, F.mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(F, A: Matrix, v: Vector) -> Vector:
    r, c = shape(A)
    if c != len(v):
        raise ValueError("shape mismatch")
    return tuple(
        _dot(F, A[i], v) for i in range(r)
    )


def _dot(F, a, b):
    acc = F.zero
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


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


def nullity(F, A: Matrix, ncols: int | None = None) -> int:
    nc = ncols if (not A and ncols is not None) else shape(A)[1]
    return nc - rank(F, A)


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


def solve(F, A: Matrix, b: Vector) -> Vector | None:
    """One solution of A x = b, or None if inconsistent."""
    nr, nc = shape(A)
    if len(b) != nr:
        raise ValueError("shape mismatch")
    aug = tuple(tuple(A[i]) + (b[i],) for i in range(nr))
    R, pivots = rref(F, aug)
    if nc in pivots:
        return None
    x = [F.zero] * nc
    for r, pc in enumerate(pivots):
        x[pc] = R[r][nc]
    return tuple(x)


def solve_matrix(F, A: Matrix, B: Matrix) -> Matrix | None:
    """X with A X = B (columnwise), or None if any column is inconsistent."""
    cols = []
    Bt = transpose(B)
    for b in Bt:
        x = solve(F, A, b)
        if x is None:
            return None
        cols.append(x)
    return transpose(mat(cols)) if cols else zeros(F, shape(A)[1], 0)
