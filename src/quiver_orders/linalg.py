"""Exact dense linear algebra over a coefficient field from fields.py.

Matrices are tuples of row tuples (possibly with zero rows or columns); an
input may be any sequence of row sequences.
Everything is deterministic: elimination always picks the first usable pivot.
A matrix over Q whose entries are all integers is eliminated fraction-free on
Python ints (Bareiss, Math. Comp. 22, 1968); every other matrix, over Q, F_p
or GF(p^r), takes the generic loop over the field's operations.  `rref` and
`rank` share that elimination; `rank` runs it echelon-only, updating only the
rows below each pivot and building no reduced matrix.
"""

from __future__ import annotations

from fractions import Fraction

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
    nc = ncols if (not A and ncols is not None) else shape(A)[1]
    return _eliminate(F, A, nc, False)


def rank(F, A: Matrix) -> int:
    """Number of pivots of `rref(F, A)`, by echelon-only elimination: only the
    rows below each pivot are updated, and no reduced matrix is built."""
    return len(_eliminate(F, A, shape(A)[1], True)[1])


def _eliminate(F, A: Matrix, nc: int, echelon: bool) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss-Jordan, or with `echelon` forward elimination that returns its rows
    as lists; rows below a pivot are updated alike, so the pivots agree."""
    if F.order is None and all(x.denominator == 1 for row in A for x in row):
        return _rref_integral(A, nc, echelon)
    nr = len(A)
    rows = [list(r) for r in A]
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
        for i in range(r + 1 if echelon else 0, nr):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return (rows if echelon else tuple(tuple(row) for row in rows)), tuple(pivots)


def _rref_integral(A: Matrix, nc: int, echelon: bool) -> tuple[Matrix, tuple[int, ...]]:
    """`_eliminate` over Q of an integer matrix, by fraction-free elimination.

    Every row updated at a pivot becomes (p*row - f*pivot_row) // prev, where
    p is the new pivot and prev the one before it; the division is exact
    because each entry is then a minor of A.  Rows with f == 0 are rescaled
    too, or a later division would not be exact; only when p == prev is that
    update the identity and the row is left as it is.  So every pivot entry
    ends equal to the last pivot d, and the reduced rows are the rows over d.
    With `echelon` only the rows below each pivot are updated, and the rows
    are returned as the ints they are, not as reduced `Fraction` rows.
    """
    nr = len(A)
    rows = [[x.numerator for x in r] for r in A]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1 if echelon else 0, nr):
            f = rows[i][c]
            if i != r and (f or p != prev):
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nr:
            break
    if echelon:
        return rows, tuple(pivots)
    zero = Fraction(0)
    R = tuple(tuple(Fraction(x, prev) if x else zero for x in row) for row in rows)
    return R, tuple(pivots)


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
