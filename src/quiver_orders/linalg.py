"""Exact linear algebra over a coefficient field from fields.py.

Matrices are tuples of row tuples (possibly with zero rows or columns); an
input may be any sequence of row sequences.  Over Q an entry is an int or a
Fraction, and every entry `rref` and `nullspace` return is an int where it
is integral.  All elimination is `_eliminate`, which reduces sparse rows
(`{column: entry}` dicts of nonzero entries) against an echelon basis keyed
by leading column: over Q on Python ints, combined fraction-free; over F_p
and GF(p^r) with each basis row leading with one.  `rank` and `rref` make
their rows sparse at the door; `rank` counts the basis rows and `rref` also
clears them at the later pivots.  The reduced row echelon form is unique,
so the order in which rows meet the basis does not show.
"""

from __future__ import annotations

import math
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
    basis = _eliminate(F, _sparse(A))
    pivots = sorted(basis)
    # clearing at a later pivot uses that pivot's row, which is cleared already
    for k in reversed(range(len(pivots))):
        for c in pivots[k + 1 :]:
            if c in basis[pivots[k]]:
                basis[pivots[k]] = _combine(F, basis[pivots[k]], basis[c], c)
    rows = []
    for c in pivots:
        b, row = basis[c], [F.zero] * nc
        for j, x in b.items():
            if F.order is None:
                x = x // b[c] if x % b[c] == 0 else Fraction(x, b[c])
            row[j] = x
        rows.append(tuple(row))
    rows += [(F.zero,) * nc] * (len(A) - len(pivots))
    return tuple(rows), tuple(pivots)


def rank(F, A: Matrix) -> int:
    """Number of pivots of `rref(F, A)`: the size of the echelon basis, with
    no back-substitution and no reduced matrix."""
    return len(_eliminate(F, _sparse(A)))


def _sparse(A: Matrix):
    return ({j: x for j, x in enumerate(row) if x} for row in A)


def _eliminate(F, rows) -> dict[int, dict[int, object]]:
    """Echelon basis of the span of `rows`, each a `{column: entry}` dict of
    nonzero entries, keyed by leading column.  The rows are not modified.

    Over Q a row with a Fraction entry is scaled to ints by the lcm of its
    denominators (a sum is an int only if every term is), and a row joining
    the basis is divided by the gcd of its entries; over a finite field a
    joining row is scaled to lead with one.
    """
    basis: dict[int, dict[int, object]] = {}
    for v in rows:
        if F.order is None and type(sum(v.values())) is not int:
            m = math.lcm(*(x.denominator for x in v.values()))
            v = {j: x.numerator * (m // x.denominator) for j, x in v.items()}
        while v:
            c = min(v)
            if c not in basis:
                if F.order is None:
                    g = math.gcd(*v.values())
                    basis[c] = v if g == 1 else {j: x // g for j, x in v.items()}
                else:
                    inv = F.inv(v[c])
                    basis[c] = {j: F.mul(inv, x) for j, x in v.items()}
                break
            v = _combine(F, v, basis[c], c)
    return basis


def _combine(F, v: dict, b: dict, c: int) -> dict:
    """A sparse row that is zero at column c: v − (v[c]/b[c])·b when b[c]
    divides v[c], which it always does over a finite field, where b[c] is
    one; otherwise b[c]·v − v[c]·b."""
    f = v[c]
    if F.order is None:
        p = b[c]
        if f % p:
            w = {j: p * x for j, x in v.items()}
        else:
            w, f = dict(v), f // p
        for j, y in b.items():
            x = w.get(j, 0) - f * y
            if x:
                w[j] = x
            else:
                del w[j]
        return w
    w = dict(v)
    for j, y in b.items():
        w[j] = F.sub(w.get(j, 0), F.mul(f, y))
    return {j: x for j, x in w.items() if x}


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
