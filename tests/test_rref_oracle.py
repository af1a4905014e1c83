"""Oracle for the sparse echelon-basis elimination behind `linalg.rref`,
`linalg.rank` and `linalg.nullspace`.

`_reference_rref` is the dense Gauss-Jordan loop over the field's
operations, as `rref` ran it before elimination reduced sparse rows against
an echelon basis.  The reduced row echelon form is unique, so the RREF, the
pivots, the rank and the nullspace must agree exactly on every input: over Q
on integer and non-integral matrices, on the same integer matrices taken
mod 2 and mod 5, and on random matrices over GF(4) and GF(9).  Over Q
`rref` returns Fractions, while `nullspace` writes every integral entry as
an int and keeps a Fraction only where a quotient is not integral.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiver_orders.convex_order import adapted_order
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.linalg import nullspace, rank, rref, shape
from quiver_orders.quivers import quiver
from quiver_orders.reps import all_indecomposables, hom_dim, hom_matrix

Q = RATIONALS


def _reference_rref(F, A, ncols=None):
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


def _reference_nullspace(F, A, nc):
    R, pivots = _reference_rref(F, A, ncols=nc)
    basis = []
    for free in range(nc):
        if free in pivots:
            continue
        v = [F.zero] * nc
        v[free] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][free])
        basis.append(tuple(v))
    return basis


def _matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _random_matrix(rng, nr, nc, density=1.0):
    return _matrix(
        [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
    )


def _product(rng, nr, k, nc):
    """An nr x nc integer matrix of rank at most k."""
    B = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
    C = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
    return _matrix(
        [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
    )


def _with_zero_lines(rng, A):
    """A with a zero row and a zero column inserted at random places."""
    rows = [list(r) for r in A]
    nc = len(rows[0])
    col = rng.randint(0, nc)
    rows = [r[:col] + [Fraction(0)] + r[col:] for r in rows]
    rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * (nc + 1))
    return tuple(tuple(r) for r in rows)


def _cases():
    rng = random.Random(20260418)
    cases = []
    for _ in range(150):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        cases.append(_random_matrix(rng, nr, nc, density=rng.choice((0.2, 0.5, 1.0))))
    for _ in range(60):
        nr, nc = rng.randint(2, 12), rng.randint(2, 12)
        cases.append(_product(rng, nr, rng.randint(1, min(nr, nc) - 1), nc))
    for _ in range(30):
        A = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        cases.append(_with_zero_lines(rng, A))
    cases.append(_matrix([[0] * 5] * 4))
    cases.append(_matrix([[2, 4, 6], [1, 2, 3], [-3, -6, -9]]))
    return cases


CASES = _cases()


def _assert_matches(A, ncols=None, F=Q):
    R, pivots = rref(F, A, ncols=ncols)
    assert (R, pivots) == _reference_rref(F, A, ncols=ncols)
    assert all(type(x) is (int if x == int(x) else Fraction) for row in R for x in row)
    nc = ncols if (not A and ncols is not None) else shape(A)[1]
    assert rank(F, A) == len(pivots)
    basis = nullspace(F, A, ncols=ncols)
    assert basis == _reference_nullspace(F, A, nc)
    for v in basis:
        for row in A:
            total = F.zero
            for a, x in zip(row, v):
                total = F.add(total, F.mul(a, x))
            assert total == F.zero


def test_integer_matrices_match_reference():
    ranks, kinds = set(), set()
    for A in CASES:
        _assert_matches(A)
        ranks.add(min(shape(A)) - rank(Q, A))
        kinds.update(type(x) for row in rref(Q, A)[0] for x in row)
    # the sweep covers full-rank and rank-deficient matrices, and reduced
    # forms with integral and non-integral entries
    assert 0 in ranks and max(ranks) >= 3
    assert kinds == {int, Fraction}


def test_rowless_matrices():
    for nc in (0, 1, 4):
        assert rref(Q, (), ncols=nc) == ((), ())
        _assert_matches((), ncols=nc)
        assert len(nullspace(Q, (), ncols=nc)) == nc


def test_non_integral_matrices_match_reference():
    rng = random.Random(7)
    for _ in range(40):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        A = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nc))
            for _ in range(nr)
        )
        _assert_matches(A)


def test_nullspace_writes_integral_quotients_as_ints():
    """Integer matrices whose kernels need Fractions: the basis equals the
    reference's, with every integral entry an int and the others Fractions."""
    rng = random.Random(11)
    kinds = set()
    for _ in range(60):
        nr = rng.randint(1, 5)
        A = tuple(tuple(rng.choice((0, 2, 3, -4, 6)) for _ in range(nr + 2)) for _ in range(nr))
        basis = nullspace(Q, A)
        assert basis == _reference_nullspace(Q, A, nr + 2)
        for x in (x for v in basis for x in v):
            assert type(x) is (int if x == int(x) else Fraction)
            kinds.add(type(x))
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("p", (2, 5))
def test_rank_mod_p_matches_reference(p):
    F = galois_field(p)
    ranks = set()
    for A in CASES:
        Ap = tuple(tuple(x.numerator % p for x in row) for row in A)
        _assert_matches(Ap, F=F)
        ranks.add(rank(F, Ap))
    assert 0 in ranks and max(ranks) >= 8


@pytest.mark.parametrize("q", (4, 9))
def test_rank_over_extension_fields_matches_reference(q):
    F = galois_field(q)
    rng = random.Random(q)
    deficits = set()
    for _ in range(100):
        nr, nc = rng.randint(2, 9), rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [
            [rng.randrange(q) if rng.random() < density else F.zero for _ in range(nc)]
            for _ in range(nr)
        ]
        a = rng.randrange(q)  # one more row, a combination of the first two
        rows.append([F.add(F.mul(a, x), y) for x, y in zip(rows[0], rows[1])])
        A = tuple(tuple(row) for row in rows)
        _assert_matches(A, F=F)
        deficits.add(min(nr + 1, nc) - rank(F, A))
    assert 0 in deficits and max(deficits) >= 3


def test_e6_hom_matrix_equals_hom_dims_over_f101():
    Q6 = quiver("E6", ((1, 3), (4, 2), (4, 3), (5, 4), (5, 6)))
    F = galois_field(101)
    reps = all_indecomposables(Q6, F)
    beta = adapted_order(Q6).beta
    G101 = tuple(tuple(hom_dim(reps[a], reps[b]) for b in beta) for a in beta)
    assert hom_matrix(Q6) == G101
