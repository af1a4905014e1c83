"""Oracle for `reps.hom_dim`.

`_reference_hom_dim` is `hom_dim` as it was before ranks got their own
path: it assembles the same system with `F.sub` on every entry and takes
the nullity from the pivots of a dense Gauss-Jordan loop over the field's
operations, kept here so that it shares no code with `linalg`.  Both must
agree on every ordered pair of indecomposables, and on every ordered pair of
direct sums `rep_of_kp(lam)` with |nu| <= 3, for A3 in both orientations,
the D4 star and one E6 orientation, over Q, F_2 and GF(4).  Over Q they must
also agree on those direct sums conjugated by diagonal base changes with
entries such as 1/2, -3/5 and 7, whose matrices are not integral, and such a
conjugate must have the Hom dimensions of the module it conjugates.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from quiver_orders.convex_order import adapted_order
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import enumerate_kp
from quiver_orders.quivers import quiver
from quiver_orders.reps import (
    QuiverRep,
    _require_same_context,
    all_indecomposables,
    hom_dim,
    rep_of_kp,
)


def _gauss_jordan_rank(F, rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != F.zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _reference_hom_dim(M, N) -> int:
    _require_same_context(M, N)
    F = M.field
    n = M.quiver.datum.n
    sizes = [N.dims[i] * M.dims[i] for i in range(n)]
    offsets = [0] * n
    for i in range(1, n):
        offsets[i] = offsets[i - 1] + sizes[i - 1]
    total = sum(sizes)
    rows = []
    for idx, (s, t) in enumerate(M.quiver.arrows):
        x = M.mats[idx]
        y = N.mats[idx]
        si, ti = s - 1, t - 1
        for r in range(N.dims[ti]):
            for c in range(M.dims[si]):
                row = [F.zero] * total
                for u in range(M.dims[ti]):
                    row[offsets[ti] + r * M.dims[ti] + u] = x[u][c]
                for v in range(N.dims[si]):
                    pos = offsets[si] + v * M.dims[si] + c
                    row[pos] = F.sub(row[pos], y[r][v])
                rows.append(tuple(row))
    if not rows:
        return total
    return total - _gauss_jordan_rank(F, rows)


QUIVERS = {
    "A3-linear": quiver("A3", ((1, 2), (2, 3))),
    "A3-zigzag": quiver("A3", ((1, 2), (3, 2))),
    "D4-star": quiver("D4", ((1, 2), (3, 2), (4, 2))),
    "E6": quiver("E6", ((1, 3), (4, 2), (4, 3), (5, 4), (5, 6))),
}
FIELDS = {"Q": RATIONALS, "F2": galois_field(2), "GF4": galois_field(4)}


def _assert_agree(modules):
    for M in modules:
        for N in modules:
            assert hom_dim(M, N) == _reference_hom_dim(M, N), (M.dims, N.dims)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("Q", QUIVERS.values(), ids=QUIVERS.keys())
def test_indecomposables(Q, field):
    _assert_agree(list(all_indecomposables(Q, field).values()))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("Q", QUIVERS.values(), ids=QUIVERS.keys())
def test_kp_sums(Q, field):
    order = adapted_order(Q)
    _assert_agree(
        [
            rep_of_kp(lam, field)
            for nu in default_test_nus(Q.datum, 3)
            for lam in enumerate_kp(Q.datum, nu, order)
        ]
    )


SCALES = (Fraction(1, 2), Fraction(-3, 5), 7, Fraction(2, 3), -1)


def _conjugate(M, shift):
    """M under the base change that scales coordinate k of vertex i by a
    cyclic pick of SCALES: each x_a: M_s -> M_t becomes D_t x_a D_s^-1."""
    offsets = [0]
    for d in M.dims:
        offsets.append(offsets[-1] + d)

    def scale(i, k):
        return SCALES[(shift + offsets[i - 1] + k) % len(SCALES)]

    mats = tuple(
        tuple(
            tuple(Fraction(x) * scale(t, u) / scale(s, c) for c, x in enumerate(row))
            for u, row in enumerate(m)
        )
        for (s, t), m in zip(M.quiver.arrows, M.mats)
    )
    return QuiverRep(M.quiver, M.field, M.dims, mats)


@pytest.mark.parametrize("Q", QUIVERS.values(), ids=QUIVERS.keys())
def test_non_integral_conjugates(Q):
    order = adapted_order(Q)
    modules = [
        rep_of_kp(lam, RATIONALS)
        for nu in default_test_nus(Q.datum, 3)
        for lam in enumerate_kp(Q.datum, nu, order)
    ][:40]
    conjugates = [_conjugate(M, k) for k, M in enumerate(modules)]
    assert any(
        type(x) is Fraction and x.denominator != 1
        for M in conjugates for m in M.mats for row in m for x in row
    )
    _assert_agree(conjugates + modules[:10])
    for M, C in zip(modules, conjugates):
        for N in modules[:10]:
            assert hom_dim(C, N) == hom_dim(M, N) and hom_dim(N, C) == hom_dim(N, M)
