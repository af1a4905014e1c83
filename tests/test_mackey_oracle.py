"""Oracle for the restriction-dominance check.

`kostant.mackey_dominance_check(kps, side)` reads, for every m of one KP(nu),
the restriction-achievable partitions that fail to dominate m off the order
bitsets of KP(nu).  The reference below is the earlier per-m version: it
re-enumerates KP(m.nu) for each m and compares each pair through the prefix
statistics directly (the former `restriction_dominates` and `kp_leq_printed`,
inlined).  Both must agree on every partition with |nu| <= 4 of A2, two
orientations of A3 and two of D4, under both res_large_side values, and
calibrate must keep exactly the sides the pairwise check leaves.
"""

from __future__ import annotations

import pytest

from quiver_orders import geometry, kostant
from quiver_orders.convex_order import adapted_order
from quiver_orders.errors import CapExceeded
from quiver_orders.geometry import calibrate, default_test_nus
from quiver_orders.kostant import (
    RES_SIDES,
    KostantPartition,
    achievable_prefix_sums,
    enumerate_kp,
    mackey_dominance_check,
    prefix_statistics,
)
from quiver_orders.quivers import linear_quiver, quiver
from oracles import prefix_flags


def reference_violations(m: KostantPartition, side: str) -> tuple[KostantPartition, ...]:
    """The partitions n of m.nu whose every prefix is an achievable first-part
    sum of a restriction of m, but with T_k(n) <= T_k(m) failing for some k."""
    S = achievable_prefix_sums(m, side)
    rows = []
    for n in enumerate_kp(m.order.datum, m.nu, m.order):
        flags = prefix_flags(n, S)
        if n.order != m.order or n.nu != m.nu:
            raise ValueError("partitions are not comparable")
        dominates = all(
            a <= b for a, b in zip(prefix_statistics(n), prefix_statistics(m))
        )
        rows.append((n, all(flags), dominates))
    return tuple(n for n, achievable, dominates in rows if achievable and not dominates)


QUIVERS = {
    "A2": quiver("A2", ((1, 2),)),
    "A3-linear": linear_quiver("A3"),
    "A3-sink": quiver("A3", ((1, 2), (3, 2))),
    "D4-star": quiver("D4", ((1, 2), (3, 2), (4, 2))),
    "D4-path": quiver("D4", ((1, 2), (2, 4), (3, 2))),
}


def sweep(Q):
    order = adapted_order(Q)
    for nu in ((0,) * Q.datum.n,) + default_test_nus(Q.datum, 4):
        yield enumerate_kp(Q.datum, nu, order)


@pytest.mark.parametrize("side", RES_SIDES)
@pytest.mark.parametrize("label", QUIVERS)
def test_violations_match_pairwise_check(label, side):
    compared = 0
    for kps in sweep(QUIVERS[label]):
        got = mackey_dominance_check(kps, side)
        assert got == [reference_violations(m, side) for m in kps], kps[0].nu
        compared += len(kps)
    assert compared > 0


def test_sweep_reaches_violations():
    bad = sum(
        1
        for Q in QUIVERS.values()
        for kps in sweep(Q)
        for m in kps
        for side in RES_SIDES
        if reference_violations(m, side)
    )
    assert bad > 0


@pytest.mark.parametrize("label", QUIVERS)
def test_calibrate_keeps_the_sides_the_pairwise_check_leaves(label, monkeypatch):
    Q = QUIVERS[label]
    order = adapted_order(Q)
    nus = default_test_nus(Q.datum, 3)
    survivors = {
        side
        for side in RES_SIDES
        if not any(
            reference_violations(m, side)
            for nu in nus
            for m in enumerate_kp(Q.datum, nu, order)
        )
    }
    assert survivors
    # calibrate picks the first surviving side in listed order, so listing
    # each side first in turn reads off the whole surviving set
    for listed in (RES_SIDES, RES_SIDES[::-1]):
        monkeypatch.setattr(geometry, "RES_SIDES", listed)
        expected = next(side for side in listed if side in survivors)
        assert calibrate(Q, nus).res_large_side == expected


def test_dominance_check_stops_at_the_prefix_sum_cap(monkeypatch):
    kps = next(kps for kps in sweep(QUIVERS["A3-linear"]) if len(kps) > 1)
    monkeypatch.setattr(kostant, "_PREFIX_SUM_CAP", 0)
    with pytest.raises(CapExceeded, match=r"reached 1 steps, over the cap 0$"):
        mackey_dominance_check(kps, "first-factor")
