"""Oracle for the bitset partition-order layer.

The references are the pairwise predicate loops the relations were first
written with: relation sets built by calling kp_leq / closure_leq on every
pair, and the O(K^3) cover computation over the set of strict pairs.
"""

from __future__ import annotations

import pytest

from quiver_orders.convex_order import adapted_order
from quiver_orders.geometry import (
    baumann_check,
    closure_keys,
    closure_leq,
    default_test_nus,
)
from quiver_orders.kostant import (
    ORDER_DIRECTIONS,
    OrientationLedger,
    cover_relations,
    enumerate_kp,
    kp_leq,
    leq_bitsets,
    order_keys,
)
from quiver_orders.pbw import in_ker_locus, order_compat, reflect_kp
from quiver_orders.quivers import linear_quiver, quiver, sinks

LEDGERS = tuple(
    OrientationLedger(d, "transposed", "first-factor") for d in ORDER_DIRECTIONS
)
CALIBRATED = LEDGERS[1]

A3LIN = linear_quiver("A3")
A3ZIG = quiver("A3", ((1, 2), (3, 2)))
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))
SMALL = [(A3LIN, 4), (A3ZIG, 4), (D4STAR, 3)]
SMALL_IDS = ["A3lin", "A3zig", "D4star"]


def reference_covers(kps, leq):
    """Covers a -> b of the strict order induced by the predicate `leq`."""
    strict = {
        (a.counts, b.counts)
        for a in kps
        for b in kps
        if a.counts != b.counts and leq(a, b)
    }
    covers = []
    for a in kps:
        for b in kps:
            if (a.counts, b.counts) not in strict:
                continue
            if any(
                (a.counts, c.counts) in strict and (c.counts, b.counts) in strict
                for c in kps
            ):
                continue
            covers.append((a, b))
    return covers


def pairwise(kps, leq):
    return {(a.counts, b.counts) for a in kps for b in kps if leq(a, b)}


def from_bitsets(kps, bitsets):
    return {
        (kps[i].counts, kps[j].counts)
        for i, bits in enumerate(bitsets)
        for j in range(len(kps))
        if bits >> j & 1
    }


def reference_order_compat(i, nu, order, ledger):
    locus = [lam for lam in enumerate_kp(order.datum, nu, order) if in_ker_locus(lam, i)]
    reflected = {lam.counts: reflect_kp(i, lam) for lam in locus}
    return all(
        kp_leq(a, b, ledger) == kp_leq(reflected[a.counts], reflected[b.counts], ledger)
        for a in locus
        for b in locus
    )


def _sweep(Q, nu_max):
    order = adapted_order(Q)
    for nu in default_test_nus(Q.datum, nu_max):
        yield nu, order, enumerate_kp(Q.datum, nu, order)


@pytest.mark.parametrize("ledger", LEDGERS, ids=ORDER_DIRECTIONS)
@pytest.mark.parametrize("Q,nu_max", SMALL, ids=SMALL_IDS)
def test_order_relation_and_covers_match_pairwise(Q, nu_max, ledger):
    leq = lambda a, b: kp_leq(a, b, ledger)
    for _, _, kps in _sweep(Q, nu_max):
        relation = leq_bitsets(order_keys(kps, ledger.order_direction))
        assert from_bitsets(kps, relation) == pairwise(kps, leq)
        assert cover_relations(kps, ledger) == reference_covers(kps, leq)


def test_covers_match_pairwise_a4():
    Q = linear_quiver("A4")
    kps = enumerate_kp(Q.datum, (3, 3, 4, 3), adapted_order(Q))
    leq = lambda a, b: kp_leq(a, b, CALIBRATED)
    assert len(kps) > 100
    relation = leq_bitsets(order_keys(kps, CALIBRATED.order_direction))
    assert from_bitsets(kps, relation) == pairwise(kps, leq)
    assert cover_relations(kps, CALIBRATED) == reference_covers(kps, leq)


@pytest.mark.parametrize("Q,nu_max", SMALL, ids=SMALL_IDS)
def test_closure_relation_matches_pairwise(Q, nu_max):
    for nu, order, kps in _sweep(Q, nu_max):
        closure = pairwise(kps, closure_leq)
        assert from_bitsets(kps, leq_bitsets(closure_keys(kps))) == closure
        for ledger in LEDGERS:
            agree = pairwise(kps, lambda a, b: kp_leq(a, b, ledger)) == closure
            assert baumann_check(Q, nu, ledger) == agree


@pytest.mark.parametrize("Q,nu_max", SMALL, ids=SMALL_IDS)
def test_order_compat_matches_pairwise(Q, nu_max):
    nontrivial = 0
    for nu, order, kps in _sweep(Q, nu_max):
        for i in sinks(Q):
            nontrivial += sum(in_ker_locus(lam, i) for lam in kps) >= 2
            for ledger in LEDGERS:
                expected = reference_order_compat(i, nu, order, ledger)
                assert order_compat(i, kps, ledger) == expected
    assert nontrivial > 0
