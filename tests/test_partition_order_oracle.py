"""Oracle for the bitset partition-order layer.

The references are the pairwise predicate loops the relations were first
written with: relation sets built by calling kp_leq / closure_leq on every
pair, and the O(K^3) cover computation over the set of strict pairs.  The
per-coordinate `leq_bitsets` is also compared, whole relation against whole
relation, with `oracles.pairwise_leq_bitsets`, the pair-by-pair body it
replaced: on the sweeps, on one KP(nu) of A4 and one of E6, on edge cases
and on seeded random keys.

The last tests pin the identity behind the fast branch of `same_order`: the
Hom matrix of the indecomposables is max(C^T, 0), so the closure keys
-hom_profile(lam) are the "reversed" order keys -T(lam) vector for vector.
"""

from __future__ import annotations

import random

import pytest

from quiver_orders import kostant
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
    same_order,
)
from quiver_orders.pbw import in_ker_locus, order_compat, reflect_kp
from quiver_orders.quivers import linear_quiver, quiver, sinks
from quiver_orders.reps import hom_matrix
from oracles import orientations, pairwise_leq_bitsets, within_one_second

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
        keys = order_keys(kps, ledger.order_direction)
        relation = leq_bitsets(keys)
        assert relation == pairwise_leq_bitsets(keys)
        assert from_bitsets(kps, relation) == pairwise(kps, leq)
        assert cover_relations(kps, ledger) == reference_covers(kps, leq)


def test_covers_match_pairwise_a4():
    Q = linear_quiver("A4")
    kps = enumerate_kp(Q.datum, (3, 3, 4, 3), adapted_order(Q))
    leq = lambda a, b: kp_leq(a, b, CALIBRATED)
    assert len(kps) > 100
    keys = order_keys(kps, CALIBRATED.order_direction)
    relation = leq_bitsets(keys)
    assert relation == pairwise_leq_bitsets(keys)
    assert from_bitsets(kps, relation) == pairwise(kps, leq)
    assert cover_relations(kps, CALIBRATED) == reference_covers(kps, leq)


@pytest.mark.parametrize("direction", ORDER_DIRECTIONS)
def test_relation_matches_pairwise_on_kp_of_e6(direction):
    """KP(1,2,2,3,2,1) of linear E6, the `kp --hasse` input of 622 partitions."""
    Q = linear_quiver("E6")
    kps = enumerate_kp(Q.datum, (1, 2, 2, 3, 2, 1), adapted_order(Q))
    assert len(kps) == 622
    keys = order_keys(kps, direction)
    assert leq_bitsets(keys) == pairwise_leq_bitsets(keys)


@pytest.mark.parametrize(
    "keys",
    [
        [],
        [(3, -1)],
        [(), (), ()],
        [(1, 2), (1, 2), (0, 5), (1, 2)],
        [(7, 7, 7)] * 4,
        [(0, 4, 0, 9), (2, 4, 2, 9), (1, 4, 1, 9)],
        [(-3, 1, -3, 0), (-1, -2, -1, 0), (-3, -2, -3, 0), (-1, 1, -1, 0)],
        [(-5,), (0,), (-5,), (2,), (-1,)],
    ],
    ids=[
        "empty",
        "one-key",
        "zero-length",
        "duplicates",
        "all-equal",
        "constant-and-repeated-columns",
        "negative-entries",
        "one-column",
    ],
)
def test_relation_edge_cases_match_pairwise(keys):
    relation = leq_bitsets(keys)
    assert relation == pairwise_leq_bitsets(keys)
    assert len(relation) == len(keys)
    assert all(bits >> i & 1 for i, bits in enumerate(relation))
    # equal keys are mutually <=, and unequal keys never are
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            assert (relation[i] >> j & 1 and relation[j] >> i & 1) == (a == b)


def test_relation_matches_pairwise_on_random_keys():
    rng = random.Random(20261020)
    for _ in range(400):
        width = rng.randint(1, 6)
        spread = rng.choice((1, 2, 5, 20))
        keys = [
            tuple(rng.randint(-spread, spread) for _ in range(width))
            for _ in range(rng.randint(0, 40))
        ]
        if keys and rng.random() < 0.3:
            keys += rng.choices(keys, k=rng.randint(1, 5))
        assert leq_bitsets(keys) == pairwise_leq_bitsets(keys), keys


def test_relation_on_kp_of_e7_within_one_second():
    """KP(1,2,2,3,2,2,1) of linear E7, 2,269 partitions: the relation is
    built one coordinate at a time, where K^2 = 5.1e6 pairs of 63-entry keys
    would not fit in the second."""
    Q = linear_quiver("E7")
    kps = enumerate_kp(Q.datum, (1, 2, 2, 3, 2, 2, 1), adapted_order(Q))
    assert len(kps) == 2_269
    keys = order_keys(kps, "reversed")
    with within_one_second():
        relation = leq_bitsets(keys)
    assert len(relation) == len(kps)
    for i, bits in enumerate(relation):
        assert bits >> i & 1
        above = bits & ~(1 << i)
        while above:
            low = above & -above
            assert not relation[low.bit_length() - 1] >> i & 1, (kps[i], low)
            above ^= low


@pytest.mark.parametrize("Q,nu_max", SMALL, ids=SMALL_IDS)
def test_closure_relation_matches_pairwise(Q, nu_max):
    for nu, order, kps in _sweep(Q, nu_max):
        closure = pairwise(kps, closure_leq)
        assert from_bitsets(kps, leq_bitsets(closure_keys(kps))) == closure
        for ledger in LEDGERS:
            agree = pairwise(kps, lambda a, b: kp_leq(a, b, ledger)) == closure
            assert baumann_check(kps, ledger.order_direction) == agree


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


def count_relations(monkeypatch) -> list[int]:
    """Count the relations `same_order` builds from here on."""
    built = [0]
    leq = kostant.leq_bitsets

    def counted(keys):
        built[0] += 1
        return leq(keys)

    monkeypatch.setattr(kostant, "leq_bitsets", counted)
    return built


def test_same_order_decides_equal_keys_without_a_relation(monkeypatch):
    built = count_relations(monkeypatch)
    assert same_order([(1, 2), (0, 3)], [(1, 2), (0, 3)])
    assert built[0] == 0
    # different keys, the same relation: the fallback decides
    assert same_order([(1,), (2,)], [(5,), (7,)])
    assert not same_order([(1,), (2,)], [(7,), (5,)])
    assert built[0] == 4


@pytest.mark.parametrize(
    "label,nu_max", [("A3", 5), ("A4", 4), ("D4", 4), ("D5", 4), ("E6", 3)]
)
def test_closure_keys_are_the_reversed_order_keys(label, nu_max):
    """Only the speed of `same_order` rests on this identity, not the
    correctness of any check: unequal keys fall through to the relations."""
    for Q in orientations(label):
        for _, _, kps in _sweep(Q, nu_max):
            assert closure_keys(kps) == order_keys(kps, "reversed"), (Q.arrows, kps)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8"])
def test_hom_matrix_is_the_transposed_positive_pairings(label):
    """Every orientation up to E6; the linear quiver of E7 and E8."""
    for Q in (linear_quiver(label),) if label in ("E7", "E8") else orientations(label):
        C = adapted_order(Q).pairings
        G = hom_matrix(Q)
        N = len(C)
        assert all(G[k][l] == max(C[l][k], 0) for k in range(N) for l in range(N)), Q.arrows


def test_calibrated_baumann_sweep_builds_no_relation(monkeypatch):
    """The `verify baumann --nu-max 5` sweep on the D5 orientation the
    benchmark's poset workload starts from.  Correctness does not depend on
    the key identity, only speed does: with the "as-printed" ledger the keys
    differ and the relations are built and compared."""
    Q = quiver("D5", ((1, 2), (2, 3), (3, 4), (5, 3)))
    order = adapted_order(Q)
    sweep = [enumerate_kp(Q.datum, nu, order) for nu in default_test_nus(Q.datum, 5)]
    built = count_relations(monkeypatch)
    assert all(baumann_check(kps, CALIBRATED.order_direction) for kps in sweep)
    assert built[0] == 0
    printed = LEDGERS[0]
    assert not all(baumann_check(kps, printed.order_direction) for kps in sweep)
    assert built[0] > 0


def test_baumann_on_kp_theta_of_e7(monkeypatch):
    """Baumann's theorem on KP(theta) of linear E7, 18,837 partitions: the
    partition order equals the closure order, decided by equal keys alone.
    Two relations here would be two lists of K bitsets of K bits, about
    44 MB each, so the first call to leq_bitsets fails the test instead of
    building them."""
    Q = linear_quiver("E7")
    kps = enumerate_kp(Q.datum, (2, 2, 3, 4, 3, 2, 1), adapted_order(Q))

    def refused(keys):
        raise AssertionError(f"a relation on {len(keys)} partitions was built")

    monkeypatch.setattr(kostant, "leq_bitsets", refused)
    assert baumann_check(kps, CALIBRATED.order_direction)
    assert len(kps) == 18_837
