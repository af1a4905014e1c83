from __future__ import annotations

import itertools
import json

import pytest

from quiver_orders.convex_order import adapted_order, build_order
from quiver_orders import kostant
from quiver_orders.errors import CapExceeded
from quiver_orders.kostant import (
    KostantPartition,
    OrientationLedger,
    achievable_prefix_sums,
    cover_relations,
    decomposition_first_parts,
    enumerate_kp,
    hasse_dot,
    kp_leq,
    mackey_dominance_check,
    order_keys,
    prefix_statistics,
    same_order,
)
from quiver_orders.quivers import linear_quiver, quiver
from quiver_orders.root_system import cartan_datum
from oracles import commutation_class, prefix_flags, support_multiset

CALIBRATED = OrientationLedger("reversed", "transposed", "first-factor")
PRINTED = OrientationLedger("as-printed", "transposed", "first-factor")


def _a2_order():
    return build_order(cartan_datum("A2"), (2, 1, 2))


def test_enumerate_kp_a2():
    order = _a2_order()
    kps = enumerate_kp(cartan_datum("A2"), (1, 1), order)
    assert [k.counts for k in kps] == [(0, 1, 0), (1, 0, 1)]
    assert len(kps) == 2


def test_kp_counts_independent_of_word():
    datum = cartan_datum("A3")
    nus = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]
    words = [(1, 2, 1, 3, 2, 1), (3, 2, 1, 3, 2, 3), (2, 1, 3, 2, 1, 3)]
    for nu in nus:
        counts = {len(enumerate_kp(datum, nu, build_order(datum, w))) for w in words}
        assert len(counts) == 1


def test_kpf_values_a3():
    datum = cartan_datum("A3")
    order = build_order(datum, (1, 2, 1, 3, 2, 1))
    assert len(enumerate_kp(datum, (1, 1, 1), order)) == 4
    assert len(enumerate_kp(datum, (0, 0, 0), order)) == 1
    assert len(enumerate_kp(datum, (1, 0, 1), order)) == 1  # only alpha_1 + alpha_3


def test_kp_nu_and_parts():
    order = _a2_order()
    lam = KostantPartition(order, (1, 0, 2))
    assert lam.nu == (2, 1)
    assert lam.parts() == ((0, 1), (1, 0), (1, 0))
    assert support_multiset(lam) == (((0, 1), 1), ((1, 0), 2))


@pytest.mark.parametrize("label,nu", [("D4", (1, 2, 1, 1)), ("E6", (1, 2, 2, 3, 2, 1))])
def test_kp_nu_is_the_sum_of_the_parts(label, nu):
    Q = linear_quiver(label)
    kps = enumerate_kp(Q.datum, nu, adapted_order(Q))
    for lam in (*kps, KostantPartition(kps[0].order, (0,) * len(kps[0].counts))):
        parts = lam.parts()
        assert lam.nu == tuple(sum(b[j] for b in parts) for j in range(len(nu)))


def test_prefix_statistics_a2():
    order = _a2_order()
    # C = ((1,0,-1),(1,1,0),(0,1,1))
    assert prefix_statistics(KostantPartition(order, (0, 1, 0))) == (0, 1, 1)
    assert prefix_statistics(KostantPartition(order, (1, 0, 1))) == (1, 1, 1)


def test_kp_leq_directions():
    order = _a2_order()
    semisimple = KostantPartition(order, (1, 0, 1))
    dense = KostantPartition(order, (0, 1, 0))
    assert kp_leq(dense, semisimple, PRINTED)
    assert not kp_leq(semisimple, dense, PRINTED)
    # calibrated order reverses the printed comparison
    assert kp_leq(semisimple, dense, CALIBRATED)
    assert not kp_leq(dense, semisimple, CALIBRATED)


def test_kp_checks_fire_with_their_messages():
    order = _a2_order()
    with pytest.raises(ValueError, match="^multiplicities must be non-negative$"):
        KostantPartition(order, (0, 0, -1))
    with pytest.raises(ValueError, match="^multiplicity vector length does not match the order$"):
        KostantPartition(order, (0, 0))
    assert KostantPartition(order, (0, 0, 0)).nu == (0, 0)


def test_kp_leq_requires_same_dimension_vector():
    order = _a2_order()
    with pytest.raises(ValueError):
        kp_leq(
            KostantPartition(order, (1, 0, 0)), KostantPartition(order, (0, 0, 1)), PRINTED
        )


def test_order_keys_reject_mixed_lists():
    """Each partition is checked against the first, whichever position it holds."""
    datum = cartan_datum("A2")
    kps = enumerate_kp(datum, (1, 1), _a2_order())
    other_order = enumerate_kp(datum, (1, 1), build_order(datum, (1, 2, 1)))[0]
    other_nu = enumerate_kp(datum, (2, 1), _a2_order())[0]
    for mixed in ([*kps, other_order], [kps[0], other_order, kps[1]], [other_order, *kps]):
        with pytest.raises(ValueError, match="different convex orders"):
            order_keys(mixed, "as-printed")
    for mixed in ([*kps, other_nu], [kps[0], other_nu, kps[1]], [other_nu, *kps]):
        with pytest.raises(ValueError, match="different dimension vectors"):
            order_keys(mixed, "reversed")
    assert order_keys([], "as-printed") == []


def test_order_keys_accept_an_equal_order_built_twice():
    """Partitions over equal orders are comparable whether or not the two
    order objects are the same one."""
    datum = cartan_datum("A2")
    a = enumerate_kp(datum, (1, 1), _a2_order())
    b = enumerate_kp(datum, (1, 1), _a2_order())
    assert a[0].order is not b[0].order
    assert order_keys([*a, *b], "reversed") == order_keys(a, "reversed") * 2


def test_order_keys_reject_an_unknown_direction():
    """Only "as-printed" and "reversed" are directions; a typo is not read as
    "reversed"."""
    kps = enumerate_kp(cartan_datum("A2"), (1, 1), _a2_order())
    with pytest.raises(ValueError, match="bad order direction 'bogus'"):
        order_keys(kps, "bogus")


def test_enumerate_kp_cap_names_nu_count_and_cap(monkeypatch):
    datum = cartan_datum("A3")
    order = adapted_order(linear_quiver("A3"))
    kps = enumerate_kp(datum, (2, 2, 2), order)
    K = len(kps)
    monkeypatch.setattr(kostant, "_KP_CAP", K)
    assert enumerate_kp(datum, (2, 2, 2), order) == kps
    monkeypatch.setattr(kostant, "_KP_CAP", K - 1)
    with pytest.raises(
        CapExceeded, match=rf"KP\(\(2, 2, 2\)\) reached {K} partitions, over the cap {K - 1}$"
    ):
        enumerate_kp(datum, (2, 2, 2), order)
    monkeypatch.setattr(kostant, "_KP_CAP", 0)
    with pytest.raises(CapExceeded, match="reached 1 partitions, over the cap 0"):
        enumerate_kp(datum, (2, 2, 2), order)


def test_enumerate_kp_given_cap_stops_at_it_and_never_exceeds_kp_cap(monkeypatch):
    datum = cartan_datum("A3")
    order = adapted_order(linear_quiver("A3"))
    kps = enumerate_kp(datum, (2, 2, 2), order)
    K = len(kps)
    assert enumerate_kp(datum, (2, 2, 2), order, K) == kps
    with pytest.raises(CapExceeded, match=rf"reached {K} partitions, over the cap {K - 1}$"):
        enumerate_kp(datum, (2, 2, 2), order, K - 1)
    monkeypatch.setattr(kostant, "_KP_CAP", K - 1)
    with pytest.raises(CapExceeded, match=rf"reached {K} partitions, over the cap {K - 1}$"):
        enumerate_kp(datum, (2, 2, 2), order, 10 * K)


def test_cover_relations_a3_diamond():
    Q = linear_quiver("A3")
    order = adapted_order(Q)
    kps = enumerate_kp(Q.datum, (1, 1, 1), order)
    covers = cover_relations(kps, CALIBRATED)
    assert len(kps) == 4
    assert len(covers) == 4  # diamond: bottom, two incomparable middles, top
    indeg = {k.counts: 0 for k in kps}
    outdeg = {k.counts: 0 for k in kps}
    for lo, hi in covers:
        outdeg[lo.counts] += 1
        indeg[hi.counts] += 1
    assert sorted(indeg.values()) == [0, 1, 1, 2]
    assert sorted(outdeg.values()) == [0, 1, 1, 2]
    # the semisimple partition (all parts simple) is the unique minimum
    simple = next(k for k in kps if all(sum(b) == 1 for b in k.parts()))
    assert all(kp_leq(simple, other, CALIBRATED) for other in kps)


def test_hasse_dot_output():
    kps = enumerate_kp(cartan_datum("A2"), (1, 1), _a2_order())
    dot = hasse_dot(kps, CALIBRATED)
    assert dot.startswith("digraph")
    assert '"1 0 1"' in dot and '"0 1 0"' in dot
    assert '"1 0 1" -> "0 1 0"' in dot  # closed orbit below dense orbit


def test_achievable_prefix_sums_cap_names_partition_and_cap(monkeypatch):
    datum = cartan_datum("A3")
    order = adapted_order(linear_quiver("A3"))
    m = enumerate_kp(datum, (2, 2, 2), order)[0]
    assert kostant._PREFIX_SUM_CAP == 1_000_000
    monkeypatch.setattr(kostant, "_PREFIX_SUM_CAP", 3)
    with pytest.raises(CapExceeded) as exc:
        achievable_prefix_sums(m, "first-factor")
    assert str(exc.value) == (
        f"restriction decomposition sweep of m={m.counts} reached 4 steps, over the cap 3"
    )


def order_invariant_on_class(datum, nu: tuple[int, ...], w) -> bool:
    """Whether the partition order on KP(nu) is identical for every word in
    the commutation class of w, after identifying partitions by their root
    multisets."""
    words = commutation_class(datum, tuple(w))
    reference = None
    for word in words:
        order = build_order(datum, word)
        kps = sorted(enumerate_kp(datum, nu, order), key=support_multiset)
        multisets = [support_multiset(lam) for lam in kps]
        keys = order_keys(kps, "as-printed")
        if reference is None:
            reference = (multisets, keys)
        elif multisets != reference[0] or not same_order(keys, reference[1]):
            return False
    return True


def test_order_invariance_on_commutation_class():
    datum = cartan_datum("A3")
    assert order_invariant_on_class(datum, (1, 1, 1), (2, 1, 3, 2, 1, 3))


def test_ledger_json_round_trip():
    text = CALIBRATED.to_json()
    parsed = json.loads(text)
    assert parsed["order_direction"] == "reversed"
    assert OrientationLedger.from_json(text) == CALIBRATED


def test_ledger_rejects_unknown_values():
    with pytest.raises(ValueError):
        OrientationLedger("backwards", "transposed", "first-factor")
    with pytest.raises(ValueError, match="ledger is missing field 'hom_formula_direction'"):
        OrientationLedger.from_json('{"order_direction": "reversed"}')
    for text in ("[1, 2]", '"x"', "3", "null"):
        with pytest.raises(ValueError, match="ledger is not a JSON object"):
            OrientationLedger.from_json(text)


def test_achievable_prefix_sums_single_part():
    order = _a2_order()
    m = KostantPartition(order, (0, 1, 0))
    # one copy of beta_2 = alpha_1 + alpha_2 splits as x + y with x in
    # N-span{beta_2, beta_3} = N-span{a1+a2, a1} and y in N-span{a2, a1+a2}
    sums = achievable_prefix_sums(m, "first-factor")
    assert sums == frozenset({(0, 0), (1, 0), (1, 1)})
    sums2 = achievable_prefix_sums(m, "second-factor")
    assert sums2 == frozenset({(0, 0), (0, 1), (1, 1)})


def test_decomposition_first_parts_a2():
    order = _a2_order()
    # splitting one copy of beta_2 = alpha_1 + alpha_2 (index 1, 0-based)
    opts = decomposition_first_parts(order, 1, 1, "first-factor")
    assert set(opts) == {(0, 0), (1, 0), (1, 1)}
    assert (0, 1) not in opts  # alpha_2 alone is not in N-span{beta_2, beta_3}
    opts2 = decomposition_first_parts(order, 1, 1, "second-factor")
    assert set(opts2) == {(0, 0), (0, 1), (1, 1)}
    # no copies to split: the zero vector is the only first part
    for t in range(order.length):
        for side in ("first-factor", "second-factor"):
            assert decomposition_first_parts(order, t, 0, side) == ((0, 0),)


def test_mackey_clean_under_calibrated_ledger():
    order = _a2_order()
    datum = cartan_datum("A2")
    for nu in itertools.product(range(5), repeat=2):
        if not 0 < sum(nu) <= 4:
            continue
        kps = enumerate_kp(datum, nu, order)
        violations = mackey_dominance_check(kps, CALIBRATED.res_large_side)
        assert len(violations) == len(kps)
        assert not any(violations), (nu, violations)


def test_mackey_rejects_an_unknown_side(monkeypatch):
    """The side is checked before any partition is read, so KP(0, 0), whose
    one partition has no parts to decompose, does not let a typo through."""
    monkeypatch.setattr(kostant, "order_keys", lambda *args: pytest.fail("keys were read"))
    kps = enumerate_kp(cartan_datum("A2"), (0, 0), _a2_order())
    with pytest.raises(ValueError, match="bad side 'bogus'"):
        mackey_dominance_check(kps, "bogus")


def test_mackey_audit_row_for_dense_orbit():
    # the dense orbit's restriction dominates the semisimple one even though
    # the raw ledger-direction comparison is false
    order = _a2_order()
    kps = enumerate_kp(cartan_datum("A2"), (1, 1), order)
    assert [k.counts for k in kps] == [(0, 1, 0), (1, 0, 1)]
    dense, m = kps
    sums = achievable_prefix_sums(m, CALIBRATED.res_large_side)
    assert all(prefix_flags(dense, sums))
    assert not kp_leq(dense, m, CALIBRATED)
    assert mackey_dominance_check(kps, CALIBRATED.res_large_side) == [(), ()]


def test_mackey_violation_under_second_factor_convention():
    # with the opposite large-side convention the same input produces a
    # genuine violation, which is how the convention is calibrated away
    order = _a2_order()
    kps = enumerate_kp(cartan_datum("A2"), (1, 1), order)
    m = KostantPartition(order, (0, 1, 0))
    violations = dict(zip(kps, mackey_dominance_check(kps, "second-factor")))
    assert violations[m] == (KostantPartition(order, (1, 0, 1)),)
