from __future__ import annotations

import itertools

import pytest

from quiver_orders import pbw
from quiver_orders.convex_order import adapted_order
from quiver_orders.errors import VerificationError
from quiver_orders.fields import RATIONALS, PrimeField
from quiver_orders.kostant import KostantPartition, OrientationLedger, enumerate_kp
from quiver_orders.pbw import in_ker_locus, order_compat, reflect_kp, verify_reflection
from quiver_orders.quivers import linear_quiver, quiver, reflect_quiver, sinks, sources
from quiver_orders.root_system import reflect_root

CALIBRATED = OrientationLedger("reversed", "transposed", "first-factor")

A2 = quiver("A2", ((1, 2),))
A3LIN = linear_quiver("A3")
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))
A3ZIG = quiver("A3", ((1, 2), (3, 2)))
D4SOURCE = quiver("D4", ((2, 1), (2, 3), (2, 4)))
D4MIXED = quiver("D4", ((1, 2), (2, 4), (3, 2)))


def test_in_ker_locus_a2():
    order = adapted_order(A2)  # beta = (a2, a1+a2, a1)
    assert in_ker_locus(KostantPartition(order, (0, 1, 0)), 2)
    assert not in_ker_locus(KostantPartition(order, (1, 0, 1)), 2)
    assert in_ker_locus(KostantPartition(order, (0, 1, 1)), 2)


def test_in_ker_locus_requires_sink():
    order = adapted_order(A2)
    with pytest.raises(ValueError):
        in_ker_locus(KostantPartition(order, (0, 1, 0)), 1)


def test_in_ker_locus_requires_quiver():
    from quiver_orders.convex_order import build_order
    from quiver_orders.root_system import cartan_datum

    bare = build_order(cartan_datum("A2"), (2, 1, 2))
    with pytest.raises(ValueError):
        in_ker_locus(KostantPartition(bare, (0, 1, 0)), 2)


def test_reflect_kp_a2_example():
    order = adapted_order(A2)
    lam = KostantPartition(order, (0, 1, 0))  # one part a1 + a2
    out = reflect_kp(2, lam)
    assert out.order == adapted_order(quiver("A2", ((2, 1),)))
    assert out.parts() == ((1, 0),)  # s_2(a1 + a2) = a1


def test_reflect_kp_rejects_alpha_i_parts():
    order = adapted_order(A2)
    with pytest.raises(ValueError):
        reflect_kp(2, KostantPartition(order, (1, 0, 1)))


def _locus_partitions(Q, i, max_total):
    order = adapted_order(Q)
    datum = Q.datum
    for nu in itertools.product(range(max_total + 1), repeat=datum.n):
        if not 0 < sum(nu) <= max_total:
            continue
        for lam in enumerate_kp(datum, nu, order):
            if in_ker_locus(lam, i):
                yield lam


@pytest.mark.parametrize("Q", [A2, A3LIN, D4STAR], ids=["A2", "A3", "D4"])
def test_reflect_kp_transforms_dimension_vector(Q):
    datum = Q.datum
    for i in sinks(Q):
        for lam in _locus_partitions(Q, i, 3):
            out = reflect_kp(i, lam)
            assert out.nu == reflect_root(datum, i, lam.nu)
            # multisets correspond part by part under s_i
            expected = sorted(reflect_root(datum, i, b) for b in lam.parts())
            assert sorted(out.parts()) == expected


@pytest.mark.parametrize("Q", [A2, A3LIN], ids=["A2", "A3"])
def test_reflect_kp_round_trip(Q):
    for i in sinks(Q):
        for lam in _locus_partitions(Q, i, 3):
            there = reflect_kp(i, lam)
            assert there.order.quiver == reflect_quiver(i, Q)
            back = reflect_kp(i, there)
            assert back == lam


def test_reflect_kp_is_injective_on_locus():
    for Q in [A3LIN, D4STAR]:
        for i in sinks(Q):
            seen = {}
            for lam in _locus_partitions(Q, i, 3):
                key = reflect_kp(i, lam)
                assert key not in seen
                seen[key] = lam


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), RATIONALS])
def test_verify_reflection_small(field):
    for Q in [A2, A3LIN]:
        for i in sinks(Q):
            for lam in _locus_partitions(Q, i, 3):
                assert verify_reflection(i, lam, field), (Q.arrows, i, lam.counts)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), RATIONALS])
def test_verify_reflection_at_a_source(field):
    # the alpha_i cross-check reads the reflection at a source too
    checked = 0
    for Q in [A3LIN, A3ZIG, D4STAR, D4SOURCE, D4MIXED, linear_quiver("D5")]:
        order = adapted_order(Q)
        for i in sources(Q):
            alpha = order.index_of(Q.datum.alpha(i))
            for nu in itertools.product(range(3), repeat=Q.datum.n):
                if not 0 < sum(nu) <= 3:
                    continue
                for lam in enumerate_kp(Q.datum, nu, order):
                    if lam.counts[alpha] == 0:
                        assert verify_reflection(i, lam, field), (Q.arrows, i, lam.counts)
                        checked += 1
    assert checked > 0


@pytest.mark.parametrize("field", [PrimeField(2), RATIONALS], ids=["F2", "Q"])
@pytest.mark.parametrize("Q", [D4STAR, D4SOURCE], ids=["sink", "source"])
def test_the_alpha_i_cross_check_fires(monkeypatch, Q, field):
    # the partition and the module disagree on the alpha_2 part, in both directions
    real = pbw._no_alpha_part
    monkeypatch.setattr(pbw, "_no_alpha_part", lambda lam, i: not real(lam, i))
    kps = enumerate_kp(Q.datum, (1, 1, 0, 0), adapted_order(Q))  # a1 + a2, and a1 with a2
    assert sorted(real(lam, 2) for lam in kps) == [False, True]
    for lam in kps:
        with pytest.raises(VerificationError, match="alpha_2 multiplicity disagrees"):
            verify_reflection(2, lam, field)


def test_order_compat_small():
    for Q in [A2, A3LIN, D4STAR]:
        order = adapted_order(Q)
        for i in sinks(Q):
            for nu in itertools.product(range(3), repeat=Q.datum.n):
                if not 0 < sum(nu) <= 3:
                    continue
                assert order_compat(i, enumerate_kp(Q.datum, nu, order), CALIBRATED)


def test_order_compat_requires_sink():
    order = adapted_order(A2)
    with pytest.raises(ValueError):
        order_compat(1, enumerate_kp(A2.datum, (1, 1), order), CALIBRATED)
