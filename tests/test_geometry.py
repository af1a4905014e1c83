from __future__ import annotations

import itertools

import pytest

from quiver_orders.convex_order import adapted_order, build_order
from quiver_orders.errors import CalibrationError, CapExceeded
from quiver_orders.geometry import (
    baumann_check,
    calibrate,
    closure_leq,
    default_test_nus,
    hom_profile,
    ringel_check,
)
from quiver_orders.kostant import (
    HOM_DIRECTIONS,
    KostantPartition,
    OrientationLedger,
    enumerate_kp,
    kp_leq,
)
from quiver_orders.fields import RATIONALS
from quiver_orders.quivers import is_adapted, linear_quiver, quiver
from quiver_orders import geometry, reps
from quiver_orders.reps import all_indecomposables, hom_dim, hom_matrix
from quiver_orders.root_system import cartan_datum
from oracles import commutation_class

CALIBRATED = OrientationLedger("reversed", "transposed", "first-factor")

A2 = quiver("A2", ((1, 2),))
A3LIN = linear_quiver("A3")
A3ZIG = quiver("A3", ((1, 2), (3, 2)))
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))


def _all_test_quivers():
    out = [A2, quiver("A2", ((2, 1),)), A3LIN, A3ZIG, quiver("A3", ((2, 1), (2, 3)))]
    out.append(quiver("A3", ((2, 1), (3, 2))))
    out.append(D4STAR)
    out.append(quiver("D4", ((2, 1), (2, 3), (2, 4))))
    return out


def test_ringel_direction_a2():
    assert ringel_check(A2) == ("transposed",)
    indecs = all_indecomposables(A2, RATIONALS)
    beta = adapted_order(A2).beta
    hom = tuple(tuple(hom_dim(indecs[a], indecs[b]) for b in beta) for a in beta)
    assert hom == ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def test_ringel_direction_uniform_across_quivers():
    for Q in _all_test_quivers():
        assert ringel_check(Q) == ("transposed",), Q.arrows


def test_ringel_check_on_a1_matches_both_directions():
    assert ringel_check(quiver("A1", ())) == HOM_DIRECTIONS


def test_hom_profile_a2():
    order = adapted_order(A2)
    dense = KostantPartition(order, (0, 1, 0))
    semisimple = KostantPartition(order, (1, 0, 1))
    assert hom_profile(dense) == (0, 1, 1)
    assert hom_profile(semisimple) == (1, 1, 1)


def test_closure_leq_a2():
    order = adapted_order(A2)
    dense = KostantPartition(order, (0, 1, 0))
    semisimple = KostantPartition(order, (1, 0, 1))
    assert closure_leq(semisimple, dense)  # closed orbit in the dense closure
    assert not closure_leq(dense, semisimple)
    assert closure_leq(dense, dense)


def test_closure_requires_matching_context():
    order = adapted_order(A2)
    a = KostantPartition(order, (1, 0, 0))
    b = KostantPartition(order, (0, 0, 1))
    with pytest.raises(ValueError):
        closure_leq(a, b)


def test_baumann_agreement_small():
    for Q in [A2, A3LIN, A3ZIG, D4STAR]:
        for nu in default_test_nus(Q.datum):
            kps = enumerate_kp(Q.datum, nu, adapted_order(Q))
            assert baumann_check(kps, CALIBRATED.order_direction)


def test_baumann_fails_with_printed_direction():
    printed = OrientationLedger("as-printed", "transposed", "first-factor")
    kps = enumerate_kp(A2.datum, (1, 1), adapted_order(A2))
    assert not baumann_check(kps, printed.order_direction)


def test_order_agreement_on_every_pair():
    # the order comparison and the closure comparison agree pairwise, not
    # just as whole relations
    for Q in [A2, A3LIN]:
        order = adapted_order(Q)
        for nu in itertools.product(range(3), repeat=Q.datum.n):
            if not 0 < sum(nu) <= 4:
                continue
            kps = enumerate_kp(Q.datum, nu, order)
            for a in kps:
                for b in kps:
                    assert kp_leq(a, b, CALIBRATED) == closure_leq(a, b)


def test_default_test_nus():
    nus = default_test_nus(A2.datum)
    assert all(0 < sum(nu) <= 3 for nu in nus)
    assert (1, 1) in nus


def _product_filter_nus(n, max_total):
    """Reference: filter every vector with entries <= t down to sum t."""
    out = []
    for total in range(1, max_total + 1):
        for nu in itertools.product(range(total + 1), repeat=n):
            if sum(nu) == total:
                out.append(nu)
    return tuple(out)


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
)
def test_default_test_nus_matches_product_filter(label):
    datum = cartan_datum(label)
    for max_total in range(5):
        assert default_test_nus(datum, max_total) == _product_filter_nus(datum.n, max_total)


def test_ringel_identity_holds_on_other_adapted_words():
    """Ringel's Hom table is max(C^T, 0) in every adapted order, not only in
    the one ringel_check reads."""
    for Q in (D4STAR, linear_quiver("A4")):
        reps = all_indecomposables(Q, RATIONALS)
        words = [
            w
            for w in commutation_class(Q.datum, adapted_order(Q).word)
            if is_adapted(w, Q)
        ]
        assert len(words) > 1
        for w in words[:: max(1, len(words) // 5)]:
            order = build_order(Q.datum, w)
            hom = tuple(
                tuple(hom_dim(reps[bk], reps[bl]) for bl in order.beta)
                for bk in order.beta
            )
            C = order.pairings
            assert hom == tuple(
                tuple(max(C[l][k], 0) for l in range(order.length))
                for k in range(order.length)
            ), w


def test_ringel_check_reads_the_modules(monkeypatch):
    """Zeroing the one arrow entry of M(alpha_1 + alpha_2) splits it into two
    simples; ringel_check must read that module and fail."""
    Q = D4STAR
    indecs = dict(all_indecomposables(Q, RATIONALS))
    root, a = (1, 1, 0, 0), Q.arrows.index((1, 2))
    M = indecs[root]
    assert M.mats[a] != ((0,),)
    indecs[root] = M.replace(mats=M.mats[:a] + (((0,),),) + M.mats[a + 1 :])
    assert hom_dim(indecs[root], indecs[root]) == 2
    monkeypatch.setattr("quiver_orders.geometry.all_indecomposables", lambda Q, F: indecs)
    with pytest.raises(CalibrationError):
        ringel_check(Q)
    assert hom_matrix.__wrapped__(Q) == hom_matrix(Q)


def test_ringel_check_builds_one_presentation_per_module(monkeypatch):
    """The table shares each module's presentation across its row: 36, not
    36^2, on linear E6."""
    Q = linear_quiver("E6")
    presentation, built = reps._presentation, []

    def counted(M):
        built.append(M.dims)
        return presentation(M)

    monkeypatch.setattr(reps, "_presentation", counted)
    assert ringel_check(Q) == ("transposed",)
    assert sorted(built) == sorted(adapted_order(Q).beta)
    assert len(built) == 36


def test_calibrate_expected_ledger():
    for Q in [A2, A3LIN, D4STAR]:
        ledger = calibrate(Q, default_test_nus(Q.datum))
        assert ledger == CALIBRATED


def test_calibrate_stability_between_types():
    a2 = calibrate(A2, default_test_nus(A2.datum))
    a3 = calibrate(A3LIN, default_test_nus(A3LIN.datum))
    assert a2 == a3


def test_calibrate_needs_discriminating_evidence():
    with pytest.raises(ValueError):
        calibrate(A2, ((1, 0),))


def test_calibrate_takes_its_order_direction_from_baumann_check(monkeypatch):
    """calibrate decides the order slot with baumann_check and no comparison
    of its own."""
    import quiver_orders.geometry as geometry

    monkeypatch.setattr(geometry, "baumann_check", lambda kps, d: d == "as-printed")
    assert calibrate(A2, default_test_nus(A2.datum)).order_direction == "as-printed"


def test_calibrate_aborts_when_no_assignment_fits(monkeypatch):
    import quiver_orders.geometry as geometry

    monkeypatch.setattr(geometry, "hom_profile", lambda lam, field=None: (0,))
    with pytest.raises(CalibrationError):
        calibrate(A2, default_test_nus(A2.datum))


def test_default_test_nus_cap(monkeypatch):
    datum = cartan_datum("A2")
    assert len(default_test_nus(datum, 3)) == 9  # C(3 + 2, 2) - 1
    monkeypatch.setattr(geometry, "_NU_CAP", 9)
    assert len(default_test_nus(datum, 3)) == 9
    monkeypatch.setattr(geometry, "_NU_CAP", 8)
    with pytest.raises(
        CapExceeded, match=r"^nu sweep of A2 up to \|nu\| = 3 has 9 vectors, over the cap 8$"
    ):
        default_test_nus(datum, 3)
    assert default_test_nus(datum, 0) == ()
