"""Acceptance gate: ten exact end-to-end checks, one summary line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every check is exact (integer/rational arithmetic, tolerance zero) and carries
a wall-clock budget.
"""

from __future__ import annotations

import itertools
import time

import pytest

from quiver_orders.convex_order import adapted_order, build_order, pairing_sign_report
from quiver_orders.errors import CalibrationError
from quiver_orders.fields import RATIONALS, PrimeField
from quiver_orders.flag_fibers import evenness_check, fiber_point_count
from quiver_orders.geometry import baumann_check, calibrate, default_test_nus, ringel_check
from quiver_orders.kostant import (
    KostantPartition,
    OrientationLedger,
    enumerate_kp,
    mackey_dominance_check,
)
from quiver_orders.pbw import in_ker_locus, order_compat, verify_reflection
from quiver_orders.quivers import linear_quiver, quiver, sinks
from quiver_orders.reps import orbit_point_count, rep_space_dim
from quiver_orders.root_system import cartan_datum, num_positive_roots
from oracles import prime_powers, reduced_words_of_w0
from test_kostant import order_invariant_on_class

EXPECTED_LEDGER = OrientationLedger("reversed", "transposed", "first-factor")

A2 = quiver("A2", ((1, 2),))
A2OP = quiver("A2", ((2, 1),))
A3LIN = linear_quiver("A3")
A3ZIG = quiver("A3", ((1, 2), (3, 2)))
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))

SWEEP_QUIVERS = (A2, A3LIN, D4STAR)
ORBIT_QS = (2, 3, 4, 5, 7, 8, 9)


def _report(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} {status}: {detail}")
    return ok


def _nus(datum, max_total: int):
    for nu in itertools.product(range(max_total + 1), repeat=datum.n):
        if 0 < sum(nu) <= max_total:
            yield nu


def test_criterion_01_root_counts():
    expected = {
        "A1": 1,
        "A2": 3,
        "A3": 6,
        "A4": 10,
        "D4": 12,
        "E6": 36,
        "E7": 63,
        "E8": 120,
    }
    ok = True
    worst = 0.0
    for label, count in expected.items():
        t0 = time.perf_counter()
        got = num_positive_roots(cartan_datum(label))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and got == count and dt < 5.0
    assert _report(
        1, ok, f"positive root counts for A1..A4, D4, E6-E8 (worst {worst:.2f}s < 5s)"
    )


def test_criterion_02_pairing_signs():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for label in ("A2", "A3"):
        datum = cartan_datum(label)
        words = reduced_words_of_w0(datum)
        for word in words:
            violations = pairing_sign_report(build_order(datum, word))
            ok = ok and not violations
            checked += 1
    dt = time.perf_counter() - t0
    ok = ok and checked == 2 + 16 and dt < 1.0
    assert _report(
        2, ok, f"sign pattern of C for all {checked} reduced words of w0 ({dt:.2f}s < 1s)"
    )


def test_criterion_03_hom_formula_direction():
    t0 = time.perf_counter()
    ok = True
    directions = set()
    for Q in (A2, A2OP, A3LIN, A3ZIG, D4STAR):
        matches = ringel_check(Q)
        ok = ok and len(matches) == 1
        directions.update(matches)
    dt = time.perf_counter() - t0
    ok = ok and directions == {"transposed"} and dt < 10.0
    assert _report(
        3,
        ok,
        f"Hom matrix equals max(C,0) in exactly one direction on 5 quivers ({dt:.2f}s < 10s)",
    )


def test_criterion_04_order_equals_closure():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for Q in SWEEP_QUIVERS:
        for nu in _nus(Q.datum, 4):
            kps = enumerate_kp(Q.datum, nu, adapted_order(Q))
            ok = ok and baumann_check(kps, EXPECTED_LEDGER.order_direction)
            pairs += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _report(
        4,
        ok,
        f"partition order matches closure order on {pairs} dimension vectors ({dt:.2f}s < 120s)",
    )


def test_criterion_05_commutation_invariance():
    t0 = time.perf_counter()
    datum = cartan_datum("A3")
    ok = all(
        order_invariant_on_class(datum, (1, 1, 1), word)
        for word in reduced_words_of_w0(datum)
    )
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    assert _report(
        5,
        ok,
        f"order on KP(1,1,1) invariant within every A3 commutation class ({dt:.2f}s < 30s)",
    )


def test_criterion_06_orbit_decomposition():
    t0 = time.perf_counter()
    ok = True
    identities = 0
    for Q in SWEEP_QUIVERS:
        order = adapted_order(Q)
        for nu in _nus(Q.datum, 4):
            kps = enumerate_kp(Q.datum, nu, order)
            for q in ORBIT_QS:
                total = sum(orbit_point_count(lam, q) for lam in kps)
                ok = ok and total == q ** rep_space_dim(Q, nu)
                identities += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert _report(
        6,
        ok,
        f"orbit counts sum to q^dim on {identities} (nu, q) pairs ({dt:.2f}s < 60s)",
    )


def test_criterion_07_evenness_evidence():
    t0 = time.perf_counter()
    q_list = prime_powers(9)
    ok = True
    fits = 0
    for Q in SWEEP_QUIVERS:
        order = adapted_order(Q)
        for nu in _nus(Q.datum, 4):
            for lam in enumerate_kp(Q.datum, nu, order):
                ok = ok and evenness_check(lam, q_list)
                fits += 1
    # spot values over the A2 quiver
    a2_order = adapted_order(A2)
    semisimple = KostantPartition(a2_order, (1, 0, 1))
    dense = KostantPartition(a2_order, (0, 1, 0))
    for q in q_list:
        ok = ok and fiber_point_count(semisimple, q) == 2
        ok = ok and fiber_point_count(dense, q) == 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _report(
        7,
        ok,
        f"{fits} fiber polynomials with non-negative integer coefficients, "
        f"spot values 2 and 1 ({dt:.2f}s < 120s)",
    )


def test_criterion_08_mackey_dominance():
    t0 = time.perf_counter()
    ok = True
    partitions = 0
    for Q in (A2, A3LIN):
        order = adapted_order(Q)
        for nu in _nus(Q.datum, 4):
            kps = enumerate_kp(Q.datum, nu, order)
            violations = mackey_dominance_check(kps, EXPECTED_LEDGER.res_large_side)
            ok = ok and not any(violations)
            partitions += len(kps)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert _report(
        8,
        ok,
        f"every achievable restriction dominates, {partitions} base partitions ({dt:.2f}s < 60s)",
    )


def test_criterion_09_reflection_shadow():
    t0 = time.perf_counter()
    fields = (PrimeField(2), PrimeField(3), RATIONALS)
    ok = True
    module_checks = 0
    order_checks = 0
    for Q in SWEEP_QUIVERS:
        order = adapted_order(Q)
        for i in sinks(Q):
            for nu in _nus(Q.datum, 4):
                kps = enumerate_kp(Q.datum, nu, order)
                for lam in kps:
                    if not in_ker_locus(lam, i):
                        continue
                    for F in fields:
                        ok = ok and verify_reflection(i, lam, F)
                        module_checks += 1
                ok = ok and order_compat(i, kps, EXPECTED_LEDGER)
                order_checks += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _report(
        9,
        ok,
        f"reflection functor matches partition reflection ({module_checks} module "
        f"checks, {order_checks} order checks, {dt:.2f}s < 120s)",
    )


def test_criterion_10_calibration_stability(monkeypatch):
    from_a2 = calibrate(A2, default_test_nus(A2.datum))
    from_a3 = calibrate(A3LIN, default_test_nus(A3LIN.datum))
    ok = from_a2 == from_a3 == EXPECTED_LEDGER

    # the calibration must abort loudly when no assignment explains the data
    import quiver_orders.geometry as geometry

    aborted = False
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "hom_profile", lambda lam, field=None: (0,))
        try:
            calibrate(A2, default_test_nus(A2.datum))
        except CalibrationError:
            aborted = True
    ok = ok and aborted
    assert _report(
        10,
        ok,
        "identical ledger from A2-only and A3-only evidence; inconsistent evidence aborts",
    )
