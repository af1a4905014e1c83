"""Orbit-closure order on representation varieties and convention calibration.

Three conventions are fixed empirically, once, on desk-sized evidence:

* hom_formula_direction: dim Hom(M(beta_k), M(beta_l)) agrees with
  max(C[k][l], 0) either as written or with the indices transposed; Hom
  dimensions computed from the indecomposable modules decide.
* order_direction: the prefix-statistic partition order either equals the
  orbit-closure order (closed orbits minimal) as written or after reversing
  its arguments; comparing both relations on small dimension vectors decides.
* res_large_side: which factor of the blockwise decompositions in
  kostant.achievable_prefix_sums carries the suffix block; the side whose
  achievable partitions all satisfy the dominance inequality decides.

calibrate records the result in an OrientationLedger and fails loudly if no
assignment is consistent.
"""

from __future__ import annotations

import itertools

from .convex_order import adapted_order
from .errors import CalibrationError
from .fields import RATIONALS
from .kostant import (
    HOM_DIRECTIONS,
    ORDER_DIRECTIONS,
    RES_SIDES,
    KostantPartition,
    OrientationLedger,
    _require_comparable,
    enumerate_kp,
    mackey_dominance_check,
    order_keys,
    same_order,
)
from .quivers import Quiver
from .reps import all_indecomposables, hom_matrix, hom_table


def ringel_check(Q: Quiver) -> tuple[str, ...]:
    """The directions of HOM_DIRECTIONS, in that order, under which the Hom
    matrix of the indecomposables equals max(C, 0).

    The Hom matrix is computed from the indecomposable modules over Q, in the
    enumeration of Q's adapted order, by `hom_table`, which builds one
    projective presentation per module and never reads the Euler form, so
    this stays a check of `hom_matrix`.  Raises CalibrationError when it
    matches in neither direction; every entry must agree, not just the sign
    pattern.
    """
    order = adapted_order(Q)
    indecs = all_indecomposables(Q, RATIONALS)
    H = hom_table([indecs[b] for b in order.beta])
    C = order.pairings
    positive = tuple(tuple(max(c, 0) for c in row) for row in C)
    ringel = {"as-printed": positive, "transposed": tuple(zip(*positive))}
    matches = tuple(d for d in HOM_DIRECTIONS if H == ringel[d])
    if not matches:
        raise CalibrationError(
            f"Hom matrix matches neither direction:\nH = {H}\nC = {C}"
        )
    return matches


def hom_profile(lam: KostantPartition) -> tuple[int, ...]:
    """dim Hom(M(lam), M(beta_l)) for each l, via additivity in the first slot:
    each nonzero lam_t adds its row of the Hom matrix from column t on, once."""
    G = hom_matrix(lam.quiver)
    profile = [0] * len(G)
    for t, c in enumerate(lam.counts):
        if c:
            row = G[t]
            for l in range(t, len(G)):
                profile[l] += c * row[l]
    return tuple(profile)


def closure_keys(kps) -> list[tuple[int, ...]]:
    """Key vectors -hom_profile(lam) whose componentwise order is the
    orbit-closure order; hom_matrix is max(C^T, 0), so they are the
    "reversed" order_keys, which same_order then decides at once."""
    return [tuple(-h for h in hom_profile(lam)) for lam in kps]


def closure_leq(lam: KostantPartition, mu: KostantPartition) -> bool:
    """Orbit-closure order, closed orbits minimal: the orbit of M(lam) lies in
    the closure of the orbit of M(mu).

    Decided by Hom counts against every indecomposable: degeneration can only
    increase them, and for Dynkin quivers the comparison is exact.
    """
    _require_comparable(lam, mu)
    pl = hom_profile(lam)
    pm = hom_profile(mu)
    return all(a >= b for a, b in zip(pl, pm))


def baumann_check(kps, direction: str) -> bool:
    """Whether the partition order in `direction` equals the closure order on kps."""
    return same_order(order_keys(kps, direction), closure_keys(kps))


def default_test_nus(datum, max_total: int = 3) -> tuple[tuple[int, ...], ...]:
    """All dimension vectors with 1 <= |nu| <= max_total, ascending.

    The vectors of each total are its compositions into n parts, read off
    the bar positions of a stars-and-bars word; combinations come in
    lexicographic order, and so do the compositions.
    """
    n = datum.n
    out = []
    for total in range(1, max_total + 1):
        end = total + n - 1
        for bars in itertools.combinations(range(end), n - 1):
            edges = (-1, *bars, end)
            out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return tuple(out)


def calibrate(Q: Quiver, test_nus) -> OrientationLedger:
    """Fix the three conventions on the given evidence and freeze them.

    The evidence is Q's canonical adapted order and the partitions of
    test_nus in it.  It must contain at least one dimension vector with two
    or more partitions; survivors in each convention slot are intersected
    across all evidence and ties are broken toward the earlier-listed value.
    """
    test_nus = tuple(tuple(nu) for nu in test_nus)
    order = adapted_order(Q)
    hom_alive = set(ringel_check(Q))

    order_alive = set(ORDER_DIRECTIONS)
    side_alive = set(RES_SIDES)
    nontrivial = False
    for nu in test_nus:
        kps = enumerate_kp(Q.datum, nu, order)
        if len(kps) >= 2:
            nontrivial = True
        order_alive = {d for d in order_alive if baumann_check(kps, d)}
        side_alive = {
            s for s in side_alive if not any(mackey_dominance_check(kps, s))
        }
    if not nontrivial:
        raise ValueError("calibration evidence has no comparable pairs")
    if not hom_alive or not order_alive or not side_alive:
        raise CalibrationError(
            "no consistent convention assignment: "
            f"hom={sorted(hom_alive)} order={sorted(order_alive)} side={sorted(side_alive)}"
        )
    pick = lambda alive, listed: next(v for v in listed if v in alive)
    return OrientationLedger(
        order_direction=pick(order_alive, ORDER_DIRECTIONS),
        hom_formula_direction=pick(hom_alive, HOM_DIRECTIONS),
        res_large_side=pick(side_alive, RES_SIDES),
    )
