"""Reflection of Kostant partitions and compatibility with the partition order.

A partition whose alpha_i multiplicity vanishes corresponds to a module with
no simple summand at i; at a sink this is equivalent to the assembled map
into i being surjective, and at a source to the map out of i being
injective.  On these loci the reflection functor acts part by part
(beta -> s_i(beta)) and matches the module-level reflection exactly.
"""

from __future__ import annotations

from .convex_order import adapted_order
from .errors import VerificationError
from .fields import RATIONALS
from .kostant import (
    KostantPartition,
    OrientationLedger,
    enumerate_kp,
    leq_bitsets,
    order_keys,
)
from .linalg import rank
from .quivers import reflect_quiver, sinks, sources
from .reps import bgp_reflect_rep, iso_class, rep_of_kp
from .root_system import reflect_root


def _alpha_multiplicity(lam: KostantPartition, i: int) -> int:
    alpha = lam.order.datum.alpha(i)
    return lam.counts[lam.order.index_of(alpha)]


def _assembled_in_rank(M, i: int) -> tuple[int, int]:
    """(rank, target dim) of the assembled map into vertex i."""
    d = M.dims[i - 1]
    rows = []
    for r in range(d):
        row: list = []
        for a in M.quiver.arrows_into(i):
            row.extend(M.mats[a][r])
        rows.append(tuple(row))
    return rank(M.field, tuple(rows)), d


def _assembled_out_rank(M, i: int) -> tuple[int, int]:
    """(rank, source dim) of the assembled map out of vertex i."""
    rows = []
    for a in M.quiver.arrows_out_of(i):
        rows.extend(M.mats[a])
    return rank(M.field, tuple(rows)), M.dims[i - 1]


def in_ker_locus(lam: KostantPartition, i: int) -> bool:
    """True iff lam has no alpha_i part; i must be a sink of lam's quiver.

    The combinatorial test is cross-checked against surjectivity of the
    assembled map into i on the rational model of M(lam).
    """
    Q = lam.order.quiver
    if Q is None:
        raise ValueError("partition's order has no quiver attached")
    if i not in sinks(Q):
        raise ValueError(f"vertex {i} is not a sink")
    combinatorial = _alpha_multiplicity(lam, i) == 0
    r, d = _assembled_in_rank(rep_of_kp(lam, RATIONALS), i)
    if combinatorial != (r == d):
        raise VerificationError(
            "alpha_i multiplicity disagrees with surjectivity at the sink"
        )
    return combinatorial


def _in_source_locus(lam: KostantPartition, i: int) -> bool:
    """Source-side twin of in_ker_locus: no alpha_i part, checked against
    injectivity of the assembled map out of i."""
    Q = lam.order.quiver
    if Q is None:
        raise ValueError("partition's order has no quiver attached")
    if i not in sources(Q):
        raise ValueError(f"vertex {i} is not a source")
    combinatorial = _alpha_multiplicity(lam, i) == 0
    r, d = _assembled_out_rank(rep_of_kp(lam, RATIONALS), i)
    if combinatorial != (r == d):
        raise VerificationError(
            "alpha_i multiplicity disagrees with injectivity at the source"
        )
    return combinatorial


def reflect_kp(i: int, lam: KostantPartition) -> KostantPartition:
    """Apply s_i to every part; the result is indexed by the canonical adapted
    order of the reflected quiver.

    Requires i to be a sink or source of lam's quiver and lam to have no
    alpha_i part (so every reflected part stays a positive root).
    """
    Q = lam.order.quiver
    if Q is None:
        raise ValueError("partition's order has no quiver attached")
    if i in sinks(Q):
        ok = in_ker_locus(lam, i)
    elif i in sources(Q):
        ok = _in_source_locus(lam, i)
    else:
        raise ValueError(f"vertex {i} is neither a sink nor a source")
    if not ok:
        raise ValueError(f"partition has an alpha_{i} part; reflection undefined")
    datum = lam.order.datum
    new_order = adapted_order(reflect_quiver(i, Q))
    new_counts = [0] * new_order.length
    for c, b in zip(lam.counts, lam.order.beta):
        if c == 0:
            continue
        new_counts[new_order.index_of(reflect_root(datum, i, b))] += c
    return KostantPartition(new_order, tuple(new_counts))


def verify_reflection(i: int, lam: KostantPartition, field) -> bool:
    """Whether reflecting the module of lam matches reflecting lam partwise."""
    M = rep_of_kp(lam, field)
    reflected = bgp_reflect_rep(i, M)
    return iso_class(reflected) == reflect_kp(i, lam)


def order_compat(
    i: int, nu: tuple[int, ...], order, ledger: OrientationLedger
) -> bool:
    """Whether reflection at sink i preserves the calibrated partition order
    on the no-alpha_i-part locus of KP(nu)."""
    Q = order.quiver
    if Q is None:
        raise ValueError("order has no quiver attached")
    if i not in sinks(Q):
        raise ValueError(f"vertex {i} is not a sink")
    datum = order.datum
    locus = [
        lam for lam in enumerate_kp(datum, nu, order) if in_ker_locus(lam, i)
    ]
    reflected = [reflect_kp(i, lam) for lam in locus]
    d = ledger.order_direction
    return leq_bitsets(order_keys(locus, d)) == leq_bitsets(order_keys(reflected, d))
