"""Reflection of Kostant partitions and compatibility with the partition order.

A partition whose alpha_i multiplicity vanishes corresponds to a module with
no simple summand at i; at a sink this is equivalent to the assembled map
into i being surjective, and at a source to the map out of i being
injective, so exactly then the module-level reflection has dimension vector
s_i(dims).  On these loci the reflection functor acts part by part
(beta -> s_i(beta)) and matches the module-level reflection exactly.
"""

from __future__ import annotations

from .convex_order import adapted_order
from .errors import VerificationError
from .kostant import KostantPartition, OrientationLedger, order_keys, same_order
# rank is unused here, but benchmarks/test_benchmark.py checks that tracing leaves pbw.rank alone
from .linalg import rank  # noqa: F401
from .quivers import reflect_quiver, sinks
from .reps import bgp_reflect_rep, iso_class, rep_of_kp
from .root_system import reflect_root


def _no_alpha_part(lam: KostantPartition, i: int) -> bool:
    """True iff lam has no alpha_i part.  Its callers check first that i is
    a sink or a source of lam's quiver."""
    return lam.counts[lam.order.index_of(lam.order.datum.alpha(i))] == 0


def in_ker_locus(lam: KostantPartition, i: int) -> bool:
    """True iff lam has no alpha_i part; i must be a sink of lam's quiver."""
    if i not in sinks(lam.quiver):
        raise ValueError(f"vertex {i} is not a sink")
    return _no_alpha_part(lam, i)


def reflect_kp(i: int, lam: KostantPartition) -> KostantPartition:
    """Apply s_i to every part; the result is indexed by the canonical adapted
    order of the reflected quiver.

    Requires i to be a sink or source of lam's quiver and lam to have no
    alpha_i part (so every reflected part stays a positive root).
    """
    new_order = adapted_order(reflect_quiver(i, lam.quiver))
    if not _no_alpha_part(lam, i):
        raise ValueError(f"partition has an alpha_{i} part; reflection undefined")
    datum = lam.order.datum
    new_counts = [0] * new_order.length
    for c, b in zip(lam.counts, lam.order.beta):
        if c == 0:
            continue
        new_counts[new_order.index_of(reflect_root(datum, i, b))] += c
    return KostantPartition(new_order, tuple(new_counts))


def verify_reflection(i: int, lam: KostantPartition, field) -> bool:
    """Whether reflecting the module of lam matches reflecting lam partwise.

    The alpha_i multiplicity is first cross-checked on the reflection of
    M(lam): its dimension at i is the sum over the neighbours of i less the
    rank of the assembled map at i (the maps into a sink side by side, or
    the maps out of a source stacked), so its dims are s_i(dims M) exactly
    when that rank is dim M_i, which must be exactly when there is no
    alpha_i part.
    """
    M = rep_of_kp(lam, field)
    reflected = bgp_reflect_rep(i, M)
    if _no_alpha_part(lam, i) != (reflected.dims == reflect_root(lam.order.datum, i, M.dims)):
        raise VerificationError(
            f"alpha_{i} multiplicity disagrees with the rank of the assembled map"
        )
    return iso_class(reflected) == reflect_kp(i, lam)


def order_compat(
    i: int, kps: tuple[KostantPartition, ...], ledger: OrientationLedger
) -> bool:
    """Whether reflection at sink i preserves the calibrated partition order
    on the no-alpha_i-part locus of the enumerated partitions kps of one
    KP(nu); i must be a sink of their quiver."""
    locus = [lam for lam in kps if in_ker_locus(lam, i)]
    reflected = [reflect_kp(i, lam) for lam in locus]
    d = ledger.order_direction
    return same_order(order_keys(locus, d), order_keys(reflected, d))
