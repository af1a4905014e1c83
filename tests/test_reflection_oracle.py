"""Oracles for the reflection functor.

`bgp_reflect_rep` builds the reflection at a sink or a source from one
nullspace of the maps at the vertex.  The reference below is the earlier
two-branch version, with its own kernel construction at sinks, kept
verbatim; every sink and source reflection of every indecomposable and of a
fixed set of direct sums must come out identical, matrix entry for matrix
entry and type for type, once the reference's integral Fractions over Q are
written as ints, as `nullspace` writes them.  The same sweep, over F_3 as
well, checks the duality S+_i = D S-_i D between the sink and source cases:
reflecting M at i equals dualizing the reflection of the dual at i, matrix
for matrix, at every sink and source.

The reflection locus (no alpha_i part) is read off the partition; the
earlier test, the rank of the assembled map at i on the rational model of
M(lam), is kept below as its reference over every partition with |nu| <= 4
at every sink and source.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from quiver_orders.convex_order import adapted_order
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import KostantPartition, enumerate_kp
from quiver_orders.linalg import nullspace, rank, rref, transpose
from quiver_orders.pbw import _no_alpha_part
from quiver_orders.quivers import Quiver, linear_quiver, reflect_quiver, sinks, sources
from quiver_orders.reps import (
    QuiverRep,
    all_indecomposables,
    bgp_reflect_rep,
    hom_dim,
    rep_of_kp,
    simple_rep,
)
from quiver_orders.root_system import cartan_datum
from oracles import direct_sum, dual_rep


def reference_reflect(i: int, M: QuiverRep) -> QuiverRep:
    """Reflection functor at a sink (kernel construction) or source (cokernel).

    At a sink i the new space at i is the kernel of the assembled map
    (+)_a M_src(a) -> M_i, with the reversed arrows given by the block
    projections of the kernel basis.  At a source it is the cokernel of
    M_i -> (+)_a M_tgt(a), with reversed arrows given by the quotient map
    restricted to the blocks.  Arrow order is preserved.
    """
    Q = M.quiver
    F = M.field
    newQ = reflect_quiver(i, Q)
    d = M.dims
    if i in sinks(Q):
        in_idx = Q.arrows_into(i)
        block_sizes = [d[Q.arrows[a][0] - 1] for a in in_idx]
        S = sum(block_sizes)
        phi_rows = []
        for r in range(d[i - 1]):
            row: list = []
            for a in in_idx:
                row.extend(M.mats[a][r])
            phi_rows.append(tuple(row))
        kernel = nullspace(F, tuple(phi_rows), ncols=S)
        newdim = len(kernel)
        offsets = {}
        off = 0
        for a, size in zip(in_idx, block_sizes):
            offsets[a] = off
            off += size
        new_mats = []
        for a, (s, t) in enumerate(Q.arrows):
            if a in offsets:
                src_dim = d[s - 1]
                block = offsets[a]
                new_mats.append(
                    tuple(
                        tuple(kernel[c][block + r] for c in range(newdim))
                        for r in range(src_dim)
                    )
                )
            else:
                new_mats.append(M.mats[a])
    elif i in sources(Q):
        out_idx = Q.arrows_out_of(i)
        block_sizes = [d[Q.arrows[a][1] - 1] for a in out_idx]
        T = sum(block_sizes)
        psi_rows = []
        for a in out_idx:
            psi_rows.extend(M.mats[a])
        R, pivots = rref(F, transpose(tuple(psi_rows)), ncols=T)
        pivot_pos = {p: s for s, p in enumerate(pivots)}
        nonpivots = [t for t in range(T) if t not in pivot_pos]
        newdim = len(nonpivots)
        offsets = {}
        off = 0
        for a, size in zip(out_idx, block_sizes):
            offsets[a] = off
            off += size
        new_mats = []
        for a, (s, t) in enumerate(Q.arrows):
            if a in offsets:
                tgt_dim = d[t - 1]
                block = offsets[a]
                rows = []
                for j, np_ in enumerate(nonpivots):
                    row = []
                    for c in range(tgt_dim):
                        cg = block + c
                        if cg in pivot_pos:
                            row.append(F.neg(R[pivot_pos[cg]][np_]))
                        else:
                            row.append(F.one if np_ == cg else F.zero)
                    rows.append(tuple(row))
                new_mats.append(tuple(rows))
            else:
                new_mats.append(M.mats[a])
    else:
        raise ValueError(f"vertex {i} is neither a sink nor a source")
    new_dims = tuple(
        newdim if j == i - 1 else d[j] for j in range(Q.datum.n)
    )
    return QuiverRep(newQ, F, new_dims, tuple(new_mats))


def alternating_quiver(label: str) -> Quiver:
    """The bipartite orientation: every vertex is a sink or a source."""
    datum = cartan_datum(label)
    side = {1: 0}
    while len(side) < datum.n:
        for a, b in datum.edges:
            if a in side and b not in side:
                side[b] = 1 - side[a]
            elif b in side and a not in side:
                side[a] = 1 - side[b]
    return Quiver(datum, tuple((a, b) if side[a] == 0 else (b, a) for a, b in datum.edges))


LABELS = ("A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7")
FIELDS = {"Q": RATIONALS, "F2": galois_field(2), "GF4": galois_field(4)}
ORIENTATIONS = {"linear": linear_quiver, "alternating": alternating_quiver}
CASES = [
    (label, orient, field)
    for label in LABELS
    for orient in ORIENTATIONS
    for field in FIELDS
    if label != "E7" or field == "Q"
]


def sweep_reps(Q: Quiver, F) -> list[QuiverRep]:
    """Every indecomposable and 20 fixed direct sums of pairs of them."""
    indec = list(all_indecomposables(Q, F).values())
    N = len(indec)
    sums = [direct_sum(indec[k % N], indec[(7 * k + 3) % N]) for k in range(20)]
    return indec + sums


def fingerprint(M: QuiverRep) -> str:
    return repr((M.quiver.arrows, M.dims, M.mats))


def as_written(M: QuiverRep) -> QuiverRep:
    """M with each integral Fraction entry as an int, the form in which
    `nullspace` writes exact quotients over Q; `reference_reflect` reads its
    source-side entries off `rref`, which returns Fractions."""
    def entry(x):
        return x.numerator if type(x) is Fraction and x.denominator == 1 else x

    mats = tuple(tuple(tuple(entry(x) for x in row) for row in m) for m in M.mats)
    return QuiverRep(M.quiver, M.field, M.dims, mats)


@pytest.mark.parametrize(("label", "orient", "field"), CASES, ids=["-".join(c) for c in CASES])
def test_reflection_matches_two_branch_reference(label, orient, field):
    Q = ORIENTATIONS[orient](label)
    vertices = sinks(Q) + sources(Q)
    assert vertices
    for M in sweep_reps(Q, FIELDS[field]):
        for i in vertices:
            assert fingerprint(bgp_reflect_rep(i, M)) == fingerprint(as_written(reference_reflect(i, M)))


DUALITY_FIELDS = {**FIELDS, "F3": galois_field(3)}
DUALITY_CASES = [
    (label, orient, field)
    for label in LABELS
    for orient in ORIENTATIONS
    for field in DUALITY_FIELDS
    if label != "E7" or field == "Q"
]


@pytest.mark.parametrize(
    ("label", "orient", "field"), DUALITY_CASES, ids=["-".join(c) for c in DUALITY_CASES]
)
def test_reflection_is_the_dual_of_the_reflection_of_the_dual(label, orient, field):
    Q = ORIENTATIONS[orient](label)
    for M in sweep_reps(Q, DUALITY_FIELDS[field]):
        D = dual_rep(M)
        for i in sinks(Q) + sources(Q):
            assert fingerprint(bgp_reflect_rep(i, M)) == fingerprint(dual_rep(bgp_reflect_rep(i, D)))


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_dual_is_an_involution_and_swaps_hom(label):
    Q = alternating_quiver(label)
    reps = sweep_reps(Q, RATIONALS)
    for M in reps:
        D = dual_rep(M)
        assert D.quiver.arrows == tuple((t, s) for s, t in Q.arrows)
        assert dual_rep(D) == M
    for M in reps[::5]:
        for N in reps[::7]:
            assert hom_dim(M, N) == hom_dim(dual_rep(N), dual_rep(M))


def test_dual_keeps_shapes_at_a_zero_vertex():
    Q = linear_quiver("A3")  # 1 -> 2 -> 3
    M = simple_rep(Q, RATIONALS, 2)  # maps 1x0 and 0x1
    D = dual_rep(M)
    assert D.quiver.arrows == ((2, 1), (3, 2))
    assert D.mats == ((), ((),))  # 0x1 and 1x0
    assert dual_rep(D) == M


def reference_no_alpha_part(lam: KostantPartition, i: int) -> bool:
    """True iff the assembled map at i of the rational model of M(lam) (the
    maps into a sink side by side, or the maps out of a source stacked) has
    rank dim M_i."""
    Q = lam.order.quiver
    M = rep_of_kp(lam, RATIONALS)
    if i in sinks(Q):
        assembled = tuple(
            tuple(x for a in Q.arrows_into(i) for x in M.mats[a][r])
            for r in range(M.dims[i - 1])
        )
    elif i in sources(Q):
        assembled = tuple(row for a in Q.arrows_out_of(i) for row in M.mats[a])
    else:
        raise ValueError(f"vertex {i} is neither a sink nor a source")
    return rank(RATIONALS, assembled) == M.dims[i - 1]


LOCUS_CASES = [(label, orient) for label in LABELS if label != "E7" for orient in ORIENTATIONS]


@pytest.mark.parametrize(("label", "orient"), LOCUS_CASES, ids=["-".join(c) for c in LOCUS_CASES])
def test_locus_matches_rank_on_rational_model(label, orient):
    Q = ORIENTATIONS[orient](label)
    order = adapted_order(Q)
    vertices = sinks(Q) + sources(Q)
    outside = 0
    for nu in default_test_nus(Q.datum, 4):
        for lam in enumerate_kp(Q.datum, nu, order):
            for i in vertices:
                expected = reference_no_alpha_part(lam, i)
                assert _no_alpha_part(lam, i) == expected, (lam.counts, i)
                outside += not expected
    assert outside > 0
