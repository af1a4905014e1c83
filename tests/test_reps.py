from __future__ import annotations

import itertools

import pytest

from quiver_orders.convex_order import adapted_order
from quiver_orders.fields import RATIONALS, PrimeField, galois_field
from quiver_orders.kostant import KostantPartition, enumerate_kp
from quiver_orders.quivers import linear_quiver, quiver
from quiver_orders.reps import (
    QuiverRep,
    all_indecomposables,
    bgp_reflect_rep,
    gl_order,
    hom_dim,
    hom_matrix,
    iso_class,
    orbit_point_count,
    rep_of_kp,
    rep_space_dim,
    simple_rep,
    zero_rep,
)
from oracles import direct_sum, indecomposable

A2 = quiver("A2", ((1, 2),))
A3LIN = linear_quiver("A3")
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))


def test_rep_validation():
    """Each check of `QuiverRep.__init__` fires with its message, also on the
    entry it reads last."""
    F, one = RATIONALS, RATIONALS.one
    with pytest.raises(ValueError, match="^matrix for 1->2 has wrong column count$"):
        QuiverRep(A2, F, (1, 1), (((F.one, F.one),),))  # 1x2 instead of 1x1
    cases = [
        ((0, 0, -1), ((), ()), "bad dimension vector"),
        ((1, 1), ((), ()), "bad dimension vector"),
        ((1, 1, 1, 1), ((), ()), "bad dimension vector"),
        ((0, 0, 0), ((),), "one matrix per arrow required"),
        ((0, 0, 0), ((), (), ()), "one matrix per arrow required"),
        ((2, 2, 0), (((one, 0), (one,)), ()), "matrix for 1->2 has wrong column count"),
        ((0, 2, 2), (((), ()), ((one, 0), (0,))), "matrix for 2->3 has wrong column count"),
        ((0, 2, 1), (((), ()), ((0, 0), (0, 0))), "matrix for 2->3 has wrong row count"),
    ]
    for dims, mats, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuiverRep(A3LIN, F, dims, mats)
    QuiverRep(A3LIN, F, (2, 2, 1), (((one, 0), (0, one)), ((0, one),)))
    zero_rep(A2, F, (0, 0))
    simple_rep(A2, F, 1)


def _shaped_mul(F, A, B, rows, mid, cols):
    # explicit-shape matrix product, so zero dimensions stay unambiguous
    return tuple(
        tuple(
            _dot(F, [A[r][k] for k in range(mid)], [B[k][c] for k in range(mid)])
            for c in range(cols)
        )
        for r in range(rows)
    )


def _dot(F, xs, ys):
    acc = F.zero
    for x, y in zip(xs, ys):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _brute_hom_count(M: QuiverRep, N: QuiverRep) -> int:
    """Count graded linear maps commuting with the arrow matrices by full
    enumeration.  Independent of the kernel-based hom_dim computation."""
    F = M.field
    n = len(M.dims)
    shapes = [(N.dims[i], M.dims[i]) for i in range(n)]
    entries = sum(r * c for r, c in shapes)
    count = 0
    for choice in itertools.product(tuple(F.elements()), repeat=entries):
        mats = []
        pos = 0
        for r, c in shapes:
            mats.append(
                tuple(
                    tuple(choice[pos + a * c + b] for b in range(c))
                    for a in range(r)
                )
            )
            pos += r * c
        ok = True
        for k, (s, t) in enumerate(M.quiver.arrows):
            lhs = _shaped_mul(
                F, mats[t - 1], M.mats[k], N.dims[t - 1], M.dims[t - 1], M.dims[s - 1]
            )
            rhs = _shaped_mul(
                F, N.mats[k], mats[s - 1], N.dims[t - 1], N.dims[s - 1], M.dims[s - 1]
            )
            if lhs != rhs:
                ok = False
                break
        if ok:
            count += 1
    return count


def _small_reps(Q, field):
    reps = []
    for beta, M in all_indecomposables(Q, field).items():
        if sum(M.dims) <= 2:
            reps.append(M)
    return reps


@pytest.mark.parametrize("p", [2, 3])
def test_hom_dim_against_brute_force(p):
    F = PrimeField(p)
    for Q in [A2, A3LIN]:
        reps = _small_reps(Q, F)
        reps.append(direct_sum(reps[0], reps[-1]))
        for M in reps:
            for N in reps:
                if sum(N.dims[i] * M.dims[i] for i in range(len(M.dims))) > 5:
                    continue
                assert _brute_hom_count(M, N) == p ** hom_dim(M, N)


def test_hom_dim_brute_force_d4_highest_root():
    F = PrimeField(2)
    M = indecomposable(D4STAR, (1, 2, 1, 1), F)
    assert _brute_hom_count(M, M) == 2 ** hom_dim(M, M)
    assert hom_dim(M, M) == 1


def test_a2_hom_matrix_frozen():
    # adapted order for 1 -> 2 lists beta = (a2, a1+a2, a1)
    G = hom_matrix(A2)
    assert G == ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def test_hom_matrix_field_independent():
    for Q in [A2, A3LIN, D4STAR]:
        G_q = hom_matrix(Q)
        order = adapted_order(Q)
        for F in (PrimeField(2), PrimeField(3)):
            table = all_indecomposables(Q, F)
            G_f = tuple(
                tuple(hom_dim(table[bk], table[bl]) for bl in order.beta)
                for bk in order.beta
            )
            assert G_q == G_f


def test_hom_matrix_unitriangular():
    for Q in [A2, A3LIN, D4STAR]:
        G = hom_matrix(Q)
        N = len(G)
        assert all(G[k][k] == 1 for k in range(N))
        assert all(G[k][l] == 0 for k in range(N) for l in range(k))


def test_all_indecomposables_dims_and_end():
    for Q in [A2, A3LIN, D4STAR]:
        table = all_indecomposables(Q, RATIONALS)
        for beta, M in table.items():
            assert M.dims == beta
            assert hom_dim(M, M) == 1


def test_bgp_reflection_at_sink_examples():
    F = RATIONALS
    M12 = indecomposable(A2, (1, 1), F)
    R = bgp_reflect_rep(2, M12)
    assert R.dims == (1, 0)
    assert R.quiver.arrows == ((2, 1),)

    S2 = simple_rep(A2, F, 2)
    assert bgp_reflect_rep(2, S2).dims == (0, 0)  # the sink simple dies

    S1 = simple_rep(A2, F, 1)
    R1 = bgp_reflect_rep(2, S1)
    assert R1.dims == (1, 1)
    assert R1.mats[0] == ((F.one,),)
    assert hom_dim(R1, R1) == 1


def test_bgp_reflection_at_source():
    F = galois_field(4)
    Qop = quiver("A2", ((2, 1),))
    S1 = simple_rep(Qop, F, 1)  # vertex 1 is the sink here, 2 the source
    R = bgp_reflect_rep(2, S1)
    assert R.quiver == A2
    assert R.dims == (1, 1)


def test_direct_sum_block_structure():
    F = PrimeField(5)
    M = indecomposable(A2, (1, 1), F)
    S = direct_sum(M, M)
    assert S.dims == (2, 2)
    assert S.mats[0] == ((1, 0), (0, 1))
    assert hom_dim(S, S) == 4


def _reference_direct_sum(M, N):
    """`direct_sum` as it was before it became a two-part block sum."""
    F = M.field
    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
    mats = []
    for idx, (s, t) in enumerate(M.quiver.arrows):
        a, b = M.mats[idx], N.mats[idx]
        rows = []
        for r in range(M.dims[t - 1]):
            rows.append(tuple(a[r]) + tuple(F.zero for _ in range(N.dims[s - 1])))
        for r in range(N.dims[t - 1]):
            rows.append(tuple(F.zero for _ in range(M.dims[s - 1])) + tuple(b[r]))
        mats.append(tuple(rows))
    return QuiverRep(M.quiver, F, dims, tuple(mats))


def _reference_rep_of_kp(lam, field):
    """`rep_of_kp` as it was before it built its sum in one pass: one direct
    sum per summand, starting from the zero representation."""
    Q = lam.quiver
    reps = all_indecomposables(Q, field)
    acc = zero_rep(Q, field, tuple(0 for _ in range(Q.datum.n)))
    for c, b in zip(lam.counts, lam.order.beta):
        for _ in range(c):
            acc = _reference_direct_sum(acc, reps[b])
    return acc


@pytest.mark.parametrize("field", [RATIONALS, galois_field(2), galois_field(4)], ids=["Q", "F2", "GF4"])
@pytest.mark.parametrize("Q", [A3LIN, quiver("A3", ((1, 2), (3, 2))), D4STAR], ids=["A3", "A3-zigzag", "D4"])
def test_rep_of_kp_matches_iterated_direct_sum(Q, field):
    order = adapted_order(Q)
    seen = 0
    for nu in itertools.product(range(4), repeat=Q.datum.n):
        if not 0 < sum(nu) <= 3:
            continue
        for lam in enumerate_kp(Q.datum, nu, order):
            M, R = rep_of_kp(lam, field), _reference_rep_of_kp(lam, field)
            assert (M.dims, repr(M.mats)) == (R.dims, repr(R.mats))
            seen += 1
    assert seen > 20
    indec = list(all_indecomposables(Q, field).values())
    for M in indec:
        for N in indec:
            assert repr(direct_sum(M, N)) == repr(_reference_direct_sum(M, N))


@pytest.mark.parametrize(
    "Q",
    [
        linear_quiver("E6"),
        linear_quiver("E7"),
        quiver("D6", ((1, 2), (2, 3), (3, 4), (4, 5), (6, 4))),
    ],
    ids=["E6-linear", "E7-linear", "D6"],
)
def test_indecomposables_over_q_have_int_entries(Q):
    """The reflection walk over Q stays on ints, so Hom systems built from
    these modules never carry a Fraction."""
    reps = all_indecomposables(Q, RATIONALS)
    assert all(type(x) is int for M in reps.values() for m in M.mats for row in m for x in row)
    assert max(abs(x) for M in reps.values() for m in M.mats for row in m for x in row) >= 1


def test_iso_class_round_trip():
    for Q in [A2, A3LIN]:
        order = adapted_order(Q)
        for nu in itertools.product(range(3), repeat=Q.datum.n):
            if not 0 < sum(nu) <= 4:
                continue
            for lam in enumerate_kp(Q.datum, nu, order):
                M = rep_of_kp(lam, RATIONALS)
                assert iso_class(M) == lam


def test_iso_class_of_shuffled_sum():
    order = adapted_order(A2)
    F = PrimeField(3)
    S1 = simple_rep(A2, F, 1)
    S2 = simple_rep(A2, F, 2)
    M12 = indecomposable(A2, (1, 1), F)
    M = direct_sum(S1, direct_sum(M12, S2))
    lam = iso_class(M)
    assert lam.order == order
    assert lam.counts == (1, 1, 1)


def test_gl_order_values():
    assert gl_order(0, 2) == 1
    assert gl_order(1, 7) == 6
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168


def test_rep_space_dim():
    assert rep_space_dim(A2, (2, 3)) == 6
    assert rep_space_dim(A3LIN, (1, 2, 3)) == 8
    assert rep_space_dim(D4STAR, (1, 2, 3, 4)) == 2 + 6 + 8


def test_orbit_point_counts_a2():
    order = adapted_order(A2)
    dense = KostantPartition(order, (0, 1, 0))
    semisimple = KostantPartition(order, (1, 0, 1))
    for q in [2, 3, 4, 5, 7, 8, 9]:
        assert orbit_point_count(dense, q) == q - 1
        assert orbit_point_count(semisimple, q) == 1
        assert orbit_point_count(dense, q) + orbit_point_count(semisimple, q) == q


def test_orbit_counts_sum_to_rep_space():
    for Q in [A2, A3LIN, D4STAR]:
        order = adapted_order(Q)
        datum = Q.datum
        for nu in itertools.product(range(3), repeat=datum.n):
            if not 0 < sum(nu) <= 3:
                continue
            for q in [2, 3]:
                total = sum(
                    orbit_point_count(lam, q)
                    for lam in enumerate_kp(datum, nu, order)
                )
                assert total == q ** rep_space_dim(Q, nu)
