from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from quiver_orders import fields, flag_fibers
from quiver_orders.cli import DEFAULT_Q_LIST
from quiver_orders.convex_order import adapted_order
from quiver_orders.errors import VerificationError
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.flag_fibers import (
    evenness_check,
    fiber_point_count,
    fiber_polynomial,
    flag_degree_bound,
    lagrange_coefficients,
    q_factorial,
    shuffle_flag_count,
    z_point_count,
)
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import KostantPartition, enumerate_kp
from quiver_orders.quivers import linear_quiver, quiver
from quiver_orders.reps import QuiverRep, iso_class, rep_of_kp, zero_rep
from oracles import prime_powers, y_total_count, z_degree_bound, z_polynomial_report

A2 = quiver("A2", ((1, 2),))
A3LIN = linear_quiver("A3")
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))
D4SOURCE = quiver("D4", ((2, 1), (2, 3), (2, 4)))


# --- independent oracle: flags as chains of point sets ----------------------


def _vec_add(F, a, b):
    return tuple(F.add(x, y) for x, y in zip(a, b))


def _vec_scale(F, c, a):
    return tuple(F.mul(c, x) for x in a)


def _span(F, gens, dim):
    zero = tuple(F.zero for _ in range(dim))
    points = {zero}
    for g in gens:
        new = set()
        for c in F.elements():
            cg = _vec_scale(F, c, g)
            for p in points:
                new.add(_vec_add(F, cg, p))
        points = new
    return frozenset(points)


def _hyperplanes(F, subspace_points, dim):
    """All codimension-1 subspaces of a subspace given as its point set."""
    pts = sorted(subspace_points)
    if len(pts) == 1:  # the zero space has no hyperplanes
        return ()
    target = len(pts) // F.order
    # spans of all (d-1)-subsets of the points; d recovered from the size
    d = round(math.log(len(pts), F.order))
    found = set()
    for gens in itertools.combinations(pts, d - 1) if d > 1 else [()]:
        sp = _span(F, gens, dim)
        if len(sp) == target and sp <= subspace_points:
            found.add(sp)
    return tuple(found)


def _apply(F, mat, vec):
    return tuple(_dot(F, row, vec) for row in mat)


def _dot(F, xs, ys):
    acc = F.zero
    for x, y in zip(xs, ys):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _brute_fiber(M: QuiverRep) -> int:
    """Count complete stable graded flags by enumerating chains of point sets."""
    F = M.field
    Q = M.quiver
    n = len(M.dims)
    full = tuple(
        _span(
            F,
            [tuple(F.one if j == r else F.zero for j in range(d)) for r in range(d)],
            d,
        )
        for d in M.dims
    )

    def is_stable(members):
        for k, (s, t) in enumerate(Q.arrows):
            mat = M.mats[k]
            for v in members[s - 1]:
                img = _apply(F, mat, v)
                if img not in members[t - 1]:
                    return False
        return True

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def chains(members):
        if all(len(m) == 1 for m in members):
            return 1
        total = 0
        for i in range(n):
            if len(members[i]) == 1:
                continue
            dim_i = M.dims[i]
            for W in _hyperplanes(F, members[i], dim_i):
                nxt = members[:i] + (W,) + members[i + 1 :]
                if is_stable(nxt):
                    total += chains(nxt)
        return total

    return chains(full)


@pytest.mark.parametrize("q", [2, 3])
def test_fiber_counts_match_chain_oracle_a2(q):
    F = galois_field(q)
    order = adapted_order(A2)
    for nu in itertools.product(range(4), repeat=2):
        if not 0 < sum(nu) <= 3:
            continue
        for lam in enumerate_kp(A2.datum, nu, order):
            M = rep_of_kp(lam, F)
            assert fiber_point_count(lam, q) == _brute_fiber(M), (lam.counts, q)


def test_fiber_counts_match_chain_oracle_a3_d4():
    F = galois_field(2)
    for Q, nu in [(A3LIN, (1, 1, 1)), (D4STAR, (1, 1, 1, 1))]:
        order = adapted_order(Q)
        for lam in enumerate_kp(Q.datum, nu, order):
            M = rep_of_kp(lam, F)
            assert fiber_point_count(lam, 2) == _brute_fiber(M), lam.counts


@pytest.mark.parametrize("q", [2, 3])
def test_y_total_matches_pointwise_enumeration(q):
    # sum the chain-oracle fiber over every matrix tuple in the rep space
    F = galois_field(q)
    for Q, nu in [(A2, (1, 1)), (A2, (2, 1)), (A3LIN, (1, 1, 1))]:
        shapes = [
            (nu[t - 1], nu[s - 1]) for (s, t) in Q.arrows
        ]
        entries = sum(r * c for r, c in shapes)
        total = 0
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
            M = QuiverRep(Q, F, nu, tuple(mats))
            total += _brute_fiber(M)
        assert total == y_total_count(Q, nu, q)


def test_fiber_spot_values():
    order = adapted_order(A2)
    semisimple = KostantPartition(order, (1, 0, 1))
    dense = KostantPartition(order, (0, 1, 0))
    for q in [2, 3, 4, 5, 7, 8, 9]:
        assert fiber_point_count(semisimple, q) == 2
        assert fiber_point_count(dense, q) == 1


def test_fiber_invariant_under_basis_change():
    q = 5
    F = galois_field(q)
    order = adapted_order(A2)
    lam = KostantPartition(order, (0, 1, 1))  # nu = (2, 1)
    M = rep_of_kp(lam, F)
    g1 = ((2, 1), (1, 1))  # invertible over F5
    g1_inv = ((1, 4), (4, 2))
    g2 = ((3,),)

    def mul(A, B):
        return tuple(tuple(_dot(F, row, col) for col in zip(*B)) for row in A)

    assert mul(g1, g1_inv) == ((1, 0), (0, 1))
    mats = (mul(g2, mul(M.mats[0], g1_inv)),)
    moved = QuiverRep(A2, F, M.dims, mats)
    assert flag_fibers._count(A2, F, moved.dims, moved.mats) == flag_fibers._count(
        A2, F, M.dims, M.mats
    )
    assert flag_fibers._count(A2, F, M.dims, M.mats) == fiber_point_count(lam, q)


def test_zero_rep_fiber_is_flag_count():
    for q in [2, 3, 4]:
        F = galois_field(q)
        for dims, count in [((1, 1), 2), ((2, 1), 3 * (q + 1)), ((2, 0), q + 1), ((0, 0), 1)]:
            M = zero_rep(A2, F, dims)
            assert flag_fibers._count(A2, F, M.dims, M.mats) == count, (dims, q)
            assert fiber_point_count(iso_class(M), q) == count, (dims, q)


def test_q_factorial_and_shuffles():
    assert q_factorial(3, 2) == 21  # 1 * 3 * 7
    assert q_factorial(0, 5) == 1
    assert shuffle_flag_count((1, 1), 9) == 2
    assert shuffle_flag_count((2, 1), 2) == 9
    assert shuffle_flag_count((2, 0), 3) == 4


def test_flag_degree_bound():
    assert flag_degree_bound((1, 1)) == 0
    assert flag_degree_bound((2, 1)) == 1
    assert flag_degree_bound((2, 2)) == 2
    assert flag_degree_bound((3, 0)) == 3


def test_lagrange_exact():
    assert lagrange_coefficients([(2, 7), (3, 10)]) == (Fraction(1), Fraction(3))
    assert lagrange_coefficients([(1, 1), (2, 4), (3, 9)]) == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )
    assert lagrange_coefficients([(1, 5), (2, 5), (3, 5)]) == (Fraction(5),)


def test_lagrange_coefficients_are_ints_where_integral():
    coeffs = lagrange_coefficients([(q, 2 * q**3 + q + 5) for q in (2, 3, 4, 5)])
    assert coeffs == (5, 1, 0, 2) and all(type(c) is int for c in coeffs)
    # q(q + 1)/2 = q/2 + q^2/2
    coeffs = lagrange_coefficients([(q, q * (q + 1) // 2) for q in (2, 3, 4)])
    assert coeffs == (0, Fraction(1, 2), Fraction(1, 2))
    assert [type(c) for c in coeffs] == [int, Fraction, Fraction]


def _lagrange_reference(points):
    """Coefficients of sum_i y_i prod_{j != i} (x - x_j) / (x_i - x_j)."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        num, denom = [Fraction(1)], Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                num = [a - xj * b for a, b in zip([Fraction(0)] + num, num + [Fraction(0)])]
                denom *= xi - xj
        coeffs = [c + Fraction(yi) / denom * a for c, a in zip(coeffs, num)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_lagrange_matches_the_lagrange_formula():
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13)
    cases = [
        [],
        [(3, 4)],
        [(-1, 2), (0, Fraction(1, 3)), (5, -7)],
        [(q, q**4 + 3 * q - 1) for q in qs[:5]],
        [(q, 3**q % 17) for q in qs],
        [(q, y) for q, y in zip(reversed(qs), range(9))],
    ]
    for points in cases:
        assert lagrange_coefficients(points) == _lagrange_reference(points)


@pytest.mark.parametrize("points", [[(2, 1), (2, 1)], [(2, 1), (3, 5), (2, 4)]])
def test_lagrange_rejects_repeated_nodes(points):
    with pytest.raises(ValueError, match="interpolation nodes must be distinct"):
        lagrange_coefficients(points)


def test_interpolation_consistent_small():
    order = adapted_order(A2)
    lam = KostantPartition(order, (1, 1, 0))  # nu = (1, 2)
    assert evenness_check(lam, prime_powers(9)) is True
    # the polynomial reproduces a directly computed count
    assert fiber_polynomial(lam)(2) == flag_fibers._class_count(lam, galois_field(2))


def test_interpolation_equals_the_fiber_polynomial():
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))  # nu = (0, 2, 2)
    nodes = prime_powers(flag_degree_bound(lam.nu) + 1)
    counts = [(q, flag_fibers._class_count(lam, galois_field(q))) for q in nodes]
    assert lagrange_coefficients(counts) == fiber_polynomial(lam)


def test_fiber_polynomial_above_the_degree_bound_is_rejected(monkeypatch):
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))  # nu = (0, 2, 2)
    poly = fiber_polynomial(lam)
    table = flag_fibers._fiber_table(lam.quiver, RATIONALS)
    monkeypatch.setitem(table, lam.counts, poly + (0, 0, 0, 1))  # degree 3, bound 2
    with pytest.raises(VerificationError, match="exceeds degree 2"):
        evenness_check(lam, prime_powers(9))


def test_held_out_counts_do_not_use_the_fiber_polynomial(monkeypatch):
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))  # nu = (0, 2, 2)
    poly = fiber_polynomial(lam)
    assert evenness_check(lam, prime_powers(9)) is True
    table = flag_fibers._fiber_table(lam.quiver, RATIONALS)
    monkeypatch.setitem(table, lam.counts, poly + (0, 0, 1))  # a wrong polynomial
    assert len(table[lam.counts]) <= flag_degree_bound(lam.nu) + 1
    # its coefficients pass, and the held-out counts over F_q do not
    assert evenness_check(lam, prime_powers(9)) is False


@pytest.mark.parametrize("q", [6, 2048])
def test_evenness_check_takes_only_the_q_of_a_field_it_builds(q):
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))  # bound 2
    assert fiber_polynomial(lam) is not None  # q is a node, where no field is needed
    with pytest.raises(ValueError):
        evenness_check(lam, (2, 3, q))


@pytest.mark.parametrize("q", [6, 2048])
def test_fiber_point_count_takes_only_the_q_of_a_field_it_builds(q):
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))
    assert fiber_polynomial(lam) is not None  # even where no field is needed
    with pytest.raises(ValueError):
        fiber_point_count(lam, q)


def test_fiber_point_count_builds_a_field_only_for_the_recursion_over_it(monkeypatch):
    built = []
    build = fields._tables
    monkeypatch.setattr(fields, "_tables", lambda p, r: built.append((p, r)) or build(p, r))
    galois_field.cache_clear()
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))
    assert fiber_point_count(lam, 1024) == fiber_polynomial(lam)(1024)
    assert galois_field.cache_info().currsize == 0
    assert built == []
    # positive control: the source centre of D4 leaves a class of nu = (1, 3, 1, 1)
    # without a polynomial, and it is counted over F_4 itself
    kps = enumerate_kp(D4SOURCE.datum, (1, 3, 1, 1), adapted_order(D4SOURCE))
    lam = next(lam for lam in kps if fiber_polynomial(lam) is None)
    fiber_point_count(lam, 4)
    assert galois_field.cache_info().currsize == 1
    assert built == [(2, 2)]


def test_interpolation_insufficient_points():
    order = adapted_order(A2)
    lam = KostantPartition(order, (0, 1, 1))  # bound 1 needs two q values
    with pytest.raises(ValueError):
        evenness_check(lam, (2,))


def _unpolynomial_class():
    """The one class of KP(1, 2, 1, 1) of the D4 source centre with no fiber
    polynomial."""
    kps = enumerate_kp(D4SOURCE.datum, (1, 2, 1, 1), adapted_order(D4SOURCE))
    (lam,) = [lam for lam in kps if fiber_polynomial(lam) is None]
    return lam


def test_evenness_check_rejects_non_polynomial_counts(monkeypatch):
    lam = _unpolynomial_class()
    qs = prime_powers(9)
    assert flag_degree_bound(lam.nu) == 1
    assert evenness_check(lam, qs) is True
    for q in qs:  # 2^q + 8 runs through 4q + 4 at the nodes 2 and 3, not at 4
        table = flag_fibers._fiber_table(lam.quiver, galois_field(q))
        monkeypatch.setitem(table, lam.counts, 2**q + 8)
    assert evenness_check(lam, qs) is False


def test_evenness_check_rejects_negative_coefficients(monkeypatch):
    lam = KostantPartition(adapted_order(A2), (1, 1, 0))  # nu = (1, 2), bound 1
    assert evenness_check(lam, (2, 3)) is True  # two nodes, no held-out q
    table = flag_fibers._fiber_table(lam.quiver, RATIONALS)
    monkeypatch.setitem(table, lam.counts, flag_fibers._Poly((-1, 2)))
    assert evenness_check(lam, (2, 3)) is False
    # the same on the interpolation path: the counts 0 and -1 at q = 2 and 3
    lam = _unpolynomial_class()
    for q, y in ((2, 0), (3, -1)):
        table = flag_fibers._fiber_table(lam.quiver, galois_field(q))
        monkeypatch.setitem(table, lam.counts, y)
    assert evenness_check(lam, (2, 3)) is False


def test_only_a_class_without_a_fiber_polynomial_is_interpolated(monkeypatch):
    calls = []
    original = flag_fibers.lagrange_coefficients
    monkeypatch.setattr(
        flag_fibers, "lagrange_coefficients", lambda points: calls.append(1) or original(points)
    )
    kps = enumerate_kp(D4SOURCE.datum, (1, 2, 1, 1), adapted_order(D4SOURCE))
    assert all(evenness_check(lam, DEFAULT_Q_LIST) for lam in kps)
    assert len(calls) == 1
    calls.clear()
    for Q in (A3LIN, quiver("A3", ((1, 2), (3, 2)))):
        for nu in default_test_nus(Q.datum, 4):
            for lam in enumerate_kp(Q.datum, nu, adapted_order(Q)):
                assert evenness_check(lam, DEFAULT_Q_LIST)
    assert calls == []


def test_z_counts_a2():
    for q in [2, 3, 5, 7]:
        assert z_point_count(A2, (1, 1), q) == q + 3


def test_z_polynomial_a2():
    assert z_degree_bound(A2, (1, 1)) == 1
    assert z_polynomial_report(A2, (1, 1), prime_powers(9)) == ((3, 1), True)


def test_prime_powers():
    assert prime_powers(9) == (2, 3, 4, 5, 7, 8, 9, 11, 13)
    assert prime_powers(0) == ()
    assert DEFAULT_Q_LIST == prime_powers(9)
