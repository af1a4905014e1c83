"""The class-memoized fiber recursion against the plain hyperplane recursion,
and the fiber polynomials against the recursion over each F_q.

`flag_fibers.fiber_point_count(lam, q)` evaluates the polynomial that
`fiber_polynomial(lam)` gets by expanding each class once over Q, and falls
back to the recursion over F_q where a class has none.  Both expand each
isomorphism class once per field, one hyperplane per orbit of its summand
scalings, and keep its count in one table per (quiver, field).  The first
reference below is the recursion they replaced, kept verbatim: it expands
every stable hyperplane of every restriction, so its node count grows with
the count itself.  The second is the recursion over F_q itself, started at a
class's block sum with `_count`: the class of a restriction found over Q is
only evidence for its class over F_p, so the polynomials are checked against
it on a sweep of quivers, nu and q.  The third is the expansion step on the
whole block sum (`oracles.full_restrictions`): each orbit's full restriction
must have the class lam - S + the class of its touched blocks.
"""

from __future__ import annotations

import itertools
from operator import add

import pytest

from quiver_orders import flag_fibers
from quiver_orders.cli import main
from quiver_orders.convex_order import adapted_order
from quiver_orders.errors import VerificationError
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.flag_fibers import (
    _projective_coefficients,
    evenness_check,
    fiber_point_count,
    fiber_polynomial,
    flag_degree_bound,
    shuffle_flag_count,
    z_point_count,
)
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import KostantPartition, enumerate_kp
from quiver_orders.linalg import nullspace
from quiver_orders.quivers import Quiver, linear_quiver, quiver
from quiver_orders.reps import iso_class, orbit_point_count, rep_of_kp
from oracles import full_restrictions, y_total_count

A2 = quiver("A2", ((1, 2),))
A3LIN = linear_quiver("A3")
A3ZIG = quiver("A3", ((1, 2), (3, 2)))
D4STAR = quiver("D4", ((1, 2), (3, 2), (4, 2)))
D4SOURCE = quiver("D4", ((2, 1), (2, 3), (2, 4)))
D5LIN = linear_quiver("D5")


def _reference_count(Q: Quiver, F, dims: tuple[int, ...], mats) -> int:
    if all(d == 0 for d in dims):
        return 1
    if all(x == F.zero for m in mats for row in m for x in row):
        return shuffle_flag_count(dims, F.order)
    total = 0
    for i in Q.datum.vertices():
        d = dims[i - 1]
        if d == 0:
            continue
        in_idx = Q.arrows_into(i)
        out_idx = Q.arrows_out_of(i)
        image_rows = []
        for a in in_idx:
            src_dim = dims[Q.arrows[a][0] - 1]
            m = mats[a]
            for c in range(src_dim):
                image_rows.append(tuple(m[r][c] for r in range(d)))
        functionals = nullspace(F, tuple(image_rows), ncols=d)
        if not functionals:
            continue
        for coeffs in _projective_coefficients(F, len(functionals)):
            phi = [F.zero] * d
            for s, cf in enumerate(coeffs):
                if cf != F.zero:
                    basis = functionals[s]
                    for j in range(d):
                        phi[j] = F.add(phi[j], F.mul(cf, basis[j]))
            jstar = next(j for j in range(d) if phi[j] != F.zero)
            inv = F.inv(phi[jstar])
            ratio = [F.mul(inv, phi[j]) for j in range(d)]
            new_dims = tuple(d - 1 if v == i - 1 else dims[v] for v in range(Q.datum.n))
            new_mats = list(mats)
            for a in in_idx:
                m = mats[a]
                new_mats[a] = tuple(m[r] for r in range(d) if r != jstar)
            for a in out_idx:
                m = mats[a]
                new_mats[a] = tuple(
                    tuple(
                        F.sub(row[j], F.mul(ratio[j], row[jstar]))
                        for j in range(d)
                        if j != jstar
                    )
                    for row in m
                )
            total += _reference_count(Q, F, new_dims, tuple(new_mats))
    return total


def _reference_fiber(M) -> int:
    return _reference_count(M.quiver, M.field, M.dims, M.mats)


def _clear_tables():
    flag_fibers._fiber_table.cache_clear()
    flag_fibers._class_memo.cache_clear()
    flag_fibers._root_tops.cache_clear()


@pytest.fixture(autouse=True)
def empty_tables():
    """Start every test from empty fiber tables and class memos, so the
    recursion runs and classifies every restriction."""
    _clear_tables()
    yield
    _clear_tables()


def _assert_fibers_match(Q, nu, q):
    F = galois_field(q)
    for lam in enumerate_kp(Q.datum, nu, adapted_order(Q)):
        M = rep_of_kp(lam, F)
        assert fiber_point_count(lam, q) == _reference_fiber(M), (Q.arrows, nu, q, lam.counts)


@pytest.mark.parametrize(
    "nu,q", [((2, 2, 2), q) for q in (2, 3, 4, 5, 7)] + [((2, 3, 2), q) for q in (2, 3)]
)
def test_a3_zigzag_matches_reference(nu, q):
    _assert_fibers_match(A3ZIG, nu, q)


def test_a3_linear_over_gf4_matches_reference():
    # an extension field: entries of the restrictions, and so the keys that
    # merge hyperplanes of one expansion, are GF(4) elements
    _assert_fibers_match(A3LIN, (2, 2, 2), 4)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("Q", [A2, A3LIN, D4STAR], ids=["A2", "A3lin", "D4star"])
def test_small_nus_match_reference(Q, q):
    for nu in itertools.product(range(4), repeat=Q.datum.n):
        if 0 < sum(nu) <= 3:
            _assert_fibers_match(Q, nu, q)


@pytest.mark.parametrize(
    "Q,nu,q",
    [(D4SOURCE, nu, q) for nu in ((1, 2, 1, 1), (2, 2, 1, 1), (1, 3, 1, 1), (1, 2, 2, 1))
     for q in (2, 3, 4)]
    + [(D5LIN, (1, 1, 2, 1, 1), q) for q in (2, 3)],
)
def test_parts_with_larger_tops_match_reference(Q, nu, q):
    # at the centre 2 of D4SOURCE, a source, M(1,2,1,1) has two stable
    # functionals in its own block: its q + 1 projective points are q + 1
    # separate orbits of the scalings
    _assert_fibers_match(Q, nu, q)


@pytest.mark.parametrize(
    "Q,nus,F",
    [
        (A3ZIG, [(2, 2, 2)], RATIONALS),
        (A3ZIG, [(2, 2, 2)], galois_field(7)),
        (A3LIN, [nu for nu in itertools.product(range(5), repeat=3) if 0 < sum(nu) <= 4],
         galois_field(4)),
        (D4STAR, [nu for nu in itertools.product(range(4), repeat=4) if 0 < sum(nu) <= 3],
         RATIONALS),
        # at the source centre, M(1,2,1,1) has two stable functionals
        (D4SOURCE, [(1, 3, 1, 1)], galois_field(3)),
    ],
    ids=["A3zig-Q", "A3zig-F7", "A3lin-GF4", "D4star-Q", "D4source-F3"],
)
def test_touched_classes_match_the_full_restrictions(Q, nus, F):
    # M(lam)|_H = (the untouched blocks) + (the touched blocks cut by H), so
    # by Krull-Schmidt each full restriction has the class lam - S + the
    # class of the touched restriction
    orbits = 0
    for nu in nus:
        for lam in enumerate_kp(Q.datum, nu, adapted_order(Q)):
            for i, touched, restriction in full_restrictions(lam, F):
                child = list(lam.counts)
                for k, _ in touched:
                    child[k] -= 1
                key = (i, tuple(sorted(touched)))
                mu = flag_fibers._touched_class(lam.order, F, key).counts
                assert iso_class(restriction).counts == tuple(map(add, child, mu)), key
                orbits += 1
    assert orbits > len(nus)


@pytest.mark.parametrize("q", [2, 3])
def test_y_and_z_match_reference_sums(q):
    nu = (2, 2, 2)
    F = galois_field(q)
    terms = [
        (orbit_point_count(lam, q), _reference_fiber(rep_of_kp(lam, F)))
        for lam in enumerate_kp(A3ZIG.datum, nu, adapted_order(A3ZIG))
    ]
    assert y_total_count(A3ZIG, nu, q) == sum(o * f for o, f in terms)
    assert z_point_count(A3ZIG, nu, q) == sum(o * f * f for o, f in terms)


A4ZIG = quiver("A4", ((1, 2), (3, 2), (3, 4)))
A5LIN = linear_quiver("A5")
A5ZIG = quiver("A5", ((1, 2), (3, 2), (3, 4), (5, 4)))
E6LIN = linear_quiver("E6")
SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize(
    "Q,nu",
    [
        (A3ZIG, (2, 2, 2)), (A3ZIG, (2, 3, 2)), (A3ZIG, (3, 3, 3)),
        (A3LIN, (2, 2, 2)), (A3LIN, (2, 3, 2)), (A3LIN, (3, 3, 3)),
        (A4ZIG, (1, 2, 2, 1)), (A4ZIG, (2, 2, 2, 2)),
        (A5LIN, (1, 1, 1, 1, 1)), (A5LIN, (1, 1, 2, 1, 1)),
        (A5ZIG, (1, 1, 1, 1, 1)), (A5ZIG, (1, 1, 2, 1, 1)),
        (D4STAR, (1, 1, 1, 1)), (D4STAR, (1, 2, 1, 1)), (D4STAR, (2, 2, 1, 1)),
        (D4SOURCE, (1, 1, 1, 1)), (D4SOURCE, (2, 1, 1, 1)),
        (D5LIN, (1, 1, 2, 1, 1)),
        (E6LIN, (1, 1, 1, 1, 1, 1)), (E6LIN, (1, 1, 1, 2, 1, 1)),
    ],
    ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else f"{x.datum.label}{x.arrows}",
)
def test_fiber_polynomials_match_the_recursion_over_each_field(Q, nu):
    kps = enumerate_kp(Q.datum, nu, adapted_order(Q))
    polys = [fiber_polynomial(lam) for lam in kps]
    assert None not in polys
    for q in SWEEP_QS:
        F = galois_field(q)
        for lam, poly in zip(kps, polys):
            M = rep_of_kp(lam, F)
            assert poly(q) == flag_fibers._count(Q, F, M.dims, M.mats), (nu, q, lam.counts)
            assert fiber_point_count(lam, q) == poly(q)


@pytest.mark.parametrize(
    "nu,without",
    [
        ((1, 2, 1, 1), [((1, 2, 1, 1),)]),
        # the first class has no part with two functionals at the centre,
        # but the hyperplane across its three blocks restricts to M(1,2,1,1)
        ((1, 3, 1, 1), [((1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)),
                        ((1, 2, 1, 1), (0, 1, 0, 0))]),
    ],
)
def test_two_functionals_in_a_block_leave_no_polynomial(nu, without):
    # At the source centre of D4SOURCE, M(1,2,1,1) has a 2-dimensional top:
    # its class, and every class whose expansion reaches it, report no
    # polynomial and are counted by the recursion over each F_q.
    kps = enumerate_kp(D4SOURCE.datum, nu, adapted_order(D4SOURCE))
    assert [lam.parts() for lam in kps if fiber_polynomial(lam) is None] == without
    for q in (2, 3, 4):
        F = galois_field(q)
        for lam in kps:
            assert fiber_point_count(lam, q) == _reference_fiber(rep_of_kp(lam, F)), (q, lam.counts)


def test_fiber_polynomial_values():
    # A2 1->2: M(1,1) has one stable flag and S1 + S2 has two; in
    # M(1,1) + S1 the kernel of the map restricts to S1 + S2 and the other q
    # hyperplanes at 1 restrict to M(1,1)
    kps = {
        tuple(sorted(lam.parts())): lam
        for lam in enumerate_kp(A2.datum, (1, 1), adapted_order(A2))
    }
    assert fiber_polynomial(kps[((1, 1),)]) == (1,)
    assert fiber_polynomial(kps[((0, 1), (1, 0))]) == (2,)
    assert fiber_polynomial(_a2_pair()) == (2, 1)


def _zigzag_calls(monkeypatch, F) -> tuple[int, int]:
    """(partitions, `_class_count` calls) of the recursion over F started at
    the block sum of every lam of A3 1->2<-3, nu=(2,2,2)."""
    calls = 0
    original = flag_fibers._class_count

    def counting(lam, F):
        nonlocal calls
        calls += 1
        return original(lam, F)

    monkeypatch.setattr(flag_fibers, "_class_count", counting)
    _clear_tables()
    kps = enumerate_kp(A3ZIG.datum, (2, 2, 2), adapted_order(A3ZIG))
    for lam in kps:
        M = rep_of_kp(lam, F)
        flag_fibers._count(A3ZIG, F, M.dims, M.mats)
    monkeypatch.undo()
    return len(kps), calls


def test_recursion_visits_few_nodes(monkeypatch):
    # The plain recursion makes 20,983 calls at q = 7; the pass over Q makes
    # 2,145 when every class is expanded at every visit, and 186 when each
    # class is expanded once.
    partitions, calls = _zigzag_calls(monkeypatch, RATIONALS)
    # more calls than partitions: the recursion looks `_class_count` up as a
    # module global
    assert partitions < calls <= 1_000


def test_identical_restrictions_are_counted_once(monkeypatch):
    # Over F_7: 446 calls when every hyperplane recurses on its own; 350 when
    # the hyperplanes of one expansion with the same restriction share one
    # call; 186 when, besides, one hyperplane per orbit of the summand
    # scalings of the canonical block sum is expanded.  The pass over Q
    # made 186 `_count` calls, and 206 without the sharing; it makes 139
    # `_class_count` calls now that the children of one expansion with the
    # same class share one call.
    partitions, calls = _zigzag_calls(monkeypatch, RATIONALS)
    assert partitions < calls <= 190


def test_node_count_does_not_grow_with_q(monkeypatch):
    # In type A every part has at most one stable functional at a vertex, so
    # an expansion has one child per non-empty set of blocks, whatever q is,
    # and the recursion over F_q visits the nodes of the one over Q.
    counts = {_zigzag_calls(monkeypatch, galois_field(q)) for q in (3, 5, 7, 13)}
    assert counts == {_zigzag_calls(monkeypatch, RATIONALS)}


def _a2_pair():
    """The class of M(1,1) + M(1,0) for A2 1->2: two blocks with one
    functional each at the source 1."""
    kps = enumerate_kp(A2.datum, (2, 1), adapted_order(A2))
    return next(lam for lam in kps if (1, 1) in lam.parts())


# the pass over Q, where counts are polynomials, and a pass over F_3
BOTH_PASSES = (RATIONALS, galois_field(3))


def _count_a2_pair(F):
    M = rep_of_kp(_a2_pair(), F)
    return flag_fibers._count(A2, F, M.dims, M.mats)


def test_stable_functionals_short_of_the_euler_form_are_rejected(monkeypatch):
    # M(beta) has max(<beta, alpha_i>, 0) stable functionals at i; a
    # nullspace that drops one of them must not go unnoticed
    original = flag_fibers.nullspace
    monkeypatch.setattr(
        flag_fibers, "nullspace", lambda F, rows, ncols: original(F, rows, ncols=ncols)[1:]
    )
    for F in BOTH_PASSES:
        with pytest.raises(VerificationError, match="not max"):
            _count_a2_pair(F)


def test_orbit_weights_short_of_the_hyperplanes_are_rejected(monkeypatch):
    original = flag_fibers._projective_coefficients
    monkeypatch.setattr(
        flag_fibers,
        "_projective_coefficients",
        lambda F, c: itertools.islice(original(F, c), 1, None),
    )
    for F in BOTH_PASSES:
        with pytest.raises(VerificationError, match="do not add up"):
            _count_a2_pair(F)


# --- the class memo: each restriction is classified once per (quiver, field)


def _classifications(monkeypatch, F) -> tuple[list, list, list]:
    """The restrictions passed to `iso_class`, as (dims, mats); the keys
    passed to `_touched_class`; and the block sums, as (dims, mats), passed
    to `_count`: in the recursion over F started at the block sum of every
    lam of A3 1->2<-3, nu=(2,2,2)."""
    classified, reached, started = [], [], []
    count, touched = flag_fibers._count, flag_fibers._touched_class
    classify = flag_fibers.iso_class

    def counting(Q, F, dims, mats):
        if any(x != F.zero for m in mats for row in m for x in row):
            started.append((dims, mats))
        return count(Q, F, dims, mats)

    def reaching(order, F, key):
        reached.append(key)
        return touched(order, F, key)

    def recording(M):
        classified.append((M.dims, M.mats))
        return classify(M)

    monkeypatch.setattr(flag_fibers, "_count", counting)
    monkeypatch.setattr(flag_fibers, "_touched_class", reaching)
    monkeypatch.setattr(flag_fibers, "iso_class", recording)
    for lam in enumerate_kp(A3ZIG.datum, (2, 2, 2), adapted_order(A3ZIG)):
        M = rep_of_kp(lam, F)
        flag_fibers._count(A3ZIG, F, M.dims, M.mats)
    monkeypatch.undo()
    return classified, reached, started


@pytest.mark.parametrize("F", [RATIONALS, galois_field(7)], ids=["Q", "F7"])
def test_each_restriction_is_classified_once(monkeypatch, F):
    classified, reached, started = _classifications(monkeypatch, F)
    # some keys are reached by more than one expansion, and each key, like
    # each block sum passed to `_count`, is classified once
    assert len(reached) > len(set(reached))
    assert len(started) == len(set(started))
    assert len(classified) == len(set(reached)) + len(started)
    assert flag_fibers._class_memo(A3ZIG, F).keys() == set(reached) | set(started)


def test_a_count_over_q_fills_no_memo_over_f_q(tmp_path, capsys):
    path = tmp_path / "a3.quiver"
    path.write_text("type A3\n1 -> 2\n3 -> 2\n")
    assert main(["count", "fibers", str(path), "2,2,2", "--q", "2,3,4,5"]) == 0
    capsys.readouterr()
    assert flag_fibers._class_memo(A3ZIG, RATIONALS)
    for q in (2, 3, 4, 5):
        assert flag_fibers._class_memo(A3ZIG, galois_field(q)) == {}, q


def test_held_out_counts_classify_over_their_own_field():
    lam = KostantPartition(adapted_order(A3LIN), (1, 1, 0, 1, 0, 0))  # nu = (0, 2, 2)
    assert evenness_check(lam, (2, 3, 4, 5, 7, 8, 9))
    assert flag_degree_bound(lam.nu) == 2  # so the held-out q are 5, 7, 8 and 9
    assert flag_fibers._class_memo(A3LIN, RATIONALS)
    for q in (5, 7, 8, 9):
        assert flag_fibers._class_memo(A3LIN, galois_field(q)), q
    for q in (2, 3, 4):  # the nodes count nothing over F_q
        assert flag_fibers._class_memo(A3LIN, galois_field(q)) == {}, q


def _semisimple(order, dims) -> KostantPartition:
    """The class of the semisimple module of the given dims."""
    counts = [0] * order.length
    for j, d in enumerate(dims):
        counts[order.beta.index(tuple(int(v == j) for v in range(len(dims))))] = d
    return KostantPartition(order, tuple(counts))


def test_the_recursion_over_f_q_reads_no_class_found_over_q():
    order = adapted_order(A3ZIG)
    kps = enumerate_kp(A3ZIG.datum, (2, 2, 2), order)
    polys = [fiber_polynomial(lam) for lam in kps]
    memo = flag_fibers._class_memo(A3ZIG, RATIONALS)
    # a wrong class for every restriction met over Q: the semisimple one of
    # its own dims, the touched parts less one at the key's vertex, so the
    # recursion still ends
    for i, touched in memo:
        dims = [sum(order.beta[k][j] for k, _ in touched) for j in range(order.datum.n)]
        dims[i - 1] -= 1
        memo[i, touched] = _semisimple(order, dims)
    flag_fibers._fiber_table.cache_clear()
    assert [fiber_polynomial(lam) for lam in kps] != polys  # the pass over Q reads them
    F = galois_field(5)
    for lam in kps:
        M = rep_of_kp(lam, F)
        assert flag_fibers._count(A3ZIG, F, M.dims, M.mats) == _reference_fiber(M), lam.counts
    # keys whose local functionals have entries 0 and 1 are equal over Q
    # and over F_5
    assert flag_fibers._class_memo(A3ZIG, F).keys() & memo.keys()


@pytest.mark.parametrize("Q", [A3LIN, A3ZIG, D4STAR], ids=["A3lin", "A3zig", "D4star"])
def test_restrictions_over_q_are_on_ints(monkeypatch, Q):
    classified = []
    classify = flag_fibers.iso_class

    def recording(M):
        classified.append((M.dims, M.mats))
        return classify(M)

    monkeypatch.setattr(flag_fibers, "iso_class", recording)
    order = adapted_order(Q)
    for nu in default_test_nus(Q.datum, 4) + ((2,) * Q.datum.n,):
        for lam in enumerate_kp(Q.datum, nu, order):
            fiber_polynomial(lam)
    memo = flag_fibers._class_memo(Q, RATIONALS)
    assert memo and len(classified) == len(memo)
    for i, touched in memo:
        assert all(type(x) is int for _, phi in touched for x in phi), (i, touched)
    for dims, mats in classified:
        assert all(type(x) is int for m in mats for row in m for x in row), (dims, mats)


def test_a_second_pass_reads_every_class_from_the_memo(monkeypatch):
    F = galois_field(3)
    kps = enumerate_kp(D4STAR.datum, (1, 2, 1, 1), adapted_order(D4STAR))
    for classified in (True, False):
        calls = 0
        classify = flag_fibers.iso_class

        def counting(M):
            nonlocal calls
            calls += 1
            return classify(M)

        monkeypatch.setattr(flag_fibers, "iso_class", counting)
        flag_fibers._fiber_table.cache_clear()  # the recursion runs again
        for lam in kps:
            M = rep_of_kp(lam, F)
            assert flag_fibers._count(D4STAR, F, M.dims, M.mats) == _reference_fiber(M)
        monkeypatch.undo()
        assert (calls > 0) == classified


def test_a_failed_classification_is_not_remembered(monkeypatch):
    def failing(M):
        raise VerificationError("negative multiplicity -1")

    monkeypatch.setattr(flag_fibers, "iso_class", failing)
    for F in BOTH_PASSES:
        for _ in range(2):
            with pytest.raises(VerificationError, match="negative multiplicity"):
                _count_a2_pair(F)
        assert flag_fibers._class_memo(A2, F) == {}
