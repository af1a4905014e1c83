"""Oracle for the pruned Kostant-partition enumeration and the sparse keys.

`enumerate_kp` prunes its depth-first search at each vertex's last root and
skips the zero entries of every root.  The reference below is the unpruned
search it replaced, kept verbatim: it tries every multiplicity that fits
under what is left of nu and keeps the leaves where nothing is left.  Both
must list the same multiplicity vectors in the same order for every nu with
|nu| <= 4 over the adapted order of every orientation of A2-A5, D4, D5 and
E6, over reduced words of w0 that are adapted to no orientation, and on two
larger cases: E6 with nu=(1,2,2,3,2,1) (622 partitions) and A4 with
nu=(3,4,3,3) (148).

`prefix_statistics`, `hom_profile` and `KostantPartition.nu` sum only over
the nonzero multiplicities; they are checked against the dense sums over
every index.  A separate test checks the fact the pruning docstring cites:
the last root with a nonzero j-th entry has that entry equal to 1.
"""

from __future__ import annotations

import itertools

import pytest

from quiver_orders.convex_order import adapted_order, build_order
from quiver_orders.geometry import default_test_nus, hom_profile
from quiver_orders.kostant import KostantPartition, enumerate_kp, prefix_statistics
from quiver_orders.quivers import Quiver, is_adapted, linear_quiver
from quiver_orders.reps import hom_matrix
from quiver_orders.root_system import cartan_datum
from oracles import reduced_words_of_w0

LABELS = ["A2", "A3", "A4", "A5", "D4", "D5", "E6"]
LARGE = [("E6", (1, 2, 2, 3, 2, 1), 622), ("A4", (3, 4, 3, 3), 148)]


def reference_enumerate(datum, nu, order):
    """The unpruned search, as enumerate_kp ran it before the pruning."""
    N = order.length
    beta = order.beta
    out: list[KostantPartition] = []
    counts = [0] * N

    def search(k: int, remaining: tuple[int, ...]) -> None:
        if k == N:
            if all(x == 0 for x in remaining):
                out.append(KostantPartition(order, tuple(counts)))
            return
        b = beta[k]
        top = min(
            (rem // c for rem, c in zip(remaining, b) if c > 0), default=0
        )
        for c in range(top + 1):
            counts[k] = c
            search(k + 1, tuple(r - c * x for r, x in zip(remaining, b)))
        counts[k] = 0

    search(0, tuple(nu))
    return tuple(out)


def orientations(label: str):
    datum = cartan_datum(label)
    for flips in itertools.product((False, True), repeat=len(datum.edges)):
        yield Quiver(
            datum, tuple((j, i) if f else (i, j) for (i, j), f in zip(datum.edges, flips))
        )


def assert_same_enumeration(datum, nus, order):
    for nu in nus:
        got = [lam.counts for lam in enumerate_kp(datum, nu, order)]
        assert got == [lam.counts for lam in reference_enumerate(datum, nu, order)], (
            order.word,
            nu,
        )


@pytest.mark.parametrize("label", LABELS)
def test_adapted_orders_match_reference(label):
    nus = ((0,) * cartan_datum(label).n,) + default_test_nus(cartan_datum(label), 4)
    for Q in orientations(label):
        assert_same_enumeration(Q.datum, nus, adapted_order(Q))


@pytest.mark.parametrize("label, step", [("A3", 1), ("A4", 37), ("D4", 401)])
def test_non_adapted_words_match_reference(label, step):
    datum = cartan_datum(label)
    quivers = list(orientations(label))
    words = [
        w
        for w in reduced_words_of_w0(datum)[::step]
        if not any(is_adapted(w, Q) for Q in quivers)
    ]
    assert len(words) >= 4
    for w in words:
        assert_same_enumeration(datum, default_test_nus(datum, 4), build_order(datum, w))


@pytest.mark.parametrize("label, nu, size", LARGE, ids=[label for label, _, _ in LARGE])
def test_large_cases_match_reference(label, nu, size):
    order = adapted_order(linear_quiver(label))
    assert len(enumerate_kp(order.datum, nu, order)) == size
    assert_same_enumeration(order.datum, [nu], order)


@pytest.mark.parametrize("label", ["A3", "A4", "D4"])
def test_last_root_of_each_vertex_has_coefficient_one(label):
    """The fact the enumerate_kp docstring cites: on every reduced word of w0,
    the last beta with a nonzero j-th entry has that entry equal to 1, and
    `last_root` records its position."""
    datum = cartan_datum(label)
    for w in reduced_words_of_w0(datum):
        order = build_order(datum, w)
        for j in range(datum.n):
            assert [b[j] for b in order.beta if b[j]][-1] == 1, (w, j)
            last = max(k for k, b in enumerate(order.beta) if b[j] != 0)
            assert order.last_root[j] == last, (w, j)


def dense_checks(lam: KostantPartition, G) -> None:
    n, C, N = lam.counts, lam.order.pairings, lam.order.length
    assert prefix_statistics(lam) == tuple(
        sum(C[k][t] * n[t] for t in range(k + 1)) for k in range(N)
    )
    assert hom_profile(lam) == tuple(
        sum(n[k] * G[k][l] for k in range(N)) for l in range(N)
    )
    assert lam.nu == tuple(
        sum(n[k] * lam.order.beta[k][j] for k in range(N)) for j in range(lam.order.datum.n)
    )


@pytest.mark.parametrize("label", LABELS)
def test_sparse_keys_match_dense_sums(label):
    Q = next(orientations(label))
    order = adapted_order(Q)
    G = hom_matrix(Q)
    nus = default_test_nus(Q.datum, 4)
    nus += tuple(nu for large, nu, _ in LARGE if large == label)
    checked = 0
    for nu in nus:
        for lam in enumerate_kp(Q.datum, nu, order):
            dense_checks(lam, G)
            checked += 1
    assert checked >= len(nus)
