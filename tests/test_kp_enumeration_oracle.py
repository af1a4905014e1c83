"""Oracle for the pruned Kostant-partition enumeration and the sparse keys.

`enumerate_kp` pins each vertex's last root, steps over the roots that can
take no part and skips the zero entries of every root.  The reference below
is the unpruned search it replaced, kept verbatim: it tries every
multiplicity that fits under what is left of nu and keeps the leaves where
nothing is left.  Both must list the same multiplicity vectors in the same
order for every nu with |nu| <= 4 over the adapted order of every
orientation of A2-A5, D4 and E6, and |nu| <= 5 for D5, over reduced words of
w0 that are adapted to no orientation, and on three larger cases: E6 with
nu=(1,2,2,3,2,1) (622 partitions), E7 with nu=(1,2,2,3,2,1,1) (1,244) and
A4 with nu=(3,4,3,3) (148).  Two guards count the calls of the search, so
that the skip cannot quietly go.

`prefix_statistics`, `hom_profile` and `KostantPartition.nu` sum only over
the nonzero multiplicities; they are checked against the dense sums over
every index.  A separate test checks the fact the pruning docstring cites:
the last root with a nonzero j-th entry has that entry equal to 1.
"""

from __future__ import annotations

import sys

import pytest

from quiver_orders.convex_order import adapted_order, build_order
from quiver_orders.geometry import default_test_nus, hom_profile
from quiver_orders.kostant import KostantPartition, enumerate_kp, prefix_statistics
from quiver_orders.quivers import is_adapted, linear_quiver, quiver
from quiver_orders.reps import hom_matrix
from quiver_orders.root_system import cartan_datum
from oracles import orientations, reduced_words_of_w0

LABELS = ["A2", "A3", "A4", "A5", "D4", "D5", "E6"]
# the largest |nu| swept over every orientation, where it is not 4
NU_MAX = {"D5": 5}
LARGE = [
    ("E6", (1, 2, 2, 3, 2, 1), 622),
    ("E7", (1, 2, 2, 3, 2, 1, 1), 1244),
    ("A4", (3, 4, 3, 3), 148),
]


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


def assert_same_enumeration(datum, nus, order):
    for nu in nus:
        got = [lam.counts for lam in enumerate_kp(datum, nu, order)]
        assert got == [lam.counts for lam in reference_enumerate(datum, nu, order)], (
            order.word,
            nu,
        )


@pytest.mark.parametrize("label", LABELS)
def test_adapted_orders_match_reference(label):
    datum = cartan_datum(label)
    nus = ((0,) * datum.n,) + default_test_nus(datum, NU_MAX.get(label, 4))
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


def search_calls(enumerate_all):
    """Run enumerate_all(); return its result and the calls of functions
    named `search`, counted by a profile hook."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "search":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = enumerate_all()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_search_skips_roots_that_take_no_part_on_e6():
    # 9,676 calls when every root on every path is its own call; 2,917 when
    # the roots that can take no part are stepped over
    order = adapted_order(linear_quiver("E6"))
    kps, calls = search_calls(lambda: enumerate_kp(order.datum, (1, 2, 2, 3, 2, 1), order))
    assert len(kps) <= calls <= 3_000


def test_search_skips_roots_that_take_no_part_on_the_d5_sweep():
    # the sweep of `verify baumann --nu-max 5` on the D5 orientation the
    # benchmark's poset workload starts from: 20,916 calls without the skip,
    # 4,006 with it
    Q = quiver("D5", ((1, 2), (2, 3), (3, 4), (5, 3)))
    order = adapted_order(Q)
    nus = ((0,) * Q.datum.n,) + default_test_nus(Q.datum, 5)
    partitions, calls = search_calls(
        lambda: sum(len(enumerate_kp(Q.datum, nu, order)) for nu in nus)
    )
    assert partitions <= calls <= 4_100


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
    Q = orientations(label)[0]
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
