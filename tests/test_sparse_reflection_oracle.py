"""Oracle for the sparse bodies of `root_system.reflect_root` and
`root_system.times_simple`.

`reflect_root` takes one dot product with row i of the Cartan matrix and
rebuilds only coordinate i; `times_simple` rebuilds only the columns j with
a_ij != 0.  `oracles.dense_reflect_root` and `oracles.dense_times_simple`
are the bodies they replaced, which rebuild every coordinate and every
column.  The two must agree on every (+-root, vertex) pair of E8 and on
every prefix of the adapted word of every orientation of D4, D5 and E6, and
`build_order` must give the same order on those words with either body of
`times_simple`.
"""

from __future__ import annotations

import pytest

from quiver_orders import root_system
from quiver_orders.convex_order import build_order
from quiver_orders.quivers import adapted_word_of_w0
from quiver_orders.root_system import cartan_datum, positive_roots, reflect_root, times_simple
from oracles import dense_reflect_root, dense_times_simple, orientations


def test_reflect_root_on_every_root_and_vertex_of_e8():
    datum = cartan_datum("E8")
    roots = positive_roots(datum)
    assert len(roots) == 120
    for v in roots + tuple(tuple(-x for x in r) for r in roots):
        for i in datum.vertices():
            assert reflect_root(datum, i, v) == dense_reflect_root(datum, i, v), (v, i)


@pytest.mark.parametrize("label", ["D4", "D5", "E6"])
def test_every_prefix_of_every_adapted_word(label):
    """After each prefix w of the word: the columns of w from both bodies of
    `times_simple`, and beta_k = w(alpha_{i_k}) reflected letter by letter
    with both bodies of `reflect_root`."""
    every = orientations(label)
    assert len(every) == 2 ** (len(every[0].datum.edges))
    for Q in every:
        datum, word = Q.datum, adapted_word_of_w0(Q)
        cols = dense = [datum.alpha(j) for j in datum.vertices()]
        for k, i in enumerate(word):
            sparse_beta = dense_beta = datum.alpha(i)
            for j in reversed(word[:k]):
                sparse_beta = reflect_root(datum, j, sparse_beta)
                dense_beta = dense_reflect_root(datum, j, dense_beta)
            assert sparse_beta == dense_beta == cols[i - 1], (Q.arrows, k)
            cols, dense = times_simple(datum, cols, i), dense_times_simple(datum, dense, i)
            assert cols == dense, (Q.arrows, k)


@pytest.mark.parametrize("label", ["D4", "D5", "E6"])
def test_build_order_is_unchanged_on_the_adapted_words(label, monkeypatch):
    words = [adapted_word_of_w0(Q) for Q in orientations(label)]
    datum = cartan_datum(label)
    sparse = [build_order(datum, w) for w in words]
    letters = []

    def dense(datum, cols, i):
        letters.append(i)
        return dense_times_simple(datum, cols, i)

    monkeypatch.setattr(root_system, "times_simple", dense)
    assert [build_order(datum, w) for w in words] == sparse
    assert letters == [i for w in words for i in w]
