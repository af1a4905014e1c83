from __future__ import annotations

import itertools

import pytest

from quiver_orders.convex_order import adapted_order, build_order, pairing_sign_report
from quiver_orders.kostant import KostantPartition
from quiver_orders.quivers import adapted_word_of_w0, is_adapted, linear_quiver, quiver
from quiver_orders.root_system import cartan_datum
from oracles import commutation_class, pairing, reduced_words_of_w0, reflect_coweight


def test_a2_order_data_exact():
    datum = cartan_datum("A2")
    order = build_order(datum, (2, 1, 2))
    assert order.beta == ((0, 1), (1, 1), (1, 0))
    assert order.gamma == ((-1, 1), (0, 1), (1, 0))
    assert order.pairings == ((1, 0, -1), (1, 1, 0), (0, 1, 1))
    assert order.length == 3
    assert order.index_of((1, 1)) == 1  # 0-based position


def _defining_gamma(datum, word):
    """gamma_k = -s_{i_1}...s_{i_k}(omega_{i_k}), reflecting omega through the
    whole prefix: the formula `build_order` replaced by its one-pass update."""
    gamma = []
    for k, i in enumerate(word):
        x = datum.omega(i)
        for j in reversed(word[: k + 1]):
            x = reflect_coweight(datum, j, x)
        gamma.append(tuple(-c for c in x))
    return tuple(gamma)


@pytest.mark.parametrize("label,step", [("A1", 1), ("A2", 1), ("A3", 1), ("A4", 1), ("D4", 4)])
def test_gamma_matches_defining_formula_on_reduced_words(label, step):
    # every reduced word of w0, and every fourth of D4's 2,316
    datum = cartan_datum(label)
    for word in reduced_words_of_w0(datum)[::step]:
        assert build_order(datum, word).gamma == _defining_gamma(datum, word), word


@pytest.mark.parametrize(
    "label,orientations",
    [("D5", 16), ("D6", 16), ("E6", 16), ("E7", 16), ("E8", 4), ("A8", 16), ("D8", 16)],
)
def test_gamma_matches_defining_formula_on_adapted_words(label, orientations):
    datum = cartan_datum(label)
    flips = itertools.product((False, True), repeat=len(datum.edges))
    for flip in itertools.islice(flips, orientations):
        arrows = tuple((j, i) if f else (i, j) for (i, j), f in zip(datum.edges, flip))
        word = adapted_word_of_w0(quiver(label, arrows))
        assert build_order(datum, word).gamma == _defining_gamma(datum, word), arrows


def test_gamma_pairs_to_one_on_its_own_root():
    for label in ["A3", "D4"]:
        datum = cartan_datum(label)
        for word in reduced_words_of_w0(datum)[:4]:
            order = build_order(datum, word)
            for k in range(order.length):
                assert pairing(datum, order.gamma[k], order.beta[k]) == 1


@pytest.mark.parametrize("label", ["A4", "D5", "E6", "E8"])
def test_pairings_are_the_canonical_pairing(label):
    order = adapted_order(linear_quiver(label))
    assert order.pairings == tuple(
        tuple(pairing(order.datum, g, b) for b in order.beta) for g in order.gamma
    )


@pytest.mark.parametrize(
    "label,words",
    [
        ("A2", None),  # all 2 words
        ("A3", None),  # all 16 words
    ],
)
def test_sign_pattern_all_words(label, words):
    datum = cartan_datum(label)
    for word in words or reduced_words_of_w0(datum):
        violations = pairing_sign_report(build_order(datum, word))
        assert not violations, violations


def test_sign_pattern_adapted_d4():
    datum = cartan_datum("D4")
    for flips in itertools.product((False, True), repeat=3):
        arrows = tuple(
            (j, i) if flip else (i, j) for (i, j), flip in zip(datum.edges, flips)
        )
        Q = quiver("D4", arrows)
        violations = pairing_sign_report(adapted_order(Q))
        assert not violations, violations


def test_build_order_rejects_non_reduced_words():
    datum = cartan_datum("A2")
    with pytest.raises(ValueError):
        build_order(datum, (1, 1, 2))
    with pytest.raises(ValueError):
        build_order(datum, (1, 2))  # too short for w0


@pytest.mark.parametrize(
    "Q",
    [quiver("A3", ((1, 2), (3, 2))), quiver("D4", ((1, 2), (3, 2), (4, 2)))],
    ids=["A3-zigzag", "D4-star"],
)
def test_only_adapted_order_attaches_a_quiver(Q):
    words = [
        w for w in commutation_class(Q.datum, adapted_word_of_w0(Q)) if is_adapted(w, Q)
    ]
    assert len(words) > 1
    for w in words:
        order = build_order(Q.datum, w)
        assert order.quiver is None
        with pytest.raises(ValueError, match="no quiver attached"):
            KostantPartition(order, (0,) * order.length).quiver
        with pytest.raises(TypeError):
            build_order(Q.datum, w, quiver=Q)
    assert adapted_order(Q).quiver == Q


def test_adapted_order_carries_its_quiver():
    Q = quiver("A2", ((1, 2),))
    order = adapted_order(Q)
    assert order.quiver == Q
    assert order.word == (2, 1, 2)


def test_adjacent_commuting_swap_transposes_betas():
    # swapping commuting letters i,j with a_ij = 0 swaps the two betas
    datum = cartan_datum("A3")
    w = (1, 3, 2, 1, 3, 2)
    order = build_order(datum, w)
    swapped = build_order(datum, (3, 1, 2, 1, 3, 2))
    assert swapped.beta[0] == order.beta[1]
    assert swapped.beta[1] == order.beta[0]
    assert swapped.beta[2:] == order.beta[2:]


def test_first_gamma_relates_to_first_coweight():
    # gamma_1 = alpha_{i_1}^vee - omega_{i_1}^vee in coweight coordinates:
    # -s_{i_1}(omega_i) = alpha_i^vee - omega_i since <omega_i, alpha_i> = 1
    for label in ["A2", "A3", "D4"]:
        datum = cartan_datum(label)
        for word in reduced_words_of_w0(datum)[:2]:
            order = build_order(datum, word)
            i = word[0]
            expected = tuple(
                a - o
                for a, o in zip(datum.cartan[i - 1], datum.omega(i))
            )
            assert order.gamma[0] == expected
