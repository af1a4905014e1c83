from __future__ import annotations

import itertools

import pytest

from quiver_orders import quivers
from quiver_orders.quivers import (
    adapted_word_of_w0,
    is_adapted,
    linear_quiver,
    parse_quiver_file,
    quiver,
    reflect_quiver,
    sinks,
    sources,
)
from quiver_orders.root_system import beta_sequence, cartan_datum, num_positive_roots
from oracles import commutation_class, is_reduced, reduced_words_of_w0, searched_adapted_word


def _all_orientations(label):
    datum = cartan_datum(label)
    for flips in itertools.product((False, True), repeat=len(datum.edges)):
        arrows = tuple(
            (j, i) if flip else (i, j) for (i, j), flip in zip(datum.edges, flips)
        )
        yield quiver(label, arrows)


def test_quiver_construction_and_sinks():
    Q = quiver("A3", ((1, 2), (3, 2)))
    assert sinks(Q) == (2,)
    assert sources(Q) == (1, 3)
    assert Q.arrows_into(2) == (0, 1)  # indices into Q.arrows
    assert Q.arrows_out_of(1) == (0,)
    assert Q.arrows_into(1) == ()


def test_quiver_requires_orienting_each_edge():
    with pytest.raises(ValueError):
        quiver("A3", ((1, 2), (2, 1)))  # edge {2,3} missing, {1,2} doubled
    with pytest.raises(ValueError):
        quiver("A2", ((1, 3),))
    # a loop is never a diagram edge
    for arrows in [((1, 1),), ((1, 2), (2, 2))]:
        with pytest.raises(ValueError, match="orient the diagram edges exactly once"):
            quiver("A2", arrows)


def test_linear_quiver():
    Q = linear_quiver("A4")
    assert Q.arrows == ((1, 2), (2, 3), (3, 4))
    assert sinks(Q) == (4,)
    assert sources(Q) == (1,)


def test_reflect_quiver_flips_incident_arrows():
    Q = linear_quiver("A3")
    R = reflect_quiver(3, Q)
    assert R.arrows == ((1, 2), (3, 2))
    assert reflect_quiver(3, R) == Q
    with pytest.raises(ValueError):
        reflect_quiver(2, Q)  # neither sink nor source


def test_reflect_quiver_result_is_shared():
    Q = quiver("D4", ((1, 2), (3, 2), (4, 2)))
    twin = quiver("D4", ((1, 2), (3, 2), (4, 2)))
    assert twin == Q and twin is not Q
    for i in (1, 2, 3, 4):
        R = reflect_quiver(i, Q)
        assert reflect_quiver(i, Q) is R
        assert reflect_quiver(i, twin) is R


def test_reflect_quiver_rejects_inner_vertex_on_every_call():
    Q = linear_quiver("A3")
    for _ in range(3):
        with pytest.raises(ValueError, match="neither a sink nor a source"):
            reflect_quiver(2, Q)


def test_adapted_word_a2():
    Q = quiver("A2", ((2, 1),))
    assert adapted_word_of_w0(Q) == (1, 2, 1)
    Qop = quiver("A2", ((1, 2),))
    assert adapted_word_of_w0(Qop) == (2, 1, 2)


def test_adapted_word_linear_a3():
    # the smallest sink alone would end the word with 1, which is adapted but
    # not reduced; the loop takes the smallest sink with a positive column
    Q = linear_quiver("A3")
    assert adapted_word_of_w0(Q) == (3, 2, 1, 3, 2, 3)
    assert is_adapted((3, 2, 1, 3, 2, 1), Q)
    assert not is_reduced(Q.datum, (3, 2, 1, 3, 2, 1))


def test_adapted_word_equals_the_search_on_every_orientation():
    labels = [f"A{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    checked = 0
    for label in labels + ["E6", "E7", "E8"]:
        for Q in _all_orientations(label):
            assert adapted_word_of_w0(Q) == searched_adapted_word(Q), Q
            checked += 1
    assert checked == 726


def test_adapted_word_raises_when_no_sink_qualifies(monkeypatch):
    Q = linear_quiver("A3")
    monkeypatch.setattr(quivers, "is_positive", lambda v: False)
    with pytest.raises(RuntimeError, match="no adapted reduced word"):
        adapted_word_of_w0.__wrapped__(Q)


def test_adapted_word_is_checked_to_be_adapted(monkeypatch):
    Q = linear_quiver("A3")
    monkeypatch.setattr(quivers, "is_adapted", lambda w, Q: False)
    with pytest.raises(RuntimeError, match="failed verification"):
        adapted_word_of_w0.__wrapped__(Q)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4"])
def test_adapted_words_for_all_orientations(label):
    datum = cartan_datum(label)
    N = num_positive_roots(datum)
    for Q in _all_orientations(label):
        w = adapted_word_of_w0(Q)
        assert len(w) == N
        assert is_reduced(datum, w)
        assert is_adapted(w, Q)
        betas = beta_sequence(datum, w)
        assert len(set(betas)) == N


def test_is_adapted_examples():
    Q = quiver("A2", ((1, 2),))
    assert is_adapted((2, 1, 2), Q)
    assert not is_adapted((1, 2, 1), Q)
    # prefix of an adapted word is adapted
    assert is_adapted((2, 1), Q)
    assert is_adapted((2,), Q)


def test_commutation_class_a3():
    datum = cartan_datum("A3")
    w = (2, 1, 3, 2, 1, 3)
    cls = commutation_class(datum, w)
    assert w in cls
    assert all(is_reduced(datum, u) for u in cls)
    assert len(cls) == 4
    # classes partition the 16 reduced words
    seen: set[tuple[int, ...]] = set()
    sizes = []
    for word in reduced_words_of_w0(datum):
        if word in seen:
            continue
        c = commutation_class(datum, word)
        sizes.append(len(c))
        assert not (seen & set(c))
        seen.update(c)
    assert sorted(sizes) == [1, 1, 1, 1, 2, 2, 4, 4]
    assert sum(sizes) == 16


def test_parse_quiver_file():
    text = "# comment\ntype A3\n1 -> 2\n3 -> 2\n"
    Q = parse_quiver_file(text)
    assert Q == quiver("A3", ((1, 2), (3, 2)))
    Qlin = parse_quiver_file("type A4\norientation linear\n")
    assert Qlin == linear_quiver("A4")


def test_parse_quiver_file_errors():
    with pytest.raises(ValueError):
        parse_quiver_file("1 -> 2\n")  # missing type line
    with pytest.raises(ValueError):
        parse_quiver_file("type A2\n1 - 2\n")
    with pytest.raises(ValueError):
        parse_quiver_file("type A2\n")  # no arrows


def test_parse_quiver_file_rejects_a_second_type_line():
    with pytest.raises(ValueError, match="second 'type' line"):
        parse_quiver_file("type A2\ntype A3\n1 -> 2\n3 -> 2\n")
