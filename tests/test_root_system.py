from __future__ import annotations

import itertools

import pytest

from quiver_orders.root_system import (
    beta_sequence,
    cartan_datum,
    is_positive,
    num_positive_roots,
    positive_roots,
    reflect_root,
)
from oracles import is_reduced, pairing, reduced_words_of_w0, reflect_coweight

ROOT_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "D4": 12,
    "D5": 20,
    "E6": 36,
    "E7": 63,
    "E8": 120,
}


@pytest.mark.parametrize("label,count", sorted(ROOT_COUNTS.items()))
def test_positive_root_counts(label, count):
    assert num_positive_roots(cartan_datum(label)) == count


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "E6"])
def test_positive_roots_match_norm_two_vectors(label):
    # independent oracle: the positive roots are exactly the non-negative
    # integer vectors of Cartan norm 2 (coordinates of ADE roots are <= 6,
    # and <= 3 for these ranks)
    datum = cartan_datum(label)
    A = datum.cartan
    n = datum.n
    expected = set()
    for v in itertools.product(range(4), repeat=n):
        if any(v):
            norm = sum(A[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            if norm == 2:
                expected.add(v)
    assert set(positive_roots(datum)) == expected


def test_cartan_matrix_shape_and_positivity():
    for label in ["A1", "A3", "D4", "E6", "E7", "E8"]:
        datum = cartan_datum(label)
        A = datum.cartan
        n = datum.n
        assert all(A[i][i] == 2 for i in range(n))
        assert all(A[i][j] == A[j][i] for i in range(n) for j in range(n))
        assert all(A[i][j] in (0, -1) for i in range(n) for j in range(n) if i != j)
        # leading principal minors positive (exact integer determinants)
        for k in range(1, n + 1):
            sub = [row[:k] for row in A[:k]]
            assert _det(sub) > 0


def _det(rows) -> int:
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    assert det.denominator == 1
    return int(det)


def test_equal_types_give_equal_data():
    for spelling in ["A03", "a3", " A3 ", "A003"]:
        assert cartan_datum(spelling) == cartan_datum("A3")
        assert cartan_datum(spelling).label == "A3"
    assert cartan_datum("e08").label == "E8"
    assert cartan_datum("D04") != cartan_datum("D5")


def test_bad_labels_rejected():
    for bad in ["B2", "D3", "E9", "A0", "foo", "E5"]:
        with pytest.raises(ValueError):
            cartan_datum(bad)


def test_reflections_are_involutions_on_all_roots():
    for label in ["A3", "D4", "E6", "E8"]:
        datum = cartan_datum(label)
        for v in positive_roots(datum):
            for i in datum.vertices():
                assert reflect_root(datum, i, reflect_root(datum, i, v)) == v


@pytest.mark.parametrize("label", ["A1", "A3", "E8"])
def test_a_vertex_outside_the_diagram_is_rejected(label):
    """i = 0 would read row cartan[-1] and i = n + 1 run off the rows; both
    are refused, by `reflect_root` and by `alpha` alike."""
    datum = cartan_datum(label)
    v = positive_roots(datum)[-1]
    for i in (0, datum.n + 1):
        with pytest.raises(ValueError, match=rf"^vertex {i} outside 1\.\.{datum.n}$"):
            reflect_root(datum, i, v)
        with pytest.raises(ValueError, match=rf"^vertex {i} outside 1\.\.{datum.n}$"):
            datum.alpha(i)
    assert [datum.alpha(i) for i in datum.vertices()] == [
        tuple(int(j == i) for j in datum.vertices()) for i in datum.vertices()
    ]


def test_reflection_permutes_other_positive_roots():
    # s_i negates alpha_i and permutes the remaining positive roots
    for label in ["A3", "D4"]:
        datum = cartan_datum(label)
        pos = set(positive_roots(datum))
        for i in datum.vertices():
            image = {reflect_root(datum, i, v) for v in pos if v != datum.alpha(i)}
            assert image == pos - {datum.alpha(i)}


def test_pairing_is_weyl_invariant():
    datum = cartan_datum("D4")
    for v in positive_roots(datum):
        for i in datum.vertices():
            x = datum.cartan[(i + 1) % 4]
            lhs = pairing(datum, reflect_coweight(datum, i, x), reflect_root(datum, i, v))
            assert lhs == pairing(datum, x, v)


def test_pairing_of_coroot_against_simple_root_is_cartan_entry():
    datum = cartan_datum("E6")
    for i in datum.vertices():
        for j in datum.vertices():
            assert pairing(datum, datum.cartan[i - 1], datum.alpha(j)) == datum.cartan[i - 1][j - 1]


def _perm_of_word(n_letters: int, w) -> tuple[int, ...]:
    # adjacent-transposition model of A_n, independent of the root machinery
    perm = list(range(1, n_letters + 2))
    for i in w:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def _inversions(perm) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


@pytest.mark.parametrize("label,max_len", [("A2", 6), ("A3", 7)])
def test_is_reduced_matches_permutation_inversions(label, max_len):
    datum = cartan_datum(label)
    n = datum.n
    for length in range(max_len + 1):
        for w in itertools.product(range(1, n + 1), repeat=length):
            expected = _inversions(_perm_of_word(n, w)) == length
            assert is_reduced(datum, w) == expected


def test_is_reduced_examples():
    d = cartan_datum("A2")
    assert is_reduced(d, (2, 1, 2))
    assert not is_reduced(d, (2, 2))
    assert not is_reduced(d, (2, 1, 2, 1))  # longer than the root count
    assert is_reduced(d, ())


def test_beta_sequence_enumerates_positive_roots():
    d = cartan_datum("A2")
    assert beta_sequence(d, (2, 1, 2)) == ((0, 1), (1, 1), (1, 0))
    for label in ["A3", "D4"]:
        datum = cartan_datum(label)
        word = reduced_words_of_w0(datum)[0]
        assert sorted(beta_sequence(datum, word)) == sorted(positive_roots(datum))


def _count_reduced_words_via_descents(n_letters: int) -> int:
    # independent count: peel right descents of the reversal permutation
    from functools import lru_cache

    w0 = tuple(range(n_letters + 1, 0, -1))

    @lru_cache(maxsize=None)
    def count(perm: tuple[int, ...]) -> int:
        if _inversions(perm) == 0:
            return 1
        total = 0
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                nxt = list(perm)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                total += count(tuple(nxt))
        return total

    return count(w0)


def test_reduced_words_of_w0_enumeration():
    d2 = cartan_datum("A2")
    assert reduced_words_of_w0(d2) == ((1, 2, 1), (2, 1, 2))
    d3 = cartan_datum("A3")
    words = reduced_words_of_w0(d3)
    assert len(words) == 16
    assert len(words) == _count_reduced_words_via_descents(3)
    assert len(set(words)) == 16
    assert list(words) == sorted(words)
    for w in words:
        assert is_reduced(d3, w)
        assert all(is_positive(b) for b in beta_sequence(d3, w))


def test_reduced_words_of_w0_a1():
    assert reduced_words_of_w0(cartan_datum("A1")) == ((1,),)
