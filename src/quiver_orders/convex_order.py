"""Convex enumerations of the positive roots from reduced words of w0.

A reduced word (i_1, ..., i_N) of the longest element lists each positive
root exactly once via beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}).  The
companion coweights gamma_k = -s_{i_1}...s_{i_k}(omega_{i_k}^vee) pair
against the betas with a fixed sign pattern: the matrix
C[k][l] = <gamma_k, beta_l> has unit diagonal, non-positive entries strictly
above it and non-negative entries strictly below it.  Prefix sums of rows of
C drive the partition order in kostant.py.
"""

from __future__ import annotations

import functools
from operator import mul

from .quivers import Quiver, adapted_word_of_w0
from .root_system import (
    CartanDatum,
    Coweight,
    Root,
    Value,
    Word,
    beta_sequence,
    is_positive,
    num_positive_roots,
    positive_roots,
)


class ConvexOrder(Value):
    """A reduced word of w0 together with its beta, gamma and pairing data.

    last_root[j] is the last k with beta_k[j] != 0.  That entry is 1 (the
    tail of the word lies in the parabolic subgroup of the other vertices),
    and for an adapted order M(beta_k) is the injective I(j + 1).

    quiver is set by `adapted_order` alone, so an order that carries a quiver
    is its canonical adapted order, the one `reps.hom_matrix` is indexed by.
    """

    _fields = ("datum", "word", "beta", "gamma", "pairings", "last_root", "quiver")

    def __init__(
        self,
        datum: CartanDatum,
        word: Word,
        beta: tuple[Root, ...],
        gamma: tuple[Coweight, ...],
        pairings: tuple[tuple[int, ...], ...],
        last_root: tuple[int, ...],
        quiver: Quiver | None = None,
    ) -> None:
        self.__dict__.update(
            datum=datum, word=word, beta=beta, gamma=gamma, pairings=pairings,
            last_root=last_root, quiver=quiver,
        )

    @property
    def length(self) -> int:
        return len(self.word)

    @functools.cached_property
    def _positions(self) -> dict[Root, int]:
        """Each root's position in `beta`, built once per order."""
        return {b: k for k, b in enumerate(self.beta)}

    def index_of(self, root: Root) -> int:
        """Position (0-based) of a positive root in the enumeration; raises
        ValueError for any other vector."""
        try:
            return self._positions[root]
        except KeyError:
            raise ValueError(f"{root} is not a positive root of the order") from None

    @functools.cached_property
    def search_tables(
        self,
    ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...], tuple[int, ...]]:
        """The search tables of `kostant.enumerate_kp`, built once per order.

        For each root k: the pairs (j, beta_k[j]) with beta_k[j] > 0, the
        bitmask of those j, and the bitmask of the j with last_root[j] = k.
        """
        support = tuple(tuple((j, x) for j, x in enumerate(b) if x) for b in self.beta)
        closing = [0] * self.length
        for j, k in enumerate(self.last_root):
            closing[k] |= 1 << j
        return support, tuple(sum(1 << j for j, _ in s) for s in support), tuple(closing)


def build_order(datum: CartanDatum, word: Word) -> ConvexOrder:
    """Build the convex-order data of a reduced word of w0, with no quiver."""
    word = tuple(word)
    beta = beta_sequence(datum, word)
    if not all(is_positive(b) for b in beta):
        raise ValueError(f"word {word} is not reduced")
    if len(word) != num_positive_roots(datum):
        raise ValueError("word is reduced but not a word of the longest element")
    if sorted(beta) != sorted(positive_roots(datum)):
        raise ValueError("beta sequence does not enumerate the positive roots")
    # the letters between two occurrences of i fix omega_i, so
    # gamma_k = gamma_k' + beta_k^vee, with k' the previous i and
    # gamma_k' = -omega_i before the first; beta^vee has coordinates cartan.beta
    latest = {i: tuple(-c for c in datum.omega(i)) for i in datum.vertices()}
    gamma = []
    for i, b in zip(word, beta):
        latest[i] = tuple(
            g + sum(a * x for a, x in zip(row, b)) for g, row in zip(latest[i], datum.cartan)
        )
        gamma.append(latest[i])
    # <gamma, beta> is the dot product in these bases (see root_system)
    pairings = tuple(tuple(sum(map(mul, g, b)) for b in beta) for g in gamma)
    for k in range(len(word)):
        if pairings[k][k] != 1:
            raise ValueError(f"pairing <gamma_{k+1}, beta_{k+1}> is not 1")
    return ConvexOrder(
        datum=datum,
        word=word,
        beta=beta,
        gamma=tuple(gamma),
        pairings=pairings,
        last_root=tuple(max(k for k, b in enumerate(beta) if b[j]) for j in range(datum.n)),
    )


@functools.cache
def adapted_order(Q: Quiver) -> ConvexOrder:
    """The convex order of the canonical adapted word of a quiver, the only
    order that carries one."""
    return build_order(Q.datum, adapted_word_of_w0(Q)).replace(quiver=Q)


def pairing_sign_report(order: ConvexOrder) -> tuple[tuple[int, int, int], ...]:
    """Check C[k][k] = 1, C[k][l] <= 0 for k < l, C[k][l] >= 0 for k > l.

    Returns the violations as (k, l, value) with 0-based indices, row by row.
    """
    bad: list[tuple[int, int, int]] = []
    C = order.pairings
    for k in range(order.length):
        for l in range(order.length):
            v = C[k][l]
            if k == l and v != 1:
                bad.append((k, l, v))
            elif k < l and v > 0:
                bad.append((k, l, v))
            elif k > l and v < 0:
                bad.append((k, l, v))
    return tuple(bad)
