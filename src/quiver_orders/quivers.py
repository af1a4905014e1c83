"""Orientations of simply-laced diagrams and sink-adapted words."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .root_system import (
    CartanDatum,
    Word,
    cartan_datum,
    is_positive,
    num_positive_roots,
    times_simple,
)


@dataclass(frozen=True)
class Quiver:
    """An orientation of the diagram of a Cartan datum.

    `arrows` is a tuple of (source, target) vertex pairs; each diagram edge
    appears exactly once.  Arrow order is preserved by quiver reflections so
    that representation matrices can stay aligned with it.
    """

    datum: CartanDatum
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        undirected = sorted(tuple(sorted(a)) for a in self.arrows)
        if undirected != sorted(self.datum.edges):
            raise ValueError("arrows do not orient the diagram edges exactly once")

    def arrows_into(self, i: int) -> tuple[int, ...]:
        """Indices into `arrows` of the arrows with target i."""
        return tuple(k for k, (_, t) in enumerate(self.arrows) if t == i)

    def arrows_out_of(self, i: int) -> tuple[int, ...]:
        return tuple(k for k, (s, _) in enumerate(self.arrows) if s == i)


def sinks(Q: Quiver) -> tuple[int, ...]:
    """Vertices with no outgoing arrow, ascending."""
    out = {s for s, _ in Q.arrows}
    return tuple(i for i in Q.datum.vertices() if i not in out)


def sources(Q: Quiver) -> tuple[int, ...]:
    inc = {t for _, t in Q.arrows}
    return tuple(i for i in Q.datum.vertices() if i not in inc)


@functools.cache
def reflect_quiver(i: int, Q: Quiver) -> Quiver:
    """Reverse every arrow incident to vertex i (valid at sinks and sources);
    cached, so each (i, Q) has one shared result (at most n * 2^(n-1) of them)."""
    if i not in sinks(Q) and i not in sources(Q):
        raise ValueError(f"vertex {i} is neither a sink nor a source")
    flipped = tuple((t, s) if s == i or t == i else (s, t) for s, t in Q.arrows)
    return Quiver(Q.datum, flipped)


def linear_quiver(datum: CartanDatum | str) -> Quiver:
    """The orientation pointing every edge from its lower to its higher vertex."""
    if isinstance(datum, str):
        datum = cartan_datum(datum)
    return Quiver(datum, tuple(datum.edges))


def quiver(label: str, arrows: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Quiver:
    return Quiver(cartan_datum(label), tuple(arrows))


def is_adapted(w: Word, Q: Quiver) -> bool:
    """True iff each letter i_k is a sink of sigma_{i_{k-1}}...sigma_{i_1}(Q)."""
    current = Q
    for i in w:
        if i not in sinks(current):
            return False
        current = reflect_quiver(i, current)
    return True


@functools.cache
def adapted_word_of_w0(Q: Quiver) -> Word:
    """The lexicographically least reduced word of w0 adapted to Q.

    Each letter is the smallest sink of the quiver reflected so far whose
    column under the prefix is a positive root, so the word is reduced by
    construction.  Picking the smallest sink without that test can leave the
    word unreduced (on the linear A3 quiver, for one).  The result is checked
    to be adapted; `build_order` checks the rest.
    """
    datum = Q.datum
    current, cols, word = Q, [datum.alpha(j) for j in datum.vertices()], []
    for _ in range(num_positive_roots(datum)):
        i = next((i for i in sinks(current) if is_positive(cols[i - 1])), None)
        if i is None:
            raise RuntimeError(f"no adapted reduced word of w0 found for {Q}")
        word.append(i)
        current, cols = reflect_quiver(i, current), times_simple(datum, cols, i)
    if not is_adapted(tuple(word), Q):
        raise RuntimeError("adapted word failed verification")
    return tuple(word)


def parse_quiver_file(text: str) -> Quiver:
    """Parse a quiver description.

    Format: one line "type A3", then either one "i -> j" line per edge or the
    single line "orientation linear".  Blank lines and #-comments ignored.
    """
    label: str | None = None
    arrows: list[tuple[int, int]] = []
    linear = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "type" and len(parts) == 2:
            if label is not None:
                raise ValueError(f"second 'type' line: {raw!r}")
            label = parts[1]
        elif parts[0] == "orientation" and parts[1:] == ["linear"]:
            linear = True
        elif len(parts) == 3 and parts[1] == "->":
            try:
                arrows.append((int(parts[0]), int(parts[2])))
            except ValueError as exc:
                raise ValueError(f"bad arrow line: {raw!r}") from exc
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
    if label is None:
        raise ValueError("missing 'type' line")
    datum = cartan_datum(label)
    if linear:
        if arrows:
            raise ValueError("give either 'orientation linear' or arrow lines, not both")
        return linear_quiver(datum)
    return Quiver(datum, tuple(arrows))
