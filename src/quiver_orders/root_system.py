"""Simply-laced Cartan data, roots, and reduced words.

Conventions used throughout the package:

* Vertices are numbered 1..n.  A_n is the path 1-2-...-n.  D_n is the path
  1-2-...-(n-2) with both n-1 and n attached to n-2 (so the centre of D4 is
  vertex 2).  E_n is the path 1-3-4-5-6(-7(-8)) with vertex 2 attached to 4.
* Roots are integer coordinate vectors in the simple-root basis; coweights are
  integer coordinate vectors in the fundamental-coweight basis.  With these
  bases the canonical pairing of a coweight x against a root v is the plain
  dot product, and the simple coroot alpha_i^vee has coordinates given by row
  i of the Cartan matrix.
* Words are tuples of vertex letters (1-based); a word (i_1, ..., i_m) means
  the product s_{i_1} * ... * s_{i_m}, applied to a vector right to left.
"""

from __future__ import annotations

import functools
from operator import attrgetter, mul

Root = tuple[int, ...]
Coweight = tuple[int, ...]
Word = tuple[int, ...]


class Value:
    """An immutable record compared, hashed and printed by its fields, as a
    frozen dataclass is.

    Each subclass names its fields in `_fields` and defines `__init__`, which
    stores them with one `__dict__.update` and then checks them, so
    `replace` checks again.  The hash is computed on first use and kept.
    The instance `__dict__` stays, so `functools.cached_property` works.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        d = self.__dict__
        if "_hash" not in d:
            d["_hash"] = hash(self._values(self))
        return d["_hash"]

    def _asdict(self) -> dict:
        """The fields by name, in `_fields` order."""
        return dict(zip(self._fields, self._values(self)))

    def __repr__(self) -> str:
        text = ", ".join(f"{f}={v!r}" for f, v in self._asdict().items())
        return f"{type(self).__qualname__}({text})"

    def replace(self, **changes):
        """A copy with some fields changed, checked again by `__init__`."""
        return type(self)(**{**self._asdict(), **changes})


class CartanDatum(Value):
    """A simply-laced Cartan matrix with its diagram, vertices 1..n."""

    _fields = ("label", "n", "cartan", "edges")

    def __init__(
        self,
        label: str,
        n: int,
        cartan: tuple[tuple[int, ...], ...],
        edges: tuple[tuple[int, int], ...],
    ) -> None:
        self.__dict__.update(label=label, n=n, cartan=cartan, edges=edges)

    @functools.cached_property
    def _simple_roots(self) -> tuple[Root, ...]:
        """The simple roots alpha_1..alpha_n, built once per datum."""
        n = self.n
        return tuple((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))

    def alpha(self, i: int) -> Root:
        """Coordinates of the simple root alpha_i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} outside 1..{self.n}")
        return self._simple_roots[i - 1]

    def omega(self, i: int) -> Coweight:
        """Coordinates of the fundamental coweight omega_i^vee."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.n))

    def vertices(self) -> range:
        return range(1, self.n + 1)


def _series_edges(family: str, n: int) -> tuple[tuple[int, int], ...]:
    if family == "A":
        return tuple((i, i + 1) for i in range(1, n))
    if family == "D":
        chain = tuple((i, i + 1) for i in range(1, n - 2))
        return chain + ((n - 2, n - 1), (n - 2, n))
    # E, vertices per the module docstring
    path = [(1, 3), (3, 4), (4, 5), (5, 6)]
    if n >= 7:
        path.append((6, 7))
    if n == 8:
        path.append((7, 8))
    path.append((2, 4))
    return tuple(sorted(path))


@functools.cache
def cartan_datum(label: str) -> CartanDatum:
    """Build the Cartan datum for a type label such as "A3", "D4", "E8";
    equal types give equal data ("a03" and "A3" both give label "A3")."""
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ADE" or not label[1:].isdigit():
        raise ValueError(f"not a simply-laced type label: {label!r}")
    family, n = label[0], int(label[1:])
    if family == "A" and n < 1:
        raise ValueError("A_n needs n >= 1")
    if family == "D" and n < 4:
        raise ValueError("D_n needs n >= 4")
    if family == "E" and n not in (6, 7, 8):
        raise ValueError("E_n needs n in {6, 7, 8}")
    edges = _series_edges(family, n)
    adjacent = {frozenset(e) for e in edges}
    cartan = tuple(
        tuple(
            2 if i == j else (-1 if frozenset((i, j)) in adjacent else 0)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    datum = CartanDatum(label=f"{family}{n}", n=n, cartan=cartan, edges=edges)
    _check_connected(datum)
    return datum


def _check_connected(datum: CartanDatum) -> None:
    if datum.n == 1:
        return
    seen = {1}
    frontier = [1]
    neighbours: dict[int, list[int]] = {i: [] for i in datum.vertices()}
    for a, b in datum.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    while frontier:
        v = frontier.pop()
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != datum.n:
        raise ValueError(f"diagram of {datum.label} is not connected")


def reflect_root(datum: CartanDatum, i: int, v: Root) -> Root:
    """Simple reflection s_i on root coordinates; only coordinate i changes."""
    if not 1 <= i <= datum.n:
        raise ValueError(f"vertex {i} outside 1..{datum.n}")
    return v[: i - 1] + (v[i - 1] - sum(map(mul, datum.cartan[i - 1], v)),) + v[i:]


def root_height(v: Root) -> int:
    return sum(v)


def is_positive(v: Root) -> bool:
    return any(c != 0 for c in v) and all(c >= 0 for c in v)


@functools.cache
def positive_roots(datum: CartanDatum) -> tuple[Root, ...]:
    """All positive roots, by saturation under simple reflections.

    Sorted by (height, coordinates), so simple roots come first.
    """
    roots = {datum.alpha(i) for i in datum.vertices()}
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for i in datum.vertices():
            w = reflect_root(datum, i, v)
            if is_positive(w) and w not in roots:
                roots.add(w)
                frontier.append(w)
    return tuple(sorted(roots, key=lambda r: (root_height(r), r)))


def num_positive_roots(datum: CartanDatum) -> int:
    return len(positive_roots(datum))


def times_simple(datum: CartanDatum, cols: list[Root], i: int) -> list[Root]:
    """Columns of w*s_i from the columns of w, column j being w(alpha_{j+1}).

    w*s_i(alpha_j) = w(alpha_j) - a_ij w(alpha_i); for j = i this is -w(alpha_i).
    Only the columns with a_ij != 0 change, and only those are rebuilt.
    """
    ci, out = cols[i - 1], list(cols)
    for j, a in enumerate(datum.cartan[i - 1]):
        if a:
            out[j] = tuple(x - a * c for x, c in zip(cols[j], ci))
    return out


def beta_sequence(datum: CartanDatum, w: Word) -> tuple[Root, ...]:
    """The roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) attached to the
    positions of a word (any word)."""
    cols = [datum.alpha(j) for j in datum.vertices()]
    out: list[Root] = []
    for i in w:
        if not 1 <= i <= datum.n:
            raise ValueError(f"letter {i} outside 1..{datum.n}")
        out.append(cols[i - 1])
        cols = times_simple(datum, cols, i)
    return tuple(out)
