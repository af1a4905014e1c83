"""Kostant partitions in a convex order, their prefix-sum order, and
restriction dominance.

A Kostant partition of a dimension vector nu is a multiplicity vector
(n_1, ..., n_N) over the beta-enumeration of a convex order, with
sum_k n_k beta_k = nu.  The partial order compares, for every k, the prefix
statistics T_k(n) = sum_{t<=k} C[k][t] n_t built from the order's pairing
matrix.

Two printed-vs-geometric convention choices (order direction and the Hom
formula direction) plus one genuinely ambiguous convention (which tensor
factor of a restriction carries the suffix block) are recorded in an
OrientationLedger, produced once by geometry.calibrate and treated as
immutable afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json

from .convex_order import ConvexOrder
from .errors import CapExceeded
from .quivers import Quiver
from .root_system import Root, Value

ORDER_DIRECTIONS = ("as-printed", "reversed")
HOM_DIRECTIONS = ("as-printed", "transposed")
RES_SIDES = ("first-factor", "second-factor")

# enumerate_kp raises CapExceeded past this many partitions
_KP_CAP = 1_000_000
# achievable_prefix_sums raises CapExceeded past this many steps
_PREFIX_SUM_CAP = 1_000_000


class OrientationLedger(Value):
    """Calibrated convention choices, frozen after calibration.

    order_direction: "as-printed" keeps T_k(lam) <= T_k(mu) as the meaning of
    lam <= mu; "reversed" flips the arguments, which is the normalization that
    makes closed orbits minimal in the orbit-closure order.

    hom_formula_direction: whether dim Hom(M(beta_k), M(beta_l)) equals
    max(C[k][l], 0) as written ("as-printed") or max(C[l][k], 0)
    ("transposed").

    res_large_side: in each local decomposition m_t beta_t = x_t + y_t of a
    restriction, which factor ranges over the suffix block
    N-span{beta_t, ..., beta_N}: the x factor ("first-factor", the one whose
    sums build achievable prefixes) or the y factor ("second-factor").
    """

    _fields = ("order_direction", "hom_formula_direction", "res_large_side")

    def __init__(
        self, order_direction: str, hom_formula_direction: str, res_large_side: str
    ) -> None:
        self.__dict__.update(
            order_direction=order_direction,
            hom_formula_direction=hom_formula_direction,
            res_large_side=res_large_side,
        )
        if self.order_direction not in ORDER_DIRECTIONS:
            raise ValueError(f"bad order_direction: {self.order_direction!r}")
        if self.hom_formula_direction not in HOM_DIRECTIONS:
            raise ValueError(f"bad hom_formula_direction: {self.hom_formula_direction!r}")
        if self.res_large_side not in RES_SIDES:
            raise ValueError(f"bad res_large_side: {self.res_large_side!r}")

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "OrientationLedger":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("ledger is not a JSON object")
        try:
            return OrientationLedger(**{f: data[f] for f in OrientationLedger._fields})
        except KeyError as missing:
            raise ValueError(f"ledger is missing field {missing}") from None


class KostantPartition(Value):
    """A multiplicity vector over the beta-enumeration of a convex order."""

    _fields = ("order", "counts")

    def __init__(self, order: ConvexOrder, counts: tuple[int, ...]) -> None:
        self.__dict__.update(order=order, counts=counts)
        if len(counts) != len(order.word):
            raise ValueError("multiplicity vector length does not match the order")
        if counts and min(counts) < 0:
            raise ValueError("multiplicities must be non-negative")

    @property
    def quiver(self) -> Quiver:
        """The quiver of the partition's order; only `adapted_order` sets one."""
        if self.order.quiver is None:
            raise ValueError("partition's order has no quiver attached")
        return self.order.quiver

    @property
    def nu(self) -> tuple[int, ...]:
        total = [0] * self.order.datum.n
        for c, supp in zip(self.counts, self.order.search_tables[0]):
            if c:
                for j, x in supp:
                    total[j] += c * x
        return tuple(total)

    def parts(self) -> tuple[Root, ...]:
        """The roots of the partition with multiplicity, in order position."""
        out: list[Root] = []
        for c, b in zip(self.counts, self.order.beta):
            out.extend([b] * c)
        return tuple(out)


def enumerate_kp(
    datum, nu: tuple[int, ...], order: ConvexOrder, cap: int | None = None
) -> tuple[KostantPartition, ...]:
    """All Kostant partitions of nu, ascending in the multiplicity vector.

    A depth-first search over n_1, n_2, ... that keeps `nz`, the bitmask of
    the vertices j with something left of nu[j].  It pins n_k at each
    vertex's last root k = order.last_root[j]: beta_k[j] = 1 and no later
    root has a nonzero j-th entry, so n_k must use up what is left of nu[j];
    every vertex has a last root, so every leaf of the search is a
    partition.  A root whose support leaves `nz` takes no part, and when it
    is also the last root of no vertex in `nz` it pins nothing, so the
    search steps over it in one loop of mask tests instead of a recursive
    call; a vertex in `nz` whose last root does not fit still ends its
    branch.  The masks come from order.search_tables, built once per order.

    Raises CapExceeded once there are more than `cap` partitions; `cap`
    defaults to, and never goes above, _KP_CAP.
    """
    if datum != order.datum:
        raise ValueError("datum does not match the order")
    if len(nu) != datum.n or any(x < 0 for x in nu):
        raise ValueError(f"bad dimension vector {nu}")
    N = order.length
    cap = _KP_CAP if cap is None else min(cap, _KP_CAP)
    support, support_mask, closing_mask = order.search_tables
    out: list[KostantPartition] = []
    counts = [0] * N

    def search(k: int, remaining: tuple[int, ...], nz: int) -> None:
        while k < N and support_mask[k] & ~nz and not closing_mask[k] & nz:
            k += 1
        if k == N:
            if len(out) == cap:
                raise CapExceeded(
                    f"KP({nu}) reached {cap + 1} partitions, over the cap {cap}"
                )
            out.append(KostantPartition(order, tuple(counts)))
            return
        supp = support[k]
        pinned = closing_mask[k] & nz
        low = max([remaining[j] for j, _ in supp if pinned >> j & 1]) if pinned else 0
        top = min([remaining[j] // x for j, x in supp])
        if low == 0:
            search(k + 1, remaining, nz)
            low = 1
        for c in range(low, top + 1):
            counts[k] = c
            rest = list(remaining)
            left = nz
            for j, x in supp:
                rest[j] -= c * x
                if not rest[j]:
                    left ^= 1 << j
            search(k + 1, tuple(rest), left)
        counts[k] = 0

    search(0, tuple(nu), sum(1 << j for j, x in enumerate(nu) if x))
    return tuple(out)


def prefix_statistics(lam: KostantPartition) -> tuple[int, ...]:
    """T_k(lam) = sum_{t<=k} C[k][t] lam_t for each k: each nonzero lam_t
    adds its column of C from row t down, once."""
    C = lam.order.pairings
    T = [0] * len(C)
    for t, c in enumerate(lam.counts):
        if c:
            for k in range(t, len(C)):
                T[k] += C[k][t] * c
    return tuple(T)


def _require_comparable(lam: KostantPartition, *others: KostantPartition) -> None:
    nu = lam.nu
    for mu in others:
        if mu.order is not lam.order and mu.order != lam.order:
            raise ValueError("partitions live over different convex orders")
        if mu.nu != nu:
            raise ValueError("partitions have different dimension vectors")


def kp_leq(lam: KostantPartition, mu: KostantPartition, ledger: OrientationLedger) -> bool:
    """The partition order in the calibrated direction."""
    a, b = order_keys((lam, mu), ledger.order_direction)
    return all(x <= y for x, y in zip(a, b))


def leq_bitsets(keys) -> list[int]:
    """Componentwise order on key vectors: bit j of entry i is set iff
    keys[i] <= keys[j] in every coordinate.

    Built one coordinate at a time, in O(N*K) dict and big-int operations:
    every entry starts with all K bits set, and each distinct column that
    takes more than one value maps each value x to the bitset of the j with
    keys[j] >= x (OR-accumulated from the largest value down), which every
    entry ANDs in at its own value.  A repeated column is applied once and a
    constant one not at all."""
    leq = [(1 << len(keys)) - 1] * len(keys)
    for column in set(zip(*keys)):
        at_least: dict[int, int] = {}
        for j, x in enumerate(column):
            at_least[x] = at_least.get(x, 0) | 1 << j
        if len(at_least) == 1:
            continue
        bits = 0
        for x in sorted(at_least, reverse=True):
            bits = at_least[x] = bits | at_least[x]
        leq = [row & at_least[x] for row, x in zip(leq, column)]
    return leq


def same_order(a, b) -> bool:
    """Whether the key lists a and b, over the same partitions, give the same
    componentwise order.  Equal lists decide it at once; otherwise the two
    relations are built and compared."""
    return a == b or leq_bitsets(a) == leq_bitsets(b)


def order_keys(kps, direction: str) -> list[tuple[int, ...]]:
    """Key vectors whose componentwise order is the partition order in the
    given order_direction: T(lam), negated for "reversed"."""
    if direction not in ORDER_DIRECTIONS:
        raise ValueError(f"bad order direction {direction!r}")
    sign = 1 if direction == "as-printed" else -1
    if kps:
        _require_comparable(kps[0], *kps[1:])
    return [tuple(sign * t for t in prefix_statistics(lam)) for lam in kps]


def cover_relations(
    kps: tuple[KostantPartition, ...], ledger: OrientationLedger
) -> list[tuple[KostantPartition, KostantPartition]]:
    """Covers a -> b of the calibrated partition order on kps, listed by the
    position of a in kps, then of b.

    Transitive reduction over bitsets (Aho, Garey and Ullman 1972): b covers
    a when b is strictly above a and above no element strictly above a.
    """
    leq = leq_bitsets(order_keys(kps, ledger.order_direction))
    strict = [bits & ~(1 << i) for i, bits in enumerate(leq)]
    covers = []
    for i, above in enumerate(strict):
        members = []
        while above:
            low = above & -above
            members.append(low.bit_length() - 1)
            above ^= low
        reach = 0
        for j in members:
            reach |= strict[j]
        covers.extend((kps[i], kps[j]) for j in members if not reach >> j & 1)
    return covers


def hasse_dot(kps: tuple[KostantPartition, ...], ledger: OrientationLedger) -> str:
    """Hasse diagram of the partition order on kps, one KP(nu), as DOT text.

    Edges point from lower to higher element; nodes are labelled by their
    multiplicity vectors.
    """
    name = {lam.counts: '"' + " ".join(map(str, lam.counts)) + '"' for lam in kps}
    lines = ["digraph kostant {", "  rankdir=BT;"]
    lines.extend(f"  {name[lam.counts]};" for lam in kps)
    lines.extend(
        f"  {name[a.counts]} -> {name[b.counts]};" for a, b in cover_relations(kps, ledger)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- restriction dominance -------------------------------------------------


@functools.cache
def _nat_span_contains(v: tuple[int, ...], roots: tuple[Root, ...]) -> bool:
    """Whether v is a sum of the given roots with non-negative multiplicities."""
    if all(x == 0 for x in v):
        return True
    for r in roots:
        if all(x >= y for x, y in zip(v, r)):
            if _nat_span_contains(tuple(x - y for x, y in zip(v, r)), roots):
                return True
    return False


def decomposition_first_parts(
    order: ConvexOrder, t: int, mult: int, side: str
) -> tuple[tuple[int, ...], ...]:
    """All x with mult*beta_t = x + y, x and y constrained to the two blocks.

    `side` is a res_large_side value: "first-factor" puts x in the suffix
    block N-span{beta_t, ..., beta_N} and y in the prefix block
    N-span{beta_1, ..., beta_t}; "second-factor" swaps the two constraints.
    Index t is 0-based.
    """
    if side not in RES_SIDES:
        raise ValueError(f"bad side {side!r}")
    target = tuple(mult * c for c in order.beta[t])
    prefix = tuple(order.beta[: t + 1])
    suffix = tuple(order.beta[t:])
    x_block, y_block = (suffix, prefix) if side == "first-factor" else (prefix, suffix)
    options = []
    for x in itertools.product(*(range(c + 1) for c in target)):
        y = tuple(a - b for a, b in zip(target, x))
        if _nat_span_contains(x, x_block) and _nat_span_contains(y, y_block):
            options.append(x)
    return tuple(options)


def achievable_prefix_sums(m: KostantPartition, side: str) -> frozenset[tuple[int, ...]]:
    """Attainable values of sum_t x_t over blockwise decompositions of m.

    Raises CapExceeded once the sweep takes more than _PREFIX_SUM_CAP steps.
    """
    n = m.order.datum.n
    sums: set[tuple[int, ...]] = {tuple(0 for _ in range(n))}
    work = 0
    for t, mult in enumerate(m.counts):
        if mult == 0:
            continue
        options = decomposition_first_parts(m.order, t, mult, side)
        new_sums: set[tuple[int, ...]] = set()
        for s in sums:
            for x in options:
                work += 1
                if work > _PREFIX_SUM_CAP:
                    raise CapExceeded(
                        f"restriction decomposition sweep of m={m.counts} reached "
                        f"{work} steps, over the cap {_PREFIX_SUM_CAP}"
                    )
                new_sums.add(tuple(a + b for a, b in zip(s, x)))
        sums = new_sums
    return frozenset(sums)


def _prefix_sums(lam: KostantPartition) -> list[tuple[int, ...]]:
    """The prefix sum_{t<=k} lam_t beta_t for each k."""
    prefix = (0,) * lam.order.datum.n
    sums = []
    for c, b in zip(lam.counts, lam.order.beta):
        if c:
            prefix = tuple(p + c * x for p, x in zip(prefix, b))
        sums.append(prefix)
    return sums


def mackey_dominance_check(
    kps: tuple[KostantPartition, ...], side: str
) -> list[tuple[KostantPartition, ...]]:
    """Restriction-achievable partitions that fail to dominate, for each m of
    one KP(nu).

    Entry i lists the n in kps whose every prefix sum_{t<=k} n_t beta_t is an
    achievable first-part sum of a restriction of m = kps[i] (with `side` as
    the res_large_side) but with T_k(n) <= T_k(m) failing for some k.  Under
    the calibrated "reversed" order direction, T(n) <= T(m) says n sits at or
    above m, so every entry is empty when restrictions only reach partitions
    that dominate m.
    """
    if side not in RES_SIDES:
        raise ValueError(f"bad side {side!r}")
    # bit j of dominated[i] is set iff T(kps[j]) <= T(kps[i])
    dominated = leq_bitsets(order_keys(kps, "reversed"))
    prefixes = [_prefix_sums(n) for n in kps]
    out = []
    for m, below in zip(kps, dominated):
        S = achievable_prefix_sums(m, side)
        out.append(
            tuple(
                n
                for j, n in enumerate(kps)
                if not below >> j & 1 and all(p in S for p in prefixes[j])
            )
        )
    return out
