"""Routines only the tests call: enumerations, an older search and small
helpers, kept here as independent oracles for the package.

`searched_adapted_word` is the depth-first search that `adapted_word_of_w0`
replaced with one greedy loop, and `pairwise_leq_bitsets` the pair-by-pair
relation that `kostant.leq_bitsets` replaced with a per-coordinate build;
`full_restrictions` is the expansion step that `flag_fibers._expand`
replaced with one restriction per key of touched parts; the others left the
package because nothing in it calls them
(`pairing` checks the dot products `convex_order.build_order` takes inline,
`prime_powers` the CLI's literal default q list, and `dual_rep` the duality
S+_i = D S-_i D between the sink and source cases of
`reps.bgp_reflect_rep`).
`orientations` lists a diagram's quivers; `within_one_second` stops a call
that hangs.
"""

from __future__ import annotations

import contextlib
import itertools
import signal

from quiver_orders.convex_order import adapted_order
from quiver_orders.fields import factor_prime_power
from quiver_orders.flag_fibers import (
    _enough_q_values,
    _projective_coefficients,
    fiber_point_count,
    flag_degree_bound,
    lagrange_coefficients,
    z_point_count,
)
from quiver_orders.kostant import KostantPartition, enumerate_kp
from quiver_orders.linalg import nullspace, transpose
from quiver_orders.quivers import Quiver, reflect_quiver, sinks
from quiver_orders.reps import (
    QuiverRep,
    _block_sum,
    _require_same_context,
    all_indecomposables,
    orbit_point_count,
    rep_of_kp,
    rep_space_dim,
)
from quiver_orders.root_system import (
    CartanDatum,
    Coweight,
    Root,
    Word,
    beta_sequence,
    cartan_datum,
    is_positive,
    num_positive_roots,
    times_simple,
)


def orientations(label: str) -> tuple[Quiver, ...]:
    """Every orientation of the diagram; the first is the linear quiver."""
    datum = cartan_datum(label)
    return tuple(
        Quiver(datum, tuple((j, i) if f else (i, j) for (i, j), f in zip(datum.edges, flips)))
        for flips in itertools.product((False, True), repeat=len(datum.edges))
    )


def reduced_words_of_w0(datum: CartanDatum) -> tuple[Word, ...]:
    """All reduced words for the longest element, in lexicographic order."""
    total = num_positive_roots(datum)
    out: list[Word] = []

    def extend(cols: list[Root], word: list[int]) -> None:
        if len(word) == total:
            out.append(tuple(word))
            return
        for i in datum.vertices():
            if is_positive(cols[i - 1]):
                word.append(i)
                extend(times_simple(datum, cols, i), word)
                word.pop()

    extend([datum.alpha(j) for j in datum.vertices()], [])
    return tuple(out)


def is_reduced(datum: CartanDatum, w: Word) -> bool:
    """A word is reduced iff every beta_k is a positive root."""
    return all(is_positive(b) for b in beta_sequence(datum, w))


def pairing(datum: CartanDatum, x: Coweight, v: Root) -> int:
    """Canonical pairing <x, v> of a coweight against a root (dot product)."""
    if len(x) != datum.n or len(v) != datum.n:
        raise ValueError("coordinate length does not match the rank")
    return sum(a * b for a, b in zip(x, v))


def reflect_coweight(datum: CartanDatum, i: int, x: Coweight) -> Coweight:
    """Simple reflection s_i on coweight coordinates; every coordinate may change."""
    a = datum.cartan[i - 1]
    c = x[i - 1]
    return tuple(x[j] - c * a[j] for j in range(datum.n))


def commutation_class(datum: CartanDatum, w: Word) -> tuple[Word, ...]:
    """All words reachable from w by swapping adjacent commuting letters, sorted."""
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        u = frontier.pop()
        for k in range(len(u) - 1):
            a, b = u[k], u[k + 1]
            if a != b and datum.cartan[a - 1][b - 1] == 0:
                v = u[:k] + (b, a) + u[k + 2 :]
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return tuple(sorted(seen))


def searched_adapted_word(Q: Quiver) -> Word | None:
    """The lexicographically least reduced word of w0 adapted to Q, by
    depth-first search over sink choices that backtracks from dead ends.

    A candidate sink i is only viable when the current prefix sends alpha_i
    to a positive root, so the word is reduced by construction.
    """
    datum = Q.datum
    total = num_positive_roots(datum)

    def search(current: Quiver, cols: list[Root], word: list[int]) -> Word | None:
        if len(word) == total:
            return tuple(word)
        for i in sinks(current):
            if not is_positive(cols[i - 1]):
                continue
            word.append(i)
            found = search(reflect_quiver(i, current), times_simple(datum, cols, i), word)
            if found is not None:
                return found
            word.pop()
        return None

    return search(Q, [datum.alpha(j) for j in datum.vertices()], [])


def pairwise_leq_bitsets(keys) -> list[int]:
    """Componentwise order on key vectors from all K^2 pairs, each over every
    coordinate: bit j of entry i is set iff keys[i] <= keys[j]."""
    return [
        sum(1 << j for j, b in enumerate(keys) if all(x <= y for x, y in zip(a, b)))
        for a in keys
    ]


def prefix_flags(lam: KostantPartition, sums) -> tuple[bool, ...]:
    """For each k, whether the prefix sum_{t<=k} lam_t beta_t lies in `sums`."""
    prefix = (0,) * lam.order.datum.n
    flags = []
    for c, b in zip(lam.counts, lam.order.beta):
        prefix = tuple(p + c * x for p, x in zip(prefix, b))
        flags.append(prefix in sums)
    return tuple(flags)


def support_multiset(lam: KostantPartition) -> tuple[tuple[Root, int], ...]:
    """Canonical word-independent form: sorted (root, multiplicity) pairs."""
    return tuple(sorted((b, c) for c, b in zip(lam.counts, lam.order.beta) if c > 0))


def direct_sum(M: QuiverRep, N: QuiverRep) -> QuiverRep:
    _require_same_context(M, N)
    return _block_sum(M.quiver, M.field, (M, N))


def dual_rep(M: QuiverRep) -> QuiverRep:
    """The dual representation: every arrow reversed in place, every matrix
    transposed.

    Transposes are built from the dims, so a map into or out of a
    zero-dimensional space keeps its shape.
    """
    Q, d = M.quiver, M.dims
    mats = tuple(
        tuple(tuple(m[r][c] for r in range(d[t - 1])) for c in range(d[s - 1]))
        for (s, t), m in zip(Q.arrows, M.mats)
    )
    opposite = Quiver(Q.datum, tuple((t, s) for s, t in Q.arrows))
    return QuiverRep(opposite, M.field, d, mats)


def indecomposable(Q: Quiver, beta: Root, field) -> QuiverRep:
    reps = all_indecomposables(Q, field)
    if beta not in reps:
        raise ValueError(f"{beta} is not a positive root of {Q.datum.label}")
    return reps[beta]


def y_total_count(Q: Quiver, nu: tuple[int, ...], q: int) -> int:
    """Points of the total space of stable-flag pairs: sum of orbit * fiber."""
    return sum(
        orbit_point_count(lam, q) * fiber_point_count(lam, q)
        for lam in enumerate_kp(Q.datum, nu, adapted_order(Q))
    )


def full_restrictions(lam: KostantPartition, F):
    """The expansion step on the whole block sum M(lam) over F: for each orbit
    of the block scalings on its stable hyperplanes, (vertex i, the touched
    blocks as ((root index, functional on the block), ...), M(lam) restricted
    to the orbit's representative hyperplane).  The stable functionals come
    from M(lam)'s own nullspace at i, each checked to lie in one block."""
    Q, M, beta = lam.quiver, rep_of_kp(lam, F), lam.order.beta
    dims, mats = M.dims, M.mats
    root_of = [k for k, c in enumerate(lam.counts) for _ in range(c)]
    for i in Q.datum.vertices():
        d = dims[i - 1]
        if d == 0:
            continue
        in_idx = Q.arrows_into(i)
        out_idx = Q.arrows_out_of(i)
        image_rows = tuple(row for a in in_idx for row in transpose(mats[a]))
        block_of = [p for p, k in enumerate(root_of) for _ in range(beta[k][i - 1])]
        by_block: dict[int, list] = {}
        for f in nullspace(F, image_rows, ncols=d):
            (block,) = {block_of[j] for j in range(d) if f[j] != F.zero}
            by_block.setdefault(block, []).append(f)
        for size in range(1, len(by_block) + 1):
            for S in itertools.combinations(sorted(by_block.items()), size):
                points = (_projective_coefficients(F, len(g)) for _, g in S)
                for coeffs in itertools.product(*points):
                    phi = [F.zero] * d
                    for basis, cf in zip(
                        itertools.chain(*(g for _, g in S)), itertools.chain(*coeffs)
                    ):
                        if cf != F.zero:
                            for j in range(d):
                                phi[j] = F.add(phi[j], F.mul(cf, basis[j]))
                    touched = tuple(
                        (root_of[b], tuple(x for x, c in zip(phi, block_of) if c == b))
                        for b, _ in S
                    )
                    jstar = next(j for j in range(d) if phi[j] != F.zero)
                    inv = F.inv(phi[jstar])
                    ratio = [F.mul(inv, phi[j]) for j in range(d)]
                    new_dims = tuple(
                        d - 1 if v == i - 1 else dims[v] for v in range(Q.datum.n)
                    )
                    new_mats = list(mats)
                    for a in in_idx:
                        new_mats[a] = tuple(mats[a][r] for r in range(d) if r != jstar)
                    for a in out_idx:
                        new_mats[a] = tuple(
                            tuple(
                                F.sub(row[j], F.mul(ratio[j], row[jstar]))
                                for j in range(d)
                                if j != jstar
                            )
                            for row in mats[a]
                        )
                    yield i, touched, QuiverRep(Q, F, new_dims, tuple(new_mats))


def z_degree_bound(Q: Quiver, nu: tuple[int, ...]) -> int:
    return rep_space_dim(Q, nu) + 2 * flag_degree_bound(nu)


def z_polynomial_report(Q: Quiver, nu: tuple[int, ...], q_list) -> tuple[tuple, bool]:
    """The fibre-square count interpolated as a polynomial in q through the
    first z_degree_bound + 1 of the sorted q, and whether its coefficients
    are non-negative ints and it matches the count at every other q."""
    bound = z_degree_bound(Q, nu)
    qs = _enough_q_values(q_list, bound)
    coeffs = lagrange_coefficients((q, z_point_count(Q, nu, q)) for q in qs[: bound + 1])
    ok = all(c >= 0 and int(c) == c for c in coeffs) and all(
        sum(c * q**k for k, c in enumerate(coeffs)) == z_point_count(Q, nu, q)
        for q in qs[bound + 1 :]
    )
    return coeffs, ok


def prime_powers(count: int) -> tuple[int, ...]:
    """The first `count` prime powers, ascending, starting at 2."""
    out: list[int] = []
    q = 2
    while len(out) < count:
        try:
            factor_prime_power(q)
        except ValueError:
            pass
        else:
            out.append(q)
        q += 1
    return tuple(out)


class Overtime(Exception):
    """Raised by `within_one_second`; no handler in the package catches it."""


@contextlib.contextmanager
def within_one_second():
    """Raise Overtime in the block once it has run for one second."""

    def expire(signum, frame):
        raise Overtime("over 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
