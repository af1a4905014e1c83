"""Point counts of complete graded flag fibers over finite fields.

For a representation x with dimension vector nu over F_q, count the complete
chains of graded subspaces, each step dropping one dimension at one vertex,
with every member stable under all arrow maps.  The recursion picks the top
step: a stable graded hyperplane must contain the image subspace
U_i = sum of images of the arrows into i, so the choices at vertex i are the
hyperplanes through U_i, enumerated by projective classes of functionals
vanishing on U_i; the representation restricts to the hyperplane and the
count recurses.

The count F(M) depends only on the isomorphism class of M, so
F(M) = sum_i sum_H F(M|_H) is a recursion over classes (the Hall-number
form, Ringel 1990), and a count takes a class lam and q, like every other
point count: `fiber_point_count(lam, q)`.  Think of M(lam) as the sum of
one block M(beta) per part.  Scaling one block is an automorphism, and
every stable functional lies in a single block, so the hyperplanes fall
into orbits given by a non-empty set S of blocks and a projective point of
the functionals of each block in S; an orbit holds (q - 1)^(|S| - 1)
hyperplanes with isomorphic restrictions.  A hyperplane H = ker phi with
phi in the blocks S leaves the other blocks whole, so
M(lam)|_H = (sum_{b not in S} M_b) + ((sum_{b in S} M_b) cut by H), and by
Krull-Schmidt its class is lam - S plus the class of the touched
restriction.  So no block sum of lam is built: each root's stable
functionals at each vertex are read off its indecomposable once per
(quiver, field), their number checked against the Euler form
(max(<beta, alpha_i>, 0)); an orbit is keyed by its vertex and its touched
parts with their local functionals, equal keys of one expansion add their
weights, and each key is classified once per (quiver, field): the block sum
of its touched parts is restricted to its hyperplane and passed to
`reps.iso_class`.  A count short of the Euler form, or weights that do not
add up to the 1 + q + ... + q^(k-1) stable hyperplanes, raise
`VerificationError`.  Children of one expansion with the same class are
counted with one recursive call.

When every block has at most one stable functional at each vertex (every
class in type A), the orbits are the non-empty sets S alone: the key and the
weight do not depend on q.  So `fiber_polynomial(lam)` expands each class
once, over Q, with weights in Z[q], and gets its count as a polynomial in q
(ascending int coefficients); `fiber_point_count` checks q with
`fields.field_order`, which builds no field, and evaluates it.  That a
restriction has the same class over every F_q as over Q is not shown here:
the tests compare the polynomials with the recursion over F_q on a sweep,
and `evenness_check` tests each one itself (non-negative int coefficients,
degree at most `flag_degree_bound`) and against the recursion over F_q
alone, which never reads a polynomial, at its held-out q.  A class with a
block that has two or more functionals at a vertex has no polynomial here
(its hyperplanes are the points of a projective space over F_q, and their
restrictions fall into classes that depend on the point), and neither has
any class whose expansion reaches it; those classes are expanded once per q,
over F_q, by the same body, and only they are interpolated.  GF(q) is built
only for these recursions over F_q and for the held-out counts.  Each class
is expanded at most once per field, and its count kept in one table per
(quiver, field), keyed by the summand multiplicities lam.counts: polynomials
(or None) over Q, ints over F_q.  The classes of the touched restrictions
are kept in a second table per (quiver, field), which `_count`, the count of
a representation given by its matrices, shares, keyed by (dims, mats).  A
recursion over F_q reads only the tables of F_q.  Over Q a restriction keeps
int entries when the pivot of its hyperplane is 1 or -1, which
`Rationals.inv` returns as they are; the tests check that every restriction
of the A3 and D4 sweeps does.  The tables are shared by every count of the
process.

When every arrow matrix is zero (every part of lam is a simple root) there
is no stability constraint and the count has the closed form
multinomial(|d|; d) * prod_i [d_i]_q!; `_class_count` returns it on a table
miss, without storing it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add

from .convex_order import adapted_order
from .errors import CapExceeded, VerificationError
from .fields import RATIONALS, field_order, galois_field
from .kostant import KostantPartition, enumerate_kp
from .linalg import nullspace, rref, transpose
from .quivers import Quiver
from .reps import (
    QuiverRep,
    all_indecomposables,
    iso_class,
    orbit_point_count,
    rep_of_kp,
    rep_space_dim,
)

# a fiber table raises CapExceeded once it would hold more classes
_FIBER_CAP = 1_000_000


class _Poly(tuple):
    """A polynomial in q: its coefficients, ascending, with no trailing
    zeros; ints, except that `evenness_check` may interpolate Fractions.
    + - * and ** are polynomial arithmetic, with an int as a constant, and
    calling it at q evaluates it."""

    def __new__(cls, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return super().__new__(cls, coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = (other,)
        return _Poly(a + b for a, b in itertools.zip_longest(self, other, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return _Poly(a * other for a in self)
        out = [0] * (len(self) + len(other))
        for j, a in enumerate(self):
            for k, b in enumerate(other):
                out[j + k] += a * b
        return _Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = _Poly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, q: int) -> int | Fraction:
        total = 0
        for c in reversed(self):
            total = total * q + c
        return total


def _q_of(F):
    """q for F_q, and the indeterminate q for Q, where counts are polynomials."""
    return _Poly((0, 1)) if F.order is None else F.order


def q_factorial(d: int, q):
    """[d]_q! = prod_{m=1}^{d} (1 + q + ... + q^(m-1)), at an int q or as a
    polynomial in the indeterminate."""
    total = q**0
    for m in range(1, d + 1):
        total *= sum(q**j for j in range(m))
    return total


@functools.cache
def shuffle_flag_count(dims: tuple[int, ...], q):
    """Complete graded flags of a graded space with no stability constraint,
    computed once per (dims, q)."""
    total = math.factorial(sum(dims))
    for d in dims:
        total //= math.factorial(d)
    for d in dims:
        total *= q_factorial(d, q)
    return total


def _projective_coefficients(F, c: int):
    """One representative per projective class of nonzero vectors in F^c,
    normalized so the first nonzero coefficient is 1.  For c = 1 that is
    (1,), over any field, Q included."""
    for lead in range(c):
        tails = (F.elements() for _ in range(c - 1 - lead))
        for tail in itertools.product(*tails):
            yield (F.zero,) * lead + (F.one,) + tail


@functools.cache
def _fiber_table(Q: Quiver, F) -> dict:
    """Fiber counts of the classes of representations of Q over F met so far,
    keyed by their summand multiplicities: ints over F_q; over Q, polynomials
    in q, or None for a class that has none."""
    return {}


@functools.cache
def _class_memo(Q: Quiver, F) -> dict:
    """The class of each restriction of Q over F classified so far: keyed by
    (vertex, touched parts) in the recursion, and by (dims, mats) for a
    representation passed to `_count`."""
    return {}


@functools.cache
def _root_tops(Q: Quiver, F) -> tuple[tuple[tuple[int, tuple | None], ...], ...]:
    """For each root beta_k of Q, in the adapted order, and each vertex i:
    the number g of stable functionals of M(beta_k) at i, those vanishing on
    the images of the arrows into i, and one functional per projective point
    of their span, or None over Q when g > 1.  g is checked against the
    Euler form: it is hom(M(beta_k), S_i) = max(<beta_k, alpha_i>, 0)."""
    tops = []
    for beta, M in all_indecomposables(Q, F).items():
        row = []
        for i in Q.datum.vertices():
            d, into = beta[i - 1], Q.arrows_into(i)
            image_rows = tuple(r for a in into for r in transpose(M.mats[a]))
            basis = nullspace(F, image_rows, ncols=d) if d else []
            expected = max(d - sum(beta[Q.arrows[a][0] - 1] for a in into), 0)
            if len(basis) != expected:
                raise VerificationError(
                    f"M{beta} has {len(basis)} stable functionals at vertex {i}, "
                    f"not max(<beta, alpha_{i}>, 0) = {expected}"
                )
            points = None
            if F.order is not None or len(basis) <= 1:
                points = tuple(
                    _combination(F, coeffs, basis, d)
                    for coeffs in _projective_coefficients(F, len(basis))
                )
            row.append((len(basis), points))
        tops.append(tuple(row))
    return tuple(tops)


def _combination(F, coeffs, basis, d: int) -> tuple:
    """sum_s coeffs[s] * basis[s], for vectors of length d."""
    phi = [F.zero] * d
    for cf, v in zip(coeffs, basis):
        if cf != F.zero:
            for j in range(d):
                phi[j] = F.add(phi[j], F.mul(cf, v[j]))
    return tuple(phi)


def _restrict(M: QuiverRep, i: int, phi) -> QuiverRep:
    """M restricted to the stable hyperplane ker phi at vertex i: the
    coordinate of phi's first nonzero entry is dropped."""
    Q, F, dims, mats = M.quiver, M.field, M.dims, M.mats
    d = dims[i - 1]
    jstar = next(j for j in range(d) if phi[j] != F.zero)
    inv = F.inv(phi[jstar])
    ratio = [F.mul(inv, phi[j]) for j in range(d)]
    new_dims = tuple(d - 1 if v == i - 1 else dims[v] for v in range(Q.datum.n))
    new_mats = list(mats)
    for a in Q.arrows_into(i):
        m = mats[a]
        new_mats[a] = tuple(m[r] for r in range(d) if r != jstar)
    # an out-arrow entry changes only where ratio[j] and row[jstar] are both
    # nonzero
    keep = [j for j in range(d) if j != jstar]
    for a in Q.arrows_out_of(i):
        new_mats[a] = tuple(
            tuple(
                row[j]
                if ratio[j] == F.zero
                else F.sub(row[j], F.mul(ratio[j], row[jstar]))
                for j in keep
            )
            if row[jstar] != F.zero
            else row[:jstar] + row[jstar + 1 :]
            for row in mats[a]
        )
    return QuiverRep(Q, F, new_dims, tuple(new_mats))


def _count(Q: Quiver, F, dims: tuple[int, ...], mats):
    """Fiber count of a representation over F given by its matrices (an int
    over F_q, a polynomial or None over Q), through its class unless every
    map is zero.  Each is classified once per (Q, F); its count is read from
    the class table."""
    if all(x == F.zero for m in mats for row in m for x in row):
        return shuffle_flag_count(dims, _q_of(F))
    classes = _class_memo(Q, F)
    lam = classes.get((dims, mats))
    if lam is None:
        lam = classes[dims, mats] = iso_class(QuiverRep(Q, F, dims, mats))
    return _class_count(lam, F)


def _class_count(lam: KostantPartition, F):
    """The fiber count of M(lam) over F by the recursion over F alone: from its
    table, or on a miss the closed form of an all-simple class, or one expansion."""
    table = _fiber_table(lam.quiver, F)
    key = lam.counts
    if key not in table:
        if all(c == 0 or sum(b) == 1 for c, b in zip(key, lam.order.beta)):
            return shuffle_flag_count(lam.nu, _q_of(F))
        if len(table) >= _FIBER_CAP:
            raise CapExceeded(
                f"fiber table of {lam.quiver.datum.label} {lam.quiver.arrows} over "
                f"{F!r} reached {len(table) + 1} classes, over the cap {_FIBER_CAP}"
            )
        table[key] = _expand(lam, F)
    return table[key]


def _touched_class(order, F, key) -> KostantPartition:
    """The class of the restriction to ker phi of the block sum of the parts
    that a key (vertex i, ((k, local functional), ...)) touches, where phi
    reads each part's local functional on its block at i.  Classified once
    per (quiver, field)."""
    classes = _class_memo(order.quiver, F)
    mu = classes.get(key)
    if mu is None:
        i, touched = key
        counts = [0] * order.length
        for k, _ in touched:
            counts[k] += 1
        M = rep_of_kp(KostantPartition(order, tuple(counts)), F)
        phi = tuple(itertools.chain.from_iterable(f for _, f in touched))
        mu = classes[key] = iso_class(_restrict(M, i, phi))
    return mu


def _expand(lam: KostantPartition, F):
    """One step of the recursion on M(lam) over F: one hyperplane per orbit
    of the block scalings, weighted by its size and keyed by the parts it
    touches.  Over Q, None when a part has two or more stable functionals at
    a vertex, or when a child has no polynomial."""
    order, q = lam.order, _q_of(F)
    tops = _root_tops(lam.quiver, F)
    blocks = [k for k, c in enumerate(lam.counts) for _ in range(c)]
    one = q**0
    orbits: Counter = Counter()
    for i in order.datum.vertices():
        touched = [(k, *tops[k][i - 1]) for k in blocks if tops[k][i - 1][0]]
        if not touched:
            continue
        if any(points is None for _, _, points in touched):
            return None
        weight, placed = one, 0
        for size in range(1, len(touched) + 1):
            orbits_of_size = 0
            for S in itertools.combinations(touched, size):
                parts = [k for k, _, _ in S]
                for phis in itertools.product(*(points for _, _, points in S)):
                    orbits[i, tuple(sorted(zip(parts, phis)))] += weight
                    orbits_of_size += 1
            placed += orbits_of_size * weight
            weight *= q - 1
        expected = one  # [k]_q = 1 + q [k - 1]_q for the k stable functionals
        for _ in range(sum(g for _, g, _ in touched) - 1):
            expected = expected * q + one
        if placed != expected:
            raise VerificationError(
                f"orbit weights at vertex {i} do not add up to the {expected} "
                "stable hyperplanes"
            )
    children: Counter = Counter()
    for key, weight in orbits.items():
        child = list(lam.counts)
        for k, _ in key[1]:
            child[k] -= 1
        mu = _touched_class(order, F, key).counts
        children[tuple(map(add, child, mu))] += weight
    total = 0
    for counts, weight in children.items():
        count = _class_count(KostantPartition(order, counts), F)
        if count is None:
            return None
        total += weight * count
    return total


def fiber_polynomial(lam: KostantPartition) -> tuple[int, ...] | None:
    """The fiber count of M(lam) as a polynomial in q, from one expansion of
    each class over Q: a tuple of ascending int coefficients, which evaluates
    at q when called.  None when some class of the recursion has a block
    with two or more stable functionals at a vertex."""
    return _class_count(lam, RATIONALS)


def fiber_point_count(lam: KostantPartition, q: int) -> int:
    """Number of complete stable graded flags of M(lam) over F_q: its fiber
    polynomial at q, or the recursion over F_q where it has none."""
    field_order(q)
    poly = fiber_polynomial(lam)
    if poly is not None:
        return poly(q)
    return _class_count(lam, galois_field(q))


def flag_degree_bound(nu: tuple[int, ...]) -> int:
    """Dimension of the complete graded flag variety: an upper bound for the
    degree of any fiber point-count polynomial."""
    return sum(d * (d - 1) // 2 for d in nu)


def lagrange_coefficients(points) -> tuple[int | Fraction, ...]:
    """Coefficients (ascending) of the interpolating polynomial, exact: the
    solution of the Vandermonde system, eliminated over Q, each an int where
    it is integral.

    Raises ValueError when two points share a node.
    """
    points = list(points)
    n = len(points)
    system = tuple(tuple(x**k for k in range(n)) + (y,) for x, y in points)
    R, pivots = rref(RATIONALS, system)
    if pivots != tuple(range(n)):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [row[n] for row in R]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _enough_q_values(q_list, bound: int) -> list[int]:
    """The distinct q values, ascending; a degree-bound polynomial needs
    bound + 1 of them."""
    qs = sorted(set(q_list))
    if len(qs) < bound + 1:
        raise ValueError(
            f"insufficient q values: need at least {bound + 1}, got {len(qs)}"
        )
    return qs


def evenness_check(lam: KostantPartition, q_list) -> bool:
    """Whether the fiber count of M(lam), as far as the q list shows, is a
    polynomial in q of degree at most bound = `flag_degree_bound(lam.nu)`
    with non-negative int coefficients: the evidence for evenness.  The
    candidate is `fiber_polynomial(lam)`, or, only for a class without one,
    the polynomial through its counts over F_q at the first bound + 1 sorted
    q; it must equal the recursion over F_q alone, which never reads a
    polynomial, at every remaining q.  The list needs bound + 1 distinct q
    that `fields.field_order` takes (ValueError otherwise); a fiber
    polynomial above the degree bound raises VerificationError."""
    bound = flag_degree_bound(lam.nu)
    qs = _enough_q_values(q_list, bound)
    for q in qs:
        field_order(q)
    coeffs = fiber_polynomial(lam)
    if coeffs is None:
        points = ((q, _class_count(lam, galois_field(q))) for q in qs[: bound + 1])
        coeffs = _Poly(lagrange_coefficients(points))
    elif len(coeffs) > bound + 1:
        raise VerificationError(
            f"fiber polynomial {coeffs} of {lam.counts} exceeds degree {bound}"
        )
    return all(c >= 0 and int(c) == c for c in coeffs) and all(
        coeffs(q) == _class_count(lam, galois_field(q)) for q in qs[bound + 1 :]
    )


def z_point_count(Q: Quiver, nu: tuple[int, ...], q: int) -> int:
    """Points of the fibre square: sum over partitions of orbit * fiber^2.

    The orbits partition the representation space, so their point counts
    are checked to add up to q^rep_space_dim(Q, nu).
    """
    points = total = 0
    for lam in enumerate_kp(Q.datum, nu, adapted_order(Q)):
        orbit = orbit_point_count(lam, q)
        points += orbit
        total += orbit * fiber_point_count(lam, q) ** 2
    if points != q ** rep_space_dim(Q, nu):
        raise VerificationError(f"orbits of {nu} over F_{q} do not cover the representation space")
    return total
