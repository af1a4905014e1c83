"""Exact coefficient fields: the rationals, F_p, and small F_{p^r}.

Every field exposes zero/one/add/sub/mul/neg/inv and an `order` attribute
(None for the rationals); that is all elimination uses.  Elements are
hashable: ints or Fractions for the rationals, plain ints for the finite
fields.  `Rationals.inv` returns an int wherever the inverse is integral,
and takes 1 and -1 to ints with no Fraction built, so a reduction whose
pivots are all 1 or -1 stays on ints.
Extension field elements are integer codes 0..q-1 whose base-p digits are the
coefficients of the residue polynomial, with arithmetic from precomputed
q x q tables, so the prime subfield is the set of codes 0..p-1.  `_tables`
builds them on codes alone: sums digit by digit, products by linearity from
multiplication by x.  The modulus is the least monic polynomial of degree r,
in code order, whose multiplication table gives every nonzero code an
inverse: F_p[x]/(f) is a field exactly when f is irreducible.  Every q is
checked by `field_order`, which builds nothing; tables stop at _MAX_TABLE_ORDER.
"""

from __future__ import annotations

import functools
from fractions import Fraction


class Rationals:
    """Q, each element an int or a Fraction; zero and one are ints."""

    order = None

    zero = 0
    one = 1

    def add(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        return a + b

    def sub(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        return a - b

    def mul(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        return a * b

    def neg(self, a: int | Fraction) -> int | Fraction:
        return -a

    def inv(self, a: int | Fraction) -> int | Fraction:
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        r = Fraction(1) / a
        return r.numerator if r.denominator == 1 else r

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rationals")


class _FiniteField:
    """What F_p and GF(p^r) share: elements are the codes 0..order-1, with 0
    and 1 as zero and one, and two finite fields are equal when their orders
    are."""

    zero = 0
    one = 1

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"F{self.order}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _FiniteField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("finite", self.order))


class PrimeField(_FiniteField):
    def __init__(self, p: int):
        if field_order(p) != (p, 1):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


# field_order refuses p^r (r >= 2) above this; GF(q) tables hold 2q^2 + 2q entries
_MAX_TABLE_ORDER = 1024


def _tables(p: int, r: int):
    """modulus, add, neg, mul and inv tables of GF(p^r), built on codes alone."""
    q, top = p**r, p ** (r - 1)
    # digitwise: the low digit of a + d is (a + d) mod p, the rest a // p + d // p
    add, neg = [list(range(q))], [0]
    for a in range(1, q):
        up = add[a // p]
        add.append([(a + d) % p + p * up[d // p] for d in range(q)])
        neg.append((-a) % p + p * neg[a // p])
    # the first monic modulus x^r + f, in code order, under which every nonzero
    # code has an inverse; a reducible one fails at its first zero divisor
    for f in range(q):
        # x·d shifts the digits of d up, and x^r = -f times the top digit t
        # is neg[f] added t times
        lead = [0]
        for t in range(1, p):
            lead.append(add[lead[-1]][neg[f]])
        times_x = [add[d % top * p][lead[d // top]] for d in range(q)]
        mul, inv = [[0] * q], [0] * q
        for a in range(1, q):
            # a·d is linear in d: a·c is a added c times for a scalar c < p,
            # and a·d = a·(d mod p) + x·(a·(d // p))
            row = [0]
            for d in range(1, p):
                row.append(add[row[-1]][a])
            for d in range(p, q):
                row.append(add[row[d % p]][times_x[row[d // p]]])
            if 1 not in row:
                break
            mul.append(row)
            inv[a] = row.index(1)
        else:
            modulus = tuple(f // p**k % p for k in range(r)) + (1,)
            return modulus, add, neg, mul, inv
    raise RuntimeError("no irreducible polynomial found")


class ExtensionField(_FiniteField):
    """F_{p^r} for small p^r, with table-driven arithmetic on codes 0..q-1."""

    def __init__(self, p: int, r: int):
        if r < 2:
            raise ValueError("use PrimeField for r = 1")
        if field_order(p**r) != (p, r):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.r = r
        self.order = p**r
        self.modulus, self._add, self._neg, self._mul, self._inv = _tables(p, r)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]


RATIONALS = Rationals()


# Miller-Rabin to the prime bases up to 41 is exact below this bound
# (Sorenson and Webster 2017)
_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases up to 41, exact below
    _PRIMALITY_BOUND.  Above it a base that witnesses n composite still
    proves it; n that passes every base raises ValueError."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        # n passes base a when a^d = 1 or a^(2^j d) = -1 for some j < s
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= _PRIMALITY_BOUND:
        raise ValueError(
            f"cannot tell whether {n} is prime: primality is decided only below "
            f"{_PRIMALITY_BOUND:,}"
        )
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, r) with q = p^r, or raise ValueError.

    For each r up to log2(q), p is the integer r-th root of q, by Newton's
    method on ints from above; q is a prime power when p^r = q for a prime p.
    `_is_prime` raises ValueError for a p it cannot decide.
    """
    for r in range(1, max(q, 0).bit_length()):
        p = 1 << -(-q.bit_length() // r)  # 2^ceil(bits / r), above the root
        while (below := ((r - 1) * p + q // p ** (r - 1)) // r) < p:
            p = below
        if p**r == q and _is_prime(p):
            return p, r
    raise ValueError(f"{q} is not a prime power")


def field_order(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r if the package takes GF(q), else ValueError; builds nothing."""
    p, r = factor_prime_power(q)
    if r >= 2 and q > _MAX_TABLE_ORDER:
        raise ValueError(f"GF({q}) is too large: field tables stop at q = {_MAX_TABLE_ORDER}")
    return p, r


@functools.cache
def galois_field(q: int) -> PrimeField | ExtensionField:
    """The field with q elements (q as `field_order` takes it; tables cached)."""
    p, r = field_order(q)
    return PrimeField(p) if r == 1 else ExtensionField(p, r)

