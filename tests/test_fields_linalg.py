from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from quiver_orders import fields
from quiver_orders.fields import (
    RATIONALS,
    ExtensionField,
    PrimeField,
    factor_prime_power,
    field_order,
    galois_field,
)
from quiver_orders.linalg import nullspace, rank, rref, transpose
from oracles import within_one_second



def test_finite_fields_are_equal_exactly_when_their_orders_are():
    extensions = [ExtensionField(p, r) for p, r in ((2, 2), (2, 3), (3, 2))]
    built = [PrimeField(2), PrimeField(3), *extensions]
    for F in built:
        G = galois_field(F.order)
        assert F == G and hash(F) == hash(G) and repr(F) == f"F{F.order}"
        assert (F.zero, F.one, F.elements()) == (0, 1, range(F.order))
        assert F != RATIONALS and RATIONALS != F
    assert len(set(built)) == len(built)

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustively(q):
    F = galois_field(q)
    elems = list(F.elements())
    assert len(elems) == q
    zero, one = F.zero, F.one
    assert zero != one
    for a in elems:
        assert F.add(a, zero) == a
        assert F.mul(a, one) == a
        assert F.add(a, F.neg(a)) == zero
        if a != zero:
            assert F.mul(a, F.inv(a)) == one
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q,p,r", [(4, 2, 2), (8, 2, 3), (9, 3, 2)])
def test_extension_field_characteristic(q, p, r):
    F = galois_field(q)
    assert isinstance(F, ExtensionField)
    assert factor_prime_power(q) == (p, r)
    x = F.zero
    for k in range(1, p + 1):
        x = F.add(x, F.one)
        if k < p:
            assert x != F.zero
    assert x == F.zero  # 1 added p times vanishes, not earlier


def _trial_division_prime_power(q):
    """`factor_prime_power` as it was, trial-dividing by every d up to q."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            r, m = 0, q
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, r


def test_factor_prime_power_accepts_the_same_q_as_trial_division():
    for q in range(-2, 3000):
        try:
            expected = _trial_division_prime_power(q)
        except ValueError:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                factor_prime_power(q)
        else:
            assert factor_prime_power(q) == expected


def test_factor_prime_power_stops_at_the_square_root():
    t0 = time.perf_counter()
    assert factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert PrimeField(1_000_000_007).order == 1_000_000_007
    assert time.perf_counter() - t0 < 2.0
    assert factor_prime_power(1024) == (2, 10)
    for q in (1, 12):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            factor_prime_power(q)
    for square in (4, 9, 25, 49, 121, 169):
        with pytest.raises(ValueError, match="is not prime"):
            PrimeField(square)


def test_field_order_accepts_the_same_q_as_trial_division_up_to_the_table_bound():
    for q in range(-2, 3000):
        try:
            p, r = _trial_division_prime_power(q)
        except ValueError:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                field_order(q)
            continue
        if r >= 2 and q > 1024:
            message = rf"^GF\({q}\) is too large: field tables stop at q = 1024$"
            with pytest.raises(ValueError, match=message):
                field_order(q)
        else:
            assert field_order(q) == (p, r)


def test_large_prime_powers_are_factored_at_once():
    t0 = time.perf_counter()
    mersenne = 2**61 - 1
    assert factor_prime_power(mersenne) == field_order(mersenne) == (mersenne, 1)
    assert PrimeField(mersenne).order == mersenne
    assert factor_prime_power(3**40) == (3, 40)
    assert factor_prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    for q in (3**40, (2**31 - 1) ** 2):
        with pytest.raises(ValueError, match=rf"^GF\({q}\) is too large"):
            field_order(q)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "n,factors",
    [
        # a strong pseudoprime to the bases 2, 3, 5 and 7
        (3215031751, (151, 751, 28351)),
        # a strong pseudoprime to every prime base up to 23
        (3825123056546413051, (149491, 747451, 34233211)),
    ],
)
def test_strong_pseudoprimes_are_rejected(n, factors):
    assert math.prod(factors) == n
    with pytest.raises(ValueError, match=f"^{n} is not a prime power$"):
        field_order(n)
    with pytest.raises(ValueError):
        PrimeField(n)


def test_primality_above_the_miller_rabin_bound_is_refused_at_once():
    # the Mersenne prime 2^89 - 1 lies above the bound, where trial division hung
    q = 2**89 - 1
    assert q > fields._PRIMALITY_BOUND
    with within_one_second():
        with pytest.raises(ValueError, match=f"^cannot tell whether {q} is prime: "):
            field_order(q)
        # a base that witnesses compositeness still answers above the bound
        for n in (47**15, (2**61 - 1) ** 2):
            with pytest.raises(ValueError, match=rf"^GF\({n}\) is too large"):
                field_order(n)


def test_extension_field_rejects_a_composite_base():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        ExtensionField(4, 2)
    with pytest.raises(ValueError):
        ExtensionField(6, 2)


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.inv(3) == 5
    assert F.order == 7
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rationals_field():
    F = RATIONALS
    assert F.order is None
    assert F.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert type(F.zero) is int and type(F.one) is int
    assert type(F.inv(2)) is Fraction and F.inv(2) == Fraction(1, 2)
    # the inverse of a unit is the int itself: no Fraction is built
    assert type(F.inv(-1)) is int and F.inv(-1) == -1
    assert type(F.inv(1)) is int and F.inv(1) == 1


@pytest.mark.parametrize(
    "a, inverse, kind",
    [
        (Fraction(1, 2), 2, int),
        (Fraction(1), 1, int),
        (Fraction(-1, 3), -3, int),
        (Fraction(2, 3), Fraction(3, 2), Fraction),
    ],
    ids=["1/2", "1", "-1/3", "2/3"],
)
def test_rationals_inverse_is_an_int_where_integral(a, inverse, kind):
    assert RATIONALS.inv(a) == inverse
    assert type(RATIONALS.inv(a)) is kind


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_rationals_inverse_of_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(zero)


def _digits(code, p, length):
    return tuple(code // p**k % p for k in range(length))


def _divides(d, a, p):
    """Whether the monic polynomial d divides a over F_p (coefficients low to high)."""
    rem = list(a)
    while len(rem) >= len(d):
        lead, shift = rem[-1], len(rem) - len(d)
        for k, c in enumerate(d):
            rem[shift + k] = (rem[shift + k] - lead * c) % p
        rem.pop()
    return not any(rem)


def _reference_modulus(p, r):
    """The least monic irreducible polynomial of degree r over F_p in code order
    (coefficients low to high read as base-p digits), by trial division by every
    monic polynomial of degree 1..r // 2."""
    for code in range(p**r):
        poly = _digits(code, p, r) + (1,)
        if not any(
            _divides(_digits(c, p, d) + (1,), poly, p)
            for d in range(1, r // 2 + 1)
            for c in range(p**d)
        ):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {r} over F_{p}")


# every p^r with r >= 2 and p^r <= 1024, the table bound
EXTENSION_ORDERS = [
    4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256,
    289, 343, 361, 512, 529, 625, 729, 841, 961, 1024,
]


@pytest.mark.parametrize("q", EXTENSION_ORDERS)
def test_modulus_is_least_irreducible(q):
    p, r = factor_prime_power(q)
    # uncached, so the larger tables are freed after the test
    assert ExtensionField(p, r).modulus == _reference_modulus(p, r)


def test_reference_modulus_known_values():
    assert _reference_modulus(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert _reference_modulus(2, 8) == (1, 1, 0, 1, 1, 0, 0, 0, 1)  # x^8 + x^4 + x^3 + x + 1
    assert _reference_modulus(3, 2) == (1, 0, 1)  # x^2 + 1
    assert _divides((1, 1), (1, 0, 1), 2)  # x^2 + 1 = (x + 1)^2 over F_2
    assert not _divides((1, 1), (1, 0, 1), 3)
    assert not _divides((1, 1), (1, 1, 0, 1), 2)


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Multiply coefficient tuples mod (modulus, p); modulus is monic."""
    r = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for d in range(len(prod) - 1, r - 1, -1):
        c = prod[d]
        if c:
            for k in range(r + 1):
                prod[d - r + k] = (prod[d - r + k] - c * modulus[k]) % p
    return tuple(prod[:r])


def _decode(code: int, p: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        digits.append(code % p)
        code //= p
    return tuple(digits)


def _encode(digits: tuple[int, ...], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _reference_tables(p, r):
    """modulus, _add, _neg, _mul and _inv of GF(p^r) as ExtensionField built
    them before it filled its tables by linearity: every sum digit by digit,
    every product through `_poly_mul_mod`, under the first modulus in
    code order whose table gives every nonzero code an inverse."""
    q = p**r
    decode = [_decode(c, p, r) for c in range(q)]
    add = [
        [_encode(tuple((x + y) % p for x, y in zip(da, db)), p) for db in decode]
        for da in decode
    ]
    neg = [_encode(tuple((-x) % p for x in d), p) for d in decode]
    for code in range(q):
        modulus = decode[code] + (1,)
        mul, inv = [[0] * q], [0] * q
        for a in range(1, q):
            row = [_encode(_poly_mul_mod(decode[a], d, modulus, p), p) for d in decode]
            if 1 not in row:
                break
            mul.append(row)
            inv[a] = row.index(1)
        else:
            return modulus, add, neg, mul, inv
    raise AssertionError(f"no modulus found for GF({q})")


@pytest.mark.parametrize("q", [q for q in EXTENSION_ORDERS if q <= 256])
def test_extension_field_tables_match_polynomial_products(q):
    F = ExtensionField(*factor_prime_power(q))
    assert (F.modulus, F._add, F._neg, F._mul, F._inv) == _reference_tables(F.p, F.r)


def test_extension_field_size_bound(monkeypatch):
    monkeypatch.setattr(fields, "_MAX_TABLE_ORDER", 8)
    assert ExtensionField(2, 3).order == 8
    monkeypatch.setattr(fields, "_tables", lambda *args: pytest.fail("a field table was built"))
    with pytest.raises(ValueError, match=r"GF\(9\) is too large"):
        ExtensionField(3, 2)


def test_tables_are_built_only_within_the_bound(monkeypatch):
    calls = []
    build = fields._tables
    monkeypatch.setattr(fields, "_tables", lambda p, r: calls.append((p, r)) or build(p, r))
    assert ExtensionField(3, 2).order == 9
    assert calls == [(3, 2)]
    for p, r in [(2, 11), (3, 7), (5, 5), (31, 3), (37, 2)]:
        with pytest.raises(ValueError, match=rf"GF\({p**r}\) is too large"):
            ExtensionField(p, r)
    assert calls == [(3, 2)]


def test_galois_field_rejects_non_prime_powers():
    for bad in [1, 6, 12]:
        with pytest.raises(ValueError):
            galois_field(bad)


def test_frobenius_in_gf4():
    # x -> x^2 fixes exactly the prime subfield
    F = galois_field(4)
    fixed = [a for a in F.elements() if F.mul(a, a) == a]
    assert sorted(fixed) == sorted([F.zero, F.one])


def _frac_mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_rref_and_rank_rationals():
    A = _frac_mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    R, pivots = rref(RATIONALS, A)
    assert pivots == (0, 1)
    assert rank(RATIONALS, A) == 2
    (v,) = nullspace(RATIONALS, A)
    assert tuple(sum(a * x for a, x in zip(row, v)) for row in A) == (Fraction(0),) * 3


def test_rref_is_idempotent():
    F = galois_field(5)
    A = ((1, 2, 3), (4, 0, 1), (2, 4, 4))
    R, _ = rref(F, A)
    R2, _ = rref(F, R)
    assert R == R2


def test_nullspace_over_prime_field():
    F = PrimeField(2)
    A = ((1, 1, 0), (0, 1, 1))
    basis = nullspace(F, A)
    assert len(basis) == 1
    assert basis[0] == (1, 1, 1)


def test_nullspace_of_zero_row_matrix_needs_ncols():
    # an empty matrix with 3 columns has the whole space as kernel
    basis = nullspace(RATIONALS, (), ncols=3)
    assert len(basis) == 3
    assert rank(RATIONALS, ()) == 0


def test_transpose_shape():
    A = ((1, 2, 3), (4, 5, 6))
    assert transpose(A) == ((1, 4), (2, 5), (3, 6))


def test_rank_fullness_over_all_small_fields():
    for q in [2, 3, 4, 5]:
        F = galois_field(q)
        I3 = tuple(tuple(F.one if i == j else F.zero for j in range(3)) for i in range(3))
        assert rank(F, I3) == 3
        assert nullspace(F, I3) == []
