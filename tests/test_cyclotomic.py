"""Cyclotomic polynomial arithmetic against an independent oracle.

sympy's cyclotomic_poly is the oracle for the polynomials themselves;
the divisor-product identity and explicit remainders are checked by
direct construction.
"""

import random

import pytest
import sympy

from frobcode.cyclotomic import (
    constant_remainder,
    cyclotomic,
    divisors,
    poly_divmod,
    trim,
)


def poly_mul(a, b):
    """Product of integer polynomials, by schoolbook multiplication."""
    out = [0] * (len(a) + len(b))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def sympy_coeffs(e):
    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(e, x), x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@pytest.mark.parametrize("e", list(range(1, 61)))
def test_matches_sympy(e):
    assert cyclotomic(e) == sympy_coeffs(e)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 30, 36, 60, 105])
def test_divisor_product_reconstructs_x_n_minus_1(n):
    product = (1,)
    for d in divisors(n):
        product = poly_mul(product, cyclotomic(d))
    expected = tuple([-1] + [0] * (n - 1) + [1])
    assert product == expected


def test_divisors_ascending():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]


def test_poly_divmod_round_trip():
    a = (3, -2, 0, 5, 1)
    b = (1, 1)
    q, r = poly_divmod(a, b)
    recomposed = poly_mul(q, b)
    padded = list(recomposed) + [0] * (len(a) - len(recomposed))
    for i, coeff in enumerate(r):
        padded[i] += coeff
    assert tuple(padded[:len(a)]) == a


def test_constant_remainder_of_known_sums():
    # 1 + x + x^2 + x^3 is divisible by the fourth cyclotomic 1 + x^2
    # with quotient 1 + x, leaving remainder zero
    assert constant_remainder((1, 1, 1, 1), cyclotomic(4)) == 0
    # 2 + x^2 = (1 + x^2) + 1 leaves 1
    assert constant_remainder((2, 0, 1), cyclotomic(4)) == 1
    # degree-zero input is its own remainder
    assert constant_remainder((7,), cyclotomic(4)) == 7


def test_constant_remainder_rejects_nonconstant():
    # x mod (1 + x^2) is x itself, not a constant
    with pytest.raises(ValueError):
        constant_remainder((0, 1), cyclotomic(4))


@pytest.mark.parametrize("e", [3, 4, 5, 6, 8, 9, 12])
def test_constant_remainder_matches_sympy_rem(e):
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(e, x), x)
    ones = sympy.Poly(sum(x ** i for i in range(e)), x)
    for c in (0, 1, 4):
        for k in (0, 2, 9):
            poly = c * ones + k
            rem = poly.rem(phi)
            assert rem.is_zero or rem.degree() == 0
            coeffs = [0] * e
            for i, cf in enumerate(reversed(poly.all_coeffs())):
                coeffs[i] = int(cf)
            ours = constant_remainder(tuple(coeffs), cyclotomic(e))
            theirs = 0 if rem.is_zero else int(rem.all_coeffs()[0])
            assert ours == theirs


def x_power_minus_one(e):
    return tuple([-1] + [0] * (e - 1) + [1])


SPARSE_DIVISORS = [cyclotomic(4096)] + [x_power_minus_one(e)
                                        for e in (1, 7, 64, 2048)]
SPARSE_IDS = ["x^2048+1", "x-1", "x^7-1", "x^64-1", "x^2048-1"]
# sympy's sparse polynomials: its dense Poly.div takes seconds at
# degree 4095
ZX, _ = sympy.ring("x", sympy.ZZ)


def sympy_poly(coeffs):
    return ZX.from_list(list(reversed(coeffs)))


def ascending(poly):
    """The ascending coefficients of a sympy polynomial, trimmed."""
    return trim(int(c) for c in reversed(poly.to_dense()))


def test_phi_4096_is_sparse():
    assert cyclotomic(4096) == tuple([1] + [0] * 2047 + [1])
    assert cyclotomic(4096) == sympy_coeffs(4096)


@pytest.mark.parametrize("den", SPARSE_DIVISORS, ids=SPARSE_IDS)
def test_poly_divmod_by_sparse_divisor_matches_sympy(den):
    # long division touches only the divisor's nonzero terms; quotient
    # and remainder must still be sympy's, for numerators below, at and
    # above the divisor's degree, up to the degree-4095 orbit sums of
    # Z4096's weight table
    rng = random.Random(len(den))
    dd = len(den) - 1
    for degree in sorted({0, dd - 1, dd, dd + 3, 4095} - {-1}):
        num = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
        want_quo, want_rem = sympy_poly(num).div(sympy_poly(den))
        assert poly_divmod(num, den) == (ascending(want_quo),
                                         ascending(want_rem))


@pytest.mark.parametrize("den", SPARSE_DIVISORS, ids=SPARSE_IDS)
def test_constant_remainder_by_sparse_divisor_matches_sympy(den):
    # c plus a multiple of den, of degree 4095, reduces to c; one more
    # x^(deg den - 1) leaves a nonconstant remainder
    rng = random.Random(len(den) + 1)
    dd = len(den) - 1
    multiple = sympy_poly(den) * sympy_poly(
        [rng.randint(-3, 3) for _ in range(4095 - dd)] + [1])
    assert sympy_poly(ascending(multiple + 5)).rem(sympy_poly(den)) == 5
    for c in (0, 5, -2):
        num = list(ascending(multiple + c))
        assert constant_remainder(tuple(num), den) == c
        if dd >= 2:
            num[dd - 1] += 1
            with pytest.raises(ValueError):
                constant_remainder(tuple(num), den)
