"""Cyclotomic polynomial arithmetic against an independent oracle.

sympy's cyclotomic_poly is the oracle for the polynomials themselves;
the divisor-product identity and explicit remainders are checked by
direct construction.
"""

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
