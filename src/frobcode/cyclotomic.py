"""The package's integer arithmetic: divisors, dense integer
polynomials and cyclotomic polynomials.

A polynomial is a tuple of int coefficients in ascending degree with no
trailing zeros; the empty tuple is the zero polynomial.  Everything here
is exact integer arithmetic: cyclotomic polynomials are obtained by
dividing x^e - 1 by the cyclotomic polynomials of the proper divisors
of e, and reduction modulo them is plain long division (the divisor is
monic, so no rational coefficients ever appear).  `divisors` is the one
trial-division loop and `poly_divmod` the one polynomial division:
`rings` takes primality and irreducibility over F_p from them, and
`search` the denominators of its multiplicity ratios.
"""

from __future__ import annotations

from functools import lru_cache


def trim(coeffs):
    """Drop trailing zero coefficients."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(poly):
    return len(poly) - 1


def poly_divmod(num, den):
    """Quotient and remainder of integer polynomials; den must be monic."""
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(trim(num))
    dd = len(den) - 1
    quo = [0] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quo[i - dd] = c
            for j, d in enumerate(den):
                rem[i - dd + j] -= c * d
    return trim(quo), trim(rem)


def poly_exact_div(num, den):
    quo, rem = poly_divmod(num, den)
    if rem:
        raise ValueError("division is not exact")
    return quo


def divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic(e):
    """The e-th cyclotomic polynomial as an ascending coefficient tuple."""
    if e < 1:
        raise ValueError("e must be positive")
    if e == 1:
        return (-1, 1)
    f = tuple([-1] + [0] * (e - 1) + [1])
    for d in divisors(e):
        if d < e:
            f = poly_exact_div(f, cyclotomic(d))
    return f


def constant_remainder(coeffs, modulus):
    """Reduce coeffs modulo a monic polynomial; the remainder must be a
    constant, which is returned as an int.  Raises ValueError otherwise."""
    _, rem = poly_divmod(coeffs, modulus)
    if len(rem) > 1:
        raise ValueError(f"remainder has degree {degree(rem)}, expected <= 0")
    return rem[0] if rem else 0
