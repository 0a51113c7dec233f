"""Brute-force oracle for the left-hand sides of the weight identities.

Each function reads one identity's sum straight from its definition:
a Python loop over the summands, ring arithmetic looked up one entry at
a time in the operation tables, and exact ``Fraction`` weights.  It is
independent of the batched evaluators in ``frobcode.homweight`` and
``frobcode.codes`` and serves only as a check on small rings and codes.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from frobcode.homweight import WeightTable


def _w(table, x):
    return Fraction(int(table.numerators[x]), table.denominator)


def _dot(ring, x, g):
    acc = 0
    for xi, gi in zip(x, g):
        acc = int(ring.add_table[acc, ring.mul_table[xi, gi]])
    return acc


def _word_weight(table, word):
    return sum((_w(table, int(c)) for c in word), Fraction(0))


def _shifted(ring, word, d):
    return [int(ring.add_table[c, e]) for c, e in zip(word, d)]


def ideal_correlation_lhs(ring, table, ideal, r, s):
    """sum over x in I of w(x) w(xr + s)."""
    return sum((_w(table, int(x))
                * _w(table, int(ring.add_table[ring.mul_table[x, r], s]))
                for x in ideal), Fraction(0))


def word_correlation_lhs(ring, table, g, h, s):
    """sum over x in R^k of w(x.g) w(x.h + s)."""
    return sum((_w(table, _dot(ring, x, g))
                * _w(table, int(ring.add_table[_dot(ring, x, h), s]))
                for x in product(range(ring.order), repeat=len(g))),
               Fraction(0))


def code_correlation_lhs(code, d):
    """sum over codewords c of w(c) w(c + d)."""
    table = code.table
    return sum((_word_weight(table, c)
                * _word_weight(table, _shifted(code.ring, c, d))
                for c in code.words.tolist()), Fraction(0))


def class_coset_sum_lhs(code, weight, d):
    """sum of w(c + d) over the codewords c of the given weight."""
    table = code.table
    return sum((_word_weight(table, _shifted(code.ring, c, d))
                for c in code.words.tolist()
                if _word_weight(table, c) == weight), Fraction(0))


def coordinate_correlation_lhs(code, j, dj):
    """sum over codewords c of w(c) w(c_j + d_j)."""
    table = code.table
    return sum((_word_weight(table, c)
                * _w(table, int(code.ring.add_table[c[j], dj]))
                for c in code.words.tolist()), Fraction(0))


def coordinate_class_sum_lhs(code, weight, j, dj):
    """sum of w(c_j + d_j) over the codewords c of the given weight."""
    table = code.table
    return sum((_w(table, int(code.ring.add_table[c[j], dj]))
                for c in code.words.tolist()
                if _word_weight(table, c) == weight), Fraction(0))


def bump_unit_orbit(ring, table, x, delta):
    """A copy of the table with the weight of the whole two-sided unit
    orbit {u x v} of x moved by delta / |U|, so that it stays
    unit-invariant and passes check_unit_invariance."""
    units = ring.units_array
    orbit = np.unique(ring.mul_table[np.ix_(ring.mul_table[units, x],
                                            units)])
    numerators = table.numerators.copy()
    numerators[orbit] += delta
    return WeightTable(ring, numerators, table.denominator)
