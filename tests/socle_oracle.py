"""Test oracle: the closed form of the homogeneous weight on the socle.

For the built-in constructions the socle is known structurally: a
finite field and a full matrix ring over one are their own socle, the
socle of Z_m is the ideal generated by m / rad(m), and a product's socle
is the product of its factors' socles.  Each simple factor of the socle
is a matrix ring M_m(GF(q)), and on a socle element whose components
have matrix ranks l_i the weight is

    1 - prod_i (-1)^l_i / prod_{j < l_i} (q_i^(m_i - j) - 1),

while every element outside the socle has weight 1.  The library
computes weights from character sums instead; this closed form shares
no code with it.
"""

from fractions import Fraction

import numpy as np
import sympy

from frobcode.rings import GF, MatRing, Product, Zm


def socle_rank_data(ring):
    """(factors, ranks) for the built-in constructions: factors lists
    the simple factors (q_i, m_i) of the socle, M_{m_i}(GF(q_i)), and
    ranks[x] is the per-factor matrix rank tuple of x, or None when x
    lies outside the socle.  None for any other ring."""
    spec = ring.spec
    if isinstance(spec, GF):
        return [(spec.order, 1)], [(int(x != 0),) for x in range(ring.order)]
    if isinstance(spec, MatRing):
        m = spec.m
        base = ring.meta["base_ring"]
        entries = np.asarray(ring.meta["entries"]).reshape(-1, m, m)
        return [(base.order, m)], [(gf_matrix_rank(base, mat.tolist()),)
                                   for mat in entries]
    if isinstance(spec, Zm):
        primes = sympy.primefactors(spec.m)
        step = spec.m // int(np.prod(primes))
        return [(p, 1) for p in primes], [
            None if x % step else tuple(int(x // step % p != 0)
                                        for p in primes)
            for x in range(spec.m)]
    if isinstance(spec, Product):
        parts = [socle_rank_data(f) for f in ring.meta["factor_rings"]]
        if any(part is None for part in parts):
            return None
        ranks = []
        for comps in ring.meta["components"]:
            tuples = [part[1][int(c)] for part, c in zip(parts, comps)]
            ranks.append(None if None in tuples else sum(tuples, ()))
        return [f for part in parts for f in part[0]], ranks
    return None


def structural_socle(ring):
    """Element set of the socle for constructions where it is known
    structurally, else None."""
    data = socle_rank_data(ring)
    if data is None:
        return None
    return frozenset(x for x, rank in enumerate(data[1]) if rank is not None)


def whom_on_socle(factors, ranks):
    """Closed-form weight of a socle element from the simple-factor
    parameters [(q_i, m_i), ...] and its per-factor matrix ranks, as
    socle_rank_data gives them."""
    prod = Fraction(1)
    for (q, m), l in zip(factors, ranks):
        denom = 1
        for j in range(l):
            denom *= q ** (m - j) - 1
        prod *= Fraction((-1) ** l, denom)
    return 1 - prod


def gf_matrix_rank(field, rows):
    """Rank of a matrix with entries in a tables-backed field, by
    Gaussian elimination on its tables."""
    mul, add, neg = field.mul_table, field.add_table, field.neg_table
    mat = [[int(v) for v in r] for r in rows]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(row, n_rows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = field_inv(field, mat[row][col])
        for i in range(row + 1, n_rows):
            if mat[i][col] != 0:
                factor = int(mul[mat[i][col], inv])
                for j in range(col, n_cols):
                    term = int(mul[factor, mat[row][j]])
                    mat[i][j] = int(add[mat[i][j], neg[term]])
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def field_inv(field, a):
    v = int(np.argmax(field.mul_table[a] == 1))
    assert field.mul_table[a, v] == 1, f"element {a} has no inverse"
    return v
