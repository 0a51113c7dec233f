"""Vector enumeration and module spans over a tables-backed finite ring.

Vectors of length n over a ring of order q are numpy rows in the
element dtype (rings.ELEMENT_DTYPE, int16), keyed by the big-endian
int64 sum(v[i] * q**(n-1-i)), so keys sort as the rows do, and ==,
np.unique, np.searchsorted, np.isin and np.minimum work on them.  A
row with q**n > 2**62 has no key and is refused; the passes over a
code key only its k-long messages.  Sets of vectors are row-sorted
unique arrays, and ``lookup`` finds keys in their sorted keys.

``message_words`` forms the words x G of every message x in R^k as
nested outer sums of the multiples R G[i] of each row, so R^k itself is
never formed and each word entry costs about one add gather.
``enumeration_size`` is the one cap rule for R^n.

One closure grows every submodule M: a generator M holds costs one
key lookup, and each kept one at least doubles M, so it runs at most
log2 |M| passes of |M| * q sums.  ``column_module`` and ``span`` (over
the opposite ring) run it, and ``is_submodule`` asks whether a set
equals its own span.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CapExceededError, PreconditionError
from .rings import ELEMENT_DTYPE, opposite_ring

DEFAULT_ENUM_CAP = 1 << 20

# Entries of one block of pairwise sums or differences: a pairwise pass
# over m rows takes its left operand in blocks of rows, so its memory
# stays bounded whatever m is.  It is a quarter of rings.BLOCK_ENTRIES
# on purpose: at 2^20 the benchmark's ring_suite peaks at 138 MiB
# resident instead of 119 MiB.
BLOCK_ENTRIES = 1 << 18


def enum_cap():
    """The enumeration cap: FROBCODE_CAP when set, else the default."""
    value = os.environ.get("FROBCODE_CAP")
    if value is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise PreconditionError(
            f"FROBCODE_CAP must be a positive integer, got {value!r}")
    return cap


def _fits_int64(order, n):
    return n <= 62 and int(order) ** n <= 1 << 62


def encode_vectors(vectors, order):
    """Big-endian int64 keys for an (..., n) array of vectors; raises
    CapExceededError when order**n > 2**62."""
    vectors = np.asarray(vectors)
    n = vectors.shape[-1]
    if not _fits_int64(order, n):
        raise CapExceededError(
            f"keys of {order}**{n} vectors exceed an int64 range")
    radix = np.array([order ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    return vectors.astype(np.int64) @ radix


def decode_vectors(keys, order, n):
    """The rows of the given keys (the inverse of encode_vectors)."""
    keys = np.asarray(keys)
    out = np.empty(keys.shape + (n,), dtype=ELEMENT_DTYPE)
    for i in range(n):
        out[..., i] = (keys // order ** (n - 1 - i)) % order
    return out


def lookup(keys, query):
    """Positions of the query keys in the sorted, nonempty keys, and a
    mask of the ones found there (a missing key's position is
    meaningless)."""
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return pos, keys[pos] == query


def enumeration_size(order, n, cap=None):
    """order**n, the number of vectors of length n, when they are
    within the cap and int64 keys; otherwise raises CapExceededError,
    whose message gives order**n in digits only when it fits int64."""
    if cap is None:
        cap = enum_cap()
    # order**n >= 2**bits: past both int64 and the cap, it is not built
    bits = n * (int(order).bit_length() - 1)
    total = None if bits >= max(64, int(cap).bit_length()) else order ** n
    if total is None or total > cap:
        shown = "" if total is None or total >= 1 << 63 else f" = {total}"
        raise CapExceededError(
            f"enumerating {order}**{n}{shown} vectors exceeds cap {cap}")
    # the rows are decoded from their keys, an int64 np.arange
    if not _fits_int64(order, n):
        raise CapExceededError(
            f"enumerating {order}**{n} vectors exceeds an int64 range")
    return total


def enumerate_vectors(order, n, cap=None):
    """All order**n vectors of length n, in encoded (lexicographic)
    order; raises the CapExceededError of enumeration_size."""
    total = enumeration_size(order, n, cap)
    return decode_vectors(np.arange(total, dtype=np.int64), order, n)


def _sorted_unique_rows(vectors, order):
    keys, first = np.unique(encode_vectors(vectors, order),
                            return_index=True)
    return vectors[first], keys


def scalar_orbit(ring, scalars, vector):
    """Rows v*s for s in scalars."""
    vector = np.asarray(vector, dtype=ELEMENT_DTYPE)
    scalars = np.asarray(scalars, dtype=ELEMENT_DTYPE)
    return ring.mul_table[vector[None, :], scalars[:, None]]


def _closure(ring, generators, cap, name):
    """The right span M of the rows g of generators: M's rows sorted by
    key, and their keys.  After each kept g, the pending generators
    M + gR holds are dropped; a kept g lies outside M, so M + gR is at
    least two cosets of M.  Raises CapExceededError when M grows past
    the cap."""
    order = ring.order
    scalars = np.arange(order, dtype=ELEMENT_DTYPE)
    generator_keys = encode_vectors(generators, order)
    rows = np.zeros((1, generators.shape[1]), dtype=ELEMENT_DTYPE)
    keys = np.zeros(1, dtype=np.int64)
    pending = np.arange(len(generators))
    while True:
        pending = pending[~lookup(keys, generator_keys[pending])[1]]
        if not len(pending):
            return rows, keys
        multiples = scalar_orbit(ring, scalars, generators[pending[0]])
        sums = ring.add_table[rows[:, None, :], multiples[None, :, :]]
        sums = sums.reshape(-1, rows.shape[1])
        keys, at = np.unique(encode_vectors(sums, order), return_index=True)
        if len(at) > cap:
            raise CapExceededError(f"{name} grew past cap {cap}")
        rows = sums[at]


def span(ring, generators, cap=None):
    """The left submodule of R^n generated by the given rows, as sorted
    unique rows and their keys: their right span over the opposite
    ring, where a held generator costs one key lookup and each kept
    one at least doubles the span."""
    if cap is None:
        cap = enum_cap()
    generators = np.asarray(generators, dtype=ELEMENT_DTYPE)
    if len(generators) == 0:
        raise PreconditionError("span needs at least one generator")
    return _closure(opposite_ring(ring), generators, cap, "span")


def unit_orbit(ring, vector):
    """Sorted unique rows {v*u : u a unit}."""
    orbit = scalar_orbit(ring, ring.units_array, vector)
    rows, _ = _sorted_unique_rows(orbit, ring.order)
    return rows


def point_ids(ring, vectors):
    """The point of each row v: the least encoded member of its right
    unit orbit {v u : u a unit} (constant on orbits), and the orbit
    size.  Rows are taken in blocks of at most BLOCK_ENTRIES orbit
    keys."""
    vectors = np.asarray(vectors, dtype=ELEMENT_DTYPE)
    units = ring.units_array
    pids, sizes = [], []
    block = max(1, BLOCK_ENTRIES // len(units))
    for start in range(0, len(vectors), block):
        rows = vectors[start:start + block]
        orbits = ring.mul_table[rows[:, None, :], units[None, :, None]]
        keys = np.sort(encode_vectors(orbits, ring.order), axis=1)
        pids.append(keys[:, 0])
        sizes.append(1 + (np.diff(keys, axis=1) != 0).sum(axis=1))
    return np.concatenate(pids), np.concatenate(sizes)


def combine_rows(ring, matrix, coefficients):
    """Rows x @ G for each coefficient row x (left module combination)."""
    G = np.asarray(matrix, dtype=ELEMENT_DTYPE)
    X = np.asarray(coefficients, dtype=ELEMENT_DTYPE)
    k, n = G.shape
    acc = ring.mul_table[X[:, 0][:, None], G[0][None, :]]
    for i in range(1, k):
        term = ring.mul_table[X[:, i][:, None], G[i][None, :]]
        acc = ring.add_table[acc, term]
    return acc


def message_words(ring, matrix, cap=None):
    """The words x @ G of a k x n matrix G for every x in R^k, in the
    key order of x, as combine_rows over enumerate_vectors(order, k,
    cap) gives them.  They are nested outer sums of the multiples
    R G[i] of each row: about order**k * n add gathers, where
    combine_rows takes 2k - 1 per entry, and R^k is never formed.
    Raises the CapExceededError of enumeration_size(order, k, cap)
    before it builds anything."""
    G = np.asarray(matrix, dtype=ELEMENT_DTYPE)
    k, n = G.shape
    enumeration_size(ring.order, k, cap)
    acc = ring.mul_table[:, G[0]]
    for row in G[1:]:
        # the sums for x = (prefix, x_i) at row prefix * order + x_i
        sums = ring.add_table[acc[:, None, :], ring.mul_table[:, row][None]]
        acc = sums.reshape(len(acc) * ring.order, n)
    return acc


def apply_matrix(ring, matrix, vectors):
    """Rows (G @ y^T)^T for each vector y (right-side combination)."""
    G = np.asarray(matrix, dtype=ELEMENT_DTYPE)
    Y = np.asarray(vectors, dtype=ELEMENT_DTYPE)
    k, n = G.shape
    acc = ring.mul_table[G[:, 0][None, :], Y[:, 0][:, None]]
    for j in range(1, n):
        term = ring.mul_table[G[:, j][None, :], Y[:, j][:, None]]
        acc = ring.add_table[acc, term]
    return acc


def row_space(ring, matrix, cap=None):
    """All combinations x @ G for x in R^k, as sorted unique rows."""
    out, _ = _sorted_unique_rows(message_words(ring, matrix, cap),
                                 ring.order)
    return out


def column_module(ring, matrix, cap=None):
    """The column module {G y : y in R^n} of a k x n matrix G, as rows
    sorted by key and their keys: the closure of the columns of G, so
    the work is bounded by the module size rather than order**n."""
    if cap is None:
        cap = enum_cap()
    G = np.asarray(matrix, dtype=ELEMENT_DTYPE)
    return _closure(ring, G.T, cap, "column module")


def is_submodule(ring, vectors):
    """True iff the given rows form a right submodule of R^n: they are
    nonempty and equal their own right span, whose closure stops as
    soon as it outgrows them."""
    vectors = np.asarray(vectors, dtype=ELEMENT_DTYPE)
    if vectors.ndim != 2 or len(vectors) == 0:
        return False
    vectors, _ = _sorted_unique_rows(vectors, ring.order)
    try:
        _closure(ring, vectors, len(vectors), "submodule")
    except CapExceededError:
        return False
    return True
