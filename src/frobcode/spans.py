"""Vector enumeration and module spans over a tables-backed finite ring.

Vectors of length n over a ring of order q are numpy int32 rows.  Each
row has one canonical key, the big-endian number
sum(v[i] * q**(n-1-i)), so keys sort in the lexicographic order of the
rows.  The key is an int64 while q**n <= 2**62; past that it is the same
number as a Python int in an object array.  Only the object path runs
on wide rows (a dual word is as long as the smaller weight class); on
narrow rows the int64 path is many times faster, so it stays the
rule there.  Either way ==, np.unique, np.searchsorted, np.isin and
np.minimum work on keys unchanged.  Sets of vectors are kept as
row-sorted unique arrays, and ``lookup`` finds keys in their sorted
keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, IdentityCheckError, PreconditionError

DEFAULT_ENUM_CAP = 1 << 20

# Entries of one block of pairwise sums or differences: a pairwise pass
# over m rows takes its left operand in blocks of rows, so its memory
# stays bounded whatever m is.
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


def _int64_keys(vectors, order):
    n = vectors.shape[-1]
    radix = np.array([order ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    return vectors.astype(np.int64) @ radix


def encode_vectors(vectors, order):
    """Big-endian keys for an (..., n) array of vectors: int64 while
    order**n <= 2**62, else Python ints in an object array, each built
    from the int64 key of every column block short enough for one."""
    vectors = np.asarray(vectors)
    n = vectors.shape[-1]
    if _fits_int64(order, n):
        return _int64_keys(vectors, order)
    width = max(w for w in range(1, 63) if _fits_int64(order, w))
    keys = np.zeros(vectors.shape[:-1], dtype=object)
    for start in range(0, n, width):
        part = vectors[..., start:start + width]
        keys = (keys * order ** part.shape[-1]
                + _int64_keys(part, order).astype(object))
    return keys


def decode_vectors(keys, order, n):
    """The rows of the given keys (the inverse of encode_vectors)."""
    keys = np.asarray(keys)
    out = np.empty(keys.shape + (n,), dtype=np.int32)
    for i in range(n):
        out[..., i] = (keys // order ** (n - 1 - i)) % order
    return out


def lookup(keys, query):
    """Positions of the query keys in the sorted, nonempty keys, and a
    mask of the ones found there (a missing key's position is
    meaningless)."""
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return pos, keys[pos] == query


def enumerate_vectors(order, n, cap=None):
    """All order**n vectors of length n, in encoded (lexicographic)
    order.  Raises CapExceededError past the cap; the message gives
    order**n in digits only when it fits int64."""
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
    return decode_vectors(np.arange(total, dtype=np.int64), order, n)


def _sorted_unique_rows(vectors, order):
    keys, first = np.unique(encode_vectors(vectors, order),
                            return_index=True)
    return vectors[first], keys


@dataclass
class RingModuleSpan:
    """A one-sided submodule of R^n, stored as its full element list."""

    ring: object
    dim: int
    side: str
    generators: tuple
    elements: np.ndarray
    keys: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.keys is None:
            self.keys = encode_vectors(self.elements, self.ring.order)

    @property
    def size(self):
        return len(self.elements)

    def contains(self, vector):
        key = encode_vectors(np.asarray(vector)[None, :], self.ring.order)
        return bool(lookup(self.keys, key)[1][0])


def scalar_orbit(ring, scalars, vector, side="left"):
    """Rows s*v (side left) or v*s (side right) for s in scalars."""
    vector = np.asarray(vector, dtype=np.int32)
    scalars = np.asarray(scalars, dtype=np.int32)
    if side == "left":
        return ring.mul_table[scalars[:, None], vector[None, :]]
    if side == "right":
        return ring.mul_table[vector[None, :], scalars[:, None]]
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def span(ring, generators, side="left", cap=None):
    """The left (or right) submodule of R^n generated by the given rows.

    Closure is one pass: starting from the zero module, add one
    generator's full scalar orbit at a time and close under addition
    with the current set via the addition table.
    """
    if cap is None:
        cap = enum_cap()
    generators = [tuple(int(x) for x in g) for g in generators]
    if not generators:
        raise PreconditionError("span needs at least one generator")
    n = len(generators[0])
    all_scalars = np.arange(ring.order, dtype=np.int32)
    current = np.zeros((1, n), dtype=np.int32)
    for g in generators:
        orbit = scalar_orbit(ring, all_scalars, g, side)
        summed = ring.add_table[current[:, None, :], orbit[None, :, :]]
        summed = summed.reshape(-1, n)
        current, keys = _sorted_unique_rows(summed, ring.order)
        if len(current) > cap:
            raise CapExceededError(
                f"span grew past cap {cap}")
    return RingModuleSpan(ring, n, side, tuple(generators), current, keys)


def unit_orbit(ring, vector, side="left"):
    """Sorted unique rows {u*v : u a unit} (or v*u on the right)."""
    orbit = scalar_orbit(ring, ring.units_array, vector, side)
    rows, _ = _sorted_unique_rows(orbit, ring.order)
    return rows


def point_ids(ring, vectors):
    """The point of each row v: the least encoded member of its right
    unit orbit {v u : u a unit} (constant on orbits), and the orbit
    size.  Rows are taken in blocks of at most BLOCK_ENTRIES orbit
    keys."""
    vectors = np.asarray(vectors, dtype=np.int32)
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
    G = np.asarray(matrix, dtype=np.int32)
    X = np.asarray(coefficients, dtype=np.int32)
    k, n = G.shape
    acc = ring.mul_table[X[:, 0][:, None], G[0][None, :]]
    for i in range(1, k):
        term = ring.mul_table[X[:, i][:, None], G[i][None, :]]
        acc = ring.add_table[acc, term]
    return acc


def apply_matrix(ring, matrix, vectors):
    """Rows (G @ y^T)^T for each vector y (right-side combination)."""
    G = np.asarray(matrix, dtype=np.int32)
    Y = np.asarray(vectors, dtype=np.int32)
    k, n = G.shape
    acc = ring.mul_table[G[:, 0][None, :], Y[:, 0][:, None]]
    for j in range(1, n):
        term = ring.mul_table[G[:, j][None, :], Y[:, j][:, None]]
        acc = ring.add_table[acc, term]
    return acc


def row_space(ring, matrix, cap=None):
    """All combinations x @ G for x in R^k, as sorted unique rows."""
    G = np.asarray(matrix, dtype=np.int32)
    k = G.shape[0]
    X = enumerate_vectors(ring.order, k, cap)
    rows = combine_rows(ring, G, X)
    out, _ = _sorted_unique_rows(rows, ring.order)
    return out


def column_module(ring, matrix, cap=None):
    """The column module {G y : y in R^n} of a k x n matrix G, as rows
    sorted by key, and one preimage y with G y = z for each element z.

    Closes {0} under adding right multiples of each distinct column,
    carrying the coefficient vector y of every element along, so the
    work is bounded by the module size rather than order**n."""
    if cap is None:
        cap = enum_cap()
    G = np.asarray(matrix, dtype=np.int32)
    order = ring.order
    k, n = G.shape
    _, first = np.unique(encode_vectors(G.T, order), return_index=True)
    scalars = np.arange(order, dtype=np.int32)
    z = np.zeros((1, k), dtype=np.int32)
    y = np.zeros((1, n), dtype=np.int32)
    for j in np.sort(first):
        multiples = ring.mul_table[G[:, j][None, :], scalars[:, None]]
        sums = ring.add_table[z[:, None, :], multiples[None, :, :]]
        sums = sums.reshape(-1, k)
        _, at = np.unique(encode_vectors(sums, order), return_index=True)
        if len(at) > cap:
            raise CapExceededError(f"column module grew past cap {cap}")
        z = sums[at]
        y = y[at // order]
        y[:, j] = at % order
    return z, y


def column_space(ring, matrix, cap=None):
    """All products G @ y^T for y in R^n, as sorted unique rows of
    length k: the elements of the column module."""
    return column_module(ring, matrix, cap)[0]


def check_row_column_cardinality(ring, matrix, cap=None):
    """Verify that the row space (x @ G) and column space (G @ y) have
    the same number of elements; returns that common size."""
    nrows = len(row_space(ring, matrix, cap))
    ncols = len(column_space(ring, matrix, cap))
    if nrows != ncols:
        raise IdentityCheckError(
            f"row space has {nrows} elements, column space {ncols}",
            witness={"matrix": np.asarray(matrix).tolist()})
    return nrows


def is_submodule(ring, vectors, side="left"):
    """True iff the given sorted unique rows form a one-sided submodule
    of R^n (nonempty, closed under addition and scalar action)."""
    vectors = np.asarray(vectors, dtype=np.int32)
    if vectors.ndim != 2 or len(vectors) == 0:
        return False
    keys = np.sort(encode_vectors(vectors, ring.order))

    def covered(rows):
        rk = encode_vectors(rows.reshape(-1, vectors.shape[1]), ring.order)
        return bool(lookup(keys, rk)[1].all())

    if not covered(np.zeros((1, vectors.shape[1]), dtype=np.int32)):
        return False
    block = max(1, BLOCK_ENTRIES // max(1, vectors.size))
    for start in range(0, len(vectors), block):
        sums = ring.add_table[vectors[start:start + block, None, :],
                              vectors[None, :, :]]
        if not covered(sums):
            return False
    all_scalars = np.arange(ring.order, dtype=np.int32)
    for start in range(0, ring.order, block):
        scalars = all_scalars[start:start + block, None, None]
        if side == "left":
            scaled = ring.mul_table[scalars, vectors[None, :, :]]
        else:
            scaled = ring.mul_table[vectors[None, :, :], scalars]
        if not covered(scaled):
            return False
    return True
