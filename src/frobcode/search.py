"""Systematic search for modular codes with few weights.

A modular code is determined, up to the irrelevant choices, by the set
of cyclic-submodule points its columns cover and the common ratio of
column multiplicity to orbit size.  The search enumerates every subset
of points that fits a length budget of n_max columns, so of at most
n_max points, and every admissible rational ratio within it,
classifies each candidate by its number of nonzero weights, and
certifies all the predicted graph, dual, and difference-set structure
on the spot.  No candidate's code is built: everything is measured on
the messages of R^k, for a block of point subsets at once.

Changing the index scales every weight by the same factor and leaves
the zero-weight and smaller-weight messages, the column module, the
coset graph and the dual words as they are.  So the facts of a point
subset are measured once, on its classify row, for all its indices:
from the weight numerator of every message, the zero-weight and
smaller-weight masks give the coset graph, counted on the message
group by one stacked call of graphs._difference_counts for the whole
block; for b0 = 1 the same call counts the dual graph on the column
module, one int64 matmul per block gives the dual word weights, and
the left unit orbits of the messages give index one.  Each record then
runs the checks of its own code's certification in that order, and
one that fails raises there with the same message and witness; only a
witness that names a failing code's words or messages builds that
code.

The closed forms read only a two-weight profile's fields (n, |C|, b0,
w1, w2, b1, b2 and the index), so each is evaluated once per distinct
profile in a search: the checked profile, the predicted graph, the
dual weights, the checked dual profile and its graph, and the
predicted dual graph.  Every record still compares its own facts with
them: the coset graph srg, the dual's message classes, counted
frequencies, graph and triviality.  A form that raises is not kept, so
the search fails at the first record that reads it, as it would with
every form evaluated at every record.  The equivalence verdict reads
only a record's classification, profile and facts, so it too is
judged once per distinct set of them, and the records share one
object per distinct weight tuple, graph, dual report and equivalence
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .codes import (
    TwoWeightProfile,
    _checked_profile,
    build_code,
    one_weight_verdict,
)
from .cyclotomic import divisors
from .duality import (
    DualReport,
    _check_index_one,
    _check_messages_span,
    _ColumnModule,
    _dual_messages,
    certify_dual,
)
from .errors import CapExceededError, IdentityCheckError, PreconditionError
from .graphs import (
    EquivalenceReport,
    PdsCertificate,
    SrgParams,
    _certified,
    _difference_counts,
    _level,
    _shift_failure,
    _srg_from_counts,
    equivalence_verdict,
    predicted_srg,
)
from .homweight import weight_table
from .rings import ELEMENT_DTYPE
from .spans import (
    BLOCK_ENTRIES,
    encode_vectors,
    enum_cap,
    enumerate_vectors,
    message_words,
    point_ids,
)

DEFAULT_POINT_GUARD = 24


@dataclass(frozen=True)
class PointInfo:
    """One cyclic-submodule point of the message space: its canonical
    id (the smallest encoded member of the right unit orbit), a
    representative vector, and the orbit size."""
    pid: int
    representative: tuple
    orbit_size: int


def _point_layer(ring, k, cap):
    """The points of the rank-k free module, its vectors in key order,
    and the point index of each vector (-1 for the zero vector)."""
    vectors = enumerate_vectors(ring.order, k, cap)
    pids, sizes = point_ids(ring, vectors)
    firsts = np.flatnonzero(pids == np.arange(len(vectors)))
    points = [PointInfo(pid=int(i),
                        representative=tuple(int(v) for v in vectors[i]),
                        orbit_size=int(sizes[i]))
              for i in firsts[1:]]
    return points, vectors, np.searchsorted(firsts, pids) - 1


def projective_points(ring, k, cap=None):
    """All points of the rank-k free module, by ascending canonical id:
    the nonzero vectors that are the least member of their right unit
    orbit."""
    return _point_layer(ring, k, cap)[0]


@dataclass(frozen=True)
class SearchRecord:
    """One candidate from the search, with everything that was
    certified about it."""
    ring_text: str
    k: int
    point_ids: tuple
    index: Fraction
    n: int
    size: int
    b0: int
    classification: str
    weights: tuple
    profile: TwoWeightProfile | None = None
    srg: SrgParams | None = None
    dual: DualReport | None = None
    equivalence: EquivalenceReport | None = None


def _admissible_indices(orbit_sizes, n_max, mult_cap, index_one):
    """Ratios r such that every column multiplicity r * orbit_size is a
    positive integer within the caps, ascending."""
    total = sum(orbit_sizes)
    largest = max(orbit_sizes)
    if index_one:
        return [Fraction(1)] if total <= n_max and largest <= mult_cap else []
    g = math.gcd(*orbit_sizes)
    # each a/b in lowest terms once, so no Fraction is hashed
    found = []
    for b in divisors(g):
        # r = a/b needs r * total <= n_max and r * largest <= mult_cap
        top = min(n_max * b // total, mult_cap * b // largest)
        found += [Fraction(a, b) for a in range(1, top + 1)
                  if math.gcd(a, b) == 1]
    return sorted(found)


def _has_index(chosen, orbit_sizes, n_max, mult_cap, index_one):
    """The rows of a 0/1 point matrix that _admissible_indices gives
    some ratio: the smallest, 1 over the gcd g of the chosen orbit
    sizes (with index_one, g = 1), fits both caps."""
    sizes = chosen * orbit_sizes
    g = 1 if index_one else np.gcd.reduce(sizes, axis=1)
    return ((sizes.sum(axis=1) <= n_max * g)
            & (sizes.max(axis=1) <= mult_cap * g))


def _subset_masks(count, most, step):
    """The masks over count bits with 1 to most bits set, ascending, in
    blocks of at most step: each value of the high bits with the masks
    of the low bits that its set bits leave room for."""
    low_bits = min(count, step.bit_length() - 1)
    low = np.arange(1 << low_bits)
    ones = np.zeros(len(low), dtype=np.int64)
    for bit in range(low_bits):
        ones += low >> bit & 1
    block, size = [], 0
    for high in range(1 << (count - low_bits)):
        room = most - bin(high).count("1")
        if room < 0:
            continue
        part = (high << low_bits) | low[ones <= room]
        if not high:
            part = part[1:]
        if size + len(part) > step:
            yield np.concatenate(block)
            block, size = [], 0
        block.append(part)
        size += len(part)
    if size:
        yield np.concatenate(block)


def _candidate_generator(ring, subset, index):
    columns = []
    for point in subset:
        rep = np.array(point.representative, dtype=ELEMENT_DTYPE)
        mult = int(index * point.orbit_size)
        columns.append(np.tile(rep[:, None], (1, mult)))
    return np.concatenate(columns, axis=1)


def generator_for_record(ring, record):
    """Rebuild the generator matrix a search record was certified
    from."""
    by_pid = {p.pid: p for p in projective_points(ring, record.k)}
    subset = [by_pid[pid] for pid in record.point_ids]
    return _candidate_generator(ring, subset, record.index)


def search_modular_codes(ring, k, n_max, index_one=False, mult_cap=None,
                         cap=None):
    """Enumerate all modular codes of rank k and length at most n_max
    over the ring, one per (point subset, index) pair, and certify each
    classification as it is found.  The record list is deterministic.
    Point subsets, of at most n_max points, are classified in blocks
    of bit masks, and each candidate is then certified in order, so failures surface as if
    every candidate were certified in turn.  Every column multiplicity
    is at most mult_cap, with index_one too.
    """
    if k < 1 or n_max < 1:
        raise PreconditionError("search needs k >= 1 and n_max >= 1")
    if mult_cap is not None and mult_cap < 1:
        raise PreconditionError("search needs mult_cap >= 1")
    # a column multiplicity is at most the length, so mult_cap past
    # n_max admits nothing more
    mult_cap = n_max if mult_cap is None else min(mult_cap, n_max)
    if cap is None:
        cap = enum_cap()
    points, vectors, labels = _point_layer(ring, k, cap)
    if not index_one and len(vectors) * mult_cap > cap:
        # the single-point subsets reach every length up to mult_cap,
        # and a candidate's words fill order**k x n entries
        raise CapExceededError(
            f"codewords of {len(vectors)} x {mult_cap} entries exceed "
            f"cap {cap}")
    count = len(points)
    if count > DEFAULT_POINT_GUARD:
        raise CapExceededError(
            f"{count} points exceed the subset search guard "
            f"{DEFAULT_POINT_GUARD}")
    # nor does n_max past mult_cap columns on each point
    n_max = min(n_max, mult_cap * count)
    tables = _PointTables(ring, points, vectors, labels)
    # a mask costs |R^k| message entries and count^2 point-pair terms
    step = max(1, BLOCK_ENTRIES // max(count * count, len(vectors)))
    # the ratios of each (total, largest, gcd) of the chosen orbit
    # sizes, which is all _admissible_indices reads
    indices = {}
    records = []
    # each chosen point takes at least one column
    for masks in _subset_masks(count, min(n_max, count), step):
        chosen = (masks[:, None] >> np.arange(count)) & 1
        chosen = chosen[_has_index(chosen, tables.sizes, n_max, mult_cap,
                                   index_one)]
        sizes = chosen * tables.sizes
        keys = zip(sizes.sum(axis=1).tolist(), sizes.max(axis=1).tolist(),
                   np.gcd.reduce(sizes, axis=1).tolist())
        for at, (row, key) in enumerate(zip(tables.classify(chosen), keys)):
            found = indices.get(key)
            if found is None:
                found = indices[key] = _admissible_indices(
                    sizes[at][sizes[at] > 0].tolist(), n_max, mult_cap,
                    index_one)
            for index in found:
                records.append(tables.record(row, index, cap))
    return records


_CLASSIFICATIONS = {1: "one-weight", 2: "two-weight"}


class _PointTables:
    """Point tables of R^k that classify candidates without their codes.

    A candidate is a 0/1 row over the P points, with an index r and
    column multiplicities m_p = r * |orbit p|.  The word of message x
    has weight numerator sum_p m_p * W[p, x], where W[p, x] is the
    numerator of x . rep_p, and x lies in the kernel when x . rep_p = 0
    for every chosen p.

    Omega, the union of the chosen orbits, is a set, so its difference
    counts are sum_{p, q chosen} D[p, q, z] with D[p, q, z] the number
    of (s, t) in orbit p x orbit q with s - t = z.  The orbits are right
    unit orbits, so D[p, q, z u] = D[p, q, z] and D is kept at the
    representatives z = rep_r only.  Each orbit is closed under -1, so
    a union of orbits with 0 is closed under addition exactly when no
    difference lands on a point outside it, and under right scalars
    exactly when no image rep_p R (the point mask images[p]) does.
    The column module Z = sum_p rep_p R is such a union, kept as a
    point mask, and Z(S + p) = Z(S) + rep_p R is memoised on
    (module, point).

    The rows with two weights or b0 > 1 are measured on the messages
    (see _measure), with tables of R^k built at first use: the key of
    -x, the least key of the left unit orbit of x and, a block of
    columns z at a time, w(x . z) for every message x.
    """

    def __init__(self, ring, points, vectors, labels):
        order = ring.order
        count = len(points)
        reps = np.array([p.representative for p in points],
                        dtype=ELEMENT_DTYPE)
        self.points = points
        self.pids = np.array([p.pid for p in points], dtype=np.int64)
        self.sizes = np.array([p.orbit_size for p in points], dtype=np.int64)
        table = weight_table(ring)
        self.ring, self.table = ring, table
        self.vectors, self.labels = vectors, labels
        self.ring_text = ring.spec.text()
        self.denominator = table.denominator
        self._weights = {}
        self._forms = {}
        self._verdicts = {}
        self._duals = {}
        self.zero_only = table.zero_set() == {0}
        bound = int(np.abs(table.numerators).max()) * int(self.sizes.sum())
        if bound >= 1 << 63:
            raise CapExceededError(
                f"weight numerators up to {bound} exceed int64")
        # vectors is all of R^k, already within the cap
        self.products = message_words(ring, reps.T, cap=len(vectors))
        self.weights = table.numerators[self.products].T
        self.nonzero = (self.products != 0).T.astype(np.int64)
        diffs = np.empty((count, count, count), dtype=np.int64)
        for r in range(count):
            shifted = ring.add_table[vectors, ring.neg_table[reps[r]]]
            t = labels[encode_vectors(shifted, order)]
            both = (labels >= 0) & (t >= 0)
            diffs[:, :, r] = np.bincount(
                labels[both] * count + t[both],
                minlength=count * count).reshape(count, count)
        self.diffs = diffs
        self.images = np.zeros((count, count), dtype=bool)
        scalars = np.arange(order)
        for p in range(count):
            multiples = ring.mul_table[reps[p][None, :], scalars[:, None]]
            hit = labels[encode_vectors(multiples, order)]
            self.images[p, hit[hit >= 0]] = True
        self.modules = [np.zeros(count, dtype=bool)]
        self._module_ids = {self.modules[0].tobytes(): 0}
        self._sums = {}

    def classify(self, chosen):
        """For each 0/1 row over the points: the tuple of the numerators
        of its distinct nonzero weights at index 1, its code size, its
        b0, for b0 = 1 its equivalence facts (see _equivalence), else
        None, for two weights or zero-weight messages other than ker G
        its _RowFacts (see _measure), else None, its point ids and the
        sum of its orbit sizes."""
        numerators = (chosen * self.sizes) @ self.weights
        in_kernel = chosen @ self.nonzero == 0
        kernel = in_kernel.sum(axis=1)
        ordered = np.sort(numerators, axis=1)
        first = np.ones(ordered.shape, dtype=bool)
        first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        first &= ordered != 0
        b0 = (ordered == 0).sum(axis=1) // kernel
        sizes = ordered.shape[1] // kernel
        trivial = np.flatnonzero(b0 == 1)
        modules = np.zeros(len(chosen), dtype=np.int64)
        facts = [None] * len(chosen)
        if len(trivial):
            modules[trivial] = self._column_modules(chosen[trivial])
            for row, eq in zip(trivial.tolist(), self._equivalence(
                    chosen[trivial], modules[trivial])):
                facts[row] = eq
        measured = [None] * len(chosen)
        rows = np.flatnonzero((first.sum(axis=1) == 2) | (b0 > 1) | (
            (numerators == 0) != in_kernel).any(axis=1))
        if len(rows):
            for row, found in zip(rows.tolist(), self._measure(
                    chosen[rows], numerators[rows], ordered[rows],
                    first[rows], in_kernel[rows], b0[rows], modules[rows])):
                measured[row] = found
        return list(zip(_split(ordered[first], first.sum(axis=1)),
                        sizes.tolist(), b0.tolist(), facts, measured,
                        _split(self.pids[np.nonzero(chosen)[1]],
                               chosen.sum(axis=1)),
                        (chosen @ self.sizes).tolist()))

    def _equivalence(self, chosen, modules):
        """Per row, with the id of its column module: the fields of the
        difference-set certificate of the chosen orbits in the column
        module (None when their difference counts are not constant on
        them and on the rest of the module), whether they form a right
        submodule with 0, whether their complement in the column module
        does, and the sizes of the orbits' union and of the column
        module."""
        member = chosen == 1
        outside = (np.stack(self.modules)[modules]
                   & ~member).astype(np.int64)
        counts = self._difference_counts(chosen)
        lam, on_omega = _level(counts, member)
        mu, off_omega = _level(counts, outside == 1)
        comp_sub = outside.any(axis=1) & self._closed(
            outside, self._difference_counts(outside))
        omega_size = chosen @ self.sizes
        ambient = 1 + omega_size + outside @ self.sizes
        for pds, lam_j, mu_j, omega_sub, comp, size, total in zip(
                (on_omega & off_omega).tolist(), lam.tolist(), mu.tolist(),
                self._closed(chosen, counts).tolist(), comp_sub.tolist(),
                omega_size.tolist(), ambient.tolist()):
            cert = (total, size, lam_j, mu_j) if pds else None
            yield cert, omega_sub, comp, size, total

    def _difference_counts(self, chosen):
        """Row j, point r: the number of pairs (s, t) of the chosen
        orbits with s - t = rep_r."""
        counts = np.zeros(chosen.shape, dtype=np.int64)
        for q in range(chosen.shape[1]):
            counts += chosen[:, q, None] * (chosen @ self.diffs[:, q])
        return counts

    def _closed(self, chosen, counts):
        """Rows whose chosen orbits with 0 form a right submodule: no
        difference and no right multiple leaves them."""
        leaves = (counts > 0) | (chosen @ self.images > 0)
        return ~(leaves & (chosen == 0)).any(axis=1)

    def _column_modules(self, chosen):
        """The id in self.modules of each row's column module."""
        ids = np.zeros(len(chosen), dtype=np.int64)
        for p in range(chosen.shape[1]):
            rows = chosen[:, p] == 1
            present = np.unique(ids[rows]).tolist()
            if not present:
                continue
            lookup = np.zeros(present[-1] + 1, dtype=np.int64)
            for m in present:
                lookup[m] = self._module_sum(m, p)
            ids[rows] = lookup[ids[rows]]
        return ids

    def _module_sum(self, m, p):
        """The id of module m + rep_p R: its points, the points of
        rep_p R, and every point a sum of the two reaches."""
        if (m, p) not in self._sums:
            module, image = self.modules[m], self.images[p]
            reach = np.tensordot(module, self.diffs, axes=1)[image]
            total = module | image | (reach.sum(axis=0) > 0)
            found = self._module_ids.setdefault(total.tobytes(),
                                                len(self.modules))
            if found == len(self.modules):
                self.modules.append(total)
            self._sums[m, p] = found
        return self._sums[m, p]

    @cached_property
    def _negated(self):
        """The key of -x for each message x."""
        return encode_vectors(self.ring.neg_table[self.vectors],
                              self.ring.order)

    @cached_property
    def _left_orbits(self):
        """The least key of the left unit orbit {u x} of each message x,
        a block of units at a time."""
        ring, vectors = self.ring, self.vectors
        least = np.arange(len(vectors))
        units = ring.units_array
        block = max(1, BLOCK_ENTRIES // vectors.size)
        for start in range(0, len(units), block):
            images = ring.mul_table[units[start:start + block, None, None],
                                    vectors[None]]
            np.minimum(least, encode_vectors(images, ring.order).min(axis=0),
                       out=least)
        return least

    def _measure(self, chosen, numerators, ordered, first, in_kernel, b0,
                 modules):
        """The _RowFacts of rows that classify measures, given their
        message-order and sorted numerators at index 1, the first of
        each distinct nonzero value, the ker G mask, b0 and, for b0 = 1,
        the column module id.  Zero-weight messages other than ker G,
        a group, get _zero_shifts.  The smaller-weight masks of the
        two-weight rows, on one message per coset of the zero-weight
        messages and labelled by coset, and for b0 = 1 the masks of
        their occurring points are one stack for
        graphs._difference_counts on the message group; the dual graph
        counts are read on the column module.  Index one is the
        smaller-weight mask constant on left unit orbits, and the dual
        word weights come from _dual_numerators."""
        facts = [_RowFacts() for _ in range(len(chosen))]
        keys = np.arange(len(self.vectors))
        # the least key of each message's coset of the zero-weight
        # messages: ker G, the messages with the same word, unless
        # other messages have weight zero
        least = np.broadcast_to(keys, numerators.shape).copy()
        extra_zero = ((numerators == 0) != in_kernel).any(axis=1)
        for j in np.flatnonzero(extra_zero).tolist():
            found = facts[j]
            found.closed, found.constant, least[j] = self._zero_shifts(
                numerators[j])
        plain = ~extra_zero & (in_kernel.sum(axis=1) > 1)
        for j in np.flatnonzero(plain).tolist():
            _, at, word = np.unique(self.products[:, chosen[j] == 1], axis=0,
                                    return_index=True, return_inverse=True)
            least[j] = at[word.ravel()]
        hits = np.flatnonzero(first.sum(axis=1) == 2)
        if not len(hits):
            return facts
        kernel = in_kernel.sum(axis=1)
        values = ordered[hits][first[hits]].reshape(-1, 2)
        smaller = numerators[hits] == values[:, :1]
        larger = numerators[hits] == values[:, 1:]
        symmetric = (smaller[:, self._negated] == smaller).all(axis=1)
        trivial = np.flatnonzero(b0[hits] == 1)
        rows = hits[trivial]
        omega = (chosen[rows][:, self.labels] == 1) & (self.labels >= 0)
        in_module = np.concatenate(
            [np.ones((len(rows), 1), dtype=bool),
             np.stack(self.modules)[modules[rows]]],
            axis=1)[:, self.labels + 1]
        # the coset graph is counted on one message per coset, under the
        # coset's least key; the dual graph on the messages themselves
        vertex = least[hits] == keys
        counts = _difference_counts(
            self.ring, self.vectors, None,
            np.concatenate([least[hits], np.broadcast_to(keys, omega.shape)]),
            np.concatenate([smaller & vertex, omega]))
        adjacent = smaller & vertex
        coset_srgs = _srg_from_counts(
            vertex.sum(axis=1).tolist(), adjacent.sum(axis=1).tolist(),
            counts[:len(hits)], adjacent, larger & vertex)
        others = in_module & ~omega
        others[:, 0] = False
        dual_srgs = _srg_from_counts(
            in_module.sum(axis=1).tolist(), omega.sum(axis=1).tolist(),
            counts[len(hits):], omega, others)
        # x . z is constant on each coset of ker G for z in the column
        # module, so each smaller-weight word counts |ker G| times
        words = (self._dual_numerators(smaller[trivial], in_module)
                 // kernel[rows][:, None])
        left_closed = (smaller[trivial][:, self._left_orbits]
                       == smaller[trivial]).all(axis=1)
        b1 = smaller.sum(axis=1) // kernel[hits]
        b2 = larger.sum(axis=1) // kernel[hits]
        for j, row in enumerate(hits.tolist()):
            found = facts[row]
            found.symmetric, found.srg = bool(symmetric[j]), coset_srgs[j]
            found.b1, found.b2 = int(b1[j]), int(b2[j])
        for t, row in enumerate(rows.tolist()):
            found, z = facts[row], in_module[t]
            found.module = _ColumnModule(
                self.vectors[z], np.flatnonzero(z), words[t][z], omega[t][z])
            found.smaller, found.kernel = smaller[trivial[t]], int(kernel[row])
            found.left_closed = bool(left_closed[t])
            found.dual_srg = dual_srgs[t]
        return facts

    def _zero_shifts(self, numerators):
        """For one row whose zero-weight messages are not ker G: whether
        they hold 0 and are closed under addition, whether every weight
        is constant on their cosets, and the least key of each
        message's coset, from the key of x + s for every message x and
        zero-weight message s, a block of x at a time."""
        count = len(self.vectors)
        zero = numerators == 0
        least = np.arange(count)
        if not zero[0]:
            return False, False, least
        shifts = self.vectors[zero]
        closed = constant = True
        block = max(1, BLOCK_ENTRIES // shifts.size)
        for start in range(0, count, block):
            sums = encode_vectors(self.ring.add_table[
                self.vectors[start:start + block, None, :], shifts[None]],
                self.ring.order)
            shifted = numerators[sums]
            own = numerators[start:start + block]
            constant &= bool((shifted == own[:, None]).all())
            closed &= bool((shifted[own == 0] == 0).all())
            least[start:start + block] = sums.min(axis=1)
        return closed, constant, least

    def _dual_numerators(self, smaller, modules):
        """Row j, message z of module j: the numerator of the weight of
        the dual word, the sum over the smaller-weight messages x of row
        j of w(x . z).  The table of w(x . z) for every message x is
        formed for a block of z of at most BLOCK_ENTRIES entries at a
        time, and each block is one int64 matmul with the masks."""
        count = len(self.vectors)
        sums = np.zeros(smaller.shape, dtype=np.int64)
        needed = np.flatnonzero(modules.any(axis=0))
        width = max(1, BLOCK_ENTRIES // count)
        masks = smaller.astype(np.int64)
        for start in range(0, len(needed), width):
            z = needed[start:start + width]
            products = message_words(self.ring, self.vectors[z].T, count)
            sums[:, z] = masks @ self.table.numerators[products]
        return sums

    def record(self, row, index, cap):
        """The certified record of a candidate with classify's row.  Its
        checks run in the order of certifying the candidate's own code,
        on what the row's block measured (see _measure), and a failing
        check raises what that certification raises.  A code is built
        only for the witness of a failure that names its words or
        messages: weights that change under zero-weight shifts, and a
        dual not of index one.  The intended index needs no check: the
        columns are the point representatives with multiplicities
        index * orbit size, so the numerators are index times the
        row's.

        Records share their parts: one weight tuple per distinct
        (numerators, index), the predicted graph object for an equal
        coset graph, one dual report per distinct value and one
        equivalence report per distinct verdict (see _verdict)."""
        numerators, size, b0, equivalence, facts, ids, total = row
        r, s = index.numerator, index.denominator
        key = numerators, r, s
        weights = self._weights.get(key)
        if weights is None:
            weights = self._weights[key] = tuple(
                Fraction(v * r, self.denominator * s) for v in numerators)
        n = r * total // s
        classification = _CLASSIFICATIONS.get(len(weights), "mixed")
        generator = partial(self._generator, ids, index)
        profile = srg = dual = report = None
        if facts is not None and not facts.closed:
            raise IdentityCheckError(
                "zero-weight words are not closed under addition",
                witness={"ring": self.ring_text})
        if classification == "one-weight" and b0 == 1:
            # every candidate is modular by construction
            one_weight_verdict(self.ring, is_one=True, is_mod=True,
                               is_sub=equivalence[1], generator=generator)
        if classification == "two-weight":
            profile = self._form(_checked_profile, TwoWeightProfile(
                n=n, size=size, b0=b0, w1=weights[0], w2=weights[1],
                b1=facts.b1, b2=facts.b2, index=index))
            predicted = self._form(predicted_srg, profile)
            if not facts.constant:
                # the witness names a word and its shift
                raise _shift_failure(build_code(self.ring, generator(), cap))
            if not facts.symmetric:
                raise IdentityCheckError("coset adjacency is not symmetric")
            if _certified(facts.srg) != predicted:
                raise IdentityCheckError(
                    "measured graph parameters disagree with the closed "
                    "forms",
                    witness={"measured": facts.srg.as_tuple(),
                             "predicted": predicted.as_tuple(),
                             "points": list(ids), "index": str(index)})
            srg = predicted
            if b0 == 1:
                dual = certify_dual(profile, _RowDual(self, facts, generator,
                                                      cap), self._form)
                # the rest of a report is the profile's forms, or equal
                # to them, as certify_dual checked
                dual = self._duals.setdefault(
                    (profile.key, dual.b1_dual, dual.b2_dual,
                     dual.class_counts), dual)
        if b0 == 1:
            report = self._verdict(classification, profile, equivalence,
                                   generator)
        return SearchRecord(
            ring_text=self.ring_text, k=self.vectors.shape[1],
            point_ids=ids, index=index, n=n, size=size, b0=b0,
            classification=classification, weights=weights,
            profile=profile, srg=srg, dual=dual, equivalence=report)

    def _generator(self, ids, index):
        """The generator matrix of the candidate on these point ids."""
        by_pid = dict(zip(self.pids.tolist(), self.points))
        return _candidate_generator(self.ring, [by_pid[p] for p in ids],
                                    index)

    def _verdict(self, classification, profile, equivalence, generator):
        """equivalence_verdict on a record's facts, one report per
        distinct classification, profile and equivalence facts in this
        search, which are all it reads.  A verdict that fails is not
        kept, so each record that reads it raises again with its own
        generator as the witness."""
        key = (classification, None if profile is None else profile.key,
               equivalence)
        found = self._verdicts.get(key)
        if found is None:
            # the column module lies in R^k, which _point_layer
            # enumerated under the cap
            pds, omega_sub, comp_sub, omega_size, ambient = equivalence
            found = self._verdicts[key] = equivalence_verdict(
                one_weight=classification == "one-weight", profile=profile,
                pds=None if pds is None else PdsCertificate(*pds),
                omega_sub=omega_sub, comp_sub=comp_sub,
                zero_only=self.zero_only, omega_size=omega_size,
                ambient_size=ambient, generator=generator,
                evaluate=self._form)
        return found

    def _form(self, form, profile):
        """form(profile), evaluated once per distinct profile in this
        search and kept by the profile's integer fields (see
        TwoWeightProfile.key).  A form that raises is not kept, so each
        record that reads it raises again."""
        key = form, profile.key
        found = self._forms.get(key)
        if found is None:
            found = self._forms[key] = form(profile)
        return found


def _split(values, counts):
    """The consecutive runs of values of these lengths, as tuples."""
    flat = values.tolist()
    ends = np.cumsum(counts).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


@dataclass
class _RowFacts:
    """What a classify block measured of one row that it measures:
    whether its zero-weight messages are closed under addition and its
    weights constant on their cosets; with two weights, whether
    the smaller-weight messages are closed under negation, the word
    counts b1 and b2, and the coset graph srg (or the
    IdentityCheckError that refutes it); with b0 = 1 too, the dual's
    column module, the smaller-weight mask and |ker G|, whether the
    mask is closed under left units, the dual graph srg (or its error)
    and, once a record reads it, the outcome of the span check."""
    closed: bool = True
    constant: bool = True
    symmetric: bool = True
    b1: int = 0
    b2: int = 0
    srg: object = None
    module: _ColumnModule | None = None
    smaller: np.ndarray | None = None
    kernel: int = 1
    left_closed: bool = True
    dual_srg: object = None
    spanned: object = None


class _RowDual:
    """A record's dual measurement, read from its row's facts with the
    attributes certify_dual reads of a DualMeasurement.  Only a failing
    index-one check builds the candidate's code, for its witness."""

    def __init__(self, tables, facts, generator, cap):
        self.tables, self.facts = tables, facts
        self.generator, self.cap = generator, cap
        self.order, self.denominator = tables.ring.order, tables.denominator
        self.module = facts.module

    @property
    def index_one(self):
        if not self.facts.left_closed:
            code = build_code(self.tables.ring, self.generator(), self.cap)
            _check_index_one(code, _dual_messages(code))

    @property
    def srg(self):
        return _certified(self.facts.dual_srg)

    @property
    def spans(self):
        """None, once the smaller-weight messages span R^k; checked once
        per row."""
        facts, tables = self.facts, self.tables
        if facts.spanned is None:
            try:
                _check_messages_span(tables.ring,
                                     tables.vectors[facts.smaller],
                                     facts.kernel, facts.module.keys.size,
                                     self.cap)
                facts.spanned = True
            except IdentityCheckError as exc:
                facts.spanned = exc
        _certified(facts.spanned)
