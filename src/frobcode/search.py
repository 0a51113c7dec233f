"""Systematic search for modular codes with few weights.

A modular code is determined, up to the irrelevant choices, by the set
of cyclic-submodule points its columns cover and the common ratio of
column multiplicity to orbit size.  The search enumerates every subset
of points and every admissible rational ratio within a length budget,
classifies each candidate by its number of nonzero weights, and
certifies all the predicted graph, dual, and difference-set structure
on the spot.  Mixed candidates with a trivial zero-weight subcode are
certified from point tables without building their codes; the others
build their codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import TwoWeightProfile, build_code, one_weight_characterization
from .cyclotomic import divisors
from .duality import DualReport, dual_pipeline
from .errors import CapExceededError, IdentityCheckError, PreconditionError
from .graphs import (
    EquivalenceReport,
    SrgParams,
    _complement_failure,
    _correspondence_failure,
    build_coset_graph,
    coset_graph_srg,
    equivalence_check,
    predicted_srg,
)
from .homweight import weight_table
from .spans import (
    BLOCK_ENTRIES,
    _check_encodable,
    combine_rows,
    encode_vectors,
    enum_cap,
    enumerate_vectors,
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
    certified about it.  dual_skipped holds the reason when a
    two-weight hit's dual was too large to enumerate."""
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
    dual_skipped: str | None = None


def _admissible_indices(orbit_sizes, n_max, mult_cap, index_one):
    """Ratios r such that every column multiplicity r * orbit_size is a
    positive integer within the caps, ascending."""
    total = sum(orbit_sizes)
    if index_one:
        return [Fraction(1)] if total <= n_max else []
    g = math.gcd(*orbit_sizes)
    largest = max(orbit_sizes)
    found = set()
    for b in divisors(g):
        # r = a/b needs r * total <= n_max and r * largest <= mult_cap
        top = min(n_max * b // total, mult_cap * b // largest)
        for a in range(1, top + 1):
            if math.gcd(a, b) == 1:
                found.add(Fraction(a, b))
    return sorted(found)


def _has_index(chosen, orbit_sizes, n_max, mult_cap, index_one):
    """The rows of a 0/1 point matrix that _admissible_indices gives
    some ratio: the smallest, 1 over the gcd g of the chosen orbit
    sizes, fits both caps (index_one: ratio 1 fits n_max)."""
    sizes = chosen * orbit_sizes
    if index_one:
        return sizes.sum(axis=1) <= n_max
    g = np.gcd.reduce(sizes, axis=1)
    return ((sizes.sum(axis=1) <= n_max * g)
            & (sizes.max(axis=1) <= mult_cap * g))


def _candidate_generator(ring, subset, index):
    columns = []
    for point in subset:
        rep = np.array(point.representative, dtype=np.int32)
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
    Point subsets are classified in blocks of bit masks; the candidates
    the batch does not settle go through _certify_candidate in order,
    so failures surface as if every candidate were certified in turn.
    """
    if k < 1 or n_max < 1:
        raise PreconditionError("search needs k >= 1 and n_max >= 1")
    # a column multiplicity is at most the length, so mult_cap past
    # n_max admits nothing more (index_one ignores mult_cap)
    mult_cap = n_max if mult_cap is None else min(mult_cap, n_max)
    if not index_one:
        # the single-point subsets reach every length up to mult_cap,
        # and each codeword needs an int64 key
        _check_encodable(ring.order, mult_cap)
    points, vectors, labels = _point_layer(ring, k, cap)
    count = len(points)
    if count > DEFAULT_POINT_GUARD:
        raise CapExceededError(
            f"{count} points exceed the subset search guard "
            f"{DEFAULT_POINT_GUARD}")
    if not index_one:
        # nor does n_max past mult_cap columns on each point
        n_max = min(n_max, mult_cap * count)
    batch = _MixedBatch(ring, points, vectors, labels)
    # a mask costs |R^k| message entries and count^2 point-pair terms
    step = max(1, BLOCK_ENTRIES // max(count * count, len(vectors)))
    records = []
    for start in range(1, 1 << count, step):
        masks = np.arange(start, min(start + step, 1 << count))
        chosen = (masks[:, None] >> np.arange(count)) & 1
        keep = _has_index(chosen, batch.sizes, n_max, mult_cap, index_one)
        rows = batch.classify(chosen[keep])
        for mask, settled in zip(masks[keep].tolist(), rows):
            subset = [points[i] for i in range(count) if mask >> i & 1]
            sizes = [p.orbit_size for p in subset]
            for index in _admissible_indices(sizes, n_max, mult_cap,
                                             index_one):
                if settled is None:
                    records.append(_certify_candidate(ring, k, subset,
                                                      index, cap))
                else:
                    records.append(batch.record(ring, k, subset, index,
                                                settled))
    return records


def _certify_candidate(ring, k, subset, index, cap):
    generator = _candidate_generator(ring, subset, index)
    code = build_code(ring, generator, cap)
    if code.index != index:
        raise IdentityCheckError(
            "constructed code does not have the intended index",
            witness={"intended": str(index), "measured": str(code.index)})
    nonzero = code.nonzero_weights
    profile = None
    srg = None
    dual = None
    dual_skipped = None
    equivalence = None
    if len(nonzero) == 1:
        classification = "one-weight"
        if code.b0 == 1:
            is_one, is_mod, is_sub = one_weight_characterization(code)
            if not (is_one and is_mod and is_sub):
                raise IdentityCheckError(
                    "one-weight candidate fails its support "
                    "characterization",
                    witness={"one": is_one, "modular": is_mod,
                             "support_submodule": is_sub})
    elif len(nonzero) == 2:
        classification = "two-weight"
        profile = code.profile
        predicted = predicted_srg(profile)
        graph = build_coset_graph(code)
        srg = coset_graph_srg(graph)
        if srg != predicted:
            raise IdentityCheckError(
                "measured graph parameters disagree with the closed forms",
                witness={"measured": srg.as_tuple(),
                         "predicted": predicted.as_tuple(),
                         "points": [p.pid for p in subset],
                         "index": str(index)})
        if profile.b0 == 1:
            try:
                dual = dual_pipeline(code, cap)
            except CapExceededError as exc:
                dual_skipped = str(exc)
    else:
        classification = "mixed"
    if code.b0 == 1:
        equivalence = equivalence_check(code)
    return SearchRecord(
        ring_text=ring.spec.text(), k=k,
        point_ids=tuple(p.pid for p in subset), index=index,
        n=code.n, size=code.size, b0=code.b0,
        classification=classification,
        weights=nonzero, profile=profile, srg=srg,
        dual=dual, equivalence=equivalence, dual_skipped=dual_skipped)


def _constant_on(values, mask):
    """Rows whose values under the mask are all equal (or masked out)."""
    high = np.where(mask, values, -1).max(axis=1)
    return np.where(mask, values, high[:, None]).min(axis=1) == high


class _MixedBatch:
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
    """

    def __init__(self, ring, points, vectors, labels):
        order = ring.order
        count = len(points)
        reps = np.array([p.representative for p in points], dtype=np.int32)
        self.sizes = np.array([p.orbit_size for p in points], dtype=np.int64)
        table = weight_table(ring)
        self.denominator = table.denominator
        self.zero_only = table.zero_set() == {0}
        bound = int(np.abs(table.numerators).max()) * int(self.sizes.sum())
        if bound >= 1 << 63:
            raise CapExceededError(
                f"weight numerators up to {bound} exceed int64")
        products = combine_rows(ring, reps.T, vectors)
        self.weights = table.numerators[products].T
        self.nonzero = (products != 0).T.astype(np.int64)
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
        """For each 0/1 row over the points, None when the candidate
        needs its code (it is one-weight, two-weight, or has b0 > 1),
        else the numerators of its nonzero weights at index 1, its code
        size, and its equivalence data."""
        kernel = (chosen @ self.nonzero == 0).sum(axis=1)
        numerators = np.sort((chosen * self.sizes) @ self.weights, axis=1)
        first = np.ones(numerators.shape, dtype=bool)
        first[:, 1:] = numerators[:, 1:] != numerators[:, :-1]
        first &= numerators != 0
        b0 = (numerators == 0).sum(axis=1) // kernel
        rows = np.flatnonzero((first.sum(axis=1) > 2) & (b0 == 1))
        sizes = numerators.shape[1] // kernel[rows]
        equivalence = self._equivalence(chosen[rows])
        settled = [None] * len(chosen)
        for row, size, eq in zip(rows.tolist(), sizes.tolist(), equivalence):
            settled[row] = (numerators[row][first[row]].tolist(), size, eq)
        return settled

    def _equivalence(self, chosen):
        """Per row: whether the chosen orbits form a partial difference
        set in the column module, whether they form a right submodule
        with 0, whether their complement in the column module does, and
        the sizes of the orbits' union and of the column module."""
        member = chosen == 1
        modules = self._column_modules(chosen)
        outside = (np.stack(self.modules)[modules]
                   & ~member).astype(np.int64)
        counts = self._difference_counts(chosen)
        pds = (_constant_on(counts, member)
               & _constant_on(counts, outside == 1))
        comp_sub = outside.any(axis=1) & self._closed(
            outside, self._difference_counts(outside))
        omega_size = chosen @ self.sizes
        return zip(pds.tolist(), self._closed(chosen, counts).tolist(),
                   comp_sub.tolist(), omega_size.tolist(),
                   (1 + omega_size + outside @ self.sizes).tolist())

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

    def record(self, ring, k, subset, index, settled):
        """The record of a settled candidate, with the checks and the
        failures equivalence_check would give it.  The intended index
        needs no check: the columns are the point representatives
        with multiplicities index * orbit size."""
        numerators, size, equivalence = settled
        n = int(index * sum(p.orbit_size for p in subset))
        _check_encodable(ring.order, n)
        pds, omega_sub, comp_sub, omega_size, ambient = equivalence
        cap = enum_cap()
        if ambient > cap:
            raise CapExceededError(f"column module grew past cap {cap}")
        failure = (_correspondence_failure(False, False, pds, omega_sub)
                   or _complement_failure(comp_sub, False, self.zero_only))
        if failure is not None:
            message, witness = failure
            generator = _candidate_generator(ring, subset, index)
            raise IdentityCheckError(
                message, witness={"generator": generator.tolist(),
                                  **witness})
        report = EquivalenceReport(
            two_weight=False, pds=None, omega_with_zero_submodule=False,
            complement_submodule=comp_sub, omega_size=omega_size,
            ambient_size=ambient)
        scale = self.denominator * index.denominator
        return SearchRecord(
            ring_text=ring.spec.text(), k=k,
            point_ids=tuple(p.pid for p in subset), index=index, n=n,
            size=size, b0=1, classification="mixed",
            weights=tuple(Fraction(v * index.numerator, scale)
                          for v in numerators),
            equivalence=report)
