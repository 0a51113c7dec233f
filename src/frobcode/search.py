"""Systematic search for modular codes with few weights.

A modular code is determined, up to the irrelevant choices, by the set
of cyclic-submodule points its columns cover and the common ratio of
column multiplicity to orbit size.  The search enumerates every subset
of points and every admissible rational ratio within a length budget,
classifies each candidate by its number of nonzero weights, and
certifies all the predicted graph, dual, and difference-set structure
on the spot.  Every candidate is classified and its difference-set
claims certified from point tables; a code is built only for the
claims that read its codewords.

Changing the index scales every weight by the same factor and leaves
the zero-weight and smaller-weight messages, the column module, the
coset graph and the dual words as they are.  So a two-weight point
subset's measured facts are taken once, at its first index: the srg of
its coset graph and, for b0 = 1, its dual's column module, word
weights, index one, graph and span.  Each further index still builds
its own code and certifies it as the first index's code scaled (the
numerators m times as large and the same kernel, m = index / first
index).

The closed forms read only a two-weight profile's fields (n, |C|, b0,
w1, w2, b1, b2 and the index), so each is evaluated once per distinct
profile in a search: the checked profile, the predicted graph, the
dual weights, the checked dual profile and its graph, and the
predicted dual graph.  Every record still compares its own facts with
them: the shared coset graph srg, the dual's message classes, counted
frequencies, graph and triviality, and the difference-set graph of
the equivalence verdict.  A form that raises is not kept, so the
search fails at the first record that reads it, as it would with
every form evaluated at every record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .codes import (
    LinearCode,
    TwoWeightProfile,
    build_code,
    one_weight_verdict,
)
from .cyclotomic import divisors
from .duality import DualMeasurement, DualReport, certify_dual
from .errors import CapExceededError, IdentityCheckError, PreconditionError
from .graphs import (
    EquivalenceReport,
    PdsCertificate,
    SrgParams,
    build_coset_graph,
    coset_graph_srg,
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
    sizes (with index_one, g = 1), fits both caps."""
    sizes = chosen * orbit_sizes
    g = 1 if index_one else np.gcd.reduce(sizes, axis=1)
    return ((sizes.sum(axis=1) <= n_max * g)
            & (sizes.max(axis=1) <= mult_cap * g))


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
    Point subsets are classified in blocks of bit masks, and each
    candidate is then certified in order, so failures surface as if
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
    records = []
    base = None
    for start in range(1, 1 << count, step):
        masks = np.arange(start, min(start + step, 1 << count))
        chosen = (masks[:, None] >> np.arange(count)) & 1
        keep = _has_index(chosen, tables.sizes, n_max, mult_cap, index_one)
        rows = tables.classify(chosen[keep])
        for mask, row in zip(masks[keep].tolist(), rows):
            subset = [points[i] for i in range(count) if mask >> i & 1]
            sizes = [p.orbit_size for p in subset]
            for index in _admissible_indices(sizes, n_max, mult_cap,
                                             index_one):
                record, base = tables.record(ring, k, subset, index, row,
                                             cap, base)
                records.append(record)
            # a subset's measurement serves its own indices only
            base = None
    return records


@dataclass(frozen=True)
class _Base:
    """What a two-weight point subset measured at its first index: the
    code there, the srg of its coset graph, and for b0 = 1 the
    measurement of its dual."""
    index: Fraction
    code: LinearCode
    srg: SrgParams
    dual: DualMeasurement | None

    def check(self, code, subset, index):
        """Certify the subset's code at a further index as the base code
        scaled: m = index / base index is an integer, its numerators are
        m times the base's and its kernel is the base's.  Its zero-weight
        and smaller-weight messages, so its coset graph, are then the
        base's, and with the base's points so are its column module and
        dual words."""
        m = index / self.index
        if (m.denominator != 1
                or not np.array_equal(code.numerators,
                                      m.numerator * self.code.numerators)
                or not np.array_equal(code.kernel, self.code.kernel)):
            raise IdentityCheckError(
                "code is not its subset's base code scaled by the index "
                "ratio",
                witness={"points": [p.pid for p in subset],
                         "index": str(index),
                         "base_index": str(self.index)})


def _level(values, mask):
    """Per row: the largest value under the mask (0 when the mask is
    empty), and whether every value under the mask equals it."""
    high = np.where(mask, values, -1).max(axis=1)
    constant = np.where(mask, values, high[:, None]).min(axis=1) == high
    return np.maximum(high, 0), constant


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
    """

    def __init__(self, ring, points, vectors, labels):
        order = ring.order
        count = len(points)
        reps = np.array([p.representative for p in points],
                        dtype=ELEMENT_DTYPE)
        self.sizes = np.array([p.orbit_size for p in points], dtype=np.int64)
        table = weight_table(ring)
        self.ring_text = ring.spec.text()
        self.denominator = table.denominator
        self._weights = {}
        self._forms = {}
        self.zero_only = table.zero_set() == {0}
        bound = int(np.abs(table.numerators).max()) * int(self.sizes.sum())
        if bound >= 1 << 63:
            raise CapExceededError(
                f"weight numerators up to {bound} exceed int64")
        # vectors is all of R^k, already within the cap
        products = message_words(ring, reps.T, cap=len(vectors))
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
        """For each 0/1 row over the points: the numerators of its
        distinct nonzero weights at index 1, its code size, its b0, and
        for b0 = 1 its equivalence facts (see _equivalence), else None."""
        kernel = (chosen @ self.nonzero == 0).sum(axis=1)
        numerators = np.sort((chosen * self.sizes) @ self.weights, axis=1)
        first = np.ones(numerators.shape, dtype=bool)
        first[:, 1:] = numerators[:, 1:] != numerators[:, :-1]
        first &= numerators != 0
        b0 = (numerators == 0).sum(axis=1) // kernel
        sizes = numerators.shape[1] // kernel
        trivial = np.flatnonzero(b0 == 1)
        facts = [None] * len(chosen)
        for row, eq in zip(trivial.tolist(),
                           self._equivalence(chosen[trivial])):
            facts[row] = eq
        return [(values[keep].tolist(), size, b, eq)
                for values, keep, size, b, eq in zip(
                    numerators, first, sizes.tolist(), b0.tolist(), facts)]

    def _equivalence(self, chosen):
        """Per row: the difference-set certificate of the chosen orbits
        in the column module (None when their difference counts are not
        constant on them and on the rest of the module), whether they
        form a right submodule with 0, whether their complement in the
        column module does, and the sizes of the orbits' union and of
        the column module."""
        member = chosen == 1
        modules = self._column_modules(chosen)
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
            cert = PdsCertificate(total, size, lam_j, mu_j) if pds else None
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

    def record(self, ring, k, subset, index, row, cap, base=None):
        """The certified record of a candidate with classify's row, and
        the measurement its subset's further indices share.  A code is
        built only for the claims that read its codewords: the coset
        graph and dual of a two-weight candidate, and the zero-weight
        subgroup check of a candidate with b0 > 1.  The intended index
        needs no check: the columns are the point representatives with
        multiplicities index * orbit size.

        A two-weight candidate's coset graph srg and, for b0 = 1, its
        dual measurement are measured at its subset's first index and
        returned as the base.  Given that base, a further index builds
        its own code, certifies it as the base code scaled by
        index / base index, and checks its own closed forms (see _form)
        against the shared srg and dual measurement."""
        numerators, size, b0, equivalence = row
        r, s = index.numerator, index.denominator
        n = r * sum(p.orbit_size for p in subset) // s
        weights = tuple(self._weight(v, r, s) for v in numerators)
        classification = _CLASSIFICATIONS.get(len(weights), "mixed")
        generator = partial(_candidate_generator, ring, subset, index)
        profile = srg = dual = report = None
        if classification == "two-weight" or b0 > 1:
            code = build_code(ring, generator(), cap, self._form)
        if classification == "one-weight" and b0 == 1:
            # every candidate is modular by construction
            one_weight_verdict(ring, is_one=True, is_mod=True,
                               is_sub=equivalence[1], generator=generator)
        if classification == "two-weight":
            profile = code.profile
            predicted = self._form(predicted_srg, profile)
            if base is None:
                base = _Base(index, code,
                             coset_graph_srg(build_coset_graph(code)),
                             DualMeasurement(code, cap) if b0 == 1 else None)
            else:
                base.check(code, subset, index)
            srg = base.srg
            if srg != predicted:
                raise IdentityCheckError(
                    "measured graph parameters disagree with the closed "
                    "forms",
                    witness={"measured": srg.as_tuple(),
                             "predicted": predicted.as_tuple(),
                             "points": [p.pid for p in subset],
                             "index": str(index)})
            if b0 == 1:
                dual = certify_dual(profile, base.dual, self._form)
        if b0 == 1:
            # the column module lies in R^k, which _point_layer
            # enumerated under the cap
            pds, omega_sub, comp_sub, omega_size, ambient = equivalence
            report = equivalence_verdict(
                one_weight=classification == "one-weight", profile=profile,
                pds=pds, omega_sub=omega_sub, comp_sub=comp_sub,
                zero_only=self.zero_only, omega_size=omega_size,
                ambient_size=ambient, generator=generator,
                evaluate=self._form)
        return SearchRecord(
            ring_text=self.ring_text, k=k,
            point_ids=tuple(p.pid for p in subset), index=index, n=n,
            size=size, b0=b0, classification=classification,
            weights=weights, profile=profile, srg=srg, dual=dual,
            equivalence=report), base

    def _weight(self, numerator, r, s):
        """The weight of a word with this numerator at index r/s: one
        Fraction per distinct (numerator, index) in a search."""
        key = numerator, r, s
        if key not in self._weights:
            self._weights[key] = Fraction(numerator * r,
                                          self.denominator * s)
        return self._weights[key]

    def _form(self, form, profile):
        """form(profile), evaluated once per distinct profile in this
        search and kept by its exact fields.  A form that raises is not
        kept, so each record that reads it raises again."""
        key = form, profile
        found = self._forms.get(key)
        if found is None:
            found = self._forms[key] = form(profile)
        return found
