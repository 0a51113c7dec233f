"""Systematic search for modular codes with few weights.

A modular code is determined, up to the irrelevant choices, by the set
of cyclic-submodule points its columns cover and the common ratio of
column multiplicity to orbit size.  The search enumerates every subset
of points and every admissible rational ratio within a length budget,
builds each code, classifies it by its number of nonzero weights, and
certifies all the predicted graph, dual, and difference-set structure
on the spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    TwoWeightProfile,
    build_code,
    modular_index,
    one_weight_characterization,
    two_weight_profile,
)
from .cyclotomic import divisors
from .duality import DualReport, dual_pipeline
from .errors import CapExceededError, IdentityCheckError, PreconditionError
from .graphs import (
    EquivalenceReport,
    SrgParams,
    build_coset_graph,
    coset_graph_srg,
    equivalence_check,
    predicted_srg,
)
from .spans import _check_encodable, enumerate_vectors, point_ids

DEFAULT_POINT_GUARD = 24


@dataclass(frozen=True)
class PointInfo:
    """One cyclic-submodule point of the message space: its canonical
    id (the smallest encoded member of the right unit orbit), a
    representative vector, and the orbit size."""
    pid: int
    representative: tuple
    orbit_size: int


def projective_points(ring, k, cap=None):
    """All points of the rank-k free module, by ascending canonical id:
    the nonzero vectors that are the least member of their right unit
    orbit."""
    vectors = enumerate_vectors(ring.order, k, cap)
    pids, sizes = point_ids(ring, vectors)
    return [PointInfo(pid=int(i),
                      representative=tuple(int(v) for v in vectors[i]),
                      orbit_size=int(sizes[i]))
            for i in np.flatnonzero(pids == np.arange(len(vectors)))
            if i > 0]


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
                         with_dual=True, with_equivalence=True, cap=None,
                         point_guard=DEFAULT_POINT_GUARD):
    """Enumerate all modular codes of rank k and length at most n_max
    over the ring, one per (point subset, index) pair, and certify each
    classification as it is found.  The record list is deterministic.
    """
    if k < 1 or n_max < 1:
        raise PreconditionError("search needs k >= 1 and n_max >= 1")
    if mult_cap is None:
        mult_cap = n_max
    if not index_one:
        # the single-point subsets reach every length up to
        # min(n_max, mult_cap), and each codeword needs an int64 key
        _check_encodable(ring.order, min(n_max, mult_cap))
    points = projective_points(ring, k, cap)
    if len(points) > point_guard:
        raise CapExceededError(
            f"{len(points)} points exceed the subset search guard "
            f"{point_guard}")
    records = []
    for mask in range(1, 1 << len(points)):
        subset = [points[i] for i in range(len(points)) if mask >> i & 1]
        sizes = [p.orbit_size for p in subset]
        for index in _admissible_indices(sizes, n_max, mult_cap, index_one):
            records.append(_certify_candidate(
                ring, k, subset, index, with_dual, with_equivalence, cap))
    return records


def _certify_candidate(ring, k, subset, index, with_dual, with_equivalence,
                       cap):
    generator = _candidate_generator(ring, subset, index)
    code = build_code(ring, generator, cap)
    measured_index = modular_index(code)
    if measured_index != index:
        raise IdentityCheckError(
            "constructed code does not have the intended index",
            witness={"intended": str(index), "measured": str(measured_index)})
    nonzero = [v for v in code.weight_values() if v != 0]
    profile = None
    srg = None
    dual = None
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
        profile = two_weight_profile(code, require_modular=True)
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
        if with_dual and profile.b0 == 1:
            dual = dual_pipeline(code, cap)
    else:
        classification = "mixed"
    if with_equivalence and code.b0 == 1:
        equivalence = equivalence_check(code)
    return SearchRecord(
        ring_text=ring.spec.text(), k=k,
        point_ids=tuple(p.pid for p in subset), index=index,
        n=code.n, size=code.size, b0=code.b0,
        classification=classification,
        weights=tuple(nonzero), profile=profile, srg=srg,
        dual=dual, equivalence=equivalence)
