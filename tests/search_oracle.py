"""The per-candidate search, kept as the oracle of the table-driven one.

Every candidate builds its code and goes through ``certify_candidate``:
the code's weights classify it, ``codes.one_weight_characterization``
and ``graphs.equivalence_check`` certify its support, difference set,
submodule and column-module claims from the enumerated vectors.  The
search must give equal records and the same first failure.
"""

from frobcode.codes import build_code, one_weight_characterization
from frobcode.duality import dual_pipeline
from frobcode.errors import (
    CapExceededError,
    IdentityCheckError,
    PreconditionError,
)
from frobcode.graphs import (
    build_coset_graph,
    coset_graph_srg,
    equivalence_check,
    predicted_srg,
)
from frobcode.search import (
    DEFAULT_POINT_GUARD,
    SearchRecord,
    _admissible_indices,
    _candidate_generator,
    projective_points,
)
from frobcode.spans import enum_cap


def certify_candidate(ring, k, subset, index, cap):
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
    equivalence = None
    if len(nonzero) == 1:
        classification = "one-weight"
        if code.b0 == 1:
            one_weight_characterization(code)
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
            dual = dual_pipeline(code, cap)
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
        dual=dual, equivalence=equivalence)


def search_per_candidate(ring, k, n_max, index_one=False, mult_cap=None,
                         cap=None):
    if k < 1 or n_max < 1:
        raise PreconditionError("search needs k >= 1 and n_max >= 1")
    if mult_cap is None:
        mult_cap = n_max
    if cap is None:
        cap = enum_cap()
    points = projective_points(ring, k, cap)
    if not index_one and ring.order ** k * min(n_max, mult_cap) > cap:
        raise CapExceededError(
            f"codewords of {ring.order ** k} x {min(n_max, mult_cap)} "
            f"entries exceed cap {cap}")
    if len(points) > DEFAULT_POINT_GUARD:
        raise CapExceededError(
            f"{len(points)} points exceed the subset search guard "
            f"{DEFAULT_POINT_GUARD}")
    records = []
    for mask in range(1, 1 << len(points)):
        subset = [points[i] for i in range(len(points)) if mask >> i & 1]
        sizes = [p.orbit_size for p in subset]
        for index in _admissible_indices(sizes, n_max, mult_cap, index_one):
            records.append(certify_candidate(ring, k, subset, index, cap))
    return records
