"""The per-candidate search, kept as the oracle of the batched one.

Every candidate builds its code and goes through
``search._certify_candidate``: the code's weights classify it, and
``graphs.equivalence_check`` certifies its difference set, submodule
and column-module claims from the enumerated vectors.  The batched
search must give equal records and the same first failure.
"""

from frobcode.errors import CapExceededError, PreconditionError
from frobcode.search import (
    DEFAULT_POINT_GUARD,
    _admissible_indices,
    _certify_candidate,
    projective_points,
)
from frobcode.spans import _check_encodable


def search_per_candidate(ring, k, n_max, index_one=False, mult_cap=None,
                         cap=None):
    if k < 1 or n_max < 1:
        raise PreconditionError("search needs k >= 1 and n_max >= 1")
    if mult_cap is None:
        mult_cap = n_max
    if not index_one:
        _check_encodable(ring.order, min(n_max, mult_cap))
    points = projective_points(ring, k, cap)
    if len(points) > DEFAULT_POINT_GUARD:
        raise CapExceededError(
            f"{len(points)} points exceed the subset search guard "
            f"{DEFAULT_POINT_GUARD}")
    records = []
    for mask in range(1, 1 << len(points)):
        subset = [points[i] for i in range(len(points)) if mask >> i & 1]
        sizes = [p.orbit_size for p in subset]
        for index in _admissible_indices(sizes, n_max, mult_cap, index_one):
            records.append(_certify_candidate(ring, k, subset, index, cap))
    return records
