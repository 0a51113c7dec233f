"""Dense oracle for the coset graph: the representatives found by a
Python loop over every codeword, formed from all of R^k and compared by
row, and the N x N adjacency matrix built from the weights of all
representative differences, measured by common-neighbour counting.

This is the direct reading of the definitions, with O(N^2) memory and
O(N^3) time, so it serves only as an independent check of
``frobcode.graphs.build_coset_graph`` and ``coset_graph_srg`` on small
codes.
"""

import numpy as np

from frobcode.codes import two_weight_profile
from frobcode.errors import IdentityCheckError, PreconditionError
from frobcode.graphs import measure_srg
from span_oracle import code_words


def oracle_coset_graph(code):
    """(representatives, adjacency): the lexicographically least member
    of each coset of the zero-weight subcode, and the 0/1 matrix marking
    pairs whose difference has the smaller weight."""
    profile = two_weight_profile(code)
    if profile is None:
        raise PreconditionError("coset graph needs a two-weight code")
    ring = code.ring
    num = code.table.numerators
    words = code_words(code)
    numerators = code.table.word_numerator(words)
    zero_words = words[numerators == 0]

    for z in zero_words:
        shifted = num[ring.add_table[words, z[None, :]]].sum(axis=1)
        if not (shifted == numerators).all():
            raise IdentityCheckError(
                "weights change under zero-weight shifts",
                witness={"shift": z.tolist()})

    reps = []
    for word in words:
        members = ring.add_table[zero_words, word[None, :]]
        if (members[np.lexsort(members.T[::-1])[0]] == word).all():
            reps.append(word)
    reps = np.array(reps)
    if len(reps) * len(zero_words) != len(words):
        raise IdentityCheckError(
            "cosets of the zero-weight subcode do not tile the code",
            witness={"cosets": len(reps), "b0": len(zero_words)})

    diffs = ring.add_table[reps[:, None, :], ring.neg_table[reps][None, :, :]]
    adjacency = (num[diffs].sum(axis=2)
                 == int(profile.w1 * code.denominator)).astype(np.int8)
    np.fill_diagonal(adjacency, 0)
    if (adjacency != adjacency.T).any():
        raise IdentityCheckError("coset adjacency is not symmetric")
    return reps, adjacency


def oracle_srg(code):
    """The coset graph's parameters by dense common-neighbour
    counting."""
    return measure_srg(oracle_coset_graph(code)[1])
