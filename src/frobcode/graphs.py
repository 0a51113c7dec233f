"""Strongly regular graphs attached to two-weight codes.

The graph of a two-weight code has the cosets of the zero-weight
subcode as vertices, two adjacent when their difference has the
smaller weight: the Cayley graph on R^k modulo the zero-weight
messages, whose connection set S is the smaller-weight cosets.  Its
parameters come from counting the differences s - t over S x S, keyed
on k-long messages however long the words: lambda is the count on S,
mu the count on the other nonzero cosets.  Predicted parameters come
from closed forms in the weights and frequencies.  The same counts
certify partial difference sets in an ambient module and the
equivalence between two-weight codes and such sets.  ``measure_srg``
measures an explicit adjacency matrix by common-neighbour counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import least_messages
from .errors import CapExceededError, IdentityCheckError, PreconditionError
from .rings import ELEMENT_DTYPE
from .spans import (
    BLOCK_ENTRIES,
    column_module,
    decode_vectors,
    enum_cap,
    encode_vectors,
    is_submodule,
    lookup,
)


@dataclass(frozen=True)
class SrgParams:
    vertices: int
    degree: int
    common_adjacent: int
    common_nonadjacent: int
    trivial: bool

    def __post_init__(self):
        n, k = self.vertices, self.degree
        lam, mu = self.common_adjacent, self.common_nonadjacent
        if k * (k - lam - 1) != (n - k - 1) * mu:
            raise IdentityCheckError(
                "strongly regular parameters are infeasible",
                witness={"vertices": n, "degree": k, "lambda": lam,
                         "mu": mu})

    def as_tuple(self):
        return (self.vertices, self.degree, self.common_adjacent,
                self.common_nonadjacent)


def measure_srg(adjacency):
    """Certify a 0/1 adjacency matrix as strongly regular by direct
    common-neighbour counting; raises IdentityCheckError otherwise."""
    A = np.asarray(adjacency, dtype=np.int64)
    N = len(A)
    if N == 0 or (A != A.T).any() or A.diagonal().any():
        raise PreconditionError("adjacency must be symmetric, hollow, "
                                "and nonempty")
    degrees = A.sum(axis=1)
    if not (degrees == degrees[0]).all():
        raise IdentityCheckError(
            "graph is not regular",
            witness={"degrees": sorted(set(int(d) for d in degrees))})
    K = int(degrees[0])
    M = A @ A
    off = ~np.eye(N, dtype=bool)
    return _srg_from_counts(N, K, M[(A == 1) & off], M[(A == 0) & off])


def _srg_from_counts(N, K, lam_counts, mu_counts):
    """The parameters of a K-regular graph on N vertices from the
    common-neighbour counts of its adjacent and of its nonadjacent
    pairs; raises IdentityCheckError when either holds two values."""
    if len(lam_counts):
        lam_vals = np.unique(lam_counts)
        if len(lam_vals) != 1:
            raise IdentityCheckError(
                "adjacent pairs disagree on common neighbours",
                witness={"values": lam_vals.tolist()})
        lam = int(lam_vals[0])
    else:
        lam = 0
    if len(mu_counts):
        mu_vals = np.unique(mu_counts)
        if len(mu_vals) != 1:
            raise IdentityCheckError(
                "nonadjacent pairs disagree on common neighbours",
                witness={"values": mu_vals.tolist()})
        mu = int(mu_vals[0])
    else:
        # complete graph: every pair adjacent
        mu = 0
        lam = K - 1 if N > 1 else 0
    trivial = mu == 0 or mu == K
    return SrgParams(N, K, lam, mu, trivial)


def predicted_srg(profile):
    """Closed-form graph parameters of a modular two-weight code."""
    if profile.index is None:
        raise PreconditionError(
            "graph parameter prediction needs a modular code")
    n = profile.n
    w1, w2 = profile.w1, profile.w2
    if profile.size % profile.b0 != 0:
        raise IdentityCheckError(
            "zero-weight subcode size does not divide the code size",
            witness={"size": profile.size, "b0": profile.b0})
    N = profile.size // profile.b0
    K = ((w2 - n) * N - w2) / (w2 - w1)
    lam = (K * (w1 * w1 / n - 2 * w1) + w2 * (K - 1)) / (w2 - w1)
    mu = K * (w1 * w2 / n - w1) / (w2 - w1)
    values = {"degree": K, "lambda": lam, "mu": mu}
    for name, v in values.items():
        if v.denominator != 1 or v < 0:
            raise IdentityCheckError(
                f"predicted {name} is not a nonnegative integer",
                witness={name: str(v)})
    trivial = w1 == n
    if trivial != (mu == K):
        raise IdentityCheckError(
            "triviality criterion disagrees with mu = degree",
            witness={"w1": str(w1), "n": n, "mu": str(mu), "K": str(K)})
    return SrgParams(N, int(K), int(lam), int(mu), trivial)


def predicted_dual_srg(profile):
    """Closed-form graph parameters on the dual side: vertex count is
    the code size, degree is length / index."""
    if profile.index is None:
        raise PreconditionError(
            "dual graph parameter prediction needs a modular code")
    r = profile.index
    n, w1, w2 = profile.n, profile.w1, profile.w2
    size = profile.size
    N = Fraction(size)
    K = n / r
    mu = w1 * w2 / (r * r * size)
    lam = (2 * n - w1 - w2) / r + mu
    values = {"vertices": N, "degree": K, "lambda": lam, "mu": mu}
    for name, v in values.items():
        if v.denominator != 1 or v < 0:
            raise IdentityCheckError(
                f"predicted dual {name} is not a nonnegative integer",
                witness={name: str(v)})
    trivial = w1 == n
    return SrgParams(int(N), int(K), int(lam), int(mu), trivial)


@dataclass
class CosetGraph:
    """The coset graph in Cayley form on R^k modulo the zero-weight
    messages: the vertex of every message, by key (vertices ordered by
    the least key of their coset), the least message of each vertex,
    and the connection mask marking the smaller-weight vertices."""

    code: object
    vertices: np.ndarray
    messages: np.ndarray
    connection: np.ndarray

    def adjacency(self, cap=None):
        """The 0/1 adjacency matrix over the vertices, refused when its
        entries exceed the cap (default: the enumeration cap)."""
        count = len(self.messages)
        if cap is None:
            cap = enum_cap()
        if count * count > cap:
            raise CapExceededError(
                f"coset graph adjacency of {count}x{count} entries "
                f"exceeds cap {cap}")
        ring = self.code.ring
        x = self.messages
        neg_x = ring.neg_table[x]
        adjacency = np.empty((count, count), dtype=np.int8)
        block = max(1, BLOCK_ENTRIES // x.size)
        for start in range(0, count, block):
            diffs = ring.add_table[x[start:start + block, None, :],
                                   neg_x[None, :, :]]
            adjacency[start:start + block] = self.connection[
                self.vertices[encode_vectors(diffs, ring.order)]]
        return adjacency

    def least_words(self):
        """The lexicographically least word of each vertex's coset."""
        return self.code.words_of(least_messages(
            self.code, self.vertices, len(self.messages)))


def build_coset_graph(code):
    """The graph on cosets of the zero-weight subcode, adjacency given
    by the smaller weight, in Cayley form on the cosets of the
    zero-weight messages in R^k, which tile R^k by construction.
    Verifies that weights are constant on each coset and that the
    connection set is closed under negation."""
    profile = code.two_weight("coset graph")
    ring = code.ring
    least = code.coset_keys
    keys = np.flatnonzero(least == np.arange(len(least)))
    vertices = np.searchsorted(keys, least)
    if (code.numerators != code.numerators[least]).any():
        # named by the least word whose weight differs from its coset's
        # least word, and by its shift from that word
        reps = code.words_of(least_messages(code, vertices, len(keys)))
        changed = code.numerators != code.table.word_numerator(reps)[vertices]
        (x,) = least_messages(code, np.where(changed, 0, -1), 1)
        word, rep = code.words_of([x])[0], reps[vertices[x]]
        raise IdentityCheckError(
            "weights change under zero-weight shifts",
            witness={"word": word.tolist(), "shift": ring.add_table[
                word, ring.neg_table[rep]].tolist()})
    connection = (code.numerators[keys]
                  == int(profile.w1 * code.denominator))
    graph = CosetGraph(code, vertices,
                       decode_vectors(keys, ring.order, code.k), connection)
    negated = ring.neg_table[graph.messages[connection]]
    if not connection[vertices[encode_vectors(negated, ring.order)]].all():
        raise IdentityCheckError("coset adjacency is not symmetric")
    return graph


def coset_graph_srg(graph):
    """Certify a coset graph as strongly regular, as the Cayley graph
    on the cosets connected by the smaller-weight ones, counted on the
    messages of the connection set in R^k."""
    return _cayley_srg(graph.code.ring, graph.messages[graph.connection],
                       np.arange(len(graph.vertices)), graph.vertices,
                       graph.connection)


def _cayley_srg(ring, rows, keys, labels, connection):
    """Certify as strongly regular the Cayley graph on a group of N
    elements labelled 0 (zero) to N - 1, whose connection set S, given
    by one preimage row each, is marked by connection; keys are the
    sorted keys of a group that maps onto it, and labels the label of
    each key's image.  The common neighbours of two
    elements are the count of their difference as s - t over S x S, so
    lambda is read on S and mu on the other nonzero elements: on a
    translation-invariant graph the value sets measure_srg sees, so the
    messages, witnesses and complete-graph convention are the same."""
    N = len(connection)
    counts = _difference_counts(ring, rows, keys, labels, N)
    others = ~connection
    others[0] = False
    return _srg_from_counts(N, int(connection.sum()), counts[connection],
                            counts[others])


# ---------------------------------------------------------------- PDS


@dataclass(frozen=True)
class PdsCertificate:
    group_size: int
    set_size: int
    lam: int
    mu: int

    def srg_params(self):
        trivial = self.mu == 0 or self.mu == self.set_size
        return SrgParams(self.group_size, self.set_size, self.lam,
                         self.mu, trivial)


def _difference_counts(ring, rows, keys, labels, length):
    """Count the nonzero differences a - b of the given rows by class:
    a difference is found in the sorted keys and counted under the
    label of its position.  The rows are taken in blocks, so memory
    stays bounded.  Raises PreconditionError when a difference is not
    among the keys."""
    m, n = rows.shape
    neg_rows = ring.neg_table[rows]
    counts = np.zeros(length, dtype=np.int64)
    block = max(1, BLOCK_ENTRIES // max(1, rows.size))
    for start in range(0, m, block):
        diffs = ring.add_table[rows[start:start + block, None, :],
                               neg_rows[None, :, :]]
        dkeys = encode_vectors(diffs.reshape(-1, n), ring.order)
        pos, found = lookup(keys, dkeys[dkeys != 0])
        if not found.all():
            raise PreconditionError("differences leave the group")
        counts += np.bincount(labels[pos], minlength=length)
    return counts


def pds_check(ring, group_rows, subset_rows):
    """Brute-force partial difference set test: count how often each
    group element occurs as a difference of two distinct subset
    elements.  Returns a certificate, or None with no claim when the
    counts are not constant on the subset and on its complement."""
    order = ring.order
    group_rows = np.asarray(group_rows, dtype=ELEMENT_DTYPE)
    subset_rows = np.asarray(subset_rows, dtype=ELEMENT_DTYPE)
    m = len(subset_rows)
    if m == 0:
        return None
    gkeys = np.sort(encode_vectors(group_rows, order))
    skeys = np.sort(encode_vectors(subset_rows, order))
    if lookup(skeys, [0])[1][0]:
        return None
    neg_keys = np.sort(encode_vectors(ring.neg_table[subset_rows], order))
    if not (neg_keys == skeys).all():
        return None

    try:
        srg = _cayley_srg(ring, subset_rows, gkeys, np.arange(len(gkeys)),
                          np.isin(gkeys, skeys))
    except IdentityCheckError:
        return None
    return PdsCertificate(len(group_rows), m, srg.common_adjacent,
                          srg.common_nonadjacent)


# ------------------------------------------------------- equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    two_weight: bool
    pds: PdsCertificate
    omega_with_zero_submodule: bool
    complement_submodule: bool
    omega_size: int
    ambient_size: int


def equivalence_verdict(*, one_weight, profile, pds, omega_sub, comp_sub,
                        zero_only, omega_size, ambient_size, generator):
    """Certify the equivalence claims of a modular code with trivial
    zero-weight subcode from its facts, and return its report.  The code
    is two-weight exactly when it has a profile, and that holds exactly
    when its points form a difference set (pds, a PdsCertificate or
    None) whose union with zero is not a submodule; the union is a
    submodule exactly for one-weight codes.  When the weight vanishes
    only at 0 (zero_only), the complement of the points in the column
    module is a submodule exactly for trivial two-weight codes.  The
    difference-set graph of a two-weight code has the dual closed-form
    parameters.  generator is called for the witness of a failure."""
    two_weight = profile is not None
    trivial = two_weight and profile.trivial
    witness = None
    if two_weight != (pds is not None and not omega_sub):
        message = "two-weight / difference-set equivalence fails"
        witness = {"two_weight": two_weight, "pds": pds is not None,
                   "omega_with_zero_submodule": omega_sub}
    elif omega_sub != one_weight:
        message = "one-weight / submodule equivalence fails"
        witness = {"one_weight": one_weight,
                   "omega_with_zero_submodule": omega_sub}
    elif comp_sub != trivial and zero_only:
        message = "complement submodule test disagrees with triviality"
        witness = {"complement_submodule": comp_sub,
                   "trivial_two_weight": trivial}
    if witness is not None:
        raise IdentityCheckError(
            message, witness={"generator": generator().tolist(), **witness})

    if two_weight:
        predicted = predicted_dual_srg(profile)
        measured = pds.srg_params()
        if measured != predicted:
            raise IdentityCheckError(
                "difference-set graph parameters disagree with the "
                "dual closed forms",
                witness={"measured": measured.as_tuple(),
                         "predicted": predicted.as_tuple()})

    return EquivalenceReport(
        two_weight=two_weight, pds=pds, omega_with_zero_submodule=omega_sub,
        complement_submodule=comp_sub, omega_size=omega_size,
        ambient_size=ambient_size)


def equivalence_check(code):
    """Certify the equivalence claims of equivalence_verdict for a
    modular code with trivial zero-weight subcode, from its enumerated
    vectors.  Over rings whose weight vanishes on a nonzero element the
    complement claim fails (prod(Z2,Z2), k=1, columns (0,1) and (1,0):
    the code is trivial two-weight but the complement {0, (1,1)} is no
    submodule), so there the complement test is only reported."""
    ring = code.ring
    if code.index is None:
        raise PreconditionError("equivalence check needs a modular code")
    if code.b0 != 1:
        raise PreconditionError(
            "equivalence check needs a trivial zero-weight subcode")

    # the column module lies in R^k, which building the code enumerated
    # under its cap, so it gets no bound of its own
    module, module_keys = column_module(ring, code.generator,
                                        ring.order ** code.k)
    supp0 = code.support
    supp0_keys = encode_vectors(supp0, ring.order)
    omega = supp0[supp0_keys != 0]

    if not np.isin(supp0_keys, module_keys).all():
        raise IdentityCheckError(
            "occurring points leave the column module",
            witness={"generator": code.generator.tolist()})

    cert = pds_check(ring, module, omega)
    omega_sub = is_submodule(ring, supp0)
    complement = module[~np.isin(module_keys, supp0_keys[supp0_keys != 0])]
    # the bare zero module (points fill the ambient module) is the
    # degenerate case belonging to one-weight codes; the submodule test
    # here asks for a nonzero submodule
    comp_sub = len(complement) > 1 and is_submodule(ring, complement)
    return equivalence_verdict(
        one_weight=len(code.nonzero_weights) == 1, profile=code.profile,
        pds=cert, omega_sub=omega_sub, comp_sub=comp_sub,
        zero_only=code.table.zero_set() == {0}, omega_size=len(omega),
        ambient_size=len(module), generator=lambda: code.generator)
