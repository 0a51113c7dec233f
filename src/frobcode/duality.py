"""Dual two-weight codes and the certification of their parameters.

The dual of a two-weight code collects the smaller-weight codewords as
the rows of a matrix m1 and takes the right code generated by its
columns.  Right codes are handled as left codes over the opposite ring,
whose weight table coincides with the original (the unit group and
character are shared).

Nothing here enumerates R^n.  Each smaller-weight codeword has a
message, so m1 = X1 G, and m1 y = X1 (G y) for every y in R^n: the dual
word of y, and the class of y, depend only on z = G y.  As y runs over
R^n, z runs over the column module Z of G (the right span of its
columns, with |Z| = |C| elements), and each z is hit by a fibre of
|ker G| = order^n / |Z| vectors.  The dual is therefore {X1 z : z in Z},
and the three-way classification of message vectors by the image G y
is counted on Z and scaled by the fibre size.  Every claim about the
dual is certified on this enumeration: size, both weights, modularity
of index one, the graph parameters, and the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import LinearCode
from .errors import IdentityCheckError, PreconditionError
from .graphs import (
    SrgParams,
    build_coset_graph,
    coset_graph_srg,
    predicted_dual_srg,
    predicted_srg,
)
from .rings import opposite_ring
from .spans import (
    apply_matrix,
    column_module,
    combine_rows,
    encode_vectors,
    span,
)


def _smaller_class_mask(code):
    profile = code.two_weight("dual construction")
    return code.word_numerators == int(profile.w1 * code.denominator)


@dataclass(frozen=True)
class _ColumnModule:
    """The column module Z of a code's generator G, by ascending key,
    with one preimage y (G y = z) per element z, the fibre size
    |ker G|, the smaller-weight matrix m1, and the dual word X1 z of
    each z."""
    elements: np.ndarray
    preimages: np.ndarray
    fibre: int
    m1: np.ndarray
    dual_words: np.ndarray


def _column_module(code, cap):
    """The column module of the code's generator, enumerated once and
    shared by the dual and the message classification.  Checks that the
    messages X1 of the smaller-weight codewords give X1 G = m1, that
    |Z| = |C|, and that |Z| divides order^n."""
    ring, G = code.ring, code.generator
    order, n = ring.order, code.n
    mask = _smaller_class_mask(code)
    m1, x1 = code.words[mask], code.messages[mask]
    if not (combine_rows(ring, G, x1) == m1).all():
        raise IdentityCheckError(
            "smaller-weight messages do not reproduce their codewords",
            witness={"ring": ring.spec.text()})

    z, y = column_module(ring, G, cap)
    if len(z) != code.size:
        raise IdentityCheckError(
            "column module size differs from the code size",
            witness={"column_module": len(z), "code": code.size})
    fibre, rest = divmod(order ** n, len(z))
    if rest:
        raise IdentityCheckError(
            "column module size does not divide the message space",
            witness={"column_module": len(z), "messages": f"{order}**{n}"})
    return _ColumnModule(z, y, fibre, m1, apply_matrix(ring, x1, z))


def _dual_code(code, module):
    """The dual as a left code over the opposite ring with generator
    m1^T: the word of message y is m1 y = X1 z."""
    op = opposite_ring(code.ring)
    words = module.dual_words
    _, at = np.unique(encode_vectors(words, op.order), return_index=True)
    return LinearCode.from_words(
        op, module.m1.T.copy(), words[at], module.preimages[at],
        op.order ** code.n)


def build_dual(code, cap=None):
    """The dual as a left code over the opposite ring: transposing the
    smaller-weight matrix turns its right column span into a left row
    span."""
    return _dual_code(code, _column_module(code, cap))


@dataclass(frozen=True)
class DualReport:
    dual_size: int
    w1_dual: Fraction
    w2_dual: Fraction
    b1_dual: int
    b2_dual: int
    srg: SrgParams
    trivial: bool
    kernel_size: int
    class_counts: tuple


def dual_pipeline(code, cap=None):
    """Build the dual of a modular two-weight code with trivial
    zero-weight subcode and certify every predicted property against
    direct enumeration.  Returns a report; raises IdentityCheckError on
    the first discrepancy."""
    profile = code.modular_two_weight("dual pipeline")
    if profile.b0 != 1:
        raise PreconditionError(
            "dual pipeline needs a trivial zero-weight subcode")
    r = profile.index
    n, w1, w2 = profile.n, profile.w1, profile.w2
    size = profile.size

    w1_dual = (w2 - n - r) * size / (w2 - w1)
    w1_dual_alt = Fraction(profile.b1) * w1 / n
    if w1_dual != w1_dual_alt:
        raise IdentityCheckError(
            "the two closed forms for the smaller dual weight disagree",
            witness={"first": str(w1_dual), "second": str(w1_dual_alt)})
    w2_dual = (w2 - n) * size / (w2 - w1)

    module = _column_module(code, cap)
    dual = _dual_code(code, module)
    if dual.size != size:
        raise IdentityCheckError(
            "dual size differs from the code size",
            witness={"dual": dual.size, "code": size})
    expected_values = {Fraction(0), w1_dual, w2_dual}
    if set(dual.weight_distribution) != expected_values:
        raise IdentityCheckError(
            "dual weights differ from their closed forms",
            witness={"measured": [str(v) for v in dual.weight_distribution],
                     "expected": sorted(str(v) for v in expected_values)})
    if dual.b0 != 1:
        raise IdentityCheckError(
            "dual zero-weight subcode is not trivial",
            witness={"b0": dual.b0})
    if dual.index != 1:
        raise IdentityCheckError(
            "dual is not modular of index one",
            witness={"index": str(dual.index)})

    dual_profile = dual.profile
    graph = build_coset_graph(dual)
    measured = coset_graph_srg(graph)
    predicted = predicted_dual_srg(profile)
    also_predicted = predicted_srg(dual_profile)
    if measured != predicted or measured != also_predicted:
        raise IdentityCheckError(
            "dual graph parameters disagree with the closed forms",
            witness={"measured": measured.as_tuple(),
                     "from_primal": predicted.as_tuple(),
                     "from_dual_profile": also_predicted.as_tuple()})
    if measured.trivial != (w1 == n):
        raise IdentityCheckError(
            "dual triviality disagrees with the primal criterion",
            witness={"dual_trivial": measured.trivial, "w1": str(w1),
                     "n": n})

    kernel_size, class_counts = _check_message_classification(
        code, module, w1_dual, w2_dual)
    _check_smaller_class_spans(code, module.m1, cap)

    return DualReport(
        dual_size=dual.size, w1_dual=w1_dual, w2_dual=w2_dual,
        b1_dual=dual_profile.b1, b2_dual=dual_profile.b2,
        srg=measured, trivial=measured.trivial,
        kernel_size=kernel_size, class_counts=class_counts)


def _check_message_classification(code, module, w1_dual, w2_dual):
    """Every message vector y lands in one of three classes by its image
    z = G y: zero (dual word zero), on an occurring column point (dual
    weight the smaller closed form), or neither (the larger closed
    form).  Each z in the column module stands for its whole fibre."""
    ring = code.ring
    D = code.denominator
    wnum = code.table.word_numerator(module.dual_words)
    keys = encode_vectors(module.elements, ring.order)
    zero = keys == 0
    on_point = np.isin(keys, encode_vectors(code.support,
                                            ring.order)) & ~zero
    other = ~zero & ~on_point
    for cls, mask, expected in (("kernel", zero, 0),
                                ("on-point", on_point, int(w1_dual * D)),
                                ("off-point", other, int(w2_dual * D))):
        bad = np.flatnonzero(mask & (wnum != expected))
        if len(bad):
            raise IdentityCheckError(
                f"dual word weight disagrees with its {cls} class",
                witness={"z": module.elements[bad[0]].tolist(),
                         "weight": str(Fraction(int(wnum[bad[0]]), D))})
    counts = tuple(module.fibre * int(mask.sum())
                   for mask in (zero, on_point, other))
    if counts[1] == 0 or counts[2] == 0:
        raise IdentityCheckError(
            "one of the two dual weights never occurs",
            witness={"counts": list(counts)})
    return counts[0], counts


def _check_smaller_class_spans(code, m1, cap):
    """The smaller-weight codewords, the rows of m1, generate the whole
    code."""
    _, keys = span(code.ring, m1, cap=cap)
    if len(keys) != code.size or not (keys == code.word_keys).all():
        raise IdentityCheckError(
            "smaller-weight codewords do not generate the code",
            witness={"spanned": len(keys), "code": code.size})
