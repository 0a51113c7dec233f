"""Dual two-weight codes and the certification of their parameters.

The dual of a two-weight code collects the smaller-weight codewords as
the rows of a matrix m1 and takes the right code generated by its
columns: the left code of m1^T over the opposite ring, whose weight
table coincides with the original.  Its words are b1 long.

``dual_pipeline`` builds no code.  Each smaller-weight codeword has a
message, so m1 = X1 G, and m1 y = X1 (G y) for every y in R^n: the dual
word of y, and the class of y, depend only on z = G y.  As y runs over
R^n, z runs over the column module Z of G (the right span of its
columns, with |Z| = |C| elements), and each z is hit by a fibre of
|ker G| = order^n / |Z| vectors.  The dual is therefore {X1 z : z in Z},
and every claim about it is certified on Z, keyed in R^k: the weight of
each X1 z by its class, which also makes z -> X1 z injective and gives
the dual's frequencies; index one on the rows of m1; and, as in the
classical case, its graph, the Cayley graph on Z whose connection set
is the occurring points.  The dual words X1 z are formed a block of z
at a time and only their weights are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import TwoWeightProfile, _checked_profile
from .errors import IdentityCheckError, PreconditionError
from .graphs import (
    SrgParams,
    _cayley_srg,
    predicted_dual_srg,
    predicted_srg,
)
from .rings import opposite_ring
from .spans import (
    BLOCK_ENTRIES,
    apply_matrix,
    column_module,
    combine_rows,
    encode_vectors,
    point_ids,
    span,
)


def _smaller_class_mask(code):
    profile = code.two_weight("dual construction")
    return code.word_numerators == int(profile.w1 * code.denominator)


@dataclass(frozen=True)
class _ColumnModule:
    """The column module Z of a code's generator G, by ascending key,
    with the keys, the fibre size |ker G|, the smaller-weight matrix
    m1, and the messages X1 of its rows."""
    elements: np.ndarray
    keys: np.ndarray
    fibre: int
    m1: np.ndarray
    x1: np.ndarray


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

    z, keys = column_module(ring, G, cap)
    if len(z) != code.size:
        raise IdentityCheckError(
            "column module size differs from the code size",
            witness={"column_module": len(z), "code": code.size})
    fibre, rest = divmod(order ** n, len(z))
    if rest:
        raise IdentityCheckError(
            "column module size does not divide the message space",
            witness={"column_module": len(z), "messages": f"{order}**{n}"})
    return _ColumnModule(z, keys, fibre, m1, x1)


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
    """Certify every predicted property of the dual of a modular
    two-weight code with trivial zero-weight subcode on the column
    module Z.  Returns a report; raises IdentityCheckError on the first
    discrepancy."""
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
    on_point, class_counts = _check_message_classification(
        code, module, w1_dual, w2_dual)
    pids, sizes = point_ids(opposite_ring(code.ring), module.m1)
    _, first, mult = np.unique(pids, return_index=True, return_counts=True)
    if (mult != sizes[first]).any():
        raise IdentityCheckError(
            "dual is not modular of index one",
            witness={"ratios": sorted({f"{m}/{s}" for m, s
                                       in zip(mult, sizes[first])})})

    b1_dual = int(on_point.sum())
    dual_profile = _checked_profile(TwoWeightProfile(
        n=len(module.m1), size=size, b0=1, w1=w1_dual, w2=w2_dual,
        b1=b1_dual, b2=size - 1 - b1_dual, index=Fraction(1)))
    measured = _cayley_srg(code.ring, module.elements[on_point],
                           module.keys, np.arange(size), on_point)
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

    _check_smaller_class_spans(code, module.m1, cap)
    return DualReport(
        dual_size=size, w1_dual=w1_dual, w2_dual=w2_dual,
        b1_dual=dual_profile.b1, b2_dual=dual_profile.b2,
        srg=measured, trivial=measured.trivial,
        kernel_size=class_counts[0], class_counts=class_counts)


def _check_message_classification(code, module, w1_dual, w2_dual):
    """Every message vector y lands in one of three classes by its image
    z = G y: zero (dual word zero), on an occurring column point (dual
    weight the smaller closed form), or neither (the larger closed
    form).  Only z = 0 may have a dual word of weight 0.  Returns the
    mask of the on-point z and the class sizes, each z standing for its
    whole fibre.  The dual words are formed in blocks of z of at most
    BLOCK_ENTRIES entries."""
    D = code.denominator
    z, x1 = module.elements, module.x1
    block = max(1, BLOCK_ENTRIES // len(x1))
    wnum = np.concatenate([
        code.table.word_numerator(apply_matrix(code.ring, x1,
                                               z[start:start + block]))
        for start in range(0, len(z), block)])
    zero = module.keys == 0
    on_point = np.isin(module.keys, encode_vectors(
        code.support, code.ring.order)) & ~zero
    other = ~zero & ~on_point
    for cls, mask, expected in (("kernel", zero, 0),
                                ("on-point", on_point, int(w1_dual * D)),
                                ("off-point", other, int(w2_dual * D))):
        bad = np.flatnonzero(mask & (wnum != expected))
        if len(bad):
            raise IdentityCheckError(
                f"dual word weight disagrees with its {cls} class",
                witness={"z": z[bad[0]].tolist(),
                         "weight": str(Fraction(int(wnum[bad[0]]), D))})
    counts = tuple(module.fibre * int(mask.sum())
                   for mask in (zero, on_point, other))
    if counts[1] == 0 or counts[2] == 0:
        raise IdentityCheckError(
            "one of the two dual weights never occurs",
            witness={"counts": list(counts)})
    b0 = int((wnum == 0).sum())
    if b0 != 1:
        raise IdentityCheckError(
            "dual zero-weight subcode is not trivial", witness={"b0": b0})
    return on_point, counts


def _check_smaller_class_spans(code, m1, cap):
    """The smaller-weight codewords, the rows of m1, generate the whole
    code."""
    _, keys = span(code.ring, m1, cap=cap)
    if len(keys) != code.size or not (keys == code.word_keys).all():
        raise IdentityCheckError(
            "smaller-weight codewords do not generate the code",
            witness={"spanned": len(keys), "code": code.size})
