"""Dual two-weight codes and the certification of their parameters.

The dual of a two-weight code is the right code generated by the
columns of m1, its smaller-weight words: the left code of m1^T over the
opposite ring, whose weight table coincides with the original.
``dual_pipeline`` builds no code and forms no word: with X1 one message
per smaller-weight word, m1 y = X1 (G y), so the dual word and the
class of y in R^n depend only on z = G y in the column module Z
(|Z| = |C|, each z hit by |ker G| = order^n / |Z| vectors y).  The dual
is {X1 z : z in Z}, and each claim is certified in R^k: the weight of
X1 z by the class of z, index one as the smaller-weight messages
closed under left units, the smaller-weight words generating the code
as their messages spanning R^k, and the dual graph, the Cayley graph
on Z connected by the occurring points.  The words X1 z are formed a
block of z at a time and only their weights are kept.

``dual_pipeline`` is a measurement step and a closed-form step.  A
``DualMeasurement`` holds what is measured on Z: the dual word weights,
index one, the dual graph and the span.  The measurement does not read
the index, and the search measures the same facts for a block of point
subsets at once from its tables of R^k.  The closed forms read only a
profile's fields: the dual weights (``_dual_weights``: both forms of
the smaller, and the larger), the checks of the dual profile, and the
dual graph predicted from the primal profile and from the dual
profile.  ``certify_dual`` takes each through an ``evaluate`` hook,
which evaluates it on the spot unless the caller passes a memo; the
search passes one that evaluates each form once per distinct
profile.  The comparisons run on every call:
the weight of each class of z, the dual frequencies as counted on Z,
the dual graph against both forms, and the triviality criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .codes import TwoWeightProfile, _checked_profile, evaluate_form
from .errors import IdentityCheckError, PreconditionError
from .graphs import (
    SrgParams,
    _cayley_srg,
    _certified,
    predicted_dual_srg,
    predicted_srg,
)
from .spans import (
    BLOCK_ENTRIES,
    apply_matrix,
    column_module,
    decode_vectors,
    encode_vectors,
    span,
)


def _smaller_class_mask(code):
    profile = code.two_weight("dual construction")
    return code.numerators == int(profile.w1 * code.denominator)


def _dual_messages(code):
    """X1: one message per smaller-weight word, the least of its coset
    of ker G (b0 = 1: the zero-weight messages are ker G)."""
    least = code.coset_keys == np.arange(len(code.coset_keys))
    return decode_vectors(np.flatnonzero(_smaller_class_mask(code) & least),
                          code.ring.order, code.k)


@dataclass(frozen=True)
class _ColumnModule:
    """The column module Z of a code's generator G, by ascending key,
    with the keys, the weight numerator of each dual word X1 z, the
    mask of the z on an occurring column point and, when measured from
    the code itself, the messages X1 (the search sums the dual word
    weights over its smaller-weight masks instead)."""
    elements: np.ndarray
    keys: np.ndarray
    numerators: np.ndarray
    on_point: np.ndarray
    x1: np.ndarray | None = None


def _column_module(code, cap):
    """The column module of the code's generator, enumerated once and
    shared by the dual and the message classification.  The dual words
    X1 z are formed in blocks of z of at most BLOCK_ENTRIES entries."""
    ring, order = code.ring, code.ring.order
    x1 = _dual_messages(code)
    z, keys = column_module(ring, code.generator, cap)
    block = max(1, BLOCK_ENTRIES // len(x1))
    numerators = np.concatenate([
        code.table.word_numerator(apply_matrix(ring, x1,
                                               z[start:start + block]))
        for start in range(0, len(z), block)])
    on_point = np.isin(keys, encode_vectors(code.support, order))
    on_point[keys == 0] = False
    return _ColumnModule(z, keys, numerators, on_point, x1)


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
    return certify_dual(code.modular_two_weight("dual pipeline"),
                        DualMeasurement(code, cap))


class DualMeasurement:
    """The measured side of a dual: the column module Z with the dual
    word weight of each z, the dual's index one, its graph on Z and the
    span of the smaller-weight messages, with the ring order and the
    weight denominator they are read with.  None of them reads the
    code's index.  Each is measured at first use, so certify_dual
    interleaves them with the closed forms in one fixed order and fails
    first where that order does.  The search gives certify_dual the
    same attributes, measured for a block of codes at once."""

    def __init__(self, code, cap):
        self.code, self.cap = code, cap
        self.order, self.denominator = code.ring.order, code.denominator

    @cached_property
    def module(self):
        return _column_module(self.code, self.cap)

    @cached_property
    def index_one(self):
        """None, once the dual is of index one (see _check_index_one)."""
        _check_index_one(self.code, self.module.x1)

    @cached_property
    def srg(self):
        """The measured Cayley graph on Z connected by the on-point z."""
        module = self.module
        (result,) = _cayley_srg(self.code.ring, module.elements, module.keys,
                                np.arange(len(module.keys)),
                                module.on_point[None])
        return _certified(result)

    @cached_property
    def spans(self):
        """None, once the smaller-weight words generate the code (see
        _check_smaller_class_spans)."""
        _check_smaller_class_spans(self.code, self.cap)


def _dual_weights(profile):
    """The closed forms of the dual weights of a modular two-weight
    profile with b0 = 1, (w1_dual, w2_dual), once the two forms of
    w1_dual agree."""
    r = profile.index
    n, w1, w2 = profile.n, profile.w1, profile.w2
    size = profile.size
    w1_dual = (w2 - n - r) * size / (w2 - w1)
    w1_dual_alt = Fraction(profile.b1) * w1 / n
    if w1_dual != w1_dual_alt:
        raise IdentityCheckError(
            "the two closed forms for the smaller dual weight disagree",
            witness={"first": str(w1_dual), "second": str(w1_dual_alt)})
    return w1_dual, (w2 - n) * size / (w2 - w1)


def certify_dual(profile, measurement, evaluate=evaluate_form):
    """The dual report of a code with this modular two-weight profile
    and trivial zero-weight subcode, from the closed forms in the
    profile checked against the measurement of that code (or of any
    code with its smaller-weight messages, column module and occurring
    points: those of its points at another index).  Each closed form
    is taken through evaluate, in the order the checks read it."""
    if profile.b0 != 1:
        raise PreconditionError(
            "dual pipeline needs a trivial zero-weight subcode")
    n, w1, size = profile.n, profile.w1, profile.size
    w1_dual, w2_dual = evaluate(_dual_weights, profile)

    module = measurement.module
    fibre = _fibre(len(module.keys), profile, measurement.order)
    on_point, class_counts = _check_message_classification(
        module, measurement.denominator, fibre, w1_dual, w2_dual)
    measurement.index_one  # raises unless the dual has index one

    b1_dual = int(on_point.sum())
    dual_profile = evaluate(_checked_profile, TwoWeightProfile(
        n=profile.b1, size=size, b0=1, w1=w1_dual, w2=w2_dual,
        b1=b1_dual, b2=size - 1 - b1_dual, index=Fraction(1)))
    measured = measurement.srg
    predicted = evaluate(predicted_dual_srg, profile)
    also_predicted = evaluate(predicted_srg, dual_profile)
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

    measurement.spans  # raises unless the smaller-weight words span the code
    return DualReport(
        dual_size=size, w1_dual=w1_dual, w2_dual=w2_dual,
        b1_dual=dual_profile.b1, b2_dual=dual_profile.b2,
        srg=measured, trivial=measured.trivial,
        kernel_size=class_counts[0], class_counts=class_counts)


def _fibre(size, profile, order):
    """The number of y in R^n with G y = z, for each z of a column
    module of the given size, once that size is the code size and
    divides order^n."""
    if size != profile.size:
        raise IdentityCheckError(
            "column module size differs from the code size",
            witness={"column_module": size, "code": profile.size})
    fibre, rest = divmod(order ** profile.n, size)
    if rest:
        raise IdentityCheckError(
            "column module size does not divide the message space",
            witness={"column_module": size,
                     "messages": f"{order}**{profile.n}"})
    return fibre


def _check_message_classification(module, denominator, fibre, w1_dual,
                                  w2_dual):
    """Every message vector y lands in one of three classes by its image
    z = G y: zero (dual word zero), on an occurring column point (dual
    weight the smaller closed form), or neither (the larger closed
    form).  Only z = 0 may have a dual word of weight 0.  Returns the
    mask of the on-point z and the class sizes, each z standing for its
    fibre of y."""
    D = denominator
    wnum, on_point = module.numerators, module.on_point
    zero = module.keys == 0
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
    counts = tuple(fibre * int(mask.sum())
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


def _check_index_one(code, x1):
    """The dual, whose columns are the smaller-weight words c = x G, has
    index one: the left unit orbit of each c, the words of the messages
    u x, has the smaller weight; else the first such x and u fail."""
    ring, smaller = code.ring, _smaller_class_mask(code)
    for u in ring.units_array:
        bad = np.flatnonzero(~smaller[encode_vectors(ring.mul_table[u, x1],
                                                     ring.order)])
        if len(bad):
            raise IdentityCheckError(
                "dual is not modular of index one",
                witness={"message": x1[bad[0]].tolist(), "unit": int(u)})


def _check_smaller_class_spans(code, cap):
    """The smaller-weight codewords generate the whole code (see
    _check_messages_span)."""
    rows = decode_vectors(np.flatnonzero(_smaller_class_mask(code)),
                          code.ring.order, code.k)
    _check_messages_span(code.ring, rows, len(code.kernel), code.size, cap)


def _check_messages_span(ring, rows, kernel_size, size, cap):
    """The words of the messages rows, the smaller-weight words of a
    code of this size and |ker G|, generate the code: the span of the
    messages, whose image is the words' span, is all of R^k."""
    _, keys = span(ring, rows, cap=cap)
    if len(keys) != ring.order ** rows.shape[1]:
        raise IdentityCheckError(
            "smaller-weight codewords do not generate the code",
            witness={"spanned": len(keys) // kernel_size, "code": size})
