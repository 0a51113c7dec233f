"""Brute-force oracle for the dual pipeline: the dual and the message
classification computed by enumerating all of R^n.

This is the direct reading of the definitions.  The dual is the right
code spanned by the columns of the smaller-weight matrix m1, built as
the left code of m1^T over the opposite ring, and every message vector
y in R^n is classified by the image G y.  It is exponential in the
length n, so it serves only as an independent check of
``frobcode.duality`` on small codes.
"""

from fractions import Fraction

import numpy as np

from frobcode.codes import build_code, two_weight_profile
from frobcode.duality import DualReport
from frobcode.errors import IdentityCheckError
from frobcode.homweight import weight_table
from frobcode.rings import opposite_ring
from frobcode.spans import (
    apply_matrix,
    encode_vectors,
    enumerate_vectors,
)
from span_oracle import code_words
from srg_oracle import oracle_srg


def smaller_class_matrix(code):
    """The smaller-weight codewords, in sorted word order, as rows."""
    w1 = two_weight_profile(code).w1
    words = code_words(code)
    return words[code.table.word_numerator(words)
                 == int(w1 * code.denominator)]


def oracle_build_dual(code, cap=None):
    """The dual as a left code over the opposite ring, enumerated over
    all order**n messages."""
    m1 = smaller_class_matrix(code)
    op = opposite_ring(code.ring)
    return build_code(op, m1.T.copy(), cap)


def _row_point_ids(ring, rows):
    units = ring.units_array
    orbits = ring.mul_table[rows[:, None, :], units[None, :, None]]
    keys = encode_vectors(orbits, ring.order)
    return keys.min(axis=1)


def oracle_message_classification(code, w1_dual, w2_dual, cap=None):
    """Counts of message vectors y in R^n in the kernel of G, with G y
    on an occurring column point, and neither; each class is checked
    against its dual weight.  Returns (kernel size, counts)."""
    ring = code.ring
    m1 = smaller_class_matrix(code)
    table = weight_table(ring)
    num = table.numerators
    D = table.denominator
    w1d_num = int(w1_dual * D)
    w2d_num = int(w2_dual * D)
    column_pids = np.unique(_row_point_ids(ring, code.generator.T))

    ys = enumerate_vectors(ring.order, code.n, cap)
    img = apply_matrix(ring, code.generator, ys)
    wnum = num[apply_matrix(ring, m1, ys)].sum(axis=1)
    img_zero = (img == 0).all(axis=1)
    on_point = np.isin(_row_point_ids(ring, img), column_pids) & ~img_zero
    other = ~img_zero & ~on_point
    for cls, mask, expected in (("kernel", img_zero, 0),
                                ("on-point", on_point, w1d_num),
                                ("off-point", other, w2d_num)):
        bad = np.flatnonzero(mask & (wnum != expected))
        if len(bad):
            raise IdentityCheckError(
                f"dual word weight disagrees with its {cls} class",
                witness={"y": ys[bad[0]].tolist(),
                         "weight": str(Fraction(int(wnum[bad[0]]), D))})
    counts = (int(img_zero.sum()), int(on_point.sum()), int(other.sum()))
    return counts[0], counts


def oracle_dual_report(code, cap=None):
    """The DualReport of a modular two-weight code with b0 = 1, every
    field measured on the R^n enumeration."""
    profile = two_weight_profile(code)
    n, w1, w2, size = profile.n, profile.w1, profile.w2, profile.size
    w1_dual = (w2 - n - profile.index) * size / (w2 - w1)
    w2_dual = (w2 - n) * size / (w2 - w1)
    dual = oracle_build_dual(code, cap)
    dual_profile = two_weight_profile(dual)
    srg = oracle_srg(dual)
    kernel_size, counts = oracle_message_classification(
        code, w1_dual, w2_dual, cap)
    return dual, DualReport(
        dual_size=dual.size, w1_dual=w1_dual, w2_dual=w2_dual,
        b1_dual=dual_profile.b1, b2_dual=dual_profile.b2,
        srg=srg, trivial=srg.trivial,
        kernel_size=kernel_size, class_counts=counts)
