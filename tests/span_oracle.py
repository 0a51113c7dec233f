"""Test oracles for row spaces and column modules.

``rn_column_space`` enumerates every y in R^n, so it shares no code with
the closure in ``spans.column_module``.  ``check_row_column_cardinality``
states the fact that a matrix over a Frobenius ring has row space
{x G} and column module {G y} of the same size.  ``code_words`` forms a
code's words from all of R^k and orders them by row, with no keys, so
it works past int64 keys and shares nothing with the code's own
message passes.
"""

import numpy as np

from frobcode.errors import IdentityCheckError
from frobcode.spans import apply_matrix, column_module, enumerate_vectors, \
    message_words, row_space


def code_words(code):
    """The words x G of a code as sorted unique rows, compared as their
    big-endian bytes, which sort as the rows do."""
    words = np.ascontiguousarray(message_words(
        code.ring, code.generator, code.ring.order ** code.k), dtype=">i4")
    rows = words.view(np.dtype((np.void, 4 * code.n))).ravel()
    _, first = np.unique(rows, return_index=True)
    return words[first].astype(np.int32)


def rn_column_space(ring, matrix):
    """{G y : y in R^n} as sorted unique rows, by enumerating R^n."""
    ys = enumerate_vectors(ring.order, matrix.shape[1])
    images = apply_matrix(ring, matrix, ys)
    return np.unique(images, axis=0)


def check_row_column_cardinality(ring, matrix, cap=None):
    """Verify that the row space (x @ G) and the column module (G @ y)
    have the same number of elements; returns that common size."""
    nrows = len(row_space(ring, matrix, cap))
    ncols = len(column_module(ring, matrix, cap)[0])
    if nrows != ncols:
        raise IdentityCheckError(
            f"row space has {nrows} elements, column space {ncols}",
            witness={"matrix": np.asarray(matrix).tolist()})
    return nrows
