"""Dense tensor-grid helpers for exact computation on truncated count spaces.

States are multi-indices ``c = (c_1, ..., c_m)`` of per-atom counts; tables
are numpy arrays indexed by those counts. All helpers here are pure.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, xlogy


def poisson_logpmf(k, lam):
    """log pmf of Poisson(lam) at counts k: xlogy(k, lam) - gammaln(k + 1) - lam.

    ``np.exp`` of it is the pmf (``math.exp`` can differ by one ulp).
    """
    return xlogy(k, lam) - gammaln(k + 1) - lam


def poisson_pmf_vector(lam: float, size: int) -> np.ndarray:
    """pmf of Poisson(lam) on {0, ..., size-1}."""
    return np.exp(poisson_logpmf(np.arange(size), lam))


def poisson_tail_series(k, lam):
    """S with P[Poisson(lam) > k] = pmf(k + 1) * S, for integer arrays k:
    S = 1 + lam/(k+2) + lam^2/((k+2)(k+3)) + ..., summed to float precision.

    With it a caller can carry the upper tail in log space where it falls
    below the smallest normal float (k >= 170 at unit rate).
    """
    k = np.asarray(k)
    series, term, j = np.zeros(k.shape), np.ones(k.shape), 0
    while np.any(term > np.finfo(float).eps * series):
        series += term
        term = term * lam / (k + 2 + j)
        j += 1
    return series


def product_pmf(weights, shape) -> np.ndarray:
    """Product-Poisson pmf table over the grid of the given shape."""
    out = np.ones(())
    for lam, size in zip(weights, shape):
        out = np.multiply.outer(out, poisson_pmf_vector(lam, size))
    return out.reshape(tuple(shape))


def tensor_apply(mats, table: np.ndarray) -> np.ndarray:
    """Apply one matrix per axis: out[c] = sum_k prod_i M_i[c_i, k_i] table[k]."""
    for axis, mat in enumerate(mats):
        table = np.moveaxis(np.tensordot(mat, table, axes=(1, axis)), 0, axis)
    return table


def shift_up(table: np.ndarray, axis: int) -> np.ndarray:
    """table[c + e_axis]; shape shrinks by one along axis."""
    index = [slice(None)] * table.ndim
    index[axis] = slice(1, None)
    return table[tuple(index)]


def drop_top(table: np.ndarray, axis: int) -> np.ndarray:
    """Discard the top layer along axis."""
    index = [slice(None)] * table.ndim
    index[axis] = slice(0, table.shape[axis] - 1)
    return table[tuple(index)]


def trim_to(table: np.ndarray, shape) -> np.ndarray:
    """Restrict a table to the sub-grid of the given (smaller) shape."""
    return table[tuple(slice(0, s) for s in shape)]


def diff_axis(table: np.ndarray, axis: int) -> np.ndarray:
    """Add-one-cost along one axis: table[c + e_axis] - table[c]; the
    subtraction ``np.diff`` makes, without its wrapper."""
    return shift_up(table, axis) - drop_top(table, axis)


def index_form(counts) -> tuple:
    """Counts in numpy's advanced-index form, the one count format: a tuple of
    m int64 arrays that broadcast together, one per atom. A grid is
    ``np.indices(shape, sparse=True)``, samples are ``tuple(samples.T)`` and
    one state is a tuple of m ints. Anything else raises TypeError, so that an
    array of rows is never read as a tuple of axes.
    """
    if not isinstance(counts, tuple):
        raise TypeError("counts must be a tuple of m integer arrays (numpy index "
                        f"form), not {type(counts).__name__}")
    return tuple(np.asarray(c, dtype=np.int64) for c in counts)


def count_shape(counts) -> tuple:
    """Shape of the states held by counts in index form."""
    shapes = {np.shape(c) for c in counts}
    # samples have one shape; np.broadcast_shapes costs microseconds even then
    return shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)


def add_unit(counts, axis: int) -> tuple:
    """counts + e_axis in index form: only the axis component changes."""
    counts = index_form(counts)
    return counts[:axis] + (counts[axis] + 1,) + counts[axis + 1:]


def map_rows(rule, counts) -> np.ndarray:
    """Evaluate a scalar rule counts -> real state by state, handing it each
    state as a length-m int64 array: the one place counts in index form are
    broadcast to rows. ``counts`` must already be in index form (as
    ``index_form`` returns it); it is not validated again here."""
    shape = count_shape(counts)
    rows = np.empty(shape + (len(counts),), dtype=np.int64)
    for k, c in enumerate(counts):
        rows[..., k] = c
    rows = rows.reshape(-1, len(counts))
    out = np.fromiter((rule(row) for row in rows), dtype=float, count=len(rows))
    return out.reshape(shape)


def tabulate_rule(rule, shape) -> np.ndarray:
    """Evaluate a scalar rule counts -> real on every state of the grid."""
    return map_rows(rule, np.indices(tuple(shape), sparse=True))
