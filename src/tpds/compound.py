"""Multiplicative and additive compound matrices.

Rows/columns of a p-th compound are labeled by the p-element subsets of
{1..n} in lexicographic order; the label list is exposed so callers can
address entries as (alpha|beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, OrderOutOfRange
from .totalpos import _minors


def index_subsets(n, p):
    """Lexicographically ordered p-subsets of {1..n} (1-based tuples)."""
    return [tuple(i + 1 for i in c) for c in combinations(range(n), p)]


@dataclass
class CompoundMatrix:
    base_dim: int
    order: int
    entries: np.ndarray
    index_map: list

    def entry(self, alpha, beta):
        i = self.index_map.index(tuple(alpha))
        j = self.index_map.index(tuple(beta))
        return self.entries[i, j]


def _check_square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("compound requires a square matrix")
    return A


def mult_compound(A, p):
    """Matrix of all p x p minors of A, lexicographically ordered."""
    A = _check_square(A)
    n = A.shape[0]
    if not 1 <= p <= n:
        raise OrderOutOfRange(f"order {p} outside 1..{n}")
    return CompoundMatrix(n, p, _minors(A, p)[0], index_subsets(n, p))


@lru_cache(maxsize=64)
def _add_compound_map(n, p):
    """Where each entry of the p-th additive compound of an n x n matrix comes
    from: the diagonal indices summed into each diagonal entry, and for each
    entry whose labels differ in one index, its flat position, the source
    entry of A and its sign."""
    labels = index_subsets(n, p)
    m = len(labels)
    diag = np.array([[a - 1 for a in alpha] for alpha in labels], dtype=np.intp)
    dst, rows, cols, sign = [], [], [], []
    for i, alpha in enumerate(labels):
        for j, beta in enumerate(labels):
            only_a = [k for k, a in enumerate(alpha) if a not in beta]
            only_b = [k for k, b in enumerate(beta) if b not in alpha]
            if len(only_a) == 1 and len(only_b) == 1:
                l, mm = only_a[0], only_b[0]
                dst.append(i * m + j)
                rows.append(alpha[l] - 1)
                cols.append(beta[mm] - 1)
                sign.append((-1.0) ** (l + mm))
    arrays = [diag] + [np.array(v, dtype=np.intp) for v in (dst, rows, cols)] + [np.array(sign)]
    for arr in arrays:
        arr.flags.writeable = False  # shared by every call through the cache
    return (tuple(labels), *arrays)


def add_compound(A, p):
    """Derivative of the p-th multiplicative compound at the identity.

    Entry (alpha|beta) is the trace over alpha when alpha == beta, the
    signed entry (-1)^(l+m) a_{i_l j_m} when the tuples differ in exactly
    one index, and zero otherwise. Each trace is summed left to right from
    0, as Python's ``sum`` does.
    """
    A = _check_square(A)
    n = A.shape[0]
    if not 1 <= p <= n:
        raise OrderOutOfRange(f"order {p} outside 1..{n}")
    labels, diag, dst, rows, cols, sign = _add_compound_map(n, p)
    m = len(labels)
    d = A.diagonal()
    trace = 0.0
    for k in range(p):
        trace = trace + d[diag[:, k]]
    out = np.zeros(m * m)
    out[:: m + 1] = trace
    out[dst] = A[rows, cols] * sign
    return CompoundMatrix(n, p, out.reshape(m, m), list(labels))


def is_metzler(A):
    A = np.asarray(A, dtype=float)
    return bool(np.all((A >= 0) | np.eye(*A.shape, dtype=bool)))


def metzler_compound_profile(A):
    """Metzler status of every additive compound of A, as (order, bool) pairs."""
    A = _check_square(A)
    n = A.shape[0]
    return [(p, is_metzler(add_compound(A, p).entries)) for p in range(1, n + 1)]
