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

from .errors import DimensionMismatch, InvalidArgument, OrderOutOfRange
from .signvar import _checked_count, _real_array, _shown
from .totalpos import _as_matrix, _minors


def index_subsets(n, p):
    """Lexicographically ordered p-subsets of {1..n} (1-based tuples); n
    and p go through the count rule (``signvar._checked_count``)."""
    _checked_count(n, "n")
    _checked_count(p, "p")
    return [tuple(i + 1 for i in c) for c in combinations(range(n), p)]


@dataclass
class CompoundMatrix:
    base_dim: int
    order: int
    entries: np.ndarray
    index_map: list

    def entry(self, alpha, beta):
        """Entry (alpha|beta); a label that is not a sequence raises
        InvalidArgument, as ``minor``'s index tuples do, and one that is not
        a p-subset of {1..n}, in order, DimensionMismatch."""
        try:
            alpha, beta = tuple(alpha), tuple(beta)
        except TypeError:  # "'int' object is not iterable"
            raise InvalidArgument(f"entry: index tuples must be sequences, got {_shown(alpha)}, {_shown(beta)}") from None
        try:
            i, j = self.index_map.index(alpha), self.index_map.index(beta)
        except ValueError:  # "x is not in list"
            raise DimensionMismatch(f"no entry ({_shown(alpha)}|{_shown(beta)}) in a compound of order {self.order}") from None
        return self.entries[i, j]


def _checked_order(p, n):
    """The one compound-order rule: p an integer >= 1 (InvalidArgument
    otherwise, a bool or a float included) and at most n (OrderOutOfRange
    otherwise)."""
    if _checked_count(p, "p", least=1) > n:
        raise OrderOutOfRange(f"order {p} outside 1..{n}")


def mult_compound(A, p):
    """Matrix of all p x p minors of A, lexicographically ordered; A is
    checked by ``totalpos._as_matrix`` and p by ``_checked_order``."""
    A = _as_matrix(A, "mult_compound")
    n = A.shape[0]
    _checked_order(p, n)
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
    0, as Python's ``sum`` does. A (..., n, n) stack of matrices gives the
    stack of their compounds as ``entries``. A complex or text entry raises
    InvalidArgument (``signvar._real_array``), and p is checked by
    ``_checked_order``.
    """
    A = _real_array(A, "add_compound: the matrix")
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch("compound requires a square matrix or a stack of them")
    n = A.shape[-1]
    _checked_order(p, n)
    labels, diag, dst, rows, cols, sign = _add_compound_map(n, p)
    m = len(labels)
    d = A.diagonal(axis1=-2, axis2=-1)
    trace = 0.0
    for k in range(p):
        trace = trace + d[..., diag[:, k]]
    out = np.zeros(A.shape[:-2] + (m * m,))
    out[..., :: m + 1] = trace
    out[..., dst] = A[..., rows, cols] * sign
    return CompoundMatrix(n, p, out.reshape(A.shape[:-2] + (m, m)), list(labels))


def is_metzler(A):
    """Nonnegative off the diagonal. Anything but a nonempty square matrix
    raises DimensionMismatch, a nan or infinite entry NonFiniteInput."""
    A = _as_matrix(A, "is_metzler")
    return bool(np.all((A >= 0) | np.eye(*A.shape, dtype=bool)))


def metzler_compound_profile(A):
    """Metzler status of every additive compound of A, as (order, bool) pairs;
    checked as in is_metzler."""
    A = _as_matrix(A, "metzler_compound_profile")
    n = A.shape[0]
    return [(p, is_metzler(add_compound(A, p).entries)) for p in range(1, n + 1)]
