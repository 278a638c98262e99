"""Per-minor reference implementation of minor enumeration, for tests only.

This is the one-minor-at-a-time loop the library's batched kernel
(``tpds.totalpos._minors``) replaced: one ``np.ix_`` gather, one scalar
determinant and one scalar zero threshold per minor. It performs the same
floating-point operations in the same order, so the kernel must agree with
it bit for bit.
"""

from itertools import combinations

import numpy as np

from tpds.totalpos import MINOR_REL_TOL, Classification, _irreducible


def det(sub):
    n = sub.shape[0]
    if n == 1:
        return float(sub[0, 0])
    if n == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    if n == 3:
        return float(
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
    return float(np.linalg.det(sub))


def zero_threshold(sub):
    # scale-aware cutoff: relative to the product of row max-norms
    scale = 1.0
    for row in np.abs(sub):
        scale *= row.max()
    return MINOR_REL_TOL * scale


def minors(A, k):
    """(d, thr) of every order-k minor, rows outer and columns inner."""
    A = np.asarray(A, dtype=float)
    rows = list(combinations(range(A.shape[0]), k))
    cols = list(combinations(range(A.shape[1]), k))
    d = np.empty((len(rows), len(cols)))
    thr = np.empty_like(d)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            sub = A[np.ix_(r, c)]
            d[i, j] = det(sub)
            thr[i, j] = zero_threshold(sub)
    return d, thr


def classify(A):
    """Exhaustive classification, minor by minor, without the A^(n-1) cross-check."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    is_tn = True
    is_tp = True
    is_ssr = True
    witness = None
    full_det_nonzero = False
    idx = list(range(n))
    for k in range(1, n + 1):
        order_sign = 0
        for rows in combinations(idx, k):
            for cols in combinations(idx, k):
                sub = A[np.ix_(rows, cols)]
                d = det(sub)
                thr = zero_threshold(sub)
                if d < -thr and witness is None:
                    witness = (
                        tuple(i + 1 for i in rows),
                        tuple(j + 1 for j in cols),
                        d,
                    )
                if d < -thr:
                    is_tn = False
                if d <= thr:
                    is_tp = False
                if abs(d) <= thr:
                    is_ssr = False
                elif order_sign == 0:
                    order_sign = 1 if d > 0 else -1
                elif (d > 0) != (order_sign > 0):
                    is_ssr = False
                if k == n and abs(d) > thr:
                    full_det_nonzero = True
    is_osc = is_tn and full_det_nonzero and _irreducible(A)
    return Classification(is_tn, is_tp, is_ssr, is_osc, witness)
