"""Per-minor reference implementations of minor enumeration, for tests only.

This is the one-minor-at-a-time loop the library's batched kernel
(``tpds.totalpos._minors``) replaced: one ``np.ix_`` gather, one scalar
determinant and one scalar zero threshold per minor. It performs the same
floating-point operations in the same order, so the kernel must agree with
it bit for bit. ``exact_minors`` is the exact oracle for total positivity:
every minor of the stored floats in rational arithmetic, by cofactor
expansion.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from tpds.totalpos import (
    MINOR_REL_TOL,
    Certificate,
    Classification,
    _as_matrix,
    _det_sign,
    _dyadic_integers,
    _minors,
    _subsets,
    _tp_refutation,
)


def _irreducible(A, tol=0.0):
    """Strong connectivity of the directed graph of the nonzero pattern."""
    n = A.shape[0]
    adj = np.abs(A) > tol
    np.fill_diagonal(adj, True)
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach @ adj)
    return bool(reach.all())


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


def classify_full(A):
    """``tpds.classify`` with every order enumerated, as it was before it
    stopped at the first order after which TN and SSR are both refuted:
    the same TP certificate, minors, thresholds, witness order and exact
    determinant sign, and a NonFiniteInput from a minor of any order that
    overflows. It passes ``_minors`` no lower-order tables, so every order
    above 3 comes from LU."""
    A = _as_matrix(A, "classify")
    n = A.shape[0]
    nonpositive = _tp_refutation(A)
    if nonpositive is None:
        return Classification(True, True, True, True, None, Certificate("initial minors"))
    is_tn = is_ssr = True
    witness = None
    for k in range(1, n + 1):
        d, thr = _minors(A, k)
        below = np.argwhere(d < -thr)
        if len(below):
            is_tn = False
            if witness is None:
                r, c = below[0]
                alpha, beta = (tuple(int(i) + 1 for i in s) for s in _subsets(n, k)[[r, c]])
                witness = (alpha, beta, float(d[r, c]))
        if (np.abs(d) <= thr).any() or not ((d > 0).all() or (d < 0).all()):
            is_ssr = False
    det_sign = None
    if is_tn and (np.diag(A, 1) > 0).all() and (np.diag(A, -1) > 0).all():
        det_sign = _det_sign(_dyadic_integers(A))
    certificate = Certificate("exhaustive", nonpositive, det_sign, orders=n)
    return Classification(is_tn, False, is_ssr, det_sign == 1, witness, certificate)


def exact_minors(A):
    """Every minor of the square matrix A, exact, keyed by 0-based (rows, cols).

    The entries are read as Fractions and scaled by the lcm of their
    denominators, which leaves every minor's sign as it is; each order-k
    minor is expanded along its first row into order-(k-1) minors.
    """
    F = [[Fraction(x) for x in row] for row in np.asarray(A, dtype=float).tolist()]
    n = len(F)
    den = lcm(*(x.denominator for row in F for x in row))
    M = [[int(x * den) for x in row] for row in F]
    minors = {((i,), (j,)): M[i][j] for i in range(n) for j in range(n)}
    for k in range(2, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                value = 0
                for t, c in enumerate(cols):
                    term = M[rows[0]][c] * minors[rows[1:], cols[:t] + cols[t + 1 :]]
                    value += -term if t % 2 else term
                minors[rows, cols] = value
    return minors


def exact_minor(A, rows, cols):
    """det A[rows|cols] of the stored floats as a Fraction, 0-based indices,
    by cofactor expansion along the first row."""
    M = [[Fraction(x) for x in row] for row in np.asarray(A, dtype=float)[np.ix_(rows, cols)].tolist()]

    def det(M):
        if len(M) == 1:
            return M[0][0]
        return sum((-1) ** j * M[0][j] * det([row[:j] + row[j + 1 :] for row in M[1:]]) for j in range(len(M)) if M[0][j])

    return det(M)


def exact_is_tp(A):
    return all(v > 0 for v in exact_minors(A).values())
