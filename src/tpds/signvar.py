"""Sign-variation functionals for real vectors.

Three counts are provided: ``s_minus`` (sign changes after deleting zeros),
``s_plus`` (maximal sign changes over all +/-1 replacements of zeros), and
``sigma`` (their common value on the open set V of vectors with nonzero
first/last entries whose interior zeros sit between strict sign changes).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CrossCheckFailed, NonFiniteInput, NotInV

DEFAULT_FLOAT_TOL = 1e-9


def _resolve_tol(y, zero_tol):
    if zero_tol is not None:
        if zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")
        return zero_tol
    arr = np.asarray(y)
    if np.issubdtype(arr.dtype, np.integer):
        return 0.0
    return DEFAULT_FLOAT_TOL


def signs(y, zero_tol=None):
    """Classify entries into -1/0/+1 using the zero tolerance.

    Integer input defaults to exact classification, float input to a
    1e-9 absolute tolerance. A nan or infinite entry has no sign count and
    raises NonFiniteInput.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("expected a nonempty vector")
    tol = _resolve_tol(y, zero_tol)
    if not all(map(math.isfinite, y.tolist())):
        raise NonFiniteInput(f"vector {y.tolist()} has a non-finite entry")
    s = np.sign(y).astype(int)
    s[np.abs(y) <= tol] = 0
    return s


def s_minus(y, zero_tol=None):
    """Number of sign changes in ``y`` after deleting all zero entries."""
    s = signs(y, zero_tol)
    nz = s[s != 0]
    if nz.size < 2:
        return 0
    return int(np.sum(nz[1:] != nz[:-1]))


def s_plus(y, zero_tol=None):
    """Maximal number of sign changes over all +/-1 replacements of zeros.

    Linear-time dynamic program over entry signs; each zero entry may take
    either sign, chosen to maximize the alternation count.
    """
    s = signs(y, zero_tol)
    # best[k] = max alternations so far when the previous entry took sign k
    best = {-1: 0, 1: 0}
    first = s[0]
    if first != 0:
        best[-first] = -1  # sign forced
    for v in s[1:]:
        choices = (-1, 1) if v == 0 else (v,)
        new = {-1: -1, 1: -1}
        for c in choices:
            cand = max(
                best[-c] + 1 if best[-c] >= 0 else -1,
                best[c] if best[c] >= 0 else -1,
            )
            new[c] = cand
        best = new
    return max(best.values())


def sign_counts(S):
    """s_minus and s_plus of every row of a -1/0/+1 sign matrix at once.

    One pass over the columns with all rows in step: s_minus counts changes
    between consecutive nonzero signs, s_plus runs the dynamic program of
    ``s_plus`` on every row. Returns two integer arrays.
    """
    S = np.asarray(S)
    first = S[:, 0]
    last = first  # latest nonzero sign of each row, 0 before the first
    sm = np.zeros(len(S), dtype=int)
    # best alternation count with the previous entry -1 / +1, -1 if impossible
    bm = np.where(first == 1, -1, 0)
    bp = np.where(first == -1, -1, 0)
    for v in S.T[1:]:
        sm += (v != 0) & (last != 0) & (v != last)
        last = np.where(v != 0, v, last)
        to_m = np.maximum(np.where(bp >= 0, bp + 1, -1), bm)
        to_p = np.maximum(np.where(bm >= 0, bm + 1, -1), bp)
        bm = np.where(v != 1, to_m, -1)
        bp = np.where(v != -1, to_p, -1)
    return sm, np.maximum(bm, bp)


def in_V(y, zero_tol=None):
    """True iff sigma extends continuously to ``y``.

    Both characterizations are evaluated (nonzero endpoints with strict sign
    changes across interior zeros, and s_minus == s_plus) and must agree.
    """
    s = signs(y, zero_tol)
    direct = s[0] != 0 and s[-1] != 0
    if direct:
        for i in range(1, len(s) - 1):
            if s[i] == 0 and s[i - 1] * s[i + 1] >= 0:
                direct = False
                break
    if len(s) > 1:
        # the count characterization s_minus == s_plus only separates V for
        # n >= 2 (a single zero entry has both counts 0 yet sits outside V)
        via_counts = s_minus(y, zero_tol) == s_plus(y, zero_tol)
        if direct != via_counts:
            raise CrossCheckFailed("the two V characterizations disagree")
    return direct


def sigma(y, zero_tol=None):
    """Sign-change count on V; raises NotInV off it (no extension by fiat)."""
    if not in_V(y, zero_tol):
        raise NotInV(f"vector {np.asarray(y).tolist()} is not in V")
    return s_minus(y, zero_tol)
