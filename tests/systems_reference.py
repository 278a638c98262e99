"""The per-entry loops that decided M / M+ membership before the one stacked
``tpds.systems._membership`` kernel, kept as the test reference with the
tolerance knobs at the only value they were ever given (zero), and the
per-time loop of the period check before it took one stacked evaluation."""

import math

import numpy as np

from tpds.errors import DimensionMismatch, NonFiniteInput, SpecFileError
from tpds.systems import PERIOD_CHECK_TOL, SystemClass


def in_M(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DimensionMismatch("in_M expects a nonempty square matrix")
    if not np.isfinite(A).all():
        raise NonFiniteInput("in_M: the matrix has a nan or infinite entry")
    n = A.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and abs(A[i, j]) > 0.0:
                return False
            if abs(i - j) == 1 and A[i, j] < -0.0:
                return False
    return True


def in_M_plus(A):
    A = np.asarray(A, dtype=float)
    if not in_M(A):
        return False
    n = A.shape[0]
    sub = np.diag(A, -1)
    sup = np.diag(A, 1)
    if n == 1:
        return True
    return bool(np.all(sub > 0.0) and np.all(sup > 0.0))


def offdiag_min(A):
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 1:
        return np.inf
    return float(min(np.diag(A, -1).min(), np.diag(A, 1).min()))


def classify_constant(A):
    A = np.asarray(A, dtype=float)
    violations = []
    if in_M_plus(A):
        verdict = "TPDS"
        delta = offdiag_min(A)
    elif in_M(A):
        verdict = "TNDS_only"
        delta = None
    else:
        verdict = "neither"
        delta = None
        n = A.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 1 and A[i, j] != 0:
                    violations.append((None, f"a[{i + 1},{j + 1}]={A[i, j]} nonzero"))
                if abs(i - j) == 1 and A[i, j] < 0:
                    violations.append((None, f"a[{i + 1},{j + 1}]={A[i, j]} negative"))
    return SystemClass(verdict, delta, violations)



def check_period(sys):
    """A(t) == A(t + T) at up to 100 times, then at each segment's midpoint
    and at each midpoint moved back by T, two scalar ``matrix_at`` calls at
    each, checked time by time (the overflow of a finite difference reads
    as inf, as before, without numpy's warning)."""
    a, b = sys.interval
    T = sys.period
    if not (T > 0 and math.isfinite(T)):
        raise SpecFileError(f"period must be a positive finite number, got {T}")
    mids = np.array([0.5 * (seg.t_start + seg.t_end) for seg in sys.segments])
    ts = np.concatenate([np.linspace(a, b - T, 100), mids, mids - T])
    ts = ts[(ts > a) & (ts + T < b)]
    for t in ts:
        now, later = sys.matrix_at(t), sys.matrix_at(t + T)
        if not (np.isfinite(now).all() and np.isfinite(later).all()):
            raise NonFiniteInput(f"A(t) or A(t+T) has a non-finite entry at t={t}")
        with np.errstate(over="ignore"):
            if np.max(np.abs(now - later)) > PERIOD_CHECK_TOL:
                raise SpecFileError(f"A(t) != A(t+T) at t={t}")
