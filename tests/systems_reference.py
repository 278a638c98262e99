"""The per-entry loops that decided M / M+ membership before the one stacked
``tpds.systems._membership`` kernel; kept as the test reference, with the
tolerance knobs at the only value they were ever given (zero)."""

import numpy as np

from tpds.errors import DimensionMismatch, NonFiniteInput
from tpds.systems import SystemClass


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

