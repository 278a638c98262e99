"""Reference Neville factorization, for tests only.

This is ``tpds.geb_factorize`` as it was while it ran ``is_geb`` on every
factor it returned: the same elimination, product and residual, then the
per-factor loop. The library now raises the same errors from the
multipliers and pivots it computed, so the two must agree on every
input: the same factors and residual bit for bit, or the same exception
type and message.
"""

import numpy as np

from tpds.errors import NotTN, PivotBreakdown
from tpds.totalpos import GEB_ZERO_TOL, GEBFactorization, _as_matrix, _eb, classify, is_geb


def check_factors(factors):
    """The per-factor loop: the first factor is_geb refuses raises
    PivotBreakdown, and a non-finite one raises is_geb's NonFiniteInput."""
    for F in factors:
        if not is_geb(F):
            raise PivotBreakdown("produced a non-GEB factor")


def geb_factorize(A):
    A = _as_matrix(A, "geb_factorize")
    n = A.shape[0]
    if not classify(A).is_TN:
        raise NotTN("geb_factorize requires a TN input")

    def neville_lower(M):
        M = M.copy()
        factors = []
        for j in range(n - 1):
            for i in range(n - 1, j, -1):
                if abs(M[i, j]) <= GEB_ZERO_TOL:
                    M[i, j] = 0.0
                    continue
                if abs(M[i - 1, j]) <= GEB_ZERO_TOL:
                    raise PivotBreakdown(f"zero pivot above nonzero entry at row {i + 1}, column {j + 1}")
                m = M[i, j] / M[i - 1, j]
                if m < -GEB_ZERO_TOL:
                    raise PivotBreakdown(f"negative multiplier {m} (input not TN?)")
                M[i, :] -= m * M[i - 1, :]
                M[i, j] = 0.0
                factors.append(_eb(n, i, i - 1, max(m, 0.0)))
        return factors, M

    lower, U = neville_lower(A)
    upper_t, Rt = neville_lower(U.T)
    diag = np.diag(np.diag(Rt.copy()))
    upper = [F.T for F in reversed(upper_t)]
    factors = lower + [diag] + upper

    fact = GEBFactorization(factors)
    denom = max(np.linalg.norm(A), 1e-300)
    fact.residual_error = float(np.linalg.norm(fact.product() - A) / denom)
    check_factors(factors)
    return fact
