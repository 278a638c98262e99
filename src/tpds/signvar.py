"""Sign-variation functionals for real vectors.

Three counts are provided: ``s_minus`` (sign changes after deleting zeros),
``s_plus`` (maximal sign changes over all +/-1 replacements of zeros), and
``sigma`` (their common value on the open set V of vectors with nonzero
first/last entries whose interior zeros sit between strict sign changes).
All of them, and every batched caller, count with ``sign_counts``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonFiniteInput, NotInV

DEFAULT_FLOAT_TOL = 1e-9


def _sign_rows(Y, zero_tol=None):
    """-1/0/+1 signs of a float array of any leading shape, and which rows
    are finite. A row with a nan or inf entry gets all-zero signs; the
    caller decides whether and when it raises."""
    try:
        bad = zero_tol is not None and not zero_tol >= 0
    except (TypeError, ValueError):  # a string, or an array of tolerances
        bad = True
    if bad:
        raise InvalidArgument("zero_tol must be nonnegative")
    tol = DEFAULT_FLOAT_TOL if zero_tol is None else zero_tol
    Y = np.asarray(Y, dtype=float)
    finite = np.isfinite(Y).all(axis=-1, keepdims=True)
    Y = np.where(finite, Y, 0.0)
    S = np.sign(Y).astype(int)
    S[np.abs(Y) <= tol] = 0
    return S, finite[..., 0]


def _check_finite(Y, name="vector"):
    """The one finiteness rule for vectors: the first row of Y (its last
    axis) with a nan or inf entry raises NonFiniteInput, naming it."""
    finite = np.isfinite(Y).all(axis=-1)
    if not finite.all():
        row = Y.reshape(-1, Y.shape[-1])[np.argmin(finite.ravel())]
        raise NonFiniteInput(f"{name} {row.tolist()} has a non-finite entry")


def _checked_count(count, name, least=0):
    """The one count rule: an integer >= least, else InvalidArgument."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
        raise InvalidArgument(f"{name} must be an integer >= {least}, got {count!r}")
    return count


def signs(y, zero_tol=None):
    """Classify entries into -1/0/+1 using the zero tolerance.

    The default is a 1e-9 absolute tolerance, which classifies integer
    input exactly. A nan or infinite entry has no sign count and raises
    NonFiniteInput, anything but a nonempty vector DimensionMismatch and a
    zero_tol that is negative or nan InvalidArgument.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise DimensionMismatch("expected a nonempty vector")
    s, finite = _sign_rows(y, zero_tol)
    if not finite:
        _check_finite(y)
    return s


def sign_counts(S):
    """s_minus and s_plus of every row of a -1/0/+1 sign array, in closed form.

    S has any leading shape, a single vector included, and both counts come
    back with that shape. Only consecutive nonzero entries p < q of a row
    matter. s_minus counts the pairs with S[p] != S[q]. The q - p - 1 zeros
    between them can alternate all the way exactly when
    S[p] * S[q] == (-1)**(q - p), and every other adjacent pair of a row of
    length n can always change sign, so s_plus is n - 1 less the pairs where
    that parity fails.
    """
    S = np.asarray(S)
    n = S.shape[-1]
    flat = S.ravel()
    f = np.flatnonzero(flat)  # every nonzero entry, row after row
    row = f // n
    pair = row[1:] == row[:-1]  # f[k] and f[k + 1] are p and q of one row
    prod = flat[f[1:]] * flat[f[:-1]]
    parity = 1 - 2 * ((f[1:] - f[:-1]) & 1)  # (-1)**(q - p)
    rows = flat.size // n
    s_minus = np.bincount(row[1:][pair & (prod < 0)], minlength=rows)
    s_plus = n - 1 - np.bincount(row[1:][pair & (prod != parity)], minlength=rows)
    return s_minus.reshape(S.shape[:-1]), s_plus.reshape(S.shape[:-1])


def s_minus(y, zero_tol=None):
    """Number of sign changes in ``y`` after deleting all zero entries."""
    return int(sign_counts(signs(y, zero_tol))[0])


def s_plus(y, zero_tol=None):
    """Maximal number of sign changes over all +/-1 replacements of zeros."""
    return int(sign_counts(signs(y, zero_tol))[1])


def v_counts(S):
    """s_minus, s_plus and the V flag of every row of a -1/0/+1 sign array:
    a row is in V when its first entry is nonzero and s_minus == s_plus.
    (A zero end entry already makes s_plus the larger, except in a
    single-entry row, where both counts are 0.)"""
    sm, sp = sign_counts(S)
    return sm, sp, (np.asarray(S)[..., 0] != 0) & (sm == sp)


def in_V(y, zero_tol=None):
    """True iff sigma extends continuously to ``y``: s_minus(y) == s_plus(y)
    and the first entry is nonzero."""
    return bool(v_counts(signs(y, zero_tol))[2])


def sigma(y, zero_tol=None):
    """Sign-change count on V; raises NotInV off it (no extension by fiat)."""
    sm, _, in_v = v_counts(signs(y, zero_tol))
    if not in_v:
        raise NotInV(f"vector {np.asarray(y).tolist()} is not in V")
    return int(sm)
