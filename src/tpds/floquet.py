"""Monodromy analysis of periodic cooperative tridiagonal systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BandViolation,
    DimensionMismatch,
    FloquetViolation,
    LeadingCoefficientZero,
    NotPeriodic,
    SpectralViolation,
)
from .integrate import _checked_horizon, simulate_linear, transition_matrix
from .totalpos import _ordered_spectrum

SAMPLES_PER_PERIOD = 200


@dataclass
class FloquetData:
    period: float
    monodromy: np.ndarray
    multipliers: np.ndarray  # strictly decreasing, positive
    eigvecs: np.ndarray  # columns, unit norm, first nonzero entry positive
    sign_counts: list


def floquet(sys, step=None):
    """Monodromy matrix Phi(T, 0) and its ordered spectral data.

    Multipliers must come out real, positive and strictly separated, and
    eigenvector k must carry exactly k-1 sign changes; anything else raises
    FloquetViolation (misclassified system or failed numerics).
    """
    if sys.period is None:
        raise NotPeriodic("system carries no period")
    T = sys.period
    B = transition_matrix(sys, 0.0, T, step).phi
    try:
        vals, vecs = _ordered_spectrum(B)
    except SpectralViolation as exc:
        raise FloquetViolation(str(exc)) from exc
    return FloquetData(T, B, vals, vecs, list(range(len(vals))))


def floquet_mode_evolution(sys, fd, coeffs, horizon, step=None):
    """Evolution of z(0) = sum_k c_k p^k with the sign-count band enforced.

    `coeffs` maps 1-based mode numbers to coefficients (dict) or is a dense
    sequence c_1..c_n. With i [j] the lowest [highest] mode carrying a
    nonzero coefficient, the sampled count must stay in [i-1, j-1] (at most
    j-i exceptional clusters) and settle at i-1 over the last 10% of the
    horizon, which ``integrate._checked_horizon`` checks against the interval.
    """
    n = fd.monodromy.shape[0]
    if isinstance(coeffs, dict):
        if not set(coeffs) <= set(range(1, n + 1)):
            raise DimensionMismatch(f"mode numbers must lie in 1..{n}, got {list(coeffs)}")
        coeffs = [coeffs.get(k, 0.0) for k in range(1, n + 1)]
    if np.ndim(coeffs) != 1 or len(coeffs) > n:
        raise DimensionMismatch(f"expected at most {n} coefficients, got {coeffs!r}")
    cvec = np.zeros(n)
    cvec[: len(coeffs)] = coeffs
    nz = np.flatnonzero(cvec)
    if nz.size == 0:
        raise LeadingCoefficientZero("all coefficients are zero")
    i, j = nz[0] + 1, nz[-1] + 1
    z0 = fd.eigvecs @ cvec
    horizon = _checked_horizon(horizon, sys.interval)
    nsamples = max(2, int(SAMPLES_PER_PERIOD * horizon / fd.period))
    grid = np.linspace(0.0, horizon, nsamples)
    traj = simulate_linear(sys, z0, grid, step=step, tpds=True)
    lo, hi = i - 1, j - 1
    band_bad = [
        float(t)
        for t, ok, sm, sp in zip(grid, traj.in_V_flags, traj.sigma_minus, traj.sigma_plus)
        if ok and not (lo <= sm <= hi)
    ]
    if band_bad:
        raise BandViolation(f"sign count left the band [{lo}, {hi}] at t={band_bad[:5]}")
    if len(traj.exceptional_times) > j - i:
        raise BandViolation(
            f"{len(traj.exceptional_times)} exceptional clusters exceed j-i={j - i}"
        )
    tail = grid >= 0.9 * horizon
    tail_counts = {sm for sm, sel, ok in zip(traj.sigma_minus, tail, traj.in_V_flags) if sel and ok}
    if tail_counts != {lo}:
        raise BandViolation(f"terminal sign count {tail_counts} != {{{lo}}}")
    return traj
