"""Seeded random generators for test matrices and systems.

TP/TN matrices are built as products of elementary bidiagonal factors with
positive (or nonnegative) parameters in full elimination order, which is the
structured way to hit the whole class without rejection sampling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .signvar import _allocatable, _checked_count, _shown
from .systems import Segment, TimeVaryingSystem, _checked_interval
from .totalpos import GEBFactorization, _eb


def _checked_size(n):
    """The size rule of every generator: an integer >= 1 (the count rule,
    ``signvar._checked_count``) for which numpy can lay out an n x n float
    matrix (``signvar._allocatable``); a size it cannot allocate raises
    InvalidArgument, as ``integrate._grid`` does for a grid."""
    _checked_count(n, "n", least=1)
    if not _allocatable((n, n)):
        raise InvalidArgument(f"an n x n matrix of n = {_shown(n)} cannot be allocated")
    return n


def _eb_product(n, lower_params, diag, upper_params):
    """Lower factors, diagonal, upper factors (``totalpos._eb``), multiplied
    by ``GEBFactorization.product``. Both parameter lists take row i's
    factor, with its parameter at (i, i - 1) or (i - 1, i), in Neville
    elimination's order: columns left to right, each bottom-up."""
    rows = [i for j in range(n - 1) for i in range(n - 1, j, -1)]
    lower = [_eb(n, i, i - 1, m) for i, m in zip(rows, lower_params)]
    upper = [_eb(n, i - 1, i, m) for i, m in zip(rows, upper_params)]
    return GEBFactorization(lower + [np.diag(diag)] + upper).product()


def random_tp(n, rng=None):
    """Random totally positive matrix (all EB parameters in [0.3, 2))."""
    _checked_size(n)
    rng = np.random.default_rng(rng)
    m = n * (n - 1) // 2
    return _eb_product(
        n,
        rng.uniform(0.3, 2.0, m),
        rng.uniform(0.3, 2.0, n),
        rng.uniform(0.3, 2.0, m),
    )


def random_tn(n, rng=None):
    """Random totally nonnegative matrix (EB parameters zeroed at rate 0.4)."""
    _checked_size(n)
    rng = np.random.default_rng(rng)
    m = n * (n - 1) // 2

    def params(size):
        p = rng.uniform(0.0, 2.0, size)
        p[rng.random(size) < 0.4] = 0.0
        return p

    return _eb_product(n, params(m), rng.uniform(0.2, 2.0, n), params(m))


def random_nonsingular(n, rng=None):
    """Random dense standard-normal matrix with condition number below 1e6."""
    _checked_size(n)
    rng = np.random.default_rng(rng)
    while True:
        A = rng.standard_normal((n, n))
        if np.linalg.cond(A) < 1e6:
            return A


def random_tridiagonal_cooperative(n, rng=None):
    """Random constant matrix in M+ (off-diagonals in [0.5, 1.5))."""
    _checked_size(n)
    rng = np.random.default_rng(rng)
    A = np.diag(rng.uniform(-1.0, 1.0, n))
    for i in range(n - 1):
        A[i + 1, i] = rng.uniform(0.5, 1.5)
        A[i, i + 1] = rng.uniform(0.5, 1.5)
    return A


def random_tpds_system(n, rng=None, interval=(0.0, 2 * np.pi)):
    """Random periodic time-varying system with A(t) in M+ throughout.

    Each entry on the three central diagonals is c0 + c1 sin t + c2 cos t,
    with the off-diagonal constants large enough that the entry stays at or
    above 0.5 for all t. The interval goes through
    ``systems._checked_interval``.
    """
    _checked_size(n)
    a, b = _checked_interval(interval)
    from . import exprlang

    rng = np.random.default_rng(rng)
    entries = [[0.0] * n for _ in range(n)]

    def smooth_entry(lo):
        c1 = rng.uniform(-0.5, 0.5)
        c2 = rng.uniform(-0.5, 0.5)
        amp = abs(c1) + abs(c2)
        c0 = rng.uniform(lo + amp, lo + amp + 1.0)
        return exprlang.parse(f"{c0} + {c1} * sin(t) + {c2} * cos(t)")

    for i in range(n):
        entries[i][i] = smooth_entry(-2.0)
        if i + 1 < n:
            entries[i][i + 1] = smooth_entry(0.5)
            entries[i + 1][i] = smooth_entry(0.5)
    return TimeVaryingSystem(
        n=n,
        interval=(a, b),
        segments=[Segment(a, b, entries)],
        period=2 * np.pi if (b - a) >= 2 * np.pi - 1e-12 else None,
    )
