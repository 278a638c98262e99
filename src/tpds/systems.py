"""Piecewise descriptions of t -> A(t) and TNDS/TPDS classification.

Membership in M (tridiagonal, nonnegative off-diagonals) and M+ (strictly
positive off-diagonals) drives the verdicts; time-varying systems are
verified by dense sampling, with the sampling density part of the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import exprlang
from .errors import (
    DimensionMismatch,
    EmptySegments,
    NonFiniteInput,
    OutOfInterval,
    SpecFileError,
)
from .integrate import _checked_times, _grid, _time_array
from .signvar import _checked_count
from .totalpos import _as_matrix

PERIOD_CHECK_TOL = 1e-10
DEFAULT_DELTA_FLOOR = 1e-6  # smallest sampled off-diagonal entry a TPDS verdict accepts
WITNESS_T_GRID = (1e-1, 1e-2, 1e-3, 1e-4)  # times tried by negative_minor_witness


@lru_cache(maxsize=None)
def _bands(n):
    """Masks of the far (|i - j| > 1) and near (|i - j| == 1) entries of n x n."""
    d = abs(np.subtract.outer(np.arange(n), np.arange(n)))
    far, near = d > 1, d == 1
    far.flags.writeable = near.flags.writeable = False  # shared through the cache
    return far, near


def _membership(As):
    """The M rule for a (..., n, n) stack: the entries that keep each matrix
    out of M (far-off-diagonal nonzeros, negative off-diagonals), and each
    matrix's smallest off-diagonal entry (the subdiagonal's on a tie, inf when
    n == 1). In M means an empty mask; in M+, that and a positive minimum."""
    far, near = _bands(As.shape[-1])
    bad = (far & (As != 0)) | (near & (As < 0))
    sub = As.diagonal(-1, -2, -1).min(axis=-1, initial=np.inf)
    sup = As.diagonal(1, -2, -1).min(axis=-1, initial=np.inf)
    return bad, np.where(sup < sub, sup, sub)


def _first_outside_M_plus(As):
    """The index, in C order, of the first matrix of a (..., n, n) stack
    outside M+, or None; a nan or inf entry there raises as in_M_plus."""
    bad, low = _membership(As)
    failed = ~np.isfinite(As).all(axis=(-2, -1)) | bad.any(axis=(-2, -1)) | ~(low > 0)
    if failed.any():
        first = np.unravel_index(np.argmax(failed), failed.shape)
        in_M_plus(As[first])  # a nan or inf entry raises NonFiniteInput
        return first


def _checked_membership(A, name):
    """_membership of one matrix checked by ``totalpos._as_matrix``, the
    minimum a float."""
    bad, low = _membership(_as_matrix(A, name))
    return bad, float(low)


def in_M(A):
    """Tridiagonal with nonnegative off-diagonals. Anything but a nonempty
    square matrix raises DimensionMismatch, a nan or inf entry NonFiniteInput."""
    return not _checked_membership(A, "in_M")[0].any()


def in_M_plus(A):
    """As in_M but with strictly positive off-diagonals; a nan or infinite
    entry raises NonFiniteInput."""
    bad, low = _checked_membership(A, "in_M_plus")
    return not bad.any() and low > 0


def offdiag_min(A):
    """Smallest off-diagonal entry (inf for 1 x 1), checked as in in_M."""
    return _checked_membership(A, "offdiag_min")[1]


@dataclass
class Segment:
    """A(t) on [t_start, t_end), compiled at construction into one function
    of t; a variable other than t raises UnboundVariable here."""

    t_start: float
    t_end: float
    entries: list  # n x n nested list of floats or exprlang ASTs over t

    def __post_init__(self):
        self._matrix = exprlang.compile_fn(self.entries)

    def matrix_at(self, t):
        """A(t) at one time, or the (m, n, n) stack of A at a 1-d array of
        m times, with the floats and errors of A at each time in turn. t
        goes through ``integrate._checked_times``."""
        return self._matrix(_checked_times(t))


@dataclass
class TimeVaryingSystem:
    n: int
    interval: tuple
    segments: list
    period: float | None = None
    name: str = ""

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise SpecFileError("interval must satisfy a < b")
        if not self.segments:
            raise EmptySegments("system has no segments")
        segs = sorted(self.segments, key=lambda s: s.t_start)
        if abs(segs[0].t_start - a) > 1e-12 or abs(segs[-1].t_end - b) > 1e-12:
            raise SpecFileError("segments do not tile the interval")
        for prev, cur in zip(segs, segs[1:]):
            if abs(prev.t_end - cur.t_start) > 1e-12:
                raise SpecFileError("segments leave a gap or overlap")
        for seg in segs:
            if len(seg.entries) != self.n or any(len(r) != self.n for r in seg.entries):
                raise SpecFileError("segment entries have wrong dimension")
        self.segments = segs
        self._ends = np.array([seg.t_end for seg in segs[:-1]])  # the boundaries inside (a, b)
        if self.period is not None:
            self._check_period()

    def _check_period(self):
        a, b = self.interval
        T = self.period
        if not T > 0:
            raise SpecFileError("period must be positive")
        ts = np.linspace(a, b - T, 100)
        ts = ts[(ts > a) & (ts + T < b)]
        for t in ts:
            now, later = self.matrix_at(t), self.matrix_at(t + T)
            if not (np.isfinite(now).all() and np.isfinite(later).all()):
                raise NonFiniteInput(f"A(t) or A(t+T) has a non-finite entry at t={t}")
            if np.max(np.abs(now - later)) > PERIOD_CHECK_TOL:
                raise SpecFileError(f"A(t) != A(t+T) at t={t}")

    def segment_index(self, t):
        """The index of the segment that holds one time t (``_segments_at``).
        t is checked by ``integrate._time_array`` (an array of times raises
        DimensionMismatch) and must lie within 1e-12 of [a, b], nan and inf
        outside, else OutOfInterval."""
        a, b = self.interval
        t = float(_time_array(t, stack=False))
        if not a - 1e-12 <= t <= b + 1e-12:  # nan too
            raise OutOfInterval(f"t={t} outside ({a}, {b})")
        return int(self._segments_at(t))

    def _segments_at(self, times):
        """The one segment rule, one search over the segment ends: a time
        belongs to the first segment that ends after it, else to the last."""
        return self._ends.searchsorted(times, side="right")

    def matrix_at(self, t):
        return self.segments[self.segment_index(t)].matrix_at(t)

    @classmethod
    def constant(cls, A, interval=(0.0, 10.0), period=None, name=""):
        A = _as_matrix(A, "TimeVaryingSystem.constant")
        entries = [[float(v) for v in row] for row in A]
        a, b = interval
        return cls(
            n=A.shape[0],
            interval=(float(a), float(b)),
            segments=[Segment(float(a), float(b), entries)],
            period=period,
            name=name,
        )


@dataclass
class SystemClass:
    verdict: str  # "TPDS" | "TNDS_only" | "neither"
    delta: float | None = None
    violations: list = field(default_factory=list)

    @property
    def is_TNDS(self):
        return self.verdict in ("TPDS", "TNDS_only")

    @property
    def is_TPDS(self):
        return self.verdict == "TPDS"


def classify_constant(A):
    """TNDS/TPDS verdict for a constant matrix, from M / M+ membership.

    The verdict is structural and nothing is sampled: TPDS when A is in M+
    (delta is its smallest off-diagonal entry), TNDS_only when A is in M,
    otherwise neither, with each far-off-diagonal nonzero and negative
    off-diagonal entry listed. A nan or infinite entry raises
    NonFiniteInput, and anything but a nonempty square matrix
    DimensionMismatch.
    """
    A = _as_matrix(A, "classify_constant")
    bad, low = _membership(A)
    if bad.any():
        violations = [
            (None, f"a[{i + 1},{j + 1}]={A[i, j]} {'nonzero' if abs(i - j) > 1 else 'negative'}")
            for i, j in np.argwhere(bad).tolist()
        ]
        return SystemClass("neither", None, violations)
    if low > 0:
        return SystemClass("TPDS", float(low), [])
    return SystemClass("TNDS_only", None, [])


def negative_minor_witness(A, i, j):
    """Negative 2x2 minor of exp(At) induced by a_{ij} > 0 with |i-j| > 1.

    Indices are 1-based. Returns (t, rows, cols, value) or None. For i > j+1
    the minor sits on rows {k,i}, columns {j,k} with j < k < i; the j > i+1
    case is the transpose picture. A is checked by ``totalpos._as_matrix``;
    i, j outside 1..n or with |i - j| <= 1 raise DimensionMismatch.
    """
    from scipy.linalg import expm  # here, so that `import tpds` loads no scipy

    A = _as_matrix(A, "negative_minor_witness")
    n = A.shape[0]
    if not (1 <= i <= n and 1 <= j <= n and abs(i - j) > 1):
        raise DimensionMismatch(f"need 1 <= i, j <= {n} and |i - j| > 1, got i={i}, j={j}")
    t_scale = 1.0 / max(1.0, np.abs(A).max())
    if i > j + 1:
        ks = range(j + 1, i)
        pick = lambda k: ((k, i), (j, k))
    else:
        ks = range(i + 1, j)
        pick = lambda k: ((i, k), (k, j))
    for t in WITNESS_T_GRID:
        U = expm(A * t * t_scale)
        for k in ks:
            rows, cols = pick(k)
            m = (
                U[rows[0] - 1, cols[0] - 1] * U[rows[1] - 1, cols[1] - 1]
                - U[rows[0] - 1, cols[1] - 1] * U[rows[1] - 1, cols[0] - 1]
            )
            if m < 0:
                return (t * t_scale, rows, cols, float(m))
    return None


def classify_time_varying(sys, grid=1000):
    """Sampled TNDS/TPDS verdict for a time-varying system.

    Each segment is sampled half-open on `grid` points (the open interval's
    endpoints are excluded from strictness checks), by one array
    ``matrix_at`` call, which gives the floats of A at each sample. TNDS
    requires every sample in M; TPDS additionally requires every
    off-diagonal sample at or above DEFAULT_DELTA_FLOOR. This is a sampled verification of an
    almost-everywhere condition; no measure-zero claims are made. A grid
    that is not an integer >= 0, or too large to allocate, raises
    InvalidArgument, a non-finite sample NonFiniteInput, and a grid that
    puts no sample inside (a, b) EmptySegments.
    """
    _checked_count(grid, "grid")
    a, b = sys.interval
    ts, mats = [], []
    for seg in sys.segments:
        seg_ts = _grid(seg.t_start, seg.t_end, grid, endpoint=False)
        seg_ts = seg_ts[seg_ts > a]
        if seg_ts.size:
            ts.append(seg_ts)
            mats.append(seg.matrix_at(seg_ts))
    if not mats:  # no segment, or a grid too coarse to reach inside (a, b)
        raise EmptySegments(f"no sample lies inside ({a}, {b}) at grid={grid}")
    ts = np.concatenate(ts)
    As = np.concatenate(mats)
    finite = np.isfinite(As).all(axis=(1, 2))
    if not finite.all():
        t = float(ts[np.argmin(finite)])
        raise NonFiniteInput(f"A(t) has a non-finite entry at t={t}")
    bad, offdiag = _membership(As)
    out = bad.any(axis=(1, 2))
    if out.any():
        return SystemClass("neither", None, [(t, "A(t) not in M") for t in ts[out].tolist()])
    # the running min of the samples' offdiag_min in sample order (the first
    # of equal values, signed zeros included)
    delta = min(offdiag.tolist())
    if delta >= DEFAULT_DELTA_FLOOR:
        return SystemClass("TPDS", delta, [])
    low = ts[offdiag < DEFAULT_DELTA_FLOOR].tolist()
    return SystemClass("TNDS_only", None, [(t, "off-diagonal below delta floor") for t in low])
