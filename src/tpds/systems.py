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

PERIOD_CHECK_TOL = 1e-10
DEFAULT_DELTA_FLOOR = 1e-6


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


def _checked_membership(A, name):
    """_membership of one nonempty square finite matrix, the minimum a float."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DimensionMismatch(f"{name} expects a nonempty square matrix")
    if not np.isfinite(A).all():
        raise NonFiniteInput(f"{name}: the matrix has a nan or infinite entry")
    bad, low = _membership(A)
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
        return self._matrix(t)


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
        a, b = self.interval
        if t < a - 1e-12 or t > b + 1e-12:
            raise OutOfInterval(f"t={t} outside ({a}, {b})")
        for k, seg in enumerate(self.segments):
            if seg.t_start - 1e-12 <= t < seg.t_end:
                return k
        return len(self.segments) - 1

    def matrix_at(self, t, segment=None):
        seg = self.segments[segment if segment is not None else self.segment_index(t)]
        return seg.matrix_at(t)

    def boundaries_between(self, t0, t1):
        """Interior segment boundaries in (t0, t1), for exact integrator landing."""
        pts = []
        for seg in self.segments[:-1]:
            if t0 + 1e-14 < seg.t_end < t1 - 1e-14:
                pts.append(seg.t_end)
        return pts

    @classmethod
    def constant(cls, A, interval=(0.0, 10.0), period=None, name=""):
        A = np.asarray(A, dtype=float)
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
    A = np.asarray(A, dtype=float)
    bad, low = _checked_membership(A, "classify_constant")
    if bad.any():
        violations = [
            (None, f"a[{i + 1},{j + 1}]={A[i, j]} {'nonzero' if abs(i - j) > 1 else 'negative'}")
            for i, j in np.argwhere(bad).tolist()
        ]
        return SystemClass("neither", None, violations)
    if low > 0:
        return SystemClass("TPDS", low, [])
    return SystemClass("TNDS_only", None, [])


def negative_minor_witness(A, i, j, t_grid=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Negative 2x2 minor of exp(At) induced by a_{ij} > 0 with |i-j| > 1.

    Indices are 1-based. Returns (t, rows, cols, value) or None. For i > j+1
    the minor sits on rows {k,i}, columns {j,k} with j < k < i; the j > i+1
    case is the transpose picture. A nan or infinite entry raises
    NonFiniteInput.
    """
    from scipy.linalg import expm  # here, so that `import tpds` loads no scipy

    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteInput("negative_minor_witness: the matrix has a nan or infinite entry")
    t_scale = 1.0 / max(1.0, np.abs(A).max())
    if i > j + 1:
        ks = range(j + 1, i)
        pick = lambda k: ((k, i), (j, k))
    elif j > i + 1:
        ks = range(i + 1, j)
        pick = lambda k: ((i, k), (k, j))
    else:
        raise ValueError("need |i - j| > 1")
    for t in t_grid:
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


def classify_time_varying(sys, grid=1000, delta_floor=DEFAULT_DELTA_FLOOR):
    """Sampled TNDS/TPDS verdict for a time-varying system.

    Each segment is sampled half-open on `grid` points (the open interval's
    endpoints are excluded from strictness checks). TNDS requires every
    sample in M; TPDS additionally requires every off-diagonal sample at or
    above delta_floor. This is a sampled verification of an almost-everywhere
    condition; no measure-zero claims are made. A non-finite sample raises
    NonFiniteInput, and a grid that puts no sample inside (a, b) EmptySegments.
    """
    a, b = sys.interval
    n = sys.n
    ts, mats = [], []
    for seg in sys.segments:
        seg_ts = np.linspace(seg.t_start, seg.t_end, grid, endpoint=False)
        seg_ts = seg_ts[seg_ts > a]
        ts.append(seg_ts)
        mats.extend(seg.matrix_at(t) for t in seg_ts)
    if not mats:  # no segment, or a grid too coarse to reach inside (a, b)
        raise EmptySegments(f"no sample lies inside ({a}, {b}) at grid={grid}")
    ts = np.concatenate(ts)
    As = np.array(mats).reshape(len(ts), n, n)
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
    if delta >= delta_floor:
        return SystemClass("TPDS", delta, [])
    low = ts[offdiag < delta_floor].tolist()
    return SystemClass("TNDS_only", None, [(t, "off-diagonal below delta floor") for t in low])
