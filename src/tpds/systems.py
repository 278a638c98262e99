"""Piecewise descriptions of t -> A(t) and TNDS/TPDS classification.

Membership in M (tridiagonal, nonnegative off-diagonals) and M+ (strictly
positive off-diagonals) drives the verdicts; time-varying systems are
verified by dense sampling, with the sampling density part of the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def in_M(A, tol=0.0):
    """Tridiagonal with nonnegative sub- and super-diagonal entries.

    Anything but a nonempty square matrix raises DimensionMismatch, and a
    nan or infinite entry NonFiniteInput.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DimensionMismatch("in_M expects a nonempty square matrix")
    if not np.isfinite(A).all():
        raise NonFiniteInput("in_M: the matrix has a nan or infinite entry")
    n = A.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and abs(A[i, j]) > tol:
                return False
            if abs(i - j) == 1 and A[i, j] < -tol:
                return False
    return True


def in_M_plus(A, strict_floor=0.0):
    """As in_M but with strictly positive off-diagonals (above strict_floor);
    a nan or infinite entry raises NonFiniteInput."""
    A = np.asarray(A, dtype=float)
    if not in_M(A):
        return False
    n = A.shape[0]
    sub = np.diag(A, -1)
    sup = np.diag(A, 1)
    if n == 1:
        return True
    return bool(np.all(sub > strict_floor) and np.all(sup > strict_floor))


def offdiag_min(A):
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 1:
        return np.inf
    return float(min(np.diag(A, -1).min(), np.diag(A, 1).min()))


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
    NonFiniteInput.
    """
    if not sys.segments:
        raise EmptySegments("no segments to sample")
    a, b = sys.interval
    n = sys.n
    i, j = np.indices((n, n))
    far, near = abs(i - j) > 1, abs(i - j) == 1
    ts, mats = [], []
    for seg in sys.segments:
        seg_ts = np.linspace(seg.t_start, seg.t_end, grid, endpoint=False)
        seg_ts = seg_ts[seg_ts > a]
        ts.append(seg_ts)
        mats.extend(seg.matrix_at(t) for t in seg_ts)
    ts = np.concatenate(ts)
    As = np.array(mats).reshape(len(ts), n, n)
    finite = np.isfinite(As).all(axis=(1, 2))
    if not finite.all():
        t = float(ts[np.argmin(finite)])
        raise NonFiniteInput(f"A(t) has a non-finite entry at t={t}")
    in_m = ~((np.abs(As[:, far]) > 0).any(axis=1) | (As[:, near] < 0).any(axis=1))
    if not in_m.all():
        return SystemClass("neither", None, [(t, "A(t) not in M") for t in ts[~in_m].tolist()])
    sub = np.diagonal(As, -1, 1, 2).min(axis=1, initial=np.inf)
    sup = np.diagonal(As, 1, 1, 2).min(axis=1, initial=np.inf)
    # offdiag_min per sample, and their running min in sample order (the
    # first of equal values, signed zeros included)
    offdiag = np.where(sup < sub, sup, sub)
    delta = min(offdiag.tolist(), default=np.inf)
    if delta >= delta_floor:
        return SystemClass("TPDS", float(delta), [])
    low = ts[offdiag < delta_floor].tolist()
    return SystemClass("TNDS_only", None, [(t, "off-diagonal below delta floor") for t in low])
