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
    InvalidArgument,
    NonFiniteInput,
    OutOfInterval,
    SpecFileError,
)
from .integrate import _checked_positive, _checked_times, _grid, _time_array, _within, transition_matrix
from .signvar import _checked_count, _real_array, _shown
from .totalpos import _as_matrix, _bands, minor

PERIOD_CHECK_TOL = 1e-10
DEFAULT_DELTA_FLOOR = 1e-6  # smallest sampled off-diagonal entry a TPDS verdict accepts
WITNESS_T_GRID = (1e-1, 1e-2, 1e-3, 1e-4)  # times tried by negative_minor_witness


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


def _checked_period(period):
    """The one period rule, of linear and nonlinear systems alike: a positive
    finite number (``integrate._checked_positive``), else SpecFileError."""
    try:
        return _checked_positive(period, "period")
    except InvalidArgument as exc:
        raise SpecFileError(str(exc)) from None


def _checked_interval(interval):
    """The one interval rule: two real numbers (``signvar._real_array``),
    else InvalidArgument, NonFiniteInput or DimensionMismatch; returned as
    two floats."""
    ab = _real_array(interval, "interval")
    if ab.shape != (2,):
        raise DimensionMismatch(f"interval must be two numbers (a, b), got {_shown(interval)}")
    return float(ab[0]), float(ab[1])


@dataclass
class TimeVaryingSystem:
    n: int
    interval: tuple
    segments: list
    period: float | None = None
    name: str = ""

    def __post_init__(self):
        a, b = _checked_interval(self.interval)
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
        self._repeats = False  # set by _check_period
        if self.period is not None:
            self._check_period()

    def _check_period(self):
        """T must pass ``_checked_period``. Then A(t) == A(t + T) at up to 100 times t, by one
        ``_matrices`` call at t0, t0 + T, t1, ...: the first failing t raises NonFiniteInput for a
        nan or inf entry, else SpecFileError.
        Then the same at each segment's midpoint and at each midpoint moved back by T, by a
        second call, which catches a segment narrower than the 100 times' spacing. Then
        ``_repeats`` records, once, whether every segment end inside (a, b), moved by T either
        way, lands on another end (to 1e-12) or on or outside [a, b]: only then is
        Phi(t + T, s + T) = Phi(t, s) on every grid, spans and all."""
        a, b = self.interval
        T = self.period
        _checked_period(T)
        mids = np.array([0.5 * (seg.t_start + seg.t_end) for seg in self.segments])
        for ts in (np.linspace(a, b - T, 100), np.concatenate([mids, mids - T])):
            ts = ts[(ts > a) & (ts + T < b)]
            times = np.column_stack([ts, ts + T]).ravel()
            pairs = self._matrices(times, self._segments_at(times)).reshape(len(ts), 2, self.n**2)
            finite = np.isfinite(pairs).all(axis=(1, 2))
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pair raises first
                failed = ~finite | (np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1) > PERIOD_CHECK_TOL)
            if failed.any():
                k = np.argmax(failed)
                if not finite[k]:
                    raise NonFiniteInput(f"A(t) or A(t+T) has a non-finite entry at t={float(ts[k])}")
                raise SpecFileError(f"A(t) != A(t+T) at t={float(ts[k])}")
        lattice = np.concatenate([[a], self._ends, [b]])
        moved = np.clip(self._ends + np.array([[-T], [T]]), a, b)  # an end moved outside lands on a or b
        near = np.clip(lattice.searchsorted(moved)[..., None] - [1, 0], 0, len(lattice) - 1)  # a point either side
        self._repeats = bool((np.abs(lattice[near] - moved[..., None]).min(axis=-1) <= 1e-12).all())

    def segment_index(self, t):
        """The index of the segment that holds one time t (``_segments_at``).
        t is checked by ``integrate._time_array`` (an array of times raises
        DimensionMismatch) and must lie in [a, b] (``integrate._within``),
        nan and inf outside, else OutOfInterval."""
        a, b = self.interval
        t = float(_time_array(t, stack=False))
        if not _within((a, b), t, t):
            raise OutOfInterval(f"t={t} outside ({a}, {b})")
        return int(self._segments_at(t))

    def _segments_at(self, times):
        """The one segment rule, one search over the segment ends: a time
        belongs to the first segment that ends after it, else to the last."""
        return self._ends.searchsorted(times, side="right")

    def _spans(self, grid):
        """The spans of a float grid of at least two points, as (starts, ends, interval,
        segment): each interval is cut at the segment ends more than 1e-14 inside it, empty
        pieces are dropped, and each span is tagged by its interval's index and by the
        segment that holds its midpoint (one ``_segments_at`` search for all of them)."""
        lo, hi = grid[:-1, None], grid[1:, None]
        bounds = self._ends
        inside = (lo + 1e-14 < bounds) & (bounds < hi - 1e-14)
        cuts = np.concatenate([lo, np.where(inside, bounds, np.nan), hi], axis=1)
        kept = ~np.isnan(cuts)
        cuts, row = cuts[kept], np.nonzero(kept)[0]
        pair = (row[:-1] == row[1:]) & (cuts[1:] > cuts[:-1])
        starts, ends, interval = cuts[:-1][pair], cuts[1:][pair], row[:-1][pair]
        return starts, ends, interval, self._segments_at(0.5 * (starts + ends))

    def _matrices(self, times, segment):
        """A at a 1-d array of times, each tagged by its segment's index: one array
        ``Segment.matrix_at`` call per segment, in segment order (DomainError's too).
        A one-segment system returns its one call's stack as it is; with more
        segments each call's stack is scattered into place by its mask."""
        if len(self.segments) == 1:
            return self.segments[0].matrix_at(times)
        A = np.empty((len(times), self.n, self.n))
        for seg in np.flatnonzero(np.bincount(segment)).tolist():  # np.unique imports numpy.ma
            at = segment == seg
            A[at] = self.segments[seg].matrix_at(times[at])
        return A

    def matrix_at(self, t):
        """A at one time t, from the segment that holds it (``segment_index``)."""
        return self.segments[self.segment_index(t)].matrix_at(t)

    @classmethod
    def constant(cls, A, interval=(0.0, 10.0), period=None, name=""):
        A = _as_matrix(A, "TimeVaryingSystem.constant")
        entries = [[float(v) for v in row] for row in A]
        a, b = _checked_interval(interval)
        return cls(
            n=A.shape[0],
            interval=(a, b),
            segments=[Segment(a, b, entries)],
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
    case is the transpose picture. exp(s tau A), s = 1 / max(1, max |a_ij|),
    is ``transition_matrix`` of the constant sA to each tau in WITNESS_T_GRID.
    A is checked by ``totalpos._as_matrix``, and i and j by the count rule
    (``signvar._checked_count``: an integer >= 0, else InvalidArgument);
    i, j outside 1..n or with |i - j| <= 1 raise DimensionMismatch.
    """
    A = _as_matrix(A, "negative_minor_witness")
    n = A.shape[0]
    _checked_count(i, "i")
    _checked_count(j, "j")
    if not (1 <= i <= n and 1 <= j <= n and abs(i - j) > 1):
        raise DimensionMismatch(f"need 1 <= i, j <= {n} and |i - j| > 1, got i={i}, j={j}")
    t_scale = 1.0 / max(1.0, np.abs(A).max())
    if i > j + 1:
        picks = [((k, i), (j, k)) for k in range(j + 1, i)]
    else:
        picks = [((i, k), (k, j)) for k in range(i + 1, j)]
    constant = TimeVaryingSystem.constant(A * t_scale, (0.0, WITNESS_T_GRID[0]))
    for t in WITNESS_T_GRID:
        U = transition_matrix(constant, 0.0, t).phi
        for rows, cols in picks:
            m = minor(U, rows, cols)
            if m < 0:
                return (t * t_scale, rows, cols, m)
    return None


def classify_time_varying(sys, grid=1000):
    """Sampled TNDS/TPDS verdict for a time-varying system.

    Each segment is sampled half-open on `grid` points (the open interval's
    endpoints are excluded from strictness checks), each sample tagged by
    the segment whose grid made it, and A is read at all of them by one
    ``TimeVaryingSystem._matrices`` call. TNDS requires every sample in M;
    TPDS additionally requires every off-diagonal sample at or above
    DEFAULT_DELTA_FLOOR. This is a sampled verification of an
    almost-everywhere condition; no measure-zero claims are made. A grid
    that is not an integer >= 0, or too large to allocate, raises
    InvalidArgument, a non-finite sample NonFiniteInput, and a grid that
    puts no sample inside (a, b) EmptySegments.
    """
    _checked_count(grid, "grid")
    a, b = sys.interval
    ts = np.array([_grid(seg.t_start, seg.t_end, grid, endpoint=False) for seg in sys.segments]).ravel()
    inside = ts > a
    if not inside.any():  # no segment, or a grid too coarse to reach inside (a, b)
        raise EmptySegments(f"no sample lies inside ({a}, {b}) at grid={grid}")
    ts = ts[inside]
    As = sys._matrices(ts, np.arange(len(sys.segments)).repeat(grid)[inside])
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
