"""Fixed-step RK4 transition matrices and sign-variation tracking.

Steps land exactly on segment boundaries so that discontinuous (switched)
coefficient matrices are integrated segment by segment. A linear flow is
integrated by batched propagators: A(t) is evaluated on the whole stage
grid by one array call per segment, each step's RK4 propagator is built by
stacked matmul, and the propagators are multiplied in step order, in long
double. Determinants are cross-checked against the exponential of the
integrated trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from sys import maxsize

import numpy as np

from .compound import add_compound, mult_compound
from .errors import (
    DimensionMismatch,
    IntegrationSuspect,
    InvalidArgument,
    MonotonicityViolation,
    NoApplicablePair,
    OrderOutOfRange,
    OutOfInterval,
    TrivialSolution,
)
from .signvar import _check_finite, v_counts

DET_REL_TOL = 1e-6
COMPOUND_REL_TOL = 1e-5
TRAJ_ZERO_REL_TOL = 1e-8
CLUSTER_GAP = 3
CHUNK_STEPS = 256  # RK4 steps whose propagators are built at once, to bound memory


def _checked_grid(grid, interval=None):
    """The sample grid as a float array. It must be a nonempty, finite,
    nondecreasing sequence and, given an interval [a, b], lie within it up
    to segment_index's 1e-12; anything else raises OutOfInterval."""
    grid = np.asarray(grid, dtype=float)
    ok = grid.ndim == 1 and grid.size > 0 and np.isfinite(grid).all()
    ok = ok and bool(np.all(np.diff(grid) >= 0))
    if ok and interval is not None:
        a, b = interval
        ok = a - 1e-12 <= grid[0] and grid[-1] <= b + 1e-12
    if not ok:
        where = "" if interval is None else f" within [{interval[0]}, {interval[1]}]"
        raise OutOfInterval(f"the grid must be a nonempty, finite, nondecreasing sequence{where}")
    return grid


def _grid(a, b, points, endpoint=True):
    """points samples from a to b (``np.linspace``); a count too large to
    allocate raises InvalidArgument."""
    try:
        return np.linspace(a, b, points, endpoint=endpoint)
    except MemoryError:
        raise InvalidArgument(f"a grid of {points} samples cannot be allocated") from None


def _checked_count(count, name, least=0):
    """The one count rule: an integer >= least, else InvalidArgument."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
        raise InvalidArgument(f"{name} must be an integer >= {least}, got {count!r}")
    return count


def _checked_positive(value, name):
    """The one positive-number rule: a positive finite number, else
    InvalidArgument."""
    try:
        ok = value > 0 and math.isfinite(value)
    except TypeError:
        ok = False
    if not ok:
        raise InvalidArgument(f"{name} must be a positive finite number, got {value}")
    return value


def _step_count(length, step):
    """The one step-count rule: a span of this length is cut into
    ceil(length / step - 1e-12) equal steps, at least one. A step that is
    not a positive finite number, or so small that the count passes
    maxsize (no array indexes more steps), raises InvalidArgument."""
    _checked_positive(step, "step")
    count = float(length) / float(step) - 1e-12  # Python floats: inf, not a numpy warning
    if not count <= maxsize:
        raise InvalidArgument(f"step {step} is too small for a span of {length}")
    return max(1, math.ceil(count))


def _checked_step(step, a, b):
    """The one step rule: 1e-3 of the span [a, b] when step is None, else the
    given step, checked by the step-count rule even where no span needs it.
    A default that underflows to 0 on a nonempty span raises
    InvalidArgument."""
    if step is None:
        step = 1e-3 * (b - a)
        if b > a and not step > 0:
            raise InvalidArgument(f"the default step, 1e-3 x the span {b - a}, underflows to 0; pass a step")
        return step
    _step_count(0.0, step)
    return step


def _rk4_span(advance, y, t0, t1, step):
    """Integrate y over [t0, t1] by RK4 in _step_count equal steps, which
    ``advance(y, t0, h, nsteps)`` takes: ``NonlinearSystem.stepper``,
    generated by ``exprlang.compile_stepper``. An empty span leaves y as it
    is."""
    length = t1 - t0
    if length <= 0:
        return y
    nsteps = _step_count(length, step)
    return advance(y, t0, length / nsteps, nsteps)


def _checked_state(x0, n, name, m=None):
    """The initial state, or given m an (m, n) stack of states, as a float
    array; any other shape raises DimensionMismatch, and a nan or infinite
    entry NonFiniteInput, naming the first row that holds one."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != ((n,) if m is None else (m, n)):
        what = f"{n} entries" if m is None else f"{m} states of {n} entries"
        raise DimensionMismatch(f"{name} must hold {what}, got shape {x0.shape}")
    _check_finite(x0, name)
    return x0


def _checked_times(t):
    """The one time rule: a real number, as is, or a 1-d array of them, as
    floats. Other shapes raise DimensionMismatch, nan or inf NonFiniteInput."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DimensionMismatch(f"t must be one time or a 1-d array of times, got shape {times.shape}")
    _check_finite(times.reshape(-1, 1), "t")
    return times if times.ndim else t


class _Spans:
    """The RK4 steps between consecutive grid points, as spans of equal steps.

    Each grid interval is cut at the interior segment boundaries that lie
    more than 1e-14 inside it into spans, each tagged by the segment that
    holds its midpoint (``segment_index``), and each span into _step_count
    equal steps. A span of N steps of size h from lo has the 2N + 1 stage
    times lo + k h / 2, k = 0..2N: the even ones start and end steps, the
    odd ones are the midpoints that RK4's two middle stages share. Per
    span: ``lo``, ``h``, ``count`` (of steps), ``segment`` and
    ``interval`` (of the grid), spans in time order. Nothing here grows
    with the number of steps; ``products`` lays the steps out a block at a
    time.
    """

    def __init__(self, sys, grid, step):
        grid = np.asarray(grid, dtype=float)
        lo, hi = grid[:-1, None], grid[1:, None]
        bounds = np.array([seg.t_end for seg in sys.segments[:-1]])
        inside = (lo + 1e-14 < bounds) & (bounds < hi - 1e-14)
        cuts = np.concatenate([lo, np.where(inside, bounds, np.nan), hi], axis=1)
        kept = ~np.isnan(cuts)
        cuts, row = cuts[kept], np.nonzero(kept)[0]
        pair = (row[:-1] == row[1:]) & (cuts[1:] > cuts[:-1])
        self.lo, hi, self.interval = cuts[:-1][pair], cuts[1:][pair], row[:-1][pair]
        mids = (0.5 * (self.lo + hi)).tolist()
        self.segment = np.array([sys.segment_index(t) for t in mids], dtype=int)
        lengths = (hi - self.lo).tolist()
        self.count = np.array([_step_count(x, step) for x in lengths], dtype=int)
        self.h = (hi - self.lo) / self.count
        self.intervals = len(grid) - 1

    @np.errstate(over="ignore", invalid="ignore")  # the callers raise on a non-finite result
    def products(self, sys, p=None):
        """Each grid interval's transition matrix for the flow with
        coefficients C = A, or the p-th additive compound of A given p, and
        the integral of tr C over each interval by Simpson's rule over the
        same values of C, which is RK4 on the trace.

        Each step's propagator is P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), and
        an interval's transition matrix is the product of its steps' P in
        step order. The intervals are multiplied side by side, in blocks of
        about CHUNK_STEPS steps: per block, C is evaluated at the block's
        stage times (a step's start is the step before's end, so a span of
        N steps takes 2N + 1 evaluations), the increments P - I are built
        as stacks, and those of intervals with fewer steps are padded with
        zeros, which are exact identity factors. So memory is bounded by the
        block, whatever the number of steps.

        The increments and the running products are long double, and each
        product is rounded to double once. Products in double came out 2-13
        ulps from an RK4 loop in long double, and the determinant of an
        ill-conditioned Phi, which the Liouville check reads, moves by
        1e-6 to 1e-4 per ulp of its entries: enough to flip that check
        either way. Where long double is double, this is double."""
        m = sys.n if p is None else math.comb(sys.n, p)
        lanes = self.intervals
        total = np.zeros(lanes, dtype=int)
        np.add.at(total, self.interval, self.count)
        offset = np.cumsum(total) - total  # each interval's first step
        span_first = np.cumsum(self.count) - self.count  # each span's first step
        width = max(1, CHUNK_STEPS // max(1, lanes))
        phi = np.tile(np.eye(m, dtype=np.longdouble), (lanes, 1, 1))
        integral = np.zeros(lanes)
        end = np.empty((lanes, m, m))  # C at the end of each interval's last step so far
        most = total.max(initial=0)
        for k0 in range(0, most, width):
            pos = k0 + np.arange(min(width, most - k0))
            real = pos < total[:, None]
            lane, col = np.nonzero(real)  # interval by interval, steps in order
            span = np.searchsorted(span_first, offset[lane] + pos[col], side="right") - 1
            j = offset[lane] + pos[col] - span_first[span]
            # stage points 2j, 2j + 1, 2j + 2 of each step's span; a start
            # is evaluated only for a span's first step
            k = 2 * j[:, None] + np.arange(3)
            fresh = np.ones(k.shape, dtype=bool)
            fresh[:, 0] = j == 0
            at = np.broadcast_to(span[:, None], k.shape)[fresh]
            C = np.empty(k.shape + (m, m))
            C[fresh] = _coefficients(sys, k[fresh] * (self.h[at] / 2) + self.lo[at], self.segment[at], p)
            within = np.flatnonzero((j > 0) & (col > 0))
            C[within, 0] = C[within - 1, 2]
            carried = (j > 0) & (col == 0)
            C[carried, 0] = end[lane[carried]]
            last = np.flatnonzero(np.diff(lane, append=lanes))
            end[lane[last]] = C[last, 2]
            h = self.h[span]
            D = np.zeros(real.shape + (m, m), dtype=np.longdouble)
            D[real] = _increments(C[:, 0], C[:, 1], C[:, 2], h[:, None, None])
            for Dk in D.swapaxes(0, 1):  # each factor applied as RK4 adds its increment
                phi = phi + Dk @ phi
            tr = C.trace(axis1=2, axis2=3)
            integral += np.bincount(lane, (h / 6) * (tr[:, 0] + 4 * tr[:, 1] + tr[:, 2]), lanes)
        return phi.astype(float), integral


def _coefficients(sys, times, segment, p):
    """A, or its p-th additive compound given p, at each time: one array
    ``matrix_at`` call per segment."""
    A = np.empty((len(times), sys.n, sys.n))
    for seg in np.unique(segment).tolist():
        at = segment == seg
        A[at] = sys.segments[seg].matrix_at(times[at])
    return A if p is None else add_compound(A, p).entries


def _increments(C0, Cm, C1, h):
    """P - I for RK4's propagators P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), from
    the coefficients C0, Cm, C1 at each step's start, midpoint and end:
    K1 = C0, K2 = Cm (I + h/2 K1), K3 = Cm (I + h/2 K2) and K4 = C1 (I + h
    K3). The first-order part h/6 (C0 + 4 Cm + C1) is summed in long double;
    the rest, about h ||C|| times smaller, is taken in double and added to
    it."""
    X2 = (h / 2) * (Cm @ C0)  # K2 - Cm
    X3 = (h / 2) * (Cm @ (Cm + X2))  # K3 - Cm
    X4 = h * (C1 @ (Cm + X3))  # K4 - C1
    D = C0.astype(np.longdouble)
    D += 4 * Cm
    D += C1
    D *= h.astype(np.longdouble) / 6
    D += (h / 6) * (2 * X2 + 2 * X3 + X4)
    return D


@dataclass
class TransitionRecord:
    t0: float
    t: float
    phi: np.ndarray
    det_phi: float
    det_predicted: float
    suspect: bool = False


def transition_matrix(sys, t0, t, step=None):
    """Transition matrix Phi(t, t0) of z' = A(s) z by fixed-step RK4.

    The steps follow the one step-count rule per segment span (_Spans).
    A is evaluated once per stage time, 2N + 1 times for a span of N steps,
    by one array ``matrix_at`` call per segment and block of steps; the
    steps' propagators are built as stacks and multiplied in step order. det Phi is compared with
    exp of the integral of tr A (Abel-Jacobi-Liouville), taken by Simpson's
    rule over the same stage values of tr A, which is RK4 on the trace; a
    relative mismatch beyond 1e-6 marks the record as suspect. A non-finite
    Phi (a non-finite A(t), or a step too large for ||A(t)||) or predicted
    determinant raises IntegrationSuspect, and a step that is not a positive
    finite number InvalidArgument.
    """
    a, b = sys.interval
    if not (a <= t0 <= t <= b):
        raise OutOfInterval(f"need a <= t0 <= t <= b, got t0={t0}, t={t}")
    step = _checked_step(step, *sys.interval)
    phi, integral = _Spans(sys, [t0, t], step).products(sys)
    phi = phi[0]
    if not np.isfinite(phi).all():
        raise IntegrationSuspect(
            f"Phi({t}, {t0}) has a non-finite entry at step {step:.3g}"
        )
    with np.errstate(over="ignore", divide="ignore"):  # a singular or huge Phi is suspect below
        det_phi = float(np.linalg.det(phi))
        det_pred = float(np.exp(integral[0]))
    if not math.isfinite(det_pred):
        raise IntegrationSuspect(
            f"predicted det Phi({t}, {t0}) = exp(integral of trace A) is {det_pred}"
        )
    suspect = abs(det_phi - det_pred) > DET_REL_TOL * abs(det_pred)
    return TransitionRecord(t0, t, phi, det_phi, det_pred, suspect)


@dataclass
class Trajectory:
    """Sampled states with their sign counts, V flags and exceptional clusters.

    Everything past (times, states) is computed from them. Each sample's
    zero tolerance is TRAJ_ZERO_REL_TOL times the largest |entry| seen up
    to it, and its V flag follows ``in_V`` (``signvar.v_counts``); non-V
    samples less than CLUSTER_GAP samples apart form one exceptional
    cluster, recorded by the time of its first sample. The
    counts of all samples come from one sign matrix; a sample with a nan or
    inf entry raises NonFiniteInput.
    """

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    zero_tols: list = field(init=False)
    sigma_minus: list = field(init=False)
    sigma_plus: list = field(init=False)
    in_V_flags: list = field(init=False)
    exceptional_times: list = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.states, dtype=float)
        _check_finite(y)
        mag = np.abs(y)
        tols = TRAJ_ZERO_REL_TOL * np.maximum.accumulate(mag.max(axis=1))
        S = np.sign(y).astype(int)
        S[mag <= tols[:, None]] = 0
        sm, sp, in_v = v_counts(S)
        self.zero_tols = tols.tolist()
        self.sigma_minus = sm.tolist()
        self.sigma_plus = sp.tolist()
        self.in_V_flags = in_v.tolist()
        self.exceptional_times = []
        last_bad = None
        for k in np.flatnonzero(~in_v).tolist():
            if last_bad is None or k - last_bad >= CLUSTER_GAP:
                self.exceptional_times.append(self.times[k])
            last_bad = k

    @property
    def n(self):
        return self.states.shape[1]

    def to_csv(self, path):
        """t to 10 significant digits, the state's entries to 12, the two
        counts and the V flag, one row per sample; comma-separated, CRLF."""
        names = ["t"] + [f"z{i + 1}" for i in range(self.n)] + ["s_minus", "s_plus", "in_V"]
        row = "%.10g" + ",%.12g" * self.n + ",%d,%d,%d\r\n"
        flags = zip(self.sigma_minus, self.sigma_plus, self.in_V_flags)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\r\n")
            fh.writelines(row % (t, *z, *f) for t, z, f in zip(self.times, self.states.tolist(), flags))


def simulate_linear(sys, z0, grid, step=None, tpds=False):
    """Integrate z' = A(t) z on the given sample grid with sign bookkeeping.

    Each grid interval's transition matrix is built as in transition_matrix
    (CHUNK_STEPS intervals side by side) and applies to the state at its
    start.

    With tpds=True the monotonicity contract is enforced: s_plus and s_minus
    must be non-increasing sample to sample and at most n-1 exceptional
    clusters of non-V samples may occur. A grid that is empty, non-finite
    or decreasing, or leaves [a, b] by more than segment_index's 1e-12,
    raises OutOfInterval, a z0 that is not a vector of n entries
    DimensionMismatch, a non-finite z0 NonFiniteInput, a step that is not a
    positive finite number InvalidArgument, and a state that turns
    non-finite on the way (a stiff or overflowing system at this step)
    IntegrationSuspect.
    """
    z0 = _checked_state(z0, sys.n, "z0")
    if not np.any(z0):
        raise TrivialSolution("z0 = 0 yields the trivial solution")
    grid = _checked_grid(grid, sys.interval)
    step = _checked_step(step, *sys.interval)
    states = np.empty((len(grid), sys.n))
    states[0] = z = z0
    for g0 in range(0, len(grid) - 1, CHUNK_STEPS):  # bounds the span layout's memory
        phis, _ = _Spans(sys, grid[g0 : g0 + CHUNK_STEPS + 1], step).products(sys)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises below
            for k, phi in enumerate(phis, g0 + 1):
                states[k] = z = phi.dot(z)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t = float(grid[np.argmin(finite)])
        raise IntegrationSuspect(f"the state became non-finite by t={t} from a finite z0")
    traj = Trajectory(grid, states)
    if tpds:
        sm, sp, clusters = traj.sigma_minus, traj.sigma_plus, traj.exceptional_times
        bad = [
            float(grid[k])
            for k in range(1, len(grid))
            if sp[k] > sp[k - 1] or sm[k] > sm[k - 1]
        ]
        if bad:
            raise MonotonicityViolation("sign counts increased along a TPDS run", bad)
        if len(clusters) > sys.n - 1:
            raise MonotonicityViolation(
                f"{len(clusters)} exceptional clusters exceed n-1", clusters
            )
    return traj


def compound_transition(sys, p, t0, t, step=None):
    """p-th compound of the transition matrix via the compound dynamics.

    Integrates the C(n,p)-dimensional system driven by the additive compound
    of A(s), taken over each block's stack of A at the stage times, with
    the propagators of transition_matrix, and cross-asserts against the
    multiplicative compound of the directly integrated transition matrix,
    to COMPOUND_REL_TOL. A p that is not an integer in 1..n raises
    InvalidArgument or OrderOutOfRange before any step.
    """
    if _checked_count(p, "p", least=1) > sys.n:
        raise OrderOutOfRange(f"order {p} outside 1..{sys.n}")
    step = _checked_step(step, *sys.interval)
    direct = mult_compound(transition_matrix(sys, t0, t, step).phi, p).entries
    Y = _Spans(sys, [t0, t], step).products(sys, p)[0][0]
    denom = max(np.linalg.norm(direct), 1e-300)
    rel = np.linalg.norm(Y - direct) / denom
    if rel > COMPOUND_REL_TOL:
        raise IntegrationSuspect(
            f"compound-dynamics route deviates from minors route by {rel:.3g}"
        )
    return Y


def tn_weak_svdp_check(traj):
    """Strict s_plus drop after the first coordinate leaves zero.

    Scans for samples r with z1(r) ~ 0 followed by the next sample s with
    z1(s) != 0 and asserts s_plus(z(s)) <= s_plus(z(r)) - 1 for every pair.
    """
    pairs = []
    zero_at = None
    for k, (z, tol) in enumerate(zip(traj.states, traj.zero_tols)):
        if abs(z[0]) <= tol:
            if zero_at is None:
                zero_at = k
        elif zero_at is not None:
            pairs.append((zero_at, k))
            zero_at = None
    if not pairs:
        raise NoApplicablePair("first coordinate never returned from zero")
    for r, s in pairs:
        if traj.sigma_plus[s] > traj.sigma_plus[r] - 1:
            raise MonotonicityViolation(
                "weak variation-diminishing drop failed",
                [float(traj.times[r]), float(traj.times[s])],
            )
    return True
