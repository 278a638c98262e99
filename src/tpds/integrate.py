"""Fixed-step RK4 transition matrices and sign-variation tracking, and the
rules that every integration shares.

Steps land exactly on segment boundaries so that discontinuous (switched)
coefficient matrices are integrated segment by segment. A linear flow is
integrated by batched propagators: A(t) is evaluated on the whole stage
grid by one array call per segment, each step's RK4 propagator is built by
stacked matmul, and the propagators are multiplied in long double:
pairwise within each block of steps, and the blocks in step order. One
function, ``_transitions``, lays out and multiplies the steps of a grid.
Determinants are cross-checked against the exponential of the
integrated trace. A nonlinear run is the one run function compiled per
system (``exprlang.compile_stepper``), whose step picks its loop: explicit
RK4 steps by the step-count rule here, or, without a step,
Dormand-Prince 5(4) steps controlled to RTOL and ATOL.
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
from .signvar import _check_finite, _checked_count, v_counts

DET_REL_TOL = 1e-6
COMPOUND_REL_TOL = 1e-5
TRAJ_ZERO_REL_TOL = 1e-8
CLUSTER_GAP = 3
CHUNK_STEPS = 256  # RK4 steps whose propagators are built at once, to bound memory
# the local error tolerances of a nonlinear run without an explicit step:
# each Dormand-Prince step keeps its error estimate within ATOL + RTOL |x|
RTOL = 1e-10
ATOL = 1e-10
MAX_STEPS = 100_000  # per interval between two of a run's times, as in Hairer's DOPRI5


def _checked_grid(grid, interval=None):
    """The sample grid as a float array. It must be a nonempty, finite,
    nondecreasing sequence and, given an interval [a, b], lie within it up
    to segment_index's 1e-12; anything else raises OutOfInterval, and a
    complex or non-numeric entry InvalidArgument (``_real_array``)."""
    grid = _real_array(grid, "grid")
    ok = grid.ndim == 1 and grid.size > 0 and np.isfinite(grid).all()
    ok = ok and bool(np.all(np.diff(grid) >= 0))
    if ok and interval is not None:
        a, b = interval
        ok = a - 1e-12 <= grid[0] and grid[-1] <= b + 1e-12
    if not ok:
        where = "" if interval is None else f" within [{interval[0]}, {interval[1]}]"
        raise OutOfInterval(f"the grid must be a nonempty, finite, nondecreasing sequence{where}")
    return grid


def _checked_horizon(horizon, interval=None):
    """The end of a run from t = 0 as a float: a finite number >= 0 with,
    given an interval, [0, horizon] within it up to segment_index's 1e-12.
    A complex or non-numeric value raises InvalidArgument (``_real_array``),
    anything else OutOfInterval, naming the horizon with the value given."""
    value = _real_array(horizon, "horizon")
    a, b = interval or (0.0, math.inf)
    if not (value.ndim == 0 and math.isfinite(value) and a - 1e-12 <= 0.0 <= value <= b + 1e-12):
        where = f" within [{a}, {b}]" if interval else ""
        raise OutOfInterval(f"horizon must be a finite time >= 0{where}, got {horizon!r}")
    return float(value)


def _grid(a, b, points, endpoint=True):
    """points samples from a to b (``np.linspace``); a count too large to
    allocate raises InvalidArgument."""
    try:
        return np.linspace(a, b, points, endpoint=endpoint)
    except MemoryError:
        raise InvalidArgument(f"a grid of {points} samples cannot be allocated") from None


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
    given step, a positive finite number (``_checked_positive``) even where
    no span needs it. A default that underflows to 0 on a nonempty span
    raises InvalidArgument. Linear flows take it; a nonlinear run takes an
    explicit step alone, and is error-controlled without one."""
    if step is None:
        step = 1e-3 * (b - a)
        if b > a and not step > 0:
            raise InvalidArgument(f"the default step, 1e-3 x the span {b - a}, underflows to 0; pass a step")
        return step
    return _checked_positive(step, "step")


def _rk4_span(run):
    """The state at the next time of a nonlinear run loop
    (``exprlang.compile_stepper``). ``poincare_analysis`` reads its iterates
    through it, one period each; per-layer tracing (``perfbench/tracer.py``)
    counts the iterates by this name, which it has kept from the fixed RK4
    span it once took."""
    return next(run)


def _real_array(value, name):
    """value as a float array; complex or non-numeric input raises
    InvalidArgument."""
    try:
        array = np.asarray(value)
        if array.dtype.kind != "c":
            return array.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise InvalidArgument(f"{name} must hold real numbers, got {value!r}")


def _checked_state(x0, n, name, m=None):
    """The initial state, or given m an (m, n) stack of states, as a float
    array. Complex or non-numeric entries raise InvalidArgument, any other
    shape DimensionMismatch, and a nan or infinite entry NonFiniteInput,
    naming the first row that holds one."""
    x0 = _real_array(x0, name)
    if x0.shape != ((n,) if m is None else (m, n)):
        what = f"{n} entries" if m is None else f"{m} states of {n} entries"
        raise DimensionMismatch(f"{name} must hold {what}, got shape {x0.shape}")
    _check_finite(x0, name)
    return x0


def _time_array(t, stack, name="t"):
    """t as a float array of no dimension or, given stack, of one. Complex
    or non-numeric input raises InvalidArgument, another shape
    DimensionMismatch, either naming the argument."""
    times = _real_array(t, name)
    if times.ndim > stack:
        what = "one time or a 1-d array of times" if stack else "one time"
        raise DimensionMismatch(f"{name} must be {what}, got shape {times.shape}")
    return times


def _checked_times(t):
    """The one time rule: a real number, as is, or a 1-d array of them, as
    floats (``_time_array``), all finite: nan or inf raises NonFiniteInput."""
    times = _time_array(t, stack=True)
    _check_finite(times.reshape(-1, 1), "t")
    return times if times.ndim else t


@np.errstate(over="ignore", invalid="ignore")  # the callers raise on a non-finite result
def _transitions(sys, grid, step, p=None):
    """Each interval's transition matrix, over a grid of at least two
    points, for the flow with coefficients C = A, or the p-th additive
    compound of A given p, and the integral of tr C over each interval by
    Simpson's rule over the same values of C, which is RK4 on the trace.

    Each grid interval is cut into spans at the interior segment boundaries
    more than 1e-14 inside it, each span tagged by the segment that holds
    its midpoint (one ``TimeVaryingSystem._segments_at`` search for all of
    them) and cut into _step_count equal steps. A span of N steps of size h
    from lo has the 2N + 1 stage times lo + k h / 2, k = 0..2N: the even
    ones start and end steps, the odd ones are the midpoints that RK4's two
    middle stages share.

    Each step's propagator is P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), and an
    interval's transition matrix is the product of its steps' P, later
    steps on the left. The intervals are multiplied side by side, in blocks
    of about CHUNK_STEPS steps, so memory is bounded by the block: per
    block, C is evaluated at the block's stage times, the increments P - I
    are built as stacks, and those of intervals with fewer steps are padded
    with zeros, which are exact identity factors. Within a block the
    factors are multiplied pairwise, in increment form: I + A, then I + B,
    make I + (A + B + B A), and an odd count is padded with one zero
    increment. So a block of w steps takes ceil(log2 w) stacked products,
    and its rounding error grows with log2 w rather than w (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    section 4.2). Each block's product then multiplies the product of the
    blocks before it, in step order.

    The increments and the products are long double, and each interval's
    product is rounded to double once: products in double came out 2-13
    ulps from an RK4 loop in long double, and the determinant of an
    ill-conditioned Phi, which the Liouville check reads, moves by 1e-6 to
    1e-4 per ulp of its entries. Where long double is double, this is
    double."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = grid[:-1, None], grid[1:, None]
    bounds = sys._ends
    inside = (lo + 1e-14 < bounds) & (bounds < hi - 1e-14)
    cuts = np.concatenate([lo, np.where(inside, bounds, np.nan), hi], axis=1)
    kept = ~np.isnan(cuts)
    cuts, row = cuts[kept], np.nonzero(kept)[0]
    pair = (row[:-1] == row[1:]) & (cuts[1:] > cuts[:-1])
    starts, ends, interval = cuts[:-1][pair], cuts[1:][pair], row[:-1][pair]
    segment = sys._segments_at(0.5 * (starts + ends))
    count = np.array([_step_count(x, step) for x in (ends - starts).tolist()], dtype=int)
    span_h = (ends - starts) / count
    m = sys.n if p is None else math.comb(sys.n, p)
    lanes = len(grid) - 1
    total = np.zeros(lanes, dtype=int)
    np.add.at(total, interval, count)
    offset = np.cumsum(total) - total  # each interval's first step
    span_first = np.cumsum(count) - count  # each span's first step
    width = max(1, CHUNK_STEPS // lanes)
    phi = np.tile(np.eye(m, dtype=np.longdouble), (lanes, 1, 1))
    integral = np.zeros(lanes)
    end = np.empty((lanes, m, m))  # C at the end of each interval's last step so far
    most = total.max()
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
        C[fresh] = _coefficients(sys, k[fresh] * (span_h[at] / 2) + starts[at], segment[at], p)
        within = np.flatnonzero((j > 0) & (col > 0))
        C[within, 0] = C[within - 1, 2]
        carried = (j > 0) & (col == 0)
        C[carried, 0] = end[lane[carried]]
        last = np.flatnonzero(np.diff(lane, append=lanes))
        end[lane[last]] = C[last, 2]
        h = span_h[span]
        D = np.zeros(real.shape + (m, m), dtype=np.longdouble)
        D[real] = _increments(C[:, 0], C[:, 1], C[:, 2], h[:, None, None])
        while D.shape[1] > 1:  # (I + B)(I + A) = I + (A + B + B A), pairwise
            if D.shape[1] % 2:
                D = np.concatenate([D, np.zeros_like(D[:, :1])], axis=1)
            A, B = D[:, 0::2], D[:, 1::2]
            D = A + B + B @ A
        phi = phi + D[:, 0] @ phi
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

    The steps follow the one step-count rule per segment span.
    A is evaluated once per stage time, 2N + 1 times for a span of N steps,
    by one array ``matrix_at`` call per segment and block of steps; the
    steps' propagators are built as stacks and multiplied pairwise within
    each block, and the blocks in step order (``_transitions``). det Phi
    is compared with exp of the integral of tr A (Abel-Jacobi-Liouville),
    taken by Simpson's rule over the same stage values of tr A, which is
    RK4 on the trace; a relative mismatch beyond 1e-6 marks the record as
    suspect. A non-finite Phi (a non-finite A(t), or a step too large for
    ||A(t)||) or predicted determinant raises IntegrationSuspect, and a
    step that is not a positive finite number InvalidArgument. t0 and t
    must each be one real time, else InvalidArgument or DimensionMismatch,
    with a <= t0 <= t <= b, else OutOfInterval.
    """
    t0 = float(_time_array(t0, stack=False, name="t0"))
    t = float(_time_array(t, stack=False))
    a, b = sys.interval
    if not (a <= t0 <= t <= b):  # nan too
        raise OutOfInterval(f"need a <= t0 <= t <= b, got t0={t0}, t={t}")
    step = _checked_step(step, *sys.interval)
    phi, integral = _transitions(sys, [t0, t], step)
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
        phis, _ = _transitions(sys, grid[g0 : g0 + CHUNK_STEPS + 1], step)
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
    InvalidArgument or OrderOutOfRange before any step, and t0 and t are
    checked by transition_matrix before its first step.
    """
    if _checked_count(p, "p", least=1) > sys.n:
        raise OrderOutOfRange(f"order {p} outside 1..{sys.n}")
    step = _checked_step(step, *sys.interval)
    direct = mult_compound(transition_matrix(sys, t0, t, step).phi, p).entries
    Y = _transitions(sys, [t0, t], step, p)[0][0]
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
