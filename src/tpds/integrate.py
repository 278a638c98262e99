"""Fixed-step RK4 transition matrices and sign-variation tracking, and the
rules that every integration shares.

Steps land exactly on segment boundaries so that discontinuous (switched)
coefficient matrices are integrated segment by segment. A linear flow is
integrated by batched propagators: A(t) is evaluated on the whole stage
grid by one array call per segment, each step's RK4 propagator is built by
stacked matmul, and the propagators are multiplied pairwise within each
window of steps, and the windows in step order, several windows to a block
of stacked matrices. One function,
``_transitions``, lays out and multiplies the steps of a grid, in double
unless its caller asks for long double: ``transition_matrix`` does, since
its Liouville check reads the determinant of Phi, and trajectories, the
monodromy of ``floquet`` and both routes of the compound flow, which read
no determinant, do not. The
flag of ``tpds simulate`` multiplies the interval transition matrices of
its trajectory in long double (``trajectory_record``), and integrates
nothing twice. A run on a grid
that repeats mod the system's period integrates its first period only
(``_period_intervals``).
Determinants are cross-checked against the exponential of the
integrated trace. A nonlinear run is the one run function compiled per
system (``exprlang.compile_stepper``), whose step picks its loop: explicit
RK4 steps by the step-count rule here, or, without a step, DOP853 steps
controlled to RTOL and ATOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compound import _checked_order, add_compound, mult_compound
from .errors import (
    DimensionMismatch,
    IntegrationSuspect,
    InvalidArgument,
    MonotonicityViolation,
    NoApplicablePair,
    OutOfInterval,
    TrivialSolution,
)
from .signvar import _allocatable, _check_finite, _real_array, _rounded, _shown, v_counts

DET_REL_TOL = 1e-6
COMPOUND_REL_TOL = 1e-5
TRAJ_ZERO_REL_TOL = 1e-8
CLUSTER_GAP = 3
# RK4 steps whose propagators one pairwise product multiplies (a window of
# _transitions, shared by the intervals side by side), and samples per J
# block of nonlinear's M+ check
CHUNK_STEPS = 256
# matrix entries stacked per block of _transitions, which bounds its memory:
# 256 steps of 6 x 6, so n = 2, 3 and 4 take 9, 4 and 2 windows per block
BLOCK_ENTRIES = 9216
# rows of a trajectory that Trajectory.to_csv formats and writes at a time
CSV_BLOCK_ROWS = 256
# the local error tolerances of a nonlinear run without an explicit step:
# each DOP853 step keeps its error estimate within ATOL + RTOL |x|
RTOL = 1e-10
ATOL = 1e-10
# the most steps a run takes between two of its times, as in Hairer's
# DOP853, and the most equal steps the step-count rule cuts one span into
MAX_STEPS = 100_000


def _within(interval, lo, hi):
    """The one interval rule: lo <= hi, both in [a, b] up to 1e-12, the
    tolerance to which segments tile the interval. nan is outside."""
    a, b = interval
    return a - 1e-12 <= lo <= hi <= b + 1e-12


def _checked_grid(grid, interval=None):
    """The sample grid as a float array. It must be a nonempty, finite,
    nondecreasing sequence and, given an interval, lie within it
    (``_within``); anything else raises OutOfInterval, and a complex or
    non-numeric entry InvalidArgument (``_real_array``). An int too large
    for a float is the inf it rounds to."""
    grid = _real_array(grid, "grid", rounded=True)
    ok = grid.ndim == 1 and grid.size > 0 and np.isfinite(grid).all()
    ok = ok and bool(np.all(np.diff(grid) >= 0))
    if ok and interval is not None:
        ok = _within(interval, grid[0], grid[-1])
    if not ok:
        where = "" if interval is None else f" within [{interval[0]}, {interval[1]}]"
        raise OutOfInterval(f"the grid must be a nonempty, finite, nondecreasing sequence{where}")
    return grid


def _checked_horizon(horizon, interval=None):
    """The end of a run from t = 0 as a float: a finite number >= 0 with,
    given an interval, [0, horizon] within it (``_within``). A complex or
    non-numeric value raises InvalidArgument (``_real_array``), anything
    else OutOfInterval, naming the horizon with the value given
    (``signvar._shown``). An int too large for a float is the inf it rounds
    to, and named so."""
    value = _real_array(horizon, "horizon", rounded=True)
    a, b = interval or (0.0, math.inf)
    if not (value.ndim == 0 and math.isfinite(value) and _within((a, b), 0.0, value)):
        where = f" within [{a}, {b}]" if interval else ""
        shown = horizon if value.ndim or math.isfinite(value) else float(value)
        raise OutOfInterval(f"horizon must be a finite time >= 0{where}, got {_shown(shown)}")
    return float(value)


def _grid(a, b, points, endpoint=True):
    """points samples from a to b (``np.linspace``). A count numpy cannot
    allocate (``signvar._allocatable``) raises InvalidArgument, where
    linspace would leak a bare MemoryError, a ValueError past numpy's size
    limit, or an IndexError just past 2**63."""
    if not _allocatable(points):
        raise InvalidArgument(f"a grid of {_shown(int(points))} samples cannot be allocated")
    return np.linspace(a, b, points, endpoint=endpoint)


def _checked_positive(value, name):
    """The one positive-number rule: a positive finite number, else
    InvalidArgument. A bool, or an array of one or more dimensions, is not
    one, and an int too large for a float is the +-inf it rounds to, and
    named so. A step passes it once per flow, at the flow's entry
    (``_checked_step``, ``exprlang.compile_stepper``)."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and getattr(value, "ndim", 0) == 0
        ok = ok and math.isfinite(value) and value > 0
    except OverflowError:  # "int too large to convert to float"
        value, ok = _rounded(value), False
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InvalidArgument(f"{name} must be a positive finite number, got {value}")
    return value


def _step_count(length, step):
    """The one step-count rule: a span of this length is cut into
    ceil(length / step - 1e-12) equal steps, at least one. The step is one
    its flow has checked (``_checked_step``, ``exprlang.compile_stepper``);
    a step so small that the span takes more than MAX_STEPS steps raises
    InvalidArgument before any step."""
    count = float(length) / float(step) - 1e-12  # Python floats: inf, not a numpy warning
    if not count <= MAX_STEPS:
        raise InvalidArgument(f"step {step} is too small for a span of {length}: it takes more than {MAX_STEPS} steps")
    return max(1, math.ceil(count))


def _step_counts(lengths, step):
    """``_step_count`` of each span in a float array of lengths, by one
    array operation with the same float arithmetic, for a checked step
    (``_checked_step``); a span over MAX_STEPS raises the scalar rule's
    InvalidArgument, naming the first such span."""
    with np.errstate(over="ignore"):  # inf counts as over budget, as in _step_count
        counts = lengths / float(step) - 1e-12
    over = ~(counts <= MAX_STEPS)
    if over.any():
        _step_count(float(lengths[over.argmax()]), step)
    return np.maximum(np.ceil(counts), 1).astype(int)


def _checked_step(step, a, b):
    """The one step rule of a linear flow, checked once, at its entry: 1e-3
    of the span [a, b] when step is None, else the given step. Either must
    be a positive finite number (``_checked_positive``) even where no span
    needs it, so the default of an infinite span, inf, raises
    InvalidArgument as an explicit inf does; a default that underflows to 0
    raises its own. ``_transitions`` and the step-count rules then only
    count. A nonlinear run checks an explicit step alone
    (``exprlang.compile_stepper``), and is error-controlled without one."""
    if step is None:
        step = 1e-3 * (b - a)
        if b > a and not step > 0:
            raise InvalidArgument(f"the default step, 1e-3 x the span {b - a}, underflows to 0; pass a step")
    return _checked_positive(step, "step")


def _rk4_span(run):
    """The state at the next time of a nonlinear run loop
    (``exprlang.compile_stepper``). ``poincare_analysis`` reads its iterates
    through it, one period each; per-layer tracing (``perfbench/tracer.py``)
    counts the iterates by this name, which it has kept from the fixed RK4
    span it once took."""
    return next(run)


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
    """t as a float array of no dimension or, given stack, of one, where an
    int too large for a float is the +-inf it rounds to. Complex or
    non-numeric input raises InvalidArgument, another shape
    DimensionMismatch, either naming the argument."""
    times = _real_array(t, name, rounded=True)
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
def _transitions(sys, grid, step, p=None, dtype=float):
    """Each interval's transition matrix, over a grid of at least two
    points, for the flow with coefficients C = A, or the p-th additive
    compound of A given p, and the integral of tr C over each interval by
    Simpson's rule over the same values of C, which is RK4 on the trace.

    The system lays out the spans (``TimeVaryingSystem._spans``): each grid
    interval cut at the interior segment boundaries more than 1e-14 inside
    it, each span tagged by the segment that holds its midpoint. Each span
    is cut into _step_count equal steps, counted for all spans at once
    (``_step_counts``). Step j of size h from lo
    has the stage times lo + k h / 2, k = 2j, 2j + 1, 2j + 2: its start, the
    midpoint that RK4's two middle stages share, and its end, which is the
    next step's start by the same expression.

    Each step's propagator is P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), and an
    interval's transition matrix is the product of its steps' P, later
    steps on the left. The intervals are multiplied side by side, window
    by window: a window is max(1, CHUNK_STEPS // intervals) consecutive
    steps of every interval, and those of intervals with fewer steps are
    padded with zero increments, which are exact identity factors. Within
    a window the factors are multiplied pairwise, in increment form:
    I + A, then I + B, make I + (A + B + B A), and an odd count is padded
    with one zero increment. So a window of w steps takes ceil(log2 w)
    stacked products, and its rounding error grows with log2 w rather than
    w (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, section 4.2). Each window's product then multiplies the product
    of the windows before it, in step order, and its trace terms, summed
    in step order (``bincount``), are added to the integral.

    The windows are taken in blocks of as many as BLOCK_ENTRIES stacked
    matrix entries hold (at least one), which bounds memory: per block, C
    is evaluated at the three stage times of each of its steps (one
    ``TimeVaryingSystem._matrices`` call), the increments P - I are built
    as stacks, and the pairwise products of all its windows are taken at
    once, a short last window padded with zero increments. A block whose
    steps fill every slot keeps its increments as built; only a block
    with empty slots lays them out among zero increments. Each interval
    starts from its first window's product, I + P, with no product by I
    and I broadcast over the intervals, not tiled; only a grid with no
    step at all returns a tiled, writable I per interval.
    So a one-period Phi of 1,000 steps is one block of 4 windows at n = 2
    or 3, and 2 blocks of 2 at n = 4, and from n = 5 a block is one
    window. The block
    changes no float: each window's product, and the order in which the
    windows and their trace sums are taken, are those of one window per
    block. The products and the trace integrals are all that pass from
    block to block.

    The increments and the products are in dtype, double or long double,
    and each interval's product is rounded to double once. Only a caller
    that reads det Phi asks for long double (``transition_matrix``, not
    ``floquet``, which shares its ``_transition`` in double): the
    products in double come out 2-13 ulps from an RK4 loop in long double,
    which moves the determinant of an ill-conditioned Phi by 1e-6 to 1e-4
    per ulp. Where long double is double, both are double."""
    grid = np.asarray(grid, dtype=float)
    starts, ends, interval, segment = sys._spans(grid)
    count = _step_counts(ends - starts, step)
    span_h = (ends - starts) / count
    m = sys.n if p is None else math.comb(sys.n, p)
    lanes = len(grid) - 1
    total = np.zeros(lanes, dtype=int)
    np.add.at(total, interval, count)
    offset = np.cumsum(total) - total  # each interval's first step
    span_first = np.cumsum(count) - count  # each span's first step
    width = max(1, CHUNK_STEPS // lanes)  # the steps of a window
    windows = max(1, BLOCK_ENTRIES // (lanes * width * m * m))  # the windows of a block
    integral = np.zeros(lanes)
    most = total.max()
    if not most:  # no steps: each transition matrix is I
        return np.tile(np.eye(m), (lanes, 1, 1)), integral
    for k0 in range(0, most, windows * width):
        cols = min(windows * width, most - k0)
        w = -(-cols // width)  # a last block's windows, the last of them may be short
        pos = k0 + np.arange(w * width if w > 1 else cols)
        real = pos < total[:, None]
        lane, col = np.nonzero(real)  # interval by interval, steps in order
        span = np.searchsorted(span_first, offset[lane] + pos[col], side="right") - 1
        j = offset[lane] + pos[col] - span_first[span]
        h = span_h[span]
        k = 2 * j[:, None] + np.arange(3)  # each step's stage points 2j, 2j + 1, 2j + 2
        A = sys._matrices((k * (h[:, None] / 2) + starts[span, None]).ravel(), segment[span].repeat(3))
        C = (A if p is None else add_compound(A, p).entries).reshape(-1, 3, m, m)
        D = _increments(C[:, 0], C[:, 1], C[:, 2], h[:, None, None], dtype)
        if not real.all():  # the steps take their slots among zero increments, exact identity factors
            slots = np.zeros(real.shape + (m, m), dtype=dtype)
            slots[real] = D
            D = slots
        D = D.reshape(lanes * w, -1, m, m)  # a window of an interval per row
        while D.shape[1] > 1:  # (I + B)(I + A) = I + (A + B + B A), pairwise
            if D.shape[1] % 2:
                D = np.concatenate([D, np.zeros_like(D[:, :1])], axis=1)
            A, B = D[:, 0::2], D[:, 1::2]
            D = A + B + B @ A
        tr = C.trace(axis1=2, axis2=3)
        terms = (h / 6) * (tr[:, 0] + 4 * tr[:, 1] + tr[:, 2])
        sums = np.bincount(lane * w + col // width, terms, lanes * w)  # each window's, in step order
        products = D[:, 0].reshape(lanes, w, m, m)
        for i in range(w):
            phi = (np.eye(m, dtype=dtype) + products[:, i]) if k0 == i == 0 else phi + products[:, i] @ phi
            integral += sums[i::w]
    return phi.astype(float, copy=False), integral


def _increments(C0, Cm, C1, h, dtype):
    """P - I for RK4's propagators P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), from
    the coefficients C0, Cm, C1 at each step's start, midpoint and end:
    K1 = C0, K2 = Cm (I + h/2 K1), K3 = Cm (I + h/2 K2) and K4 = C1 (I + h
    K3). The first-order part h/6 (4 Cm + C0 + C1) is summed in dtype,
    double or long double (``_transitions``); the rest, about h ||C|| times
    smaller, h/6 (2 (X2 + X3) + X4) with X2 = K2 - Cm, X3 = K3 - Cm and
    X4 = K4 - C1, is taken in double and added to it. The stacks are
    scaled and summed in place, with the floats of the expression written
    one temporary per operation (``tests/integrate_reference.py``):
    4 Cm + C0 is C0 + 4 Cm, and 2 (X2 + X3) is 2 X2 + 2 X3, since scaling
    by 2 commutes with rounding."""
    X2 = Cm @ C0
    X2 *= h / 2  # K2 - Cm
    Y = Cm + X2
    X3 = Cm @ Y
    X3 *= h / 2  # K3 - Cm
    np.add(Cm, X3, out=Y)
    X4 = C1 @ Y
    X4 *= h  # K4 - C1
    D = (4 * Cm).astype(dtype, copy=False)
    D += C0
    D += C1
    D *= h.astype(dtype) / 6
    X2 += X3
    X2 *= 2
    X2 += X4
    X2 *= h / 6
    D += X2
    return D


@dataclass
class TransitionRecord:
    t0: float
    t: float
    phi: np.ndarray
    det_phi: float
    det_predicted: float
    suspect: bool = False


def _checked_span(sys, t0, t):
    """t0 and t as floats: each one real time, else InvalidArgument or
    DimensionMismatch, with t0 <= t, both in [a, b] up to 1e-12
    (``_within``), else OutOfInterval."""
    t0 = float(_time_array(t0, stack=False, name="t0"))
    t = float(_time_array(t, stack=False))
    if not _within(sys.interval, t0, t):
        raise OutOfInterval(f"need a <= t0 <= t <= b, got t0={t0}, t={t}")
    return t0, t


def _liouville(t0, t, phi, integral, step):
    """The TransitionRecord of Phi(t, t0), given in double, and of the
    integral of tr A over [t0, t]: det Phi against exp of the integral
    (Abel-Jacobi-Liouville), suspect beyond a relative DET_REL_TOL. A
    non-finite Phi (a non-finite A(t), or a step too large for ||A(t)||) or
    predicted determinant raises IntegrationSuspect. The one check of
    ``transition_matrix``, of the flag of ``tpds simulate``
    (``trajectory_record``) and of ``compound_transition``'s direct route."""
    if not np.isfinite(phi).all():
        raise IntegrationSuspect(
            f"Phi({t}, {t0}) has a non-finite entry at step {step:.3g}"
        )
    with np.errstate(over="ignore", divide="ignore"):  # a singular or huge Phi is suspect below
        det_phi = float(np.linalg.det(phi))
        det_pred = float(np.exp(integral))
    if not math.isfinite(det_pred):
        raise IntegrationSuspect(
            f"predicted det Phi({t}, {t0}) = exp(integral of trace A) is {det_pred}"
        )
    suspect = abs(det_phi - det_pred) > DET_REL_TOL * abs(det_pred)
    return TransitionRecord(t0, t, phi, det_phi, det_pred, suspect)


def _transition(sys, t0, t, step, dtype):
    """The TransitionRecord of Phi(t, t0) with its propagators multiplied
    in dtype (``_transitions``): the span checked (``_checked_span``), then
    the step (``_checked_step``), and the record, or its raise, from the
    one Liouville check (``_liouville``). ``transition_matrix`` asks for
    long double, since it reads det Phi; ``floquet``, which reads the
    eigenvalues of Phi and no determinant, for double."""
    t0, t = _checked_span(sys, t0, t)
    step = _checked_step(step, *sys.interval)
    phi, integral = _transitions(sys, [t0, t], step, dtype=dtype)
    return _liouville(t0, t, phi[0], integral[0], step)


def transition_matrix(sys, t0, t, step=None):
    """Transition matrix Phi(t, t0) of z' = A(s) z by fixed-step RK4.

    The steps follow the one step-count rule per segment span, and the
    propagators are multiplied in long double, since the Liouville check
    below reads det Phi (``_transition``; ``floquet`` takes the same
    record in double).
    A is evaluated at each step's three stage times, 3N times for a span of
    N steps, by one array ``matrix_at`` call per segment and block of
    steps; the steps' propagators are built as stacks and multiplied
    pairwise within each window of CHUNK_STEPS steps, and the windows in
    step order (``_transitions``). det Phi is compared with exp of the integral of
    tr A (Abel-Jacobi-Liouville), taken by Simpson's rule over the same
    stage values of tr A, which is RK4 on the trace; a relative mismatch
    beyond 1e-6 marks the record as suspect (``_liouville``). A non-finite
    Phi (a non-finite A(t), or a step too large for ||A(t)||) or predicted
    determinant raises IntegrationSuspect, and a step that is not a
    positive finite number InvalidArgument. t0 and t must each be one real
    time, else InvalidArgument or DimensionMismatch, with t0 <= t, both in
    [a, b] up to 1e-12 (``_within``), else OutOfInterval.
    """
    # long double: det Phi, which the Liouville check reads, moves by 1e-6
    # to 1e-4 per ulp of an ill-conditioned Phi's entries, and products in
    # double are 2-13 ulps off the RK4 loop in long double
    return _transition(sys, t0, t, step, np.longdouble)


@dataclass
class Trajectory:
    """Sampled states with their sign counts, V flags and exceptional clusters.

    Everything past (times, states) is computed from them. times must
    have a shape (k,) and states (k, n), n >= 1, else DimensionMismatch.
    Each sample's
    zero tolerance is TRAJ_ZERO_REL_TOL times the largest |entry| seen up
    to it, and its V flag follows ``in_V`` (``signvar.v_counts``); non-V
    samples less than CLUSTER_GAP samples apart form one exceptional
    cluster, recorded as ``times[k]`` of its first sample k: by one array
    rule, each non-V sample at least CLUSTER_GAP samples after the one
    before it, and the first. The
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
        y = _real_array(self.states, "states")
        t = _real_array(self.times, "times").shape
        if len(t) != 1 or y.shape[:1] != t or y.ndim != 2 or y.shape[1] < 1:
            raise DimensionMismatch(f"times and states must have shapes (k,) and (k, n), n >= 1, got {t} and {y.shape}")
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
        bad = np.flatnonzero(~in_v)
        first = bad[np.diff(bad, prepend=-CLUSTER_GAP) >= CLUSTER_GAP]  # a cluster's first sample
        self.exceptional_times = [self.times[k] for k in first.tolist()]

    @property
    def n(self):
        return np.shape(self.states)[1]

    def to_csv(self, path):
        """t to 10 significant digits, the state's entries to 12, the two
        counts and the V flag, one row per sample; comma-separated, CRLF.
        The rows are laid out as one table of Python numbers and written
        CSV_BLOCK_ROWS at a time, each block by one format and one write."""
        n = self.n
        names = ["t"] + [f"z{i + 1}" for i in range(n)] + ["s_minus", "s_plus", "in_V"]
        row = "%.10g" + ",%.12g" * n + ",%d,%d,%d\r\n"
        table = np.empty((len(self.times), n + 4), dtype=object)
        table[:, 0] = self.times
        table[:, 1 : n + 1] = self.states
        table[:, n + 1] = self.sigma_minus
        table[:, n + 2] = self.sigma_plus
        table[:, n + 3] = self.in_V_flags
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\r\n")
            for lo in range(0, len(table), CSV_BLOCK_ROWS):
                block = table[lo : lo + CSV_BLOCK_ROWS]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _interval_transitions(sys, grid, step, integrals=None):
    """The (len(grid) - 1, n, n) stack of each interval's transition matrix
    over a grid, in order, from ``_transitions`` over as many intervals per call as a
    block of BLOCK_ENTRIES holds one step of, in whole groups of
    CHUNK_STEPS (2,304 at n = 2, 1,024 at n = 3, 512 at n = 4, 256 from
    n = 5). Each interval takes the windows it takes in a call of
    CHUNK_STEPS intervals at a time, so its product, and its floats, are
    the same: one step in a whole group, and CHUNK_STEPS // r steps among
    the r < CHUNK_STEPS left over, which go alone where that is more than
    one step. Given a list, each call's trace integrals, one per interval,
    are appended to it."""
    lanes = len(grid) - 1
    per_call = max(1, BLOCK_ENTRIES // (CHUNK_STEPS * sys.n**2)) * CHUNK_STEPS
    rest = lanes % CHUNK_STEPS
    cut = lanes - rest if rest and CHUNK_STEPS // rest > 1 else lanes  # where the rest go alone
    bounds = [*range(0, cut, per_call), cut, lanes]
    calls = [_transitions(sys, grid[lo : hi + 1], step) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if integrals is not None:
        integrals += [trace for _, trace in calls]
    return np.concatenate([phis for phis, _ in calls]) if calls else np.empty((0, sys.n, sys.n))


def _period_intervals(sys, grid):
    """m, the number of intervals of a checked grid in its first period,
    where every later interval may take the transition matrix of the
    interval m before it; else None. For a T-periodic system
    Phi(t + T, s + T) = Phi(t, s), and interval k + m is interval k moved
    by T, with the same spans, when the system's segment ends repeat mod T
    (``TimeVaryingSystem._repeats``, decided once by its period check) and
    the grid runs past its first period and repeats mod T,
    |grid[k + m] - grid[k] - T| <= 1e-12 T for every k."""
    if not sys._repeats:
        return None
    T = sys.period
    m = int(np.searchsorted(grid, grid[0] + T - 1e-12 * T))
    if not 0 < m < len(grid) - 1 or np.abs(grid[m:] - grid[:-m] - T).max() > 1e-12 * T:
        return None
    return m


def simulate_linear(sys, z0, grid, step=None, tpds=False):
    """Integrate z' = A(t) z on the given sample grid with sign bookkeeping.

    Each grid interval's transition matrix is built as in transition_matrix
    (side by side, up to BLOCK_ENTRIES // n^2 intervals per call,
    ``_interval_transitions``), but multiplied in double, since a
    trajectory reads no determinant, and applies to the state at its
    start. On a grid that repeats mod the system's period
    (``_period_intervals``) only the first period's intervals are
    integrated, and each later interval applies the transition matrix of
    the interval one period before it. ``tpds simulate`` reads the
    Liouville flag of the same run from those matrices and their trace
    integrals (``trajectory_record``), and integrates nothing more.

    With tpds=True the monotonicity contract is enforced: s_plus and s_minus
    must be non-increasing sample to sample and at most n-1 exceptional
    clusters of non-V samples may occur. A grid that is empty, non-finite
    or decreasing, or leaves [a, b] by more than 1e-12 (``_within``),
    raises OutOfInterval, a z0 that is not a vector of n entries
    DimensionMismatch, a non-finite z0 NonFiniteInput, a step that is not a
    positive finite number InvalidArgument, and a state that turns
    non-finite on the way (a stiff or overflowing system at this step)
    IntegrationSuspect.
    """
    return _linear_run(sys, z0, grid, step, tpds)[0]


def _linear_run(sys, z0, grid, step, tpds):
    """``simulate_linear``'s trajectory, with the checked step, the stack of
    the len(grid) - 1 interval transition matrices that produced its
    samples, cycled on a grid that repeats mod the period, and their trace
    integrals, cycled alike. Each state is its interval's transition
    matrix times the state before it, one ``dot`` per sample written into
    its row of the state array: the call and the floats of assigning each
    product, with no array made per sample."""
    z0 = _checked_state(z0, sys.n, "z0")
    if not np.any(z0):
        raise TrivialSolution("z0 = 0 yields the trivial solution")
    grid = _checked_grid(grid, sys.interval)
    step = _checked_step(step, *sys.interval)
    m = _period_intervals(sys, grid)
    integrals = [np.zeros(0)]
    phis = _interval_transitions(sys, grid if m is None else grid[: m + 1], step, integrals)
    integrals = np.concatenate(integrals)
    if m is not None:  # Phi(t + T, s + T) = Phi(t, s): interval k takes the transition of interval k mod m
        cycled = np.arange(len(grid) - 1) % m
        phis, integrals = phis[cycled], integrals[cycled]
    states = np.empty((len(grid), sys.n))
    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises below
        for phi, z, row in zip(phis, states, states[1:]):
            phi.dot(z, out=row)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t = float(grid[np.argmin(finite)])
        raise IntegrationSuspect(f"the state became non-finite by t={t} from a finite z0")
    traj = Trajectory(grid, states)
    if tpds:
        sm, sp = np.array(traj.sigma_minus), np.array(traj.sigma_plus)
        bad = grid[1:][(np.diff(sp) > 0) | (np.diff(sm) > 0)].tolist()
        if bad:
            raise MonotonicityViolation("sign counts increased along a TPDS run", bad)
        clusters = traj.exceptional_times
        if len(clusters) > sys.n - 1:
            raise MonotonicityViolation(
                f"{len(clusters)} exceptional clusters exceed n-1", clusters
            )
    return traj, step, phis, integrals


def trajectory_record(sys, z0, grid, step=None, tpds=False):
    """``simulate_linear``'s trajectory, with the same arguments and
    errors, and the TransitionRecord of Phi(grid[-1], grid[0]) that flags
    it, the determinant check of ``tpds simulate`` (exit 4), from the same
    run: the interval transition matrices that produced the samples,
    multiplied pairwise in long double, since the Liouville check reads
    their determinant, and rounded to double once, against exp of their
    summed trace integrals (``_liouville``, as in ``transition_matrix``).
    No interval is integrated twice. The check is made after the
    trajectory's own, so a raise of ``simulate_linear`` comes first; then
    a non-finite product or predicted determinant raises
    IntegrationSuspect."""
    traj, step, phis, integrals = _linear_run(sys, z0, grid, step, tpds)
    P = phis.astype(np.longdouble) if len(phis) else np.eye(sys.n, dtype=np.longdouble)[None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product raises in _liouville
        while len(P) > 1:  # later intervals on the left
            pairs = P[1::2] @ P[0 : len(P) - 1 : 2]
            P = np.concatenate([pairs, P[-1:]]) if len(P) % 2 else pairs
        phi = P[0].astype(float)
    return traj, _liouville(float(traj.times[0]), float(traj.times[-1]), phi, integrals.sum(), step)


def compound_transition(sys, p, t0, t, step=None):
    """p-th compound of the transition matrix via the compound dynamics.

    Integrates the C(n,p)-dimensional system driven by the additive compound
    of A(s), taken over each block's stack of A at the stage times, with
    the propagators of transition_matrix multiplied in double (the compound
    flow reads no determinant), and cross-asserts against the
    multiplicative compound of the directly integrated transition matrix,
    also in double, since the cross-check reads Phi alone, to
    COMPOUND_REL_TOL. A p that is not an integer in 1..n raises
    InvalidArgument or OrderOutOfRange (``compound._checked_order``) before
    any step, and t0 and t are checked as transition_matrix checks them
    (``_checked_span``) before the first step; a non-finite Phi or
    predicted determinant raises transition_matrix's IntegrationSuspect
    (``_liouville``).
    """
    _checked_order(p, sys.n)
    step = _checked_step(step, *sys.interval)
    t0, t = _checked_span(sys, t0, t)
    phi, integral = _transitions(sys, [t0, t], step)
    direct = mult_compound(_liouville(t0, t, phi[0], integral[0], step).phi, p).entries
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

    Pairs each run of samples r with z1(r) ~ 0 (|z1| within the sample's
    zero tolerance), by its first sample, with the next sample s with
    z1(s) != 0, from the edges of one ``np.diff`` of the zero flags; a run
    at the end has no pair. Asserts s_plus(z(s)) <= s_plus(z(r)) - 1 for
    every pair: the first pair that fails raises MonotonicityViolation with
    its two times, and no pair at all NoApplicablePair.
    """
    zero = np.abs(np.asarray(traj.states)[:, 0]) <= traj.zero_tols
    edge = np.diff(zero.astype(np.int8), prepend=0)  # 1 where a zero run starts, -1 just after it
    s = np.flatnonzero(edge < 0)
    r = np.flatnonzero(edge > 0)[: len(s)]
    if not s.size:
        raise NoApplicablePair("first coordinate never returned from zero")
    sp = np.asarray(traj.sigma_plus)
    failed = np.flatnonzero(sp[s] > sp[r] - 1)
    if failed.size:
        r, s = r[failed[0]], s[failed[0]]
        raise MonotonicityViolation("weak variation-diminishing drop failed", [float(traj.times[r]), float(traj.times[s])])
    return True
