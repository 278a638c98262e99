"""Nonlinear simulation, eventual monotonicity, and Poincare-map analysis.

Every run iterates the one run function compiled for its system
(``exprlang.compile_stepper``, held as ``NonlinearSystem._run``), which
yields the state at each of its times, the states alone. The step picks
the loop: DOP853 steps controlled to ``integrate.RTOL`` and ``ATOL``
without one, RK4 steps of an explicit step, which the run checks once,
when it is created. f and J are then taken as stacks, by calls of
``NonlinearSystem.f`` or ``jac`` on (m,) times and (m, n) states
(``exprlang.compile_fn``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    AssumptionViolated,
    NoConvergence,
    NoMonotoneTail,
    NotPeriodic,
    SpecFileError,
    TrivialSolution,
)
from .integrate import (
    CHUNK_STEPS,
    Trajectory,
    _checked_grid,
    _checked_horizon,
    _checked_positive,
    _checked_state,
    _checked_times,
    _grid,
    _rk4_span,
    _time_array,
)
from .signvar import _check_finite, _checked_count
from .systems import _checked_period, _first_outside_M_plus

FD_JAC_REL_STEP = 1e-6
GAUSS_LEGENDRE_POINTS = 16
R_GRID = 9  # points r in [0, 1] at which eventual_monotonicity tests J(t, r a + (1 - r) b)
PERSISTENCE = 5  # consecutive small residuals that make poincare_analysis detect a period


@dataclass
class NonlinearSystem:
    """x' = f(t, x), its right-hand side and Jacobian compiled at construction.

    ``f`` and ``jac`` take one time t and state x or, as ``Segment.matrix_at``
    does, a 1-d array of m times and an (m, n) array of states, and return
    the (m, n) or (m, n, n) stack: at each point the floats and the first
    DomainError, in point order, of f at that point (J at one point is its
    stack of one). t goes through ``integrate._checked_times``, x through
    ``_checked_state``. The input u(t), when given, is evaluated once per
    time. A variable outside t, x1..xn and u (u only with an input) raises
    UnboundVariable here. ``_run`` is the system's run function
    (``exprlang.compile_stepper``), whose loops compile on their first run.
    """

    n: int
    rhs: list  # n exprlang ASTs over t, x1..xn, u
    input: object = None  # optional expr over t
    jacobian: list | None = None  # optional n x n ASTs; finite differences otherwise
    period: float | None = None
    domain_box: list | None = None  # [(lo, hi)] per coordinate
    name: str = ""

    def __post_init__(self):
        if len(self.rhs) != self.n:
            raise SpecFileError("rhs dimension mismatch")
        if self.jacobian is not None and (
            len(self.jacobian) != self.n or any(len(r) != self.n for r in self.jacobian)
        ):
            raise SpecFileError("jacobian dimension mismatch")
        if self.domain_box is not None and len(self.domain_box) != self.n:
            raise SpecFileError("domain box dimension mismatch")
        if self.period is not None:
            _checked_period(self.period)
        self._f = exprlang.compile_fn(self.rhs, self.n, self.input)
        self._jac = (
            exprlang.compile_fn(self.jacobian, self.n, self.input)
            if self.jacobian is not None
            else None
        )
        self._jacobians = self._jac or functools.partial(_central_differences, self._f)
        self._run = exprlang.compile_stepper(self.rhs, self.n, self.input, self.domain_box)

    @property
    def uses_finite_difference_jacobian(self):
        return self.jacobian is None

    def f(self, t, x):
        t = _checked_times(t)
        return self._f(t, _checked_state(x, self.n, "x", *np.shape(t)))

    def jac(self, t, x):
        t = _checked_times(t)
        x = _checked_state(x, self.n, "x", *np.shape(t))
        return self._jacobians(np.reshape(t, -1), x.reshape(-1, self.n)).reshape(x.shape + (self.n,))

    def in_box(self, x):
        """The box rule of the run loops: each entry within 1e-12 of its
        (lo, hi)."""
        if self.domain_box is None:
            return True
        return all(lo - 1e-12 <= v <= hi + 1e-12 for v, (lo, hi) in zip(x, self.domain_box))


def _central_differences(f, t, x):
    """The one finite-difference Jacobian rule: J at m times t and (m, n)
    states x by central differences with the scale-aware step
    FD_JAC_REL_STEP * max(1, |x_j|), from one call of the stacked f on the
    states x +- h_j e_j, in the order point, j, + before -."""
    m, n = x.shape
    h = FD_JAC_REL_STEP * np.fmax(1.0, np.abs(x))  # fmax: max(1.0, nan) is 1.0
    # each point's 2n copies in a row of 2n * n entries: entry j of copy 2j
    # (x + h_j e_j) is entry j (2n + 1), of copy 2j + 1 (x - h_j e_j) n + j (2n + 1)
    xs = np.repeat(x, 2 * n, axis=0).reshape(m, 2 * n * n)
    xs[:, :: 2 * n + 1] += h
    xs[:, n :: 2 * n + 1] -= h
    fs = f(np.repeat(t, 2 * n), xs.reshape(-1, n)).reshape(m, n, 2, n)
    return ((fs[:, :, 0] - fs[:, :, 1]) / (2 * h)[:, :, None]).transpose(0, 2, 1)


@dataclass
class NonlinearRun:
    state: Trajectory
    derivative: Trajectory
    jacobian_in_M_plus: bool
    accepted_steps: int = field(default=0, compare=False)
    rejected_steps: int = field(default=0, compare=False)
    largest_error: float | None = field(default=None, compare=False)  # None for RK4


def simulate_nonlinear(sys, x0, grid, step=None):
    """Integrate x' = f(t, x) and track sign variation of z(t) = f(t, x(t)).

    The states are integrated alone, then f taken in one stacked call and
    J in blocks of CHUNK_STEPS samples up to the first block with a J out
    of M+ (a nan or inf J there raises NonFiniteInput), where the
    sign-count assertions stop applying; the flag in the result says so. A
    grid that is empty, non-finite or decreasing raises OutOfInterval, an
    x0 that is not a vector of n entries DimensionMismatch, one with a nan
    or inf entry NonFiniteInput, and a step that is not a positive finite
    number InvalidArgument, all before any step: the run checks its step
    once, when it is created (``exprlang.compile_stepper``). Without a step
    the run is error-controlled (DOP853 to ``integrate.RTOL`` and
    ``ATOL``); the result records its accepted and rejected steps and the
    largest scaled error estimate of an accepted step (None for RK4 steps).
    """
    grid = _checked_grid(grid)
    x0 = _checked_state(x0, sys.n, "x0")
    tally = [0, 0, None]
    xs = np.array(list(sys._run(x0, grid, step, tally)))
    zs = sys.f(grid, xs)
    jac_ok = all(
        _first_outside_M_plus(sys.jac(grid[k : k + CHUNK_STEPS], xs[k : k + CHUNK_STEPS])) is None
        for k in range(0, len(grid), CHUNK_STEPS)
    )
    return NonlinearRun(Trajectory(grid, xs), Trajectory(grid, zs), jac_ok, *tally)


@functools.cache
def _gauss_legendre():
    """The nodes and weights of GAUSS_LEGENDRE_POINTS-point Gauss-Legendre,
    mapped from [-1, 1] to [0, 1]. Computed once, on first use: importing
    numpy.polynomial costs ~4 ms and ~1.6 MB, which every ``import tpds``
    would otherwise pay."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_POINTS)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _line_integrals(sys, t, a, b, rs=()):
    """J at the points r a + (1 - r) b for each r in rs, then the
    Gauss-Legendre average of J along the segment from b to a, for m times
    t and (m, n) states a and b: an (m, len(rs) + 1, n, n) stack from one
    stacked ``jac`` call, the points in the order time, rs, nodes. The
    average is summed in node order."""
    nodes, weights = _gauss_legendre()
    r = np.concatenate([rs, nodes])[:, None]
    m, k, n = len(t), len(r), sys.n
    points = r * a[:, None] + (1 - r) * b[:, None]
    J = sys.jac(np.repeat(t, k), points.reshape(-1, n)).reshape(m, k, n, n)
    average = np.zeros((m, n, n))
    for i, w in enumerate(weights, start=len(rs)):
        average += w * J[:, i]
    return np.concatenate([J[:, : len(rs)], average[:, None]], axis=1)


def line_integral_jacobian(sys, t, a, b):
    """Gauss-Legendre average of J(t, .) along the segment from b to a at
    one time t (``integrate._time_array``), which ``jac`` checks by
    ``integrate._checked_times``."""
    _time_array(t, stack=False)
    a = _checked_state(a, sys.n, "a")
    b = _checked_state(b, sys.n, "b")
    return _line_integrals(sys, [t], a[None], b[None])[0, 0]


def eventual_monotonicity(sys, a0, b0, horizon, samples=500, step=None):
    """Last time after which x1(t, a0) - x1(t, b0) keeps one strict sign.

    Requires the line-integral Jacobian between the two solutions to stay in
    M+ on a (t, r) sample grid; otherwise the underlying theory does not
    apply and AssumptionViolated is raised. Equal starts raise
    TrivialSolution: their difference is zero throughout. The starts are
    checked as simulate_nonlinear's x0 is, the horizon by
    ``integrate._checked_horizon``, and samples must be an integer >= 1
    that ``integrate._grid`` can allocate (InvalidArgument).

    The two runs integrate the states alone, on the run loop of
    simulate_nonlinear. At every (samples // 25)-th sample the check takes J
    at R_GRID points r a + (1 - r) b and the line integral, all in one
    stacked ``jac`` call, and tests M+ on them at once
    (``_first_outside_M_plus``). The first failure in time order, the
    R_GRID points before the line integral, is the one reported; a nan or
    infinite J raises NonFiniteInput there, as ``in_M_plus`` does.
    """
    a0 = _checked_state(a0, sys.n, "a0")
    b0 = _checked_state(b0, sys.n, "b0")
    if np.array_equal(a0, b0):
        raise TrivialSolution("initial conditions must differ")
    grid = _grid(0.0, _checked_horizon(horizon), _checked_count(samples, "samples", least=1))
    xa = np.array(list(sys._run(a0, grid, step, [0, 0, None])))
    _check_finite(xa)  # as a Trajectory of the states does
    xb = np.array(list(sys._run(b0, grid, step, [0, 0, None])))
    _check_finite(xb)

    ks = np.arange(0, samples, max(1, samples // 25))
    rs = np.linspace(0.0, 1.0, R_GRID)
    failed = _first_outside_M_plus(_line_integrals(sys, grid[ks], xa[ks], xb[ks], rs))
    if failed is not None:
        k, i = failed
        t = grid[ks[k]]
        if i < R_GRID:
            raise AssumptionViolated(f"Jacobian leaves M+ at t={t:.4g}, r={rs[i]:.3g}")
        raise AssumptionViolated(f"line-integral Jacobian leaves M+ at t={t:.4g}")

    d1 = xa[:, 0] - xb[:, 0]
    signs = np.sign(d1)
    if signs[-1] == 0:
        raise NoMonotoneTail("first-coordinate difference vanishes at the horizon")
    changes = np.flatnonzero(signs[1:] != signs[:-1])
    if changes.size == 0:
        return 0.0, int(signs[-1])
    s = float(grid[changes[-1] + 1])
    if s >= grid[-1]:
        raise NoMonotoneTail("sign still changing at the sampled resolution")
    return s, int(signs[-1])


@dataclass
class PoincareResult:
    iterates: np.ndarray  # x(kT) rows
    detected_period: int | None
    residuals: list = field(default_factory=list)
    accepted_steps: int = field(default=0, compare=False)
    rejected_steps: int = field(default=0, compare=False)
    largest_error: float | None = field(default=None, compare=False)  # None for RK4


def poincare_analysis(sys, x0, max_iters=100, q_max=8, tol=1e-6, step=None):
    """Iterate the period map and detect the minimal asymptotic period.

    detected_period is the smallest q <= q_max whose iterate residuals
    ||x((k+q)T) - x(kT)|| stay below tol for PERSISTENCE consecutive k at
    the tail of the run; q = 1 certifies entrainment at this resolution.
    The iterates are the states of one run loop at kT, k = 0..max_iters,
    the times read lazily and the states through ``integrate._rk4_span``
    one at a time: DOP853 steps controlled to ``integrate.RTOL`` and
    ``ATOL`` by default, landing on each kT, or RK4 steps of an explicit
    step. The result records the accepted and rejected steps up to the
    last iterate and, for DOP853, the largest scaled error estimate of an
    accepted step (``exprlang.compile_stepper``). An x0 that is not a
    vector of n entries raises DimensionMismatch, one with a nan or inf
    entry NonFiniteInput, and a step or tol that is not a positive finite
    number, or a max_iters or q_max that is not an integer >= 1,
    InvalidArgument, all before any iterate and in that order: the run is
    created, and checks its step, right after x0 is checked, over the times
    kT, k = 0, 1, ..., and the loop over max_iters + 1 iterates bounds it.
    Each iterate takes one residual norm per q <= q_max up to the number
    of iterates before it, and keeps, per q, how many residuals in a row
    are below tol (``_detect_period``), so a q_max beyond the iterates
    costs nothing.
    """
    if sys.period is None:
        raise NotPeriodic("system carries no period")
    T = sys.period
    x0 = _checked_state(x0, sys.n, "x0")
    tally = [0, 0, None]
    run = sys._run(x0, (k * T for k in itertools.count()), step, tally)
    _checked_count(max_iters, "max_iters", least=1)
    _checked_count(q_max, "q_max", least=1)
    _checked_positive(tol, "tol")
    iterates, runs = [], []
    for _ in range(max_iters + 1):
        iterates.append(_rk4_span(run))
        q = _detect_period(iterates, runs, q_max, tol)
        if q is not None:
            arr = np.array(iterates)
            res = [float(np.linalg.norm(arr[m + q] - arr[m])) for m in range(len(arr) - q)]
            return PoincareResult(arr, q, res, *tally)
    raise NoConvergence(f"no period <= {q_max} detected within {max_iters} iterates")


def _detect_period(iterates, runs, q_max, tol):
    """The smallest q <= q_max whose last PERSISTENCE residuals
    ||x_(k+q) - x_k|| are all below tol, else None, once the newest iterate
    is appended. runs[q - 1], updated in place, counts the residuals of q
    below tol in a row up to the newest iterate, so each iterate takes one
    norm per q <= min(q_max, len(iterates) - 1), whatever q_max is."""
    x = iterates[-1]
    if len(runs) < min(q_max, len(iterates) - 1):
        runs.append(0)
    for q in range(1, len(runs) + 1):
        runs[q - 1] = runs[q - 1] + 1 if np.linalg.norm(x - iterates[-1 - q]) < tol else 0
    return next((q for q, run in enumerate(runs, 1) if run >= PERSISTENCE), None)
