"""Nonlinear simulation, eventual monotonicity, and Poincare-map analysis.

Trajectories are integrated by ``integrate._rk4_span`` with the system's
generated RK4 stepper (``exprlang.compile_stepper``), one grid interval at
a time (``_states``). ``simulate_nonlinear`` calls f and the Jacobian at
each sample. ``eventual_monotonicity`` integrates the states alone and
evaluates the Jacobian at all the points of its check in one stacked call
(``NonlinearSystem._jacobians``), through the array forms of f and J
(``exprlang._compile_array``), compiled on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    AssumptionViolated,
    LeftDomain,
    NoConvergence,
    NoMonotoneTail,
    NotPeriodic,
    SpecFileError,
    TrivialSolution,
)
from .integrate import (
    Trajectory,
    _checked_count,
    _checked_grid,
    _checked_positive,
    _checked_state,
    _checked_step,
    _rk4_span,
)
from .signvar import _check_finite
from .systems import _membership, in_M_plus

FD_JAC_REL_STEP = 1e-6
GAUSS_LEGENDRE_POINTS = 16
R_GRID = 9  # points r in [0, 1] at which eventual_monotonicity tests J(t, r a + (1 - r) b)
PERSISTENCE = 5  # consecutive small residuals that make poincare_analysis detect a period


@dataclass
class NonlinearSystem:
    """x' = f(t, x), its right-hand side and Jacobian compiled at construction.

    The input u(t), when given, is evaluated once per call of f or jac. A
    variable outside t, x1..xn and u (u only with an input) raises
    UnboundVariable here; an out-of-domain evaluation raises DomainError.
    The RK4 stepper that integrates it is compiled on first use.
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
        if self.period is not None and not self.period > 0:
            raise SpecFileError("period must be positive")
        self._f = exprlang.compile_fn(self.rhs, self.n, self.input)
        self._jac = (
            exprlang.compile_fn(self.jacobian, self.n, self.input)
            if self.jacobian is not None
            else None
        )

    @functools.cached_property
    def stepper(self):
        """``advance(y, t, h, nsteps)`` for ``integrate._rk4_span``: RK4 steps
        with f inlined, bit-identical to the classical RK4 loop over the
        numpy arrays of ``self.f``."""
        return exprlang.compile_stepper(self.rhs, self.n, self.input)

    @property
    def uses_finite_difference_jacobian(self):
        return self.jacobian is None

    def f(self, t, x):
        return self._f(t, x)

    def jac(self, t, x):
        if self._jac is not None:
            return self._jac(t, x)
        f = lambda xs: np.array([self.f(t, y) for y in xs.tolist()])
        return _central_differences(f, np.array(x, dtype=float)[None])[0]

    @functools.cached_property
    def _jacobians(self):
        """``J(t, x)``: the (m, n, n) stack of J at m times t and (m, n)
        states x, with the floats and the first DomainError of ``jac`` at
        each point in turn. Compiled on first use (``exprlang._compile_array``),
        so that loading a spec costs no more than the scalar forms."""
        if self._jac is not None:
            return exprlang._compile_array(self.jacobian, self._jac, self.n, self.input)
        f = exprlang._compile_array(self.rhs, self._f, self.n, self.input)
        return lambda t, x: _central_differences(lambda xs: f(np.repeat(t, 2 * self.n), xs), x)

    def in_box(self, x):
        if self.domain_box is None:
            return True
        return all(lo - 1e-12 <= v <= hi + 1e-12 for v, (lo, hi) in zip(x, self.domain_box))


def _central_differences(f, x):
    """The one finite-difference Jacobian rule, over a leading axis: J at
    the (m, n) states x by central differences with the scale-aware step
    FD_JAC_REL_STEP * max(1, |x_j|). ``f`` maps a (k, n) array of states to
    the (k, n) values of f there; it is called once, on the states
    x +- h_j e_j in the order point, j, + before -."""
    m, n = x.shape
    h = FD_JAC_REL_STEP * np.fmax(1.0, np.abs(x))  # fmax: max(1.0, nan) is 1.0
    # each point's 2n copies in a row of 2n * n entries: entry j of copy 2j
    # (x + h_j e_j) is entry j (2n + 1), of copy 2j + 1 (x - h_j e_j) n + j (2n + 1)
    xs = np.repeat(x, 2 * n, axis=0).reshape(m, 2 * n * n)
    xs[:, :: 2 * n + 1] += h
    xs[:, n :: 2 * n + 1] -= h
    fs = f(xs.reshape(-1, n)).reshape(m, n, 2, n)
    return ((fs[:, :, 0] - fs[:, :, 1]) / (2 * h)[:, :, None]).transpose(0, 2, 1)


@dataclass
class NonlinearRun:
    state: Trajectory
    derivative: Trajectory
    jacobian_in_M_plus: bool


def _states(sys, x0, grid, step):
    """Yield (t, x) at each sample of the grid, x0 first: one span of the
    system's RK4 stepper per grid interval. A state outside the domain box
    raises LeftDomain at its sample, before it is yielded."""
    if not sys.in_box(x0):
        raise LeftDomain("initial condition outside the domain box", grid[0])
    yield grid[0], x0
    x = x0
    for t0, t1 in zip(grid, grid[1:]):
        x = _rk4_span(sys.stepper, x, t0, t1, step)
        if not sys.in_box(x):
            raise LeftDomain("trajectory left the domain box", float(t1))
        yield t1, x


def simulate_nonlinear(sys, x0, grid, step=None):
    """Integrate x' = f(t, x) and track sign variation of z(t) = f(t, x(t)).

    Jacobian samples are tested for M+ membership along the run; when they
    leave the class the sign-count assertions do not apply and the flag in
    the result says so. A grid that is empty, non-finite or decreasing
    raises OutOfInterval, an x0 that is not a vector of n entries
    DimensionMismatch, one with a nan or inf entry NonFiniteInput, and a
    step that is not a positive finite number InvalidArgument, all before
    any step. The default step is 1e-3 of the grid's span.
    """
    grid = _checked_grid(grid)
    x0 = _checked_state(x0, sys.n, "x0")
    step = _checked_step(step, grid[0], grid[-1])
    xs, zs = [], []
    jac_ok = True
    for t, x in _states(sys, x0, grid, step):
        xs.append(x)
        zs.append(sys.f(t, x))
        jac_ok = jac_ok and in_M_plus(sys.jac(t, x))
    return NonlinearRun(Trajectory(grid, np.array(xs)), Trajectory(grid, np.array(zs)), jac_ok)


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
    ``_jacobians`` call, the points in the order time, rs, nodes. The
    average is summed in node order."""
    nodes, weights = _gauss_legendre()
    r = np.concatenate([rs, nodes])[:, None]
    m, k, n = len(t), len(r), sys.n
    points = r * a[:, None] + (1 - r) * b[:, None]
    J = sys._jacobians(np.repeat(t, k), points.reshape(-1, n)).reshape(m, k, n, n)
    average = np.zeros((m, n, n))
    for i, w in enumerate(weights, start=len(rs)):
        average += w * J[:, i]
    return np.concatenate([J[:, : len(rs)], average[:, None]], axis=1)


def line_integral_jacobian(sys, t, a, b):
    """Gauss-Legendre average of J(t, .) along the segment from b to a. A
    nan or infinite t raises NonFiniteInput."""
    _check_finite(np.array([t], dtype=float), "t")
    a = _checked_state(a, sys.n, "a")
    b = _checked_state(b, sys.n, "b")
    return _line_integrals(sys, [t], a[None], b[None])[0, 0]


def eventual_monotonicity(sys, a0, b0, horizon, samples=500, step=None):
    """Last time after which x1(t, a0) - x1(t, b0) keeps one strict sign.

    Requires the line-integral Jacobian between the two solutions to stay in
    M+ on a (t, r) sample grid; otherwise the underlying theory does not
    apply and AssumptionViolated is raised. Equal starts raise
    TrivialSolution: their difference is zero throughout. The starts are
    checked as simulate_nonlinear's x0 is, the horizon as the end of a grid
    from 0, and samples must be an integer >= 1 (InvalidArgument).

    The two runs integrate the states alone, on the span loop of
    simulate_nonlinear. At every (samples // 25)-th sample the check takes J
    at R_GRID points r a + (1 - r) b and the line integral, all in one
    stacked Jacobian call, and tests M+ on them in one ``_membership``
    call. The first failure in time order, the R_GRID points before the
    line integral, is the one reported; a nan or infinite J raises
    NonFiniteInput there, as ``in_M_plus`` does.
    """
    a0 = _checked_state(a0, sys.n, "a0")
    b0 = _checked_state(b0, sys.n, "b0")
    if np.array_equal(a0, b0):
        raise TrivialSolution("initial conditions must differ")
    _checked_grid([0.0, horizon])  # a finite horizon >= 0
    grid = np.linspace(0.0, horizon, _checked_count(samples, "samples", least=1))
    step = _checked_step(step, grid[0], grid[-1])
    xa = np.array([x for _, x in _states(sys, a0, grid, step)])
    _check_finite(xa)  # as simulate_nonlinear's Trajectory of the states does
    xb = np.array([x for _, x in _states(sys, b0, grid, step)])
    _check_finite(xb)

    ks = np.arange(0, samples, max(1, samples // 25))
    rs = np.linspace(0.0, 1.0, R_GRID)
    J = _line_integrals(sys, grid[ks], xa[ks], xb[ks], rs)
    finite = np.isfinite(J).all(axis=(-2, -1))
    bad, low = _membership(J)
    failed = ~finite | bad.any(axis=(-2, -1)) | ~(low > 0)
    if failed.any():
        k, i = np.argwhere(failed)[0]
        in_M_plus(J[k, i])  # a nan or inf entry raises NonFiniteInput
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


def poincare_analysis(sys, x0, max_iters=100, q_max=8, tol=1e-6, step=None):
    """Iterate the period map and detect the minimal asymptotic period.

    detected_period is the smallest q <= q_max whose iterate residuals
    ||x((k+q)T) - x(kT)|| stay below tol for PERSISTENCE consecutive k at
    the tail of the run; q = 1 certifies entrainment at this resolution.
    Each iterate is one ``_rk4_span`` over a period, in steps of 1e-3 T
    by default. An x0 that is not a vector of n entries raises
    DimensionMismatch, one with a nan or inf entry NonFiniteInput, and a
    step or tol that is not a positive finite number, or a max_iters or
    q_max that is not an integer >= 1, InvalidArgument, all before any
    iterate.
    """
    if sys.period is None:
        raise NotPeriodic("system carries no period")
    T = sys.period
    x = _checked_state(x0, sys.n, "x0")
    step = _checked_step(step, 0.0, T)
    _checked_count(max_iters, "max_iters", least=1)
    _checked_count(q_max, "q_max", least=1)
    _checked_positive(tol, "tol")
    if not sys.in_box(x):
        raise LeftDomain("initial condition outside the domain box", 0.0)
    iterates = [x]
    for k in range(max_iters):
        x = _rk4_span(sys.stepper, x, k * T, (k + 1) * T, step)
        if not sys.in_box(x):
            raise LeftDomain("trajectory left the domain box", (k + 1) * T)
        iterates.append(x)
        q = _detect_period(iterates, q_max, tol)
        if q is not None:
            arr = np.array(iterates)
            res = [float(np.linalg.norm(arr[m + q] - arr[m])) for m in range(len(arr) - q)]
            return PoincareResult(arr, q, res)
    raise NoConvergence(f"no period <= {q_max} detected within {max_iters} iterates")


def _detect_period(iterates, q_max, tol):
    arr = np.array(iterates)
    for q in range(1, q_max + 1):
        if len(arr) < q + PERSISTENCE:
            continue
        tail = range(len(arr) - PERSISTENCE - q, len(arr) - q)
        if all(np.linalg.norm(arr[k + q] - arr[k]) < tol for k in tail):
            return q
    return None
