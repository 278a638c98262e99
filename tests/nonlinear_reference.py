"""The per-sample loops of ``simulate_nonlinear`` and ``eventual_monotonicity``
before they integrated the states alone and took f and J in stacked calls,
the scalar J before it was the stack at one point, and the run loops of
``exprlang.compile_stepper`` in plain Python; kept as the test reference.

``run`` is the run loop over the compiled f (``exprlang.compile_fn``,
which takes a stage state as it is, finite or not): RK4 by
``integrate_reference.rk4_span`` between consecutive times given a step,
else ``dp5_run``, Dormand-Prince 5(4) on lists of Python floats, written
from the method's rational coefficients and the controller of Hairer,
Norsett and Wanner (Solving ODEs I, II.4). Each names a DomainError of f
by the step's start, as the generated loop does. ``simulate_nonlinear``
here takes the states of ``run`` and calls the scalar f and J at every
sample, testing J for M+ until the first failure.
``eventual_monotonicity`` runs it twice and then, at every
(samples // 25)-th sample, evaluates J point by point at the R_GRID
points r a + (1 - r) b and the Gauss-Legendre average of J, testing each
for M+ as it goes. ``line_integral_jacobian`` is the point by point sum.
``jac`` is the scalar J: the compiled analytic J, or central differences
over the compiled scalar f, one perturbed state at a time.
"""

import math
import sys as _sys

import numpy as np

from integrate_reference import naming_the_step, rk4_span, rk4_steps
from tpds.errors import AssumptionViolated, DomainError, IntegrationSuspect, LeftDomain, NoMonotoneTail, TrivialSolution
from tpds.integrate import ATOL, MAX_STEPS, RTOL, Trajectory, _checked_count, _checked_grid, _checked_state, _checked_step, _step_count
from tpds.nonlinear import R_GRID, NonlinearRun, _central_differences, _gauss_legendre
from tpds.systems import in_M_plus

# Dormand and Prince, J. Comput. Appl. Math. 6 (1980), table 2
DP5_C = [1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1]
DP5_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
# the fifth-order weights less the fourth-order ones
DP5_E = [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def rms(values):
    total = 0.0
    for v in values:
        total = total + v * v
    return math.sqrt(total / len(values))


def combination(weights, stages, i):
    """The sum of w k[i] over the nonzero weights, left to right."""
    terms = [w * k[i] for w, k in zip(weights, stages) if w]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def dp5_run(f, y, times, tally):
    """Yield y at each of the times by Dormand-Prince 5(4) steps of the
    point function f(t, y) -> list: FSAL, the RMS error norm scaled by
    ATOL + RTOL max(|y|, |w|), the starting step of II.4, the controller
    min(grow, max(0.2, 0.9 err^(-1/5))) with grow 1 after a rejection, a
    last step that lands on each time, leaving the step size it was cut
    from, and at most MAX_STEPS steps from one time to the next."""
    y = [float(v) for v in y]
    times = iter(times)
    s = float(next(times))
    accepted = rejected = 0
    yield y
    h, grow = None, 5.0
    for t1 in times:
        t1 = float(t1)
        try:
            if h is None and s < t1:
                k1 = f(s, y)
                scale = [ATOL + RTOL * abs(v) for v in y]
                d0 = rms([v / c for v, c in zip(y, scale)])
                d1 = rms([v / c for v, c in zip(k1, scale)])
                h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
                euler = f(s + h, [v + h * k for v, k in zip(y, k1)])
                d2 = rms([(a - b) / c for a, b, c in zip(euler, k1, scale)]) / h if h else math.inf
                dm = max(d1, d2)
                h = min(100 * h, (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h * 1e-3))
            t0, taken = s, 0
            while s < t1:
                if not h > 16 * _sys.float_info.epsilon * abs(s):
                    raise IntegrationSuspect(f"the DP5 step size {h!r} is below 16 eps |t| at t = {s!r}")
                if taken == MAX_STEPS:
                    raise IntegrationSuspect(f"the DP5 run takes more than {MAX_STEPS} steps from t = {t0!r} to t = {t1!r}")
                taken += 1
                last = s + 1.01 * h >= t1
                hh = t1 - s if last else h
                te = t1 if last else s + hh
                stages = [k1]
                for c, weights in zip(DP5_C[:5], DP5_A):
                    x = [v + hh * combination(weights, stages, i) for i, v in enumerate(y)]
                    stages.append(f(te if c == 1 else s + c * hh, x))
                w = [v + hh * combination(DP5_A[5], stages, i) for i, v in enumerate(y)]
                stages.append(f(te, w))
                q = [hh * combination(DP5_E, stages, i) / (ATOL + RTOL * max(abs(v), abs(wi))) for i, (v, wi) in enumerate(zip(y, w))]
                err = rms(q)
                if not err < math.inf:
                    raise IntegrationSuspect(f"the DP5 error estimate is {err} in the step from t = {s!r}")
                fac = min(grow, max(0.2, 0.9 * max(err, 1e-4) ** -0.2))
                if err <= 1.0:
                    accepted += 1
                    s, y, k1 = te, w, stages[6]
                    h = max(h, hh * fac) if last else hh * fac
                    grow = 5.0
                else:
                    rejected += 1
                    h = hh * fac
                    grow = 1.0
        except DomainError as exc:
            raise DomainError(f"advance in the DP5 step from t = {s}: {exc.__cause__}") from exc
        tally[:] = accepted, rejected
        yield y


def rk4_run(f, y, times, step, tally):
    """Yield y at each of the times by rk4_span between consecutive ones."""
    advance = naming_the_step(rk4_steps(f))
    times = iter(times)
    t0 = next(times)
    yield y
    for t1 in times:
        y = rk4_span(advance, y, t0, t1, step)
        if t1 - t0 > 0:
            tally[0] += _step_count(t1 - t0, step)
        yield y
        t0 = t1


def run(sys, x0, times, step=None, tally=None):
    """The states of the run loop at each of the times, as float arrays,
    with its LeftDomain at the first sample outside the box."""
    tally = [0, 0] if tally is None else tally
    drawn = []

    def recorded():
        for t in times:
            drawn.append(float(t))
            yield t

    if step is None:
        states = dp5_run(lambda t, y: sys._f(t, y).tolist(), x0, recorded(), tally)
    else:
        states = rk4_run(sys._f, np.array(x0, dtype=float), recorded(), step, tally)
    for k, y in enumerate(states):
        y = np.array(y, dtype=float)
        if not sys.in_box(y):
            raise LeftDomain("trajectory left the domain box" if k else "initial condition outside the domain box", drawn[-1])
        yield y


def jac(sys, t, x):
    if sys._jac is not None:
        return sys._jac(t, x)
    f = lambda ts, xs: np.array([sys._f(s, y) for s, y in zip(ts.tolist(), xs.tolist())])
    return _central_differences(f, [t], np.array(x, dtype=float)[None])[0]


def simulate_nonlinear(sys, x0, grid, step=None):
    grid = _checked_grid(grid)
    x0 = _checked_state(x0, sys.n, "x0")
    step = None if step is None else _checked_step(step, 0.0, 0.0)
    tally = [0, 0]
    xs, zs, jac_ok = [], [], True
    for t, x in zip(grid, run(sys, x0, grid, step, tally)):
        xs.append(x)
        zs.append(sys.f(t, x))
        jac_ok = jac_ok and in_M_plus(sys.jac(t, x))
    return NonlinearRun(Trajectory(grid, np.array(xs)), Trajectory(grid, np.array(zs)), jac_ok, *tally)


def line_integral_jacobian(sys, t, a, b):
    a = _checked_state(a, sys.n, "a")
    b = _checked_state(b, sys.n, "b")
    J = np.zeros((sys.n, sys.n))
    for ri, wi in zip(*_gauss_legendre()):
        J += wi * sys.jac(t, ri * a + (1 - ri) * b)
    return J


def eventual_monotonicity(sys, a0, b0, horizon, samples=500, step=None):
    a0 = _checked_state(a0, sys.n, "a0")
    b0 = _checked_state(b0, sys.n, "b0")
    if np.array_equal(a0, b0):
        raise TrivialSolution("initial conditions must differ")
    _checked_grid([0.0, horizon])
    grid = np.linspace(0.0, horizon, _checked_count(samples, "samples"))
    run_a = simulate_nonlinear(sys, a0, grid, step)
    run_b = simulate_nonlinear(sys, b0, grid, step)

    for k in range(0, samples, max(1, samples // 25)):
        t = grid[k]
        xa, xb = run_a.state.states[k], run_b.state.states[k]
        for r in np.linspace(0.0, 1.0, R_GRID):
            J = sys.jac(t, r * xa + (1 - r) * xb)
            if not in_M_plus(J):
                raise AssumptionViolated(f"Jacobian leaves M+ at t={t:.4g}, r={r:.3g}")
        if not in_M_plus(line_integral_jacobian(sys, t, xa, xb)):
            raise AssumptionViolated(f"line-integral Jacobian leaves M+ at t={t:.4g}")

    d1 = run_a.state.states[:, 0] - run_b.state.states[:, 0]
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
