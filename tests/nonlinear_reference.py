"""The per-sample loops of ``simulate_nonlinear`` and ``eventual_monotonicity``
before they integrated the states alone and took f and J in stacked calls,
and the scalar J before it was the stack at one point; kept as the test
reference.

``simulate_nonlinear`` here integrates one grid interval at a time and
calls the scalar f and J at every sample, testing J for M+ until the first
failure. ``eventual_monotonicity`` runs it twice and then, at every
(samples // 25)-th sample, evaluates J point by point at the R_GRID
points r a + (1 - r) b and the Gauss-Legendre average of J, testing each
for M+ as it goes. ``line_integral_jacobian`` is the point by point sum.
``jac`` is the scalar J: the compiled analytic J, or central differences
over the compiled scalar f, one perturbed state at a time.
"""

import numpy as np

from tpds.errors import AssumptionViolated, LeftDomain, NoMonotoneTail, TrivialSolution
from tpds.integrate import Trajectory, _checked_count, _checked_grid, _checked_state, _checked_step, _rk4_span
from tpds.nonlinear import R_GRID, NonlinearRun, _central_differences, _gauss_legendre
from tpds.systems import in_M_plus


def jac(sys, t, x):
    if sys._jac is not None:
        return sys._jac(t, x)
    f = lambda ts, xs: np.array([sys._f(s, y) for s, y in zip(ts.tolist(), xs.tolist())])
    return _central_differences(f, [t], np.array(x, dtype=float)[None])[0]


def simulate_nonlinear(sys, x0, grid, step=None):
    grid = _checked_grid(grid)
    x0 = _checked_state(x0, sys.n, "x0")
    step = _checked_step(step, grid[0], grid[-1])
    if not sys.in_box(x0):
        raise LeftDomain("initial condition outside the domain box", grid[0])
    xs = [x0]
    zs = [sys.f(grid[0], x0)]
    jac_ok = in_M_plus(sys.jac(grid[0], x0))
    x = x0
    for t0, t1 in zip(grid, grid[1:]):
        x = _rk4_span(sys.stepper, x, t0, t1, step)
        if not sys.in_box(x):
            raise LeftDomain("trajectory left the domain box", float(t1))
        xs.append(x)
        zs.append(sys.f(t1, x))
        jac_ok = jac_ok and in_M_plus(sys.jac(t1, x))
    return NonlinearRun(Trajectory(grid, np.array(xs)), Trajectory(grid, np.array(zs)), jac_ok)


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
