"""The per-step RK4 loop that integrated linear flows before the batched
propagators of ``tpds.integrate``; kept as the test reference.

``rk4_steps(f)`` is the generic stepper for y' = f(t, y), y any numpy
array, for ``tpds.integrate._rk4_span``. The linear references below cut
[t0, t1] at segment boundaries span by span and take each span by that
stepper, with A evaluated four times per step.
"""

import math

import numpy as np

from tpds.integrate import _checked_grid, _checked_step, _rk4_span


def rk4_steps(f):
    """The generic RK4 stepper for y' = f(t, y)."""

    def advance(y, t, h, nsteps):
        for _ in range(nsteps):
            k1 = f(t, y)
            k2 = f(t + h / 2, y + (h / 2) * k1)
            k3 = f(t + h / 2, y + (h / 2) * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return y

    return advance


def boundaries_between(sys, t0, t1):
    """Interior segment boundaries in (t0, t1), for exact integrator landing."""
    return [seg.t_end for seg in sys.segments[:-1] if t0 + 1e-14 < seg.t_end < t1 - 1e-14]


def spans(sys, t0, t1):
    """Split [t0, t1] at interior segment boundaries, tagged by segment index."""
    cuts = [t0] + boundaries_between(sys, t0, t1) + [t1]
    return [(lo, hi, sys.segment_index(0.5 * (lo + hi))) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 0]


def integrate_piecewise(sys, y0, t0, t1, step, matfun):
    """y' = matfun(t, seg) @ y over [t0, t1], span by span."""
    y = y0
    for lo, hi, seg in spans(sys, t0, t1):
        y = _rk4_span(rk4_steps(lambda t, v, seg=seg: matfun(t, seg) @ v), y, lo, hi, step)
    return y


def segment_matrix(sys):
    return lambda t, seg: sys.segments[seg].matrix_at(t)


def transition(sys, t0, t, step=None):
    step = _checked_step(None, *sys.interval) if step is None else step
    return integrate_piecewise(sys, np.eye(sys.n), t0, t, step, segment_matrix(sys))


def states(sys, z0, grid, step=None):
    """The states of simulate_linear, one grid interval after another."""
    step = _checked_step(None, *sys.interval) if step is None else step
    grid = _checked_grid(grid, sys.interval)
    out = [np.asarray(z0, dtype=float)]
    for lo, hi in zip(grid, grid[1:]):
        out.append(integrate_piecewise(sys, out[-1], lo, hi, step, segment_matrix(sys)))
    return np.array(out)


def states_of_matrix_flow(sys, grid, step=None):
    """Phi(t_k, t_0) at every grid point, by states from the identity."""
    return states(sys, np.eye(sys.n), grid, step)


def transition_long_double(sys, t0, t, step=None):
    """Phi(t, t0) by the same RK4 loop in long double, over one segment,
    with the stage times lo + k h / 2 of ``tpds.integrate`` (times by
    repeated addition, as ``rk4_steps`` takes them, differ by ulps and move
    Phi by more than the rounding this reference measures)."""
    step = _checked_step(None, *sys.interval) if step is None else step
    (seg,) = {sys.segment_index(0.5 * (t0 + t))}
    nsteps = max(1, math.ceil((t - t0) / step - 1e-12))
    h = (t - t0) / nsteps
    ld = np.longdouble
    A = sys.segments[seg].matrix_at(t0 + (h / 2) * np.arange(2 * nsteps + 1)).astype(ld)
    hl = ld(h)
    y = np.eye(sys.n, dtype=ld)
    for k in range(nsteps):
        A0, Am, A1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
        k1 = A0 @ y
        k2 = Am @ (y + (hl / 2) * k1)
        k3 = Am @ (y + (hl / 2) * k2)
        k4 = A1 @ (y + hl * k3)
        y = y + (hl / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y
