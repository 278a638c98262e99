"""Tests for nonlinear simulation, monotonicity and period detection."""

import dataclasses
from sys import maxsize

import numpy as np
import pytest

from tpds import (
    NonlinearSystem,
    TimeVaryingSystem,
    eventual_monotonicity,
    exprlang,
    poincare_analysis,
    shipped,
    simulate_nonlinear,
    transition_matrix,
)
from tpds.errors import (
    AssumptionViolated,
    DimensionMismatch,
    InvalidArgument,
    LeftDomain,
    NoConvergence,
    NotPeriodic,
    OutOfInterval,
    TrivialSolution,
)


def gamma(t):
    return np.array([np.cos(t), np.sin(t), -np.cos(t), -np.sin(t)])


@pytest.fixture(scope="module")
def takac():
    return shipped("takac").system


@pytest.fixture(scope="module")
def demo():
    return shipped("entrain_demo").system


def test_exact_solution_residual(takac):
    worst = 0.0
    for t in np.linspace(0.0, 4 * np.pi, 1000):
        g = gamma(t)
        gdot = np.array([-np.sin(t), np.cos(t), np.sin(t), -np.cos(t)])
        worst = max(worst, np.abs(gdot - takac.f(t, g)).max())
    assert worst <= 1e-10


def test_trajectory_follows_exact_solution(takac):
    grid = np.linspace(0.0, 4 * np.pi, 400)
    run = simulate_nonlinear(takac, gamma(0.0), grid)
    exact = np.stack([gamma(t) for t in grid])
    assert np.abs(run.state.states - exact).max() <= 1e-6
    # feedback from x4 to x1 keeps the Jacobian outside the tridiagonal class
    assert not run.jacobian_in_M_plus


def test_finite_difference_jacobian_matches_analytic(takac):
    fd_sys = NonlinearSystem(
        n=4, rhs=takac.rhs, input=takac.input, period=takac.period,
        domain_box=takac.domain_box,
    )
    assert fd_sys.uses_finite_difference_jacobian
    rng = np.random.default_rng(1)
    for _ in range(5):
        t = rng.uniform(0, 3)
        x = rng.uniform(-1, 1, 4)
        assert np.allclose(fd_sys.jac(t, x), takac.jac(t, x), atol=1e-7)


def test_zero_rhs_constant_trajectory():
    sys = NonlinearSystem(n=2, rhs=[exprlang.parse("0"), exprlang.parse("0")])
    grid = np.linspace(0.0, 1.0, 20)
    run = simulate_nonlinear(sys, [0.3, -0.7], grid)
    assert np.allclose(run.state.states, [0.3, -0.7])


def test_left_domain_reported_with_time():
    sys = NonlinearSystem(
        n=2, rhs=[exprlang.parse("1"), exprlang.parse("0")],
        domain_box=[(0.0, 1.0), (-1.0, 1.0)],
    )
    with pytest.raises(LeftDomain) as err:
        simulate_nonlinear(sys, [0.9, 0.0], np.linspace(0.0, 1.0, 50))
    assert err.value.time is not None and err.value.time < 0.5
    with pytest.raises(LeftDomain):
        simulate_nonlinear(sys, [2.0, 0.0], np.linspace(0.0, 1.0, 50))


@pytest.mark.parametrize("grid", [[], [0.0, np.nan], [0.5, 0.2], [0.0, np.inf]])
def test_simulate_nonlinear_grid_rule(grid):
    # the same rule as simulate_linear's, without an interval; [0.5, 0.2]
    # used to return x0 as the state at t = 0.2
    sys = NonlinearSystem(2, [exprlang.parse("-x1"), exprlang.parse("-x2")])
    with pytest.raises(OutOfInterval, match="nonempty, finite, nondecreasing"):
        simulate_nonlinear(sys, [1.0, 2.0], grid)
    assert simulate_nonlinear(sys, [1.0, 2.0], [0.2, 0.2, 0.5]).state.states.shape == (3, 2)


@pytest.mark.parametrize(
    "x0",
    [[0.1], [0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]], 0.1],
    ids=["one", "two", "four", "nested", "scalar"],
)
def test_wrong_length_initial_state_raises_dimension_mismatch(demo, x0):
    # checked before any integration: it used to leak an IndexError from f
    with pytest.raises(DimensionMismatch, match="x0 must hold 3 entries"):
        simulate_nonlinear(demo, x0, [0.0, 1.0])
    with pytest.raises(DimensionMismatch, match="x0 must hold 3 entries"):
        poincare_analysis(demo, x0)


def test_autonomous_sigma_of_derivative_non_increasing():
    # z = dx/dt satisfies the variational equation only without explicit
    # time dependence, so use a constant bias instead of periodic forcing
    sys = NonlinearSystem(
        n=3,
        rhs=[
            exprlang.parse("-x1 + 0.5*tanh(x2) + 0.3"),
            exprlang.parse("-x2 + 0.5*tanh(x1) + 0.5*tanh(x3)"),
            exprlang.parse("-x3 + 0.5*tanh(x2)"),
        ],
    )
    grid = np.linspace(0.0, 10.0, 400)
    run = simulate_nonlinear(sys, [0.5, -0.5, 1.0], grid)
    assert run.jacobian_in_M_plus
    sp = run.derivative.sigma_plus
    assert all(b <= a for a, b in zip(sp, sp[1:]))


def test_eventual_monotonicity_demo(demo):
    s, sign = eventual_monotonicity(demo, [0.5, -0.5, 1.0], [0.4, -0.5, 1.0], horizon=20.0)
    assert sign in (-1, 1)
    assert 0.0 <= s < 20.0


def test_eventual_monotonicity_requires_distinct_starts(demo):
    with pytest.raises(TrivialSolution):
        eventual_monotonicity(demo, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], horizon=1.0)


def test_eventual_monotonicity_rejects_takac(takac):
    with pytest.raises(AssumptionViolated):
        eventual_monotonicity(
            takac, [1.0, 0.0, -1.0, 0.0], [1.0, 0.001, -1.0, 0.0], horizon=2.0
        )


def test_takac_entrains_to_double_period(takac):
    res = poincare_analysis(takac, [1.001, 0.0, -1.0, 0.0])
    assert res.detected_period == 2


def test_takac_not_single_period(takac):
    with pytest.raises(NoConvergence):
        poincare_analysis(takac, [1.001, 0.0, -1.0, 0.0], max_iters=40, q_max=1)


def test_demo_entrains(demo):
    res = poincare_analysis(demo, [0.5, -0.5, 1.0])
    assert res.detected_period == 1
    assert res.residuals[-1] < 1e-6
    # 12 periods of about 118 error-controlled steps each; the counts are
    # diagnostics, outside the result's equality
    assert (res.accepted_steps, res.rejected_steps) == (1411, 0)
    assert res == dataclasses.replace(res, accepted_steps=0, rejected_steps=1)
    run = simulate_nonlinear(demo, [0.5, -0.5, 1.0], np.linspace(0.0, 1.0, 3), step=0.1)
    assert (run.accepted_steps, run.rejected_steps) == (10, 0)


def test_poincare_at_equilibrium():
    # autonomous contraction with fixed point 0: the period map is the
    # identity there
    sys = NonlinearSystem(
        n=2, rhs=[exprlang.parse("-x1"), exprlang.parse("-x2")], period=1.0
    )
    res = poincare_analysis(sys, [0.0, 0.0])
    assert res.detected_period == 1
    assert max(res.residuals) == pytest.approx(0.0, abs=1e-12)


def test_poincare_reads_its_iterate_times_lazily(demo):
    # an array of kT for k = 0..maxsize would raise MemoryError
    res = poincare_analysis(demo, [0.5, -0.5, 1.0], max_iters=maxsize)
    assert res.detected_period == 1


def test_poincare_box_exit_is_reported_at_its_iterate_time():
    # x1 = t leaves [0, 2] at the third iterate, t = 3 T = 2.1
    sys = NonlinearSystem(n=1, rhs=[exprlang.parse("1")], period=0.7, domain_box=[(0.0, 2.0)])
    with pytest.raises(LeftDomain) as err:
        poincare_analysis(sys, [0.0])
    assert str(err.value) == "trajectory left the domain box"
    assert err.value.time == (2 + 1) * 0.7
    with pytest.raises(NoConvergence):
        poincare_analysis(sys, [0.0], max_iters=2)
    with pytest.raises(LeftDomain) as err:
        poincare_analysis(sys, [2.5])
    assert str(err.value) == "initial condition outside the domain box"
    assert err.value.time == 0.0


def test_poincare_requires_period():
    sys = NonlinearSystem(n=1, rhs=[exprlang.parse("-x1")])
    with pytest.raises(NotPeriodic):
        poincare_analysis(sys, [0.5])


def test_default_step_that_underflows_is_named():
    # the default 1e-3 of a 5e-324 span is 0.0, and the error used to read
    # as if the caller had passed step 0.0. A linear flow still has that
    # default; a nonlinear run without a step is error-controlled, and
    # lands on each time whatever its span.
    message = "the default step, 1e-3 x the span 5e-324, underflows to 0; pass a step"
    tiny = TimeVaryingSystem.constant([[-1.0]], interval=(0.0, 5e-324))
    with pytest.raises(InvalidArgument) as err:
        transition_matrix(tiny, 0.0, 5e-324)
    assert str(err.value) == message
    sys = NonlinearSystem(n=1, rhs=[exprlang.parse("-x1")], period=5e-324)
    assert poincare_analysis(sys, [0.5]).detected_period == 1
    assert simulate_nonlinear(sys, [0.5], [0.0, 5e-324]).state.states.tolist() == [[0.5], [0.5]]
    with pytest.raises(InvalidArgument) as err:
        poincare_analysis(sys, [0.5], step=0.0)
    assert str(err.value) == "step must be a positive finite number, got 0.0"
    # an empty span needs no step, default or not
    assert simulate_nonlinear(sys, [0.5], [0.0, 0.0]).state.states.shape == (2, 1)
