"""Tests for transition-matrix integration and sign-variation tracking."""

import numpy as np
import pytest

import signvar_reference as ref
from tpds import (
    Segment,
    TimeVaryingSystem,
    Trajectory,
    add_compound,
    classify,
    compound_transition,
    exprlang,
    floquet,
    in_V,
    integrate,
    random_tpds_system,
    shipped,
    shipped_names,
    simulate_linear,
    tn_weak_svdp_check,
    transition_matrix,
)
from tpds.errors import (
    IntegrationSuspect,
    MonotonicityViolation,
    NoApplicablePair,
    NonFiniteInput,
    OutOfInterval,
    TrivialSolution,
)
from tpds.integrate import CLUSTER_GAP, TRAJ_ZERO_REL_TOL, _rk4_span, _spans, default_step


def cosh_exact(t0, t):
    a = (t * t - t0 * t0) / 2
    return np.array([[np.cosh(a), np.sinh(a)], [np.sinh(a), np.cosh(a)]])


def test_cosh_closed_form():
    sys = shipped("cosh2").system
    for t0, t in [(0.0, 1.0), (0.5, 1.5), (0.0, 2.0), (1.0, 1.0)]:
        rec = transition_matrix(sys, t0, t)
        assert np.allclose(rec.phi, cosh_exact(t0, t), atol=1e-6)
        assert rec.det_phi == pytest.approx(1.0, abs=1e-8)
        assert not rec.suspect


def test_nilpotent_closed_form():
    from tpds import Segment, exprlang

    e = exprlang.parse("t")
    sys = TimeVaryingSystem(2, (0.0, 2.0), [Segment(0.0, 2.0, [[0.0, e], [0.0, 0.0]])])
    rec = transition_matrix(sys, 0.5, 1.5)
    exact = np.array([[1.0, (1.5**2 - 0.5**2) / 2], [0.0, 1.0]])
    assert np.allclose(rec.phi, exact, atol=1e-9)


def test_rk4_fourth_order_convergence():
    sys = shipped("cosh2").system
    errs = []
    for step in (0.02, 0.01):
        phi = transition_matrix(sys, 0.0, 1.0, step=step).phi
        errs.append(np.abs(phi - cosh_exact(0.0, 1.0)).max())
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)


def test_out_of_interval():
    sys = shipped("cosh2").system
    with pytest.raises(OutOfInterval):
        transition_matrix(sys, -0.5, 1.0)
    with pytest.raises(OutOfInterval):
        transition_matrix(sys, 1.0, 0.5)
    with pytest.raises(OutOfInterval):
        transition_matrix(sys, 0.0, 3.0)


def test_determinant_suspect_flag_on_coarse_step():
    sys = shipped("cosh2").system
    rec = transition_matrix(sys, 0.0, 2.0, step=0.5)
    assert rec.suspect  # det drifts well past 1e-6 at this resolution
    assert transition_matrix(sys, 0.0, 2.0).suspect is False


def test_default_step_scales_with_interval():
    sys = shipped("cosh2").system
    assert default_step(sys) == pytest.approx(2e-3)


def test_trivial_solution_rejected():
    sys = shipped("cosh2").system
    with pytest.raises(TrivialSolution):
        simulate_linear(sys, [0.0, 0.0], np.linspace(0, 1, 10))


def test_switched_sigma_monotone_and_step_independent():
    spec = shipped("switched")
    grid = np.linspace(0.0, 1.0, 500)
    runs = {}
    for step in (1e-3, 5e-4):
        traj = simulate_linear(spec.system, spec.experiment["z0"], grid, step=step, tpds=True)
        assert traj.sigma_minus[0] == 3
        diffs = np.diff(traj.sigma_plus)
        assert np.all(diffs <= 0)
        runs[step] = traj.sigma_minus
    assert runs[1e-3] == runs[5e-4]


def test_monotonicity_violation_on_rotation():
    # rotation is not TNDS: sign counts oscillate, which the TPDS contract
    # must flag
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys = TimeVaryingSystem.constant(A, (0.0, 10.0))
    with pytest.raises(MonotonicityViolation):
        simulate_linear(sys, [1.0, 0.5], np.linspace(0, 10, 400), tpds=True)


def test_transition_matrix_tp_for_tpds_system():
    spec = shipped("schwarz3")
    for t in np.linspace(0.5, 4.0, 5):
        phi = transition_matrix(spec.system, 0.0, float(t), step=2e-3).phi
        assert classify(phi).is_TP


def test_compound_transition_routes_agree():
    sys = shipped("cosh2").system
    Y = compound_transition(sys, 2, 0.0, 1.0)
    assert Y.shape == (1, 1)
    assert Y[0, 0] == pytest.approx(1.0, abs=1e-8)

    sw = shipped("switched").system
    Y2 = compound_transition(sw, 2, 0.0, 1.0)  # cross-asserts internally
    assert Y2.shape == (6, 6)

    # p = 1 reduces to the plain transition matrix
    Y1 = compound_transition(sw, 1, 0.0, 0.5)
    assert np.allclose(Y1, transition_matrix(sw, 0.0, 0.5).phi, atol=1e-9)


def test_weak_svdp_drop_from_sampled_zero():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = TimeVaryingSystem.constant(A, (0.0, 1.0))
    traj = simulate_linear(sys, [0.0, 1.0], np.linspace(0, 1, 50))
    assert traj.sigma_plus[0] == 1 and traj.sigma_plus[-1] == 0
    assert tn_weak_svdp_check(traj)


def test_weak_svdp_no_applicable_pair():
    spec = shipped("schwarz3")
    grid = np.linspace(0.0, 4 * np.pi, 300)
    traj = simulate_linear(spec.system, [3.0, 0.0, -1.0], grid, step=5e-3)
    with pytest.raises(NoApplicablePair):
        tn_weak_svdp_check(traj)  # z1 = 2 + cos(t) never vanishes


def test_trajectory_csv_round_trip(tmp_path):
    spec = shipped("switched")
    grid = np.linspace(0.0, 1.0, 50)
    traj = simulate_linear(spec.system, spec.experiment["z0"], grid)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,z1,z2,z3,z4,s_minus,s_plus,in_V"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert [float(v) for v in first[1:5]] == [-1.0, 5.0, -13.0, 17.0]
    assert first[5:] == ["3", "3", "1"]


def test_trajectory_from_states():
    # [1, 0] and [0, 1] lie off V; samples 1, 2 and 4 are under CLUSTER_GAP
    # apart and form one cluster, sample 7 starts the next
    states = np.array([[1, 1], [1, 0], [1, 0], [1, 1], [0, 1], [1, 1], [1, -1], [1, 0]], dtype=float)
    traj = Trajectory(np.arange(8.0), states)
    assert traj.sigma_minus == [0, 0, 0, 0, 0, 0, 1, 0]
    assert traj.sigma_plus == [0, 1, 1, 0, 1, 0, 1, 1]
    assert traj.in_V_flags == [True, False, False, True, False, True, True, False]
    assert traj.exceptional_times == [1.0, 7.0]
    assert traj.zero_tols == [1e-8] * 8


def integrate_unmemoised(sys, y0, t0, t1, step, matfun):
    """_integrate_piecewise with four coefficient evaluations per RK4 step."""
    y = y0
    for lo, hi, seg in _spans(sys, t0, t1):
        y = _rk4_span(lambda t, v, seg=seg: matfun(t, seg) @ v, y, lo, hi, step)
    return y


def linear_systems():
    shipped_linear = [shipped(name) for name in shipped_names()]
    systems = [spec.system for spec in shipped_linear if spec.kind == "linear"]
    return systems + [random_tpds_system(n, rng=n) for n in range(2, 7)]


def test_memoised_integration_matches_unmemoised():
    for sys in linear_systems():
        a, b = sys.interval
        step = default_step(sys)
        A = lambda t, seg: sys.segments[seg].matrix_at(t)
        C = lambda t, seg: add_compound(sys.segments[seg].matrix_at(t), 2).entries
        z0 = np.arange(1.0, sys.n + 1) * (-1.0) ** np.arange(sys.n)
        cases = [
            (np.eye(sys.n), a, b, A),
            (z0, a + 0.3 * (b - a), a + 0.7 * (b - a), A),
            (np.eye(len(add_compound(np.eye(sys.n), 2).index_map)), a, a + 0.2 * (b - a), C),
        ]
        for y0, t0, t1, matfun in cases:
            got = integrate._integrate_piecewise(sys, y0, t0, t1, step, matfun)
            want = integrate_unmemoised(sys, y0, t0, t1, step, matfun)
            assert got.tobytes() == want.tobytes(), sys.name


def trajectory_reference(times, states):
    """The per-sample loop Trajectory replaced: running tolerance, s_minus and
    s_plus of each sample (from the reference counts), the V flag of in_V (a
    nonzero first entry and s_minus == s_plus), exceptional clusters."""
    zero_tols, sm, sp, flags, clusters = [], [], [], [], []
    running, last_bad = 0.0, None
    for k, z in enumerate(states):
        running = max(running, float(np.max(np.abs(z))))
        tol = TRAJ_ZERO_REL_TOL * running
        zero_tols.append(tol)
        counts = ref.counts(z, tol)
        sm.append(counts[0])
        sp.append(counts[1])
        flags.append(abs(z[0]) > tol and sm[-1] == sp[-1])
        if not flags[-1]:
            if last_bad is None or k - last_bad >= CLUSTER_GAP:
                clusters.append(times[k])
            last_bad = k
    return zero_tols, sm, sp, flags, clusters


def test_trajectory_matches_per_sample_reference():
    rng = np.random.default_rng(11)
    runs = []
    for sys in linear_systems()[:4]:
        grid = np.linspace(*sys.interval, 120)
        z0 = np.ones(sys.n) * (-1.0) ** np.arange(sys.n)
        runs.append(simulate_linear(sys, z0, grid, step=default_step(sys) * 4))
    for n in (5, 5, 5, 5, 5, 1, 1):
        states = rng.choice([-2.0, -1e-9, -0.0, 0.0, 1e-12, 3.0], size=(60, n))
        runs.append(Trajectory(np.linspace(0.0, 1.0, 60), states * rng.uniform(0.5, 2.0, (60, 1))))
    for traj in runs:
        want = trajectory_reference(traj.times, traj.states)
        got = (traj.zero_tols, traj.sigma_minus, traj.sigma_plus, traj.in_V_flags, traj.exceptional_times)
        assert [float(v).hex() for v in got[0]] == [float(v).hex() for v in want[0]]
        assert got[1:] == want[1:]
        assert all(type(v) is int for v in got[1] + got[2])


def test_trajectory_one_coordinate_zero_state_is_not_in_V():
    # s_minus == s_plus == 0 for a single zero entry, yet in_V([0.0]) is False
    traj = Trajectory(np.arange(2.0), np.array([[0.0], [1.0]]))
    assert traj.in_V_flags == [False, True]
    assert traj.exceptional_times == [0.0]
    assert [in_V(z) for z in traj.states] == traj.in_V_flags


@pytest.mark.parametrize("grid", [[0.0, 1.5], [0.5, 0.2], [-1e-9, 0.5], [0.0, np.nan]])
def test_simulate_linear_grid_outside_interval_or_decreasing_raises(grid):
    sys = TimeVaryingSystem.constant([[-1.0, 1.0], [1.0, -1.0]], (0.0, 1.0))
    with pytest.raises(OutOfInterval):
        simulate_linear(sys, [1.0, 0.0], grid)
    # transition_matrix draws the same line
    with pytest.raises(OutOfInterval):
        transition_matrix(sys, grid[0], grid[-1])


def test_simulate_linear_grid_within_slack_and_repeated_points():
    sys = TimeVaryingSystem.constant([[-1.0, 1.0], [1.0, -1.0]], (0.0, 1.0))
    traj = simulate_linear(sys, [1.0, 0.0], [-1e-13, 0.5, 0.5, 1.0 + 1e-13])
    assert np.array_equal(traj.states[1], traj.states[2])


def test_trajectory_non_finite_row_raises():
    states = np.array([[1.0, 2.0], [np.inf, 1.0], [np.nan, 0.0]])
    with pytest.raises(NonFiniteInput, match=r"vector \[inf, 1.0\] has a non-finite entry"):
        Trajectory(np.arange(3.0), states)


def test_one_coefficient_evaluation_per_stage_time(monkeypatch):
    """RK4 evaluates A(t) at t, t + h/2 and t + h only, and t + h is the next
    step's t: a one-segment run of N steps makes 2 N + 1 evaluations."""
    sys = random_tpds_system(3, rng=0)
    nsteps, T = 100, np.pi / 2
    count = {"in_rk4": False, "A": 0, "compound": 0}
    rk4, matrix_at = integrate._rk4_span, Segment.matrix_at

    def counting_rk4(*args):
        count["in_rk4"] = True
        try:
            return rk4(*args)
        finally:
            count["in_rk4"] = False

    def counting_matrix_at(self, t):
        count["A"] += count["in_rk4"]
        return matrix_at(self, t)

    def counting_add_compound(A, p):
        count["compound"] += 1
        return add_compound(A, p)

    monkeypatch.setattr(integrate, "_rk4_span", counting_rk4)
    monkeypatch.setattr(Segment, "matrix_at", counting_matrix_at)
    monkeypatch.setattr(integrate, "add_compound", counting_add_compound)
    transition_matrix(sys, 0.0, T, step=T / nsteps)
    assert count["A"] == 2 * nsteps + 1
    compound_transition(sys, 2, 0.0, T, step=T / nsteps)
    assert count["compound"] == 2 * nsteps + 1


STIFF = [[-1000.0, 1.0], [1.0, -1000.0]]
OVERFLOW = Segment(0.0, 1.0, [[-1.0, exprlang.parse("t * 1e308 * 10")], [1.0, -1.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: transition_matrix(TimeVaryingSystem.constant(STIFF, (0.0, 10.0)), 0.0, 10.0),
        lambda: transition_matrix(TimeVaryingSystem(2, (0.0, 1.0), [OVERFLOW]), 0.0, 1.0),
        lambda: floquet(TimeVaryingSystem.constant(STIFF, (0.0, 10.0), period=10.0)),
        lambda: compound_transition(TimeVaryingSystem.constant(STIFF, (0.0, 10.0)), 1, 0.0, 10.0),
    ],
    ids=["stiff", "overflowing_entry", "floquet", "compound_transition"],
)
def test_non_finite_transition_matrix_is_suspect(call):
    with np.errstate(all="ignore"), pytest.raises(IntegrationSuspect, match="non-finite"):
        call()


def test_stiff_simulation_is_suspect():
    # finite inputs whose integration overflows at the default step
    sys = TimeVaryingSystem.constant(STIFF, (0.0, 10.0))
    grid = np.linspace(0.0, 10.0, 50)
    with np.errstate(all="ignore"), pytest.raises(IntegrationSuspect, match="non-finite"):
        simulate_linear(sys, [1.0, -1.0], grid)
    with pytest.raises(NonFiniteInput, match="z0"):
        simulate_linear(sys, [np.nan, 1.0], grid)
