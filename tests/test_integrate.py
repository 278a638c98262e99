"""Tests for transition-matrix integration and sign-variation tracking."""

import numpy as np
import pytest

from tpds import (
    TimeVaryingSystem,
    Trajectory,
    classify,
    compound_transition,
    shipped,
    simulate_linear,
    tn_weak_svdp_check,
    transition_matrix,
)
from tpds.errors import (
    MonotonicityViolation,
    NoApplicablePair,
    OutOfInterval,
    TrivialSolution,
)
from tpds.integrate import default_step


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
