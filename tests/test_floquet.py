"""Tests for monodromy analysis of periodic systems."""

import dataclasses
import importlib

import numpy as np
import pytest

from floquet_reference import floquet_long_double
from tpds import (
    TimeVaryingSystem,
    Trajectory,
    floquet,
    floquet_mode_evolution,
    random_tpds_system,
    shipped,
    transition_matrix,
)
from tpds.errors import BandViolation, FloquetViolation, LeadingCoefficientZero, NotPeriodic

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def sinusoidal():
    spec = shipped("sinusoidal2")
    fd = floquet(spec.system, step=5e-4 * spec.system.period)
    return spec.system, fd


def test_sinusoidal_multipliers(sinusoidal):
    _, fd = sinusoidal
    assert fd.multipliers[0] == pytest.approx(np.exp(TWO_PI), rel=1e-5)
    assert fd.multipliers[1] == pytest.approx(np.exp(-TWO_PI), rel=1e-5)
    assert fd.sign_counts == [0, 1]


def test_sinusoidal_monodromy_entries(sinusoidal):
    _, fd = sinusoidal
    exact = np.array(
        [[np.cosh(TWO_PI), np.sinh(TWO_PI)], [np.sinh(TWO_PI), np.cosh(TWO_PI)]]
    )
    assert np.allclose(fd.monodromy, exact, rtol=1e-5)


def test_sinusoidal_eigvecs(sinusoidal):
    _, fd = sinusoidal
    r = 1 / np.sqrt(2)
    assert np.allclose(fd.eigvecs[:, 0], [r, r], atol=1e-6)
    # second eigenvector spans (-1, 1); normalization makes the first
    # nonzero entry positive
    assert np.allclose(fd.eigvecs[:, 1], [r, -r], atol=1e-6)


def test_constant_system_multipliers_match_eigenvalues():
    A = np.array([[-1.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -1.0]])
    T = 1.5
    sys = TimeVaryingSystem.constant(A, (0.0, 3.0), period=T)
    fd = floquet(sys, step=1e-4)
    lams = np.sort(np.linalg.eigvals(A).real)[::-1]
    assert np.allclose(fd.multipliers, np.exp(lams * T), rtol=1e-6)


def test_scalar_system():
    sys = TimeVaryingSystem.constant(np.array([[1.0]]), (0.0, 2.0), period=1.0)
    fd = floquet(sys)
    assert fd.multipliers[0] == pytest.approx(np.e, rel=1e-8)
    assert fd.sign_counts == [0]


def test_not_periodic():
    sys = shipped("cosh2").system
    with pytest.raises(NotPeriodic):
        floquet(sys)


def test_floquet_violation_on_rotation():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys = TimeVaryingSystem.constant(A, (0.0, 1.0), period=1.0)
    with pytest.raises(FloquetViolation):
        floquet(sys)


def test_monodromy_consistency(sinusoidal):
    sys, fd = sinusoidal
    T = fd.period
    for t in np.linspace(0.3 * T, 2.0 * T, 5):
        lhs = transition_matrix(sys, 0.0, float(t) + T, step=5e-4 * T).phi
        rhs = transition_matrix(sys, 0.0, float(t), step=5e-4 * T).phi @ fd.monodromy
        assert np.allclose(lhs, rhs, rtol=1e-5)


def test_mode_evolution_pure_modes(sinusoidal):
    sys, fd = sinusoidal
    traj1 = floquet_mode_evolution(sys, fd, {1: 1.0}, horizon=5 * fd.period)
    assert set(traj1.sigma_minus) == {0}
    # the pure decaying mode can only be tracked while it still dominates
    # the roundoff-injected growing mode, so keep the horizon short
    traj2 = floquet_mode_evolution(
        sys, fd, {2: 1.0}, horizon=1.5 * fd.period, step=5e-4 * fd.period
    )
    assert set(traj2.sigma_minus) == {1}


@pytest.mark.parametrize("periods", range(1, 11))
def test_mode_evolution_samples_each_period_and_the_endpoint(sinusoidal, periods):
    """SAMPLES_PER_PERIOD intervals of T / 200 per period and the endpoint:
    200 k + 1 samples over k periods, where int() truncated
    200 * 10 T / T = 1999.9999999999998 to 1,999 samples and 5 T to 999."""
    sys, fd = sinusoidal
    traj = floquet_mode_evolution(sys, fd, {1: 1.0}, horizon=periods * fd.period)
    assert len(traj.times) == 200 * periods + 1
    assert np.allclose(np.diff(traj.times), fd.period / 200, rtol=1e-12, atol=0)


def test_mode_evolution_mixed(sinusoidal):
    sys, fd = sinusoidal
    traj = floquet_mode_evolution(sys, fd, [1.0, 10.0], horizon=10 * fd.period)
    assert traj.sigma_minus[0] == 1
    assert traj.sigma_minus[-1] == 0


def test_mode_evolution_rejects_zero_coefficients(sinusoidal):
    sys, fd = sinusoidal
    with pytest.raises(LeadingCoefficientZero):
        floquet_mode_evolution(sys, fd, {}, horizon=fd.period)
    with pytest.raises(LeadingCoefficientZero):
        floquet_mode_evolution(sys, fd, [0.0, 0.0], horizon=fd.period)


def test_mode_evolution_outside_the_band_raises(sinusoidal):
    # the eigenvector columns swapped: "mode 1" is the one with a sign change
    sys, fd = sinusoidal
    swapped = dataclasses.replace(fd, eigvecs=fd.eigvecs[:, ::-1])
    with pytest.raises(BandViolation, match=r"sign count left the band \[0, 0\] at t=\[0\.0, "):
        floquet_mode_evolution(sys, swapped, {1: 1.0}, horizon=fd.period)


def test_mode_evolution_that_does_not_settle_raises(sinusoidal):
    # a dominant mode 1 of weight 1e-30 has not overtaken mode 2 within 2 periods
    sys, fd = sinusoidal
    with pytest.raises(BandViolation, match=r"^terminal sign count \{1\} != \{0\}$"):
        floquet_mode_evolution(sys, fd, {1: 1e-30, 2: 1.0}, horizon=2 * fd.period)


def test_random_periodic_tpds_invariants():
    rng = np.random.default_rng(21)
    for k in range(3):
        sys = random_tpds_system(3, rng)
        fd = floquet(sys)
        assert np.all(fd.multipliers > 0)
        assert np.all(np.diff(fd.multipliers) < 0)
        assert fd.sign_counts == [0, 1, 2]


def eigenvalue_conditions(B):
    """kappa_k = ||y_k|| ||x_k|| / |y_k^H x_k| of B's eigenvalues, largest
    real part first: the factor by which a perturbation of B moves each."""
    w, X = np.linalg.eig(B)
    Y = np.linalg.inv(X).conj().T
    order = np.argsort(-w.real)
    X, Y = X[:, order], Y[:, order]
    return np.linalg.norm(X, axis=0) * np.linalg.norm(Y, axis=0) / np.abs(np.sum(Y.conj() * X, axis=0))


@pytest.mark.parametrize(
    "sys",
    [shipped("schwarz3").system, shipped("sinusoidal2").system]
    + [random_tpds_system(n, rng=seed) for n in range(2, 7) for seed in range(16)],
    ids=lambda s: s.name or f"random{s.n}",
)
def test_the_double_monodromy_keeps_the_long_double_verdicts(sys):
    # floquet multiplies the propagators in double; the product in long
    # double, rounded once, is a few ulps away, so each multiplier moves
    # by at most its condition number times that, and no verdict moves
    try:
        want = floquet_long_double(sys)
    except FloquetViolation:
        with pytest.raises(FloquetViolation):
            floquet(sys)
        return
    got = floquet(sys)
    assert got.sign_counts == want.sign_counts
    bound = 64 * np.finfo(float).eps * np.linalg.norm(got.monodromy, 2) * eigenvalue_conditions(got.monodromy)
    assert np.all(np.abs(got.multipliers - want.multipliers) <= bound)


def constructed(monkeypatch, states_of):
    """Make floquet_mode_evolution read the trajectory of states_of(grid)
    in place of its run."""
    module = importlib.import_module("tpds.floquet")
    monkeypatch.setattr(module, "simulate_linear", lambda sys, z0, grid, **kw: Trajectory(grid, states_of(grid)))


def test_the_band_check_names_the_first_five_times_outside(sinusoidal, monkeypatch):
    # V samples with one sign change in the band [0, 0] of mode 1
    # (three entries, so that a sample outside V, [1, -1, 0] at 10, has a
    # count outside the band; it is not named)
    sys, fd = sinusoidal
    out = [3, 4, 40, 41, 42, 90, 150]

    def states_of(grid):
        states = np.ones((len(grid), 3))
        states[out, 1:] = -1.0
        states[10] = [1.0, -1.0, 0.0]
        return states

    constructed(monkeypatch, states_of)
    grid = np.linspace(0.0, fd.period, 201)
    traj = Trajectory(grid, states_of(grid))
    want = [float(t) for t, ok, sm in zip(grid, traj.in_V_flags, traj.sigma_minus) if ok and not 0 <= sm <= 0]
    assert want == grid[out].tolist()
    with pytest.raises(BandViolation) as err:
        floquet_mode_evolution(sys, fd, {1: 1.0}, horizon=fd.period)
    assert str(err.value) == f"sign count left the band [0, 0] at t={want[:5]}"


def test_the_cluster_check_counts_samples_outside_v(sinusoidal, monkeypatch):
    # a zero first entry is outside V; one cluster exceeds j - i = 0
    sys, fd = sinusoidal

    def states_of(grid):
        states = np.ones((len(grid), 2))
        states[[50, 51, 120], 0] = 0.0
        return states

    constructed(monkeypatch, states_of)
    with pytest.raises(BandViolation) as err:
        floquet_mode_evolution(sys, fd, {1: 1.0}, horizon=fd.period)
    assert str(err.value) == "2 exceptional clusters exceed j-i=0"


def test_the_tail_check_reads_the_v_samples_of_the_last_tenth(sinusoidal, monkeypatch):
    # modes 1 and 2, band [0, 1]: the counts of the last 10 % alternate 1, 0,
    # and a sample outside V there is not read
    sys, fd = sinusoidal

    def states_of(grid):
        states = np.ones((len(grid), 2))
        tail = np.flatnonzero(grid >= 0.9 * grid[-1])
        states[tail[::2], 1] = -1.0
        states[tail[1], 0] = 0.0
        return states

    constructed(monkeypatch, states_of)
    grid = np.linspace(0.0, 2 * fd.period, 401)
    traj = Trajectory(grid, states_of(grid))
    tail = grid >= 0.9 * grid[-1]
    want = {sm for sm, sel, ok in zip(traj.sigma_minus, tail, traj.in_V_flags) if sel and ok}
    assert want == {0, 1}
    with pytest.raises(BandViolation) as err:
        floquet_mode_evolution(sys, fd, {1: 1.0, 2: 1.0}, horizon=2 * fd.period)
    assert str(err.value) == f"terminal sign count {want} != {{0}}"


def test_the_tail_check_passes_over_samples_outside_v(sinusoidal, monkeypatch):
    # every V sample of the last 10 % counts 0; [1, -1, 0] there counts 1
    # but is outside V, so the run settles at 0
    sys, fd = sinusoidal

    def states_of(grid):
        states = np.ones((len(grid), 3))
        states[-5] = [1.0, -1.0, 0.0]
        return states

    constructed(monkeypatch, states_of)
    traj = floquet_mode_evolution(sys, fd, {1: 1.0, 2: 1.0}, horizon=2 * fd.period)
    assert traj.sigma_minus[-5] == 1 and not traj.in_V_flags[-5]
