"""Tests for transition-matrix integration and sign-variation tracking."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import integrate_reference
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
    DimensionMismatch,
    DomainError,
    IntegrationSuspect,
    MonotonicityViolation,
    NoApplicablePair,
    NonFiniteInput,
    OutOfInterval,
    TrivialSolution,
)
from tpds.integrate import CLUSTER_GAP, TRAJ_ZERO_REL_TOL, _checked_step
from tpds.systems import PERIOD_CHECK_TOL


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
    assert _checked_step(None, *sys.interval) == pytest.approx(2e-3)


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


def csv_writer_bytes(traj, path):
    """The trajectory CSV as csv.writer wrote it, with per-value f-strings."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"z{i + 1}" for i in range(traj.n)] + ["s_minus", "s_plus", "in_V"])
        for k, t in enumerate(traj.times):
            w.writerow(
                [f"{t:.10g}"]
                + [f"{v:.12g}" for v in traj.states[k]]
                + [traj.sigma_minus[k], traj.sigma_plus[k], int(traj.in_V_flags[k])]
            )
    return path.read_bytes()


@pytest.mark.parametrize("name", [n for n in shipped_names() if shipped(n).kind == "linear"])
def test_trajectory_csv_bytes_match_csv_writer(tmp_path, name):
    # to_csv formats each row with one %-format string; the bytes are those
    # csv.writer wrote from f-strings, at each spec's own experiment
    spec = shipped(name)
    a, b = spec.system.interval
    grid = np.linspace(a, b, spec.setting("grid", 1000))
    traj = simulate_linear(spec.system, spec.setting("z0"), grid)
    traj.to_csv(tmp_path / "fast.csv")
    assert (tmp_path / "fast.csv").read_bytes() == csv_writer_bytes(traj, tmp_path / "ref.csv")


def test_trajectory_csv_formats_extreme_values_as_csv_writer_did(tmp_path):
    states = np.array([[1e308, -5e-324, 0.0], [-0.0, 1.23456789012345e-300, 7.0]])
    traj = Trajectory(np.array([5e-324, 1e308]), states)
    traj.to_csv(tmp_path / "fast.csv")
    assert (tmp_path / "fast.csv").read_bytes() == csv_writer_bytes(traj, tmp_path / "ref.csv")


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


def linear_systems():
    shipped_linear = [shipped(name) for name in shipped_names()]
    systems = [spec.system for spec in shipped_linear if spec.kind == "linear"]
    return systems + [random_tpds_system(n, rng=n) for n in range(2, 7)]


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
        runs.append(simulate_linear(sys, z0, grid, step=_checked_step(None, *sys.interval) * 4))
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


@st.composite
def sampled_runs(draw):
    """(times, states) of up to 30 samples of n = 1..4 entries, with zeros,
    entries within the running zero tolerance and sign changes; the times a
    float array, a list of floats or a list of ints."""
    n = draw(st.integers(1, 4))
    entries = st.sampled_from([-2.0, -1.0, -1e-12, 0.0, 1e-12, 1.0, 3.0])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=30))
    k = len(rows)
    times = draw(st.sampled_from([0.5 * np.arange(k), [0.5 * i for i in range(k)], list(range(k))]))
    return times, np.array(rows, dtype=float).reshape(k, n)


RUN_EDGES = [
    ([0.0, 1.0, 2.0], np.ones((3, 2))),  # no non-V sample, and z1 never zero
    ([0, 1, 2, 3, 4], np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [0.0, -1.0]])),  # a zero run at the end
    (np.arange(4.0), np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0]])),  # the second pair fails
    (np.arange(5.0), np.array([[0.0], [1.0], [0.0], [0.0], [-1.0]])),  # n = 1
    (np.arange(0.0), np.empty((0, 3))),
]


def weak_outcome(call):
    try:
        return call()
    except (MonotonicityViolation, NoApplicablePair) as exc:  # type, message and pair are the outcome
        return type(exc).__name__, str(exc), getattr(exc, "times", None)


def with_edges(test):
    for times, states in RUN_EDGES:
        test = example(run=(times, states))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(run=sampled_runs())
@with_edges
def test_cluster_starts_match_the_sample_scan(run):
    # one array rule gives the scan's cluster starts, as times[k] of the
    # caller's own element type
    traj = Trajectory(*run)
    want = integrate_reference.exceptional_times(run[0], traj.in_V_flags)
    assert traj.exceptional_times == want
    assert [type(t) for t in traj.exceptional_times] == [type(t) for t in want]


@settings(max_examples=300, deadline=None)
@given(run=sampled_runs())
@with_edges
def test_weak_svdp_pairs_match_the_sample_scan(run):
    # the edges of one diff pair each zero run with the sample after it:
    # the same verdict, exception, message and first failing pair
    traj = Trajectory(*run)
    assert weak_outcome(lambda: tn_weak_svdp_check(traj)) == weak_outcome(
        lambda: integrate_reference.weak_svdp_reference(traj)
    )


def test_the_run_edges_reach_every_outcome():
    outcomes = [weak_outcome(lambda: tn_weak_svdp_check(Trajectory(*run))) for run in RUN_EDGES]
    assert outcomes == [
        ("NoApplicablePair", "first coordinate never returned from zero", None),
        True,
        ("MonotonicityViolation", "weak variation-diminishing drop failed", (2.0, 3.0)),
        ("MonotonicityViolation", "weak variation-diminishing drop failed", (0.0, 1.0)),  # s_plus is 0 at n = 1
        ("NoApplicablePair", "first coordinate never returned from zero", None),
    ]
    assert [Trajectory(*run).exceptional_times for run in RUN_EDGES] == [[], [1], [0.0], [0.0], []]


@pytest.mark.parametrize("grid", [[0.0, 1.5], [0.5, 0.2], [-1e-9, 0.5], [0.0, np.nan]])
def test_simulate_linear_grid_outside_interval_or_decreasing_raises(grid):
    sys = TimeVaryingSystem.constant([[-1.0, 1.0], [1.0, -1.0]], (0.0, 1.0))
    with pytest.raises(OutOfInterval):
        simulate_linear(sys, [1.0, 0.0], grid)
    # transition_matrix draws the same line
    with pytest.raises(OutOfInterval):
        transition_matrix(sys, grid[0], grid[-1])


@pytest.mark.parametrize("grid", [[], [np.nan], [0.0, np.inf], [[0.0, 0.5]]])
def test_simulate_linear_grid_empty_non_finite_or_not_a_sequence_raises(grid):
    sys = TimeVaryingSystem.constant([[-1.0, 1.0], [1.0, -1.0]], (0.0, 1.0))
    with pytest.raises(OutOfInterval, match="nonempty, finite, nondecreasing"):
        simulate_linear(sys, [1.0, 0.0], grid)


@pytest.mark.parametrize("z0", [[1.0], [1.0, 0.0, 2.0], [[1.0, 0.0]], 1.0], ids=["short", "long", "nested", "scalar"])
def test_simulate_linear_rejects_a_state_of_the_wrong_length(z0):
    sys = shipped("cosh2").system
    with pytest.raises(DimensionMismatch, match="z0 must hold 2 entries"):
        simulate_linear(sys, z0, [0.0, 1.0])


def test_simulate_linear_grid_within_slack_and_repeated_points():
    sys = TimeVaryingSystem.constant([[-1.0, 1.0], [1.0, -1.0]], (0.0, 1.0))
    traj = simulate_linear(sys, [1.0, 0.0], [-1e-13, 0.5, 0.5, 1.0 + 1e-13])
    assert np.array_equal(traj.states[1], traj.states[2])
    # transition_matrix takes the same slack; a strict a <= t0 <= t <= b
    # raised OutOfInterval on the span that simulate_linear integrated
    for t0, t in [(-1e-13, 1.0), (0.0, 1.0 + 1e-13), (-1e-13, 1.0 + 1e-13)]:
        phi = transition_matrix(sys, t0, t).phi
        assert np.allclose(phi @ [1.0, 0.0], traj.states[-1], rtol=1e-12, atol=0)


def test_trajectory_non_finite_row_raises():
    states = np.array([[1.0, 2.0], [np.inf, 1.0], [np.nan, 0.0]])
    with pytest.raises(NonFiniteInput, match=r"vector \[inf, 1.0\] has a non-finite entry"):
        Trajectory(np.arange(3.0), states)


def _count_coefficients(monkeypatch):
    """Record the times of every ``Segment.matrix_at`` call and the number
    of matrices whose additive compound ``_transitions`` takes."""
    calls, count = [], {"compound": 0}
    matrix_at = Segment.matrix_at

    def counting_matrix_at(self, t):
        calls.append(np.array(t, dtype=float).ravel())
        return matrix_at(self, t)

    def counting_add_compound(A, p):
        count["compound"] += np.size(A) // (A.shape[-1] * A.shape[-2])
        return add_compound(A, p)

    monkeypatch.setattr(Segment, "matrix_at", counting_matrix_at)
    monkeypatch.setattr(integrate, "add_compound", counting_add_compound)
    return calls, count


def test_three_coefficient_evaluations_per_step(monkeypatch):
    """RK4 evaluates A(t) at t, t + h/2 and t + h, and each step reads its
    own three: a one-segment transition_matrix of N steps takes A at 3 N
    times (one array call), which are the 2 N + 1 stage times lo + k h / 2,
    a step's end read again as the next step's start. The Liouville
    integral reuses the traces of those values, where a second quadrature
    would make it 6 N, and compound_transition takes the additive compound
    of A at the same 3 N times."""
    sys = random_tpds_system(3, rng=0)
    nsteps, T = 100, np.pi / 2
    calls, count = _count_coefficients(monkeypatch)
    transition_matrix(sys, 0.0, T, step=T / nsteps)
    assert len(calls) == 1 and calls[0].size == 3 * nsteps
    assert np.array_equal(np.unique(calls[0]), np.arange(2 * nsteps + 1) * (T / nsteps / 2) + 0.0)
    compound_transition(sys, 2, 0.0, T, step=T / nsteps)
    assert count["compound"] == 3 * nsteps
    assert np.array_equal(calls[2], calls[0])  # the compound's own run, after the direct one


def test_a_period_of_a_small_system_is_one_block(monkeypatch):
    """A one-period Phi of random_tpds_system(2) at the default step is
    1,000 steps: one block of windows (up to 9 x CHUNK_STEPS steps at
    n = 2), so one ``Segment.matrix_at`` call, where blocks of one window
    took 4. The stage times read are those of the one-window blocks: the
    block reads them stage by stage (every step's start, then every
    midpoint, then every end), the one-window reference step by step, and
    each stage's times, in step order, are the reference's."""
    sys = random_tpds_system(2, rng=0)
    step = _checked_step(None, *sys.interval)
    calls, _ = _count_coefficients(monkeypatch)
    transition_matrix(sys, 0.0, 2 * np.pi)
    assert len(calls) == 1
    got = calls.pop()
    integrate_reference.windowed_transitions(sys, [0.0, 2 * np.pi], step, dtype=np.longdouble)
    assert len(calls) == 4
    want = np.concatenate(calls).reshape(-1, 3)  # a step per row
    assert got.size == want.size
    for stage in range(3):
        assert got.reshape(3, -1)[stage].tobytes() == want[:, stage].tobytes()


def test_a_grid_of_many_intervals_reads_each_step_as_one_interval_does(monkeypatch):
    """simulate_linear lays out CHUNK_STEPS intervals side by side, so each
    block holds one step of each interval; the steps read A at the times
    that each interval's own transition_matrix reads, and the states follow
    those transition matrices, normwise to 1e-13 of each state: its
    products are double, theirs long double (8.1e-15 here; entrywise the
    smallest entries differ by 2.6e-13 of themselves, as they do from a
    per-interval run in double)."""
    sys = shipped("switched").system
    grid = np.linspace(0.0, 1.0, integrate.CHUNK_STEPS + 46)  # no point on a segment end
    pieces = np.diff(np.union1d(grid, sys._ends))
    steps = sum(integrate._step_count(x, 1e-3) for x in pieces.tolist())  # at the default step
    z0 = np.array([1.0, -1.0, 2.0, 0.5])
    calls, _ = _count_coefficients(monkeypatch)
    states = simulate_linear(sys, z0, grid).states
    lanes = np.sort(np.concatenate(calls))
    calls.clear()
    z, want = z0, [z0]
    for t0, t in zip(grid[:-1], grid[1:]):
        want.append(z := transition_matrix(sys, t0, t).phi @ z)
    alone = np.sort(np.concatenate(calls))
    assert lanes.size == 3 * steps
    assert np.array_equal(lanes, alone)
    assert np.all(np.linalg.norm(states - want, axis=1) <= 1e-13 * np.linalg.norm(want, axis=1))


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


# -- one period integrated on a grid that repeats mod T ----------------------


def _direct_states(sys, z0, grid, step=None):
    """simulate_linear's states without reuse: every interval's own
    transition matrix, CHUNK_STEPS intervals at a time, multiplied in
    double as simulate_linear multiplies them."""
    step = _checked_step(step, *sys.interval)
    z = np.asarray(z0, dtype=float)
    states = [z]
    for g0 in range(0, len(grid) - 1, integrate.CHUNK_STEPS):
        for phi in integrate._transitions(sys, grid[g0 : g0 + integrate.CHUNK_STEPS + 1], step, dtype=float)[0]:
            states.append(z := phi.dot(z))
    return np.array(states)


def _within_running_max(got, want, tol):
    """Each state within tol of the largest |entry| of want up to it."""
    running = np.maximum.accumulate(np.abs(want).max(axis=1))
    return bool(np.all(np.abs(got - want).max(axis=1) <= tol * running))


def _periodic(name):
    """(system, z0, periods) over a whole number of 2 pi periods."""
    if name.startswith("random"):
        n = int(name[-1])
        return random_tpds_system(n, rng=n, interval=(0.0, 6 * np.pi)), (-1.0) ** np.arange(n), 3
    spec = shipped(name)
    return spec.system, spec.experiment["z0"], round(spec.system.interval[1] / spec.system.period)


def _counting_reads(monkeypatch):
    """The number of times at which TimeVaryingSystem._matrices reads A, one
    entry per call."""
    reads = []
    matrices = TimeVaryingSystem._matrices

    def counting(self, times, segment):
        reads.append(len(times))
        return matrices(self, times, segment)

    monkeypatch.setattr(TimeVaryingSystem, "_matrices", counting)
    return reads


ALTERNATING = [[-1.0, 1.0], [0.5, -1.0]], [[0.0, 2.0], [1.0, 0.0]]


def _switched_periodic(ends):
    """A system on [0, 3] of period 1 that switches between two constant
    matrices at 0.5 mod 1, with its segments ending at `ends`."""
    starts = [0.0] + ends
    segments = [
        Segment(lo, hi, ALTERNATING[int(2 * (lo % 1.0))]) for lo, hi in zip(starts, ends + [3.0])
    ]
    return TimeVaryingSystem(2, (0.0, 3.0), segments, period=1.0)


@pytest.mark.parametrize("name", ["sinusoidal2", "schwarz3"] + [f"random{n}" for n in range(2, 7)])
def test_an_aligned_grid_takes_the_first_period_for_every_period(name):
    """Phi(t + T, s + T) = Phi(t, s): on a grid of 200 intervals per period
    the later periods apply the first period's transition matrices, and the
    states stay within 5e-12 of the running max |z| of a direct run
    (schwarz3: 1.2e-12), where running products Phi(T, 0)^k moved
    schwarz3's by 1.5e-7."""
    sys, z0, periods = _periodic(name)
    grid = np.linspace(0.0, periods * sys.period, 200 * periods + 1)
    assert integrate._period_intervals(sys, grid) == 200
    got = simulate_linear(sys, z0, grid).states
    assert _within_running_max(got, _direct_states(sys, z0, grid), 5e-12)


def test_a_grid_off_the_period_lattice_is_integrated_interval_by_interval():
    """Points from the second period on moved by 1e-9 T leave the grid
    unaligned, and every interval is integrated, bit for bit as without
    reuse; moved by 1e-13 T they are within the 1e-12 T alignment."""
    sys = shipped("sinusoidal2").system
    T = sys.period
    lattice = np.linspace(0.0, 4 * T, 801)
    grid = lattice.copy()
    grid[200:-1] += 1e-9 * T
    assert integrate._period_intervals(sys, grid) is None
    got = simulate_linear(sys, [1.0, 0.0], grid).states
    assert np.array_equal(got, _direct_states(sys, [1.0, 0.0], grid))
    grid = lattice.copy()
    grid[200:-1] += 1e-13 * T
    assert integrate._period_intervals(sys, grid) == 200


def test_an_aligned_grid_reads_a_for_one_period(monkeypatch):
    """10 periods at step 5e-4 T on 200 intervals per period: one period's
    2,000 steps, each reading A at its three stage times, where the 2,000
    samples of the spec's own grid read it at each of its 20,000 steps."""
    sys = shipped("sinusoidal2").system
    T = sys.period
    reads = _counting_reads(monkeypatch)
    simulate_linear(sys, [1.0, 0.0], np.linspace(0.0, 10 * T, 2001), step=5e-4 * T)
    assert sum(reads) == 3 * 200 * 10
    reads.clear()
    simulate_linear(sys, [1.0, 0.0], np.linspace(0.0, 10 * T, 2000), step=5e-4 * T)
    assert sum(reads) == 3 * 1999 * 11


@pytest.mark.parametrize(
    "ends, reused",
    [([0.5, 1.0, 1.5, 2.0, 2.5], 40), ([0.5, 1.0, 1.5, 2.0, 2.5, 2.71], None)],
    ids=["boundaries_repeat", "boundary_2.71_does_not"],
)
def test_a_switched_system_is_reused_only_where_its_boundaries_repeat(monkeypatch, ends, reused):
    """A segment boundary inside the grid's span must land on another one a
    period either way, or leave the span. 2.71 splits a segment with the
    same matrix on both sides, so A has period 1 and passes the period
    check, but the interval [2.7, 2.725] is cut there into two spans and
    1.71 is no boundary: the run integrates every interval."""
    sys = _switched_periodic(ends)
    grid = np.linspace(0.0, 3.0, 121)
    assert integrate._period_intervals(sys, grid) == reused
    z0 = [1.0, -0.5]
    want = _direct_states(sys, z0, grid)
    reads = _counting_reads(monkeypatch)
    got = simulate_linear(sys, z0, grid).states
    run = sum(reads)
    reads.clear()
    _direct_states(sys, z0, grid[: (reused or 120) + 1])
    assert run == sum(reads)
    if reused is None:
        assert np.array_equal(got, want)
    else:
        assert _within_running_max(got, want, 1e-12)


def test_a_boundary_that_does_not_repeat_stops_reuse_on_every_grid():
    """The system decides once, over [a, b], whether its boundaries repeat:
    2.71 does not, so a grid on [0, 2.5], which never meets it, is
    integrated interval by interval too, bit for bit as without reuse."""
    sys = _switched_periodic([0.5, 1.0, 1.5, 2.0, 2.5, 2.71])
    grid = np.linspace(0.0, 2.5, 101)
    assert integrate._period_intervals(sys, grid) is None
    z0 = [1.0, -0.5]
    assert np.array_equal(simulate_linear(sys, z0, grid).states, _direct_states(sys, z0, grid))


def test_a_period_set_after_construction_is_not_reused():
    """The period check, and with it the decision that the boundaries
    repeat, runs when the system is built: a period given afterwards leaves
    every interval integrated."""
    sys = TimeVaryingSystem.constant(ALTERNATING[0], (0.0, 3.0))
    sys.period = 1.0
    grid = np.linspace(0.0, 3.0, 31)
    assert integrate._period_intervals(sys, grid) is None
    z0 = [1.0, -0.5]
    assert np.array_equal(simulate_linear(sys, z0, grid).states, _direct_states(sys, z0, grid))


def test_many_boundaries_are_matched_mod_the_period_in_bounded_memory():
    """2,000 constant segments of period 1 over 20 periods: the period check
    and the reuse rule stay under 10 MB of traced memory (an all-pairs
    difference of the boundaries would take 128 MB), and a grid of 100
    intervals per period still takes its first period's."""
    ends = [k / 100 for k in range(1, 2000)]
    pieces = enumerate(zip([0.0] + ends, ends + [20.0]))
    segments = [Segment(lo, hi, ALTERNATING[k % 100 // 50]) for k, (lo, hi) in pieces]
    sys = TimeVaryingSystem(2, (0.0, 20.0), segments)
    sys.period = 1.0
    grid = np.linspace(0.0, 20.0, 2001)
    tracemalloc.start()
    try:
        sys._check_period()
        m = integrate._period_intervals(sys, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert m == 100


@pytest.mark.parametrize("where", ["diagonal", "one_entry"])
def test_reuse_on_a_system_periodic_only_to_the_period_check_tolerance(where):
    """sinusoidal2 with a drift 0.99 PERIOD_CHECK_TOL t / T added, on its
    diagonal or to one entry, passes the period check, yet A(t + kT) - A(t)
    grows as k 1e-10. The transitions of period k then differ from the
    first period's by about k 1e-10 T ||Phi||, and over K periods the
    states stay within n 1e-10 T K (K - 1) / 2 of the running max of a
    direct run (2.8e-8 and 1.5e-8 of the bound 5.7e-8 here)."""
    T, K = 2 * np.pi, 10
    drift = f"{0.99 * PERIOD_CHECK_TOL} * t / {T!r}"
    if where == "diagonal":
        matrix = [[drift, "1 + sin(t)"], ["1 + sin(t)", drift]]
    else:
        matrix = [["0", f"1 + sin(t) + {drift}"], ["1 + sin(t)", "0"]]
    entries = [[exprlang.parse(e) for e in row] for row in matrix]
    sys = TimeVaryingSystem(2, (0.0, K * T), [Segment(0.0, K * T, entries)], period=T)
    grid = np.linspace(0.0, K * T, 200 * K + 1)
    assert integrate._period_intervals(sys, grid) == 200
    got = simulate_linear(sys, [1.0, 0.0], grid).states
    want = _direct_states(sys, [1.0, 0.0], grid)
    assert not _within_running_max(got, want, 1e-12)
    assert _within_running_max(got, want, sys.n * PERIOD_CHECK_TOL * T * K * (K - 1) / 2)


def test_a_tpds_run_names_every_sample_whose_count_rose():
    # the contract's list, against the per-sample comparison of the counts
    # of the same run without the contract
    sys = TimeVaryingSystem.constant([[0.0, -1.0], [1.0, 0.0]], (0.0, 10.0))
    grid = np.linspace(0, 10, 400)
    traj = simulate_linear(sys, [1.0, 0.5], grid)
    sm, sp = traj.sigma_minus, traj.sigma_plus
    want = [float(grid[k]) for k in range(1, len(grid)) if sp[k] > sp[k - 1] or sm[k] > sm[k - 1]]
    with pytest.raises(MonotonicityViolation) as err:
        simulate_linear(sys, [1.0, 0.5], grid, tpds=True)
    assert str(err.value) == "sign counts increased along a TPDS run"
    assert len(want) > 1 and err.value.times == tuple(want)
    assert all(type(t) is float for t in err.value.times)


def test_a_tpds_run_names_a_rise_of_either_count(monkeypatch):
    # a constructed run: s_plus alone rises at t = 0.4 (a zero entry), both
    # counts at t = 0.8
    states = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
    monkeypatch.setattr(integrate, "Trajectory", lambda grid, _: Trajectory(grid, states))
    sys = TimeVaryingSystem.constant(-np.eye(3), (0.0, 1.0))
    grid = np.linspace(0.0, 1.0, 6)
    traj = Trajectory(grid, states)
    sm, sp = traj.sigma_minus, traj.sigma_plus
    want = [float(grid[k]) for k in range(1, len(grid)) if sp[k] > sp[k - 1] or sm[k] > sm[k - 1]]
    assert want == [0.4, 0.8] and sp[2] > sp[1] and sm[2] == sm[1]
    with pytest.raises(MonotonicityViolation) as err:
        simulate_linear(sys, [1.0, 1.0, 1.0], grid, tpds=True)
    assert str(err.value) == "sign counts increased along a TPDS run"
    assert err.value.times == tuple(want)


def test_a_tpds_run_with_more_than_n_minus_1_clusters_raises():
    # n = 1: a state that decays below TRAJ_ZERO_REL_TOL of its start reads
    # as zero, outside V, and one cluster exceeds n - 1 = 0
    sys = TimeVaryingSystem.constant([[-30.0]], (0.0, 1.0))
    grid = np.linspace(0.0, 1.0, 11)
    traj = simulate_linear(sys, [1.0], grid)
    assert traj.exceptional_times == [grid[7]]
    with pytest.raises(MonotonicityViolation) as err:
        simulate_linear(sys, [1.0], grid, tpds=True)
    assert str(err.value) == "1 exceptional clusters exceed n-1"
    assert err.value.times == (grid[7],)


@st.composite
def non_rising_runs(draw):
    """States of n = 2..5 entries in {-1, 0, 1} whose s_minus and s_plus
    never rise: up to 40 rows, each drawn from the sign vectors whose
    counts do not rise over the row before it."""
    n = draw(st.integers(2, 5))
    pool = [(row, ref.counts(np.array(row), 0.0)) for row in itertools.product([-1.0, 0.0, 1.0], repeat=n)]
    rows, last = [], (n, n)
    for _ in range(draw(st.integers(0, 40))):
        row, last = draw(st.sampled_from([(r, c) for r, c in pool if c[0] <= last[0] and c[1] <= last[1]]))
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), n)


@settings(max_examples=300, deadline=None)
@given(states=non_rising_runs())
@example(states=np.array([[1.0, -1.0, 0.0], [1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, 0.0]]))
@example(states=np.array([[1, -1, 1, 0], [1, -1, -1, 1], [1, -1, -1, 1], [1, -1, -1, 0], [1, -1, -1, -1], [1, -1, -1, -1], [1, 1, 1, 0]], dtype=float))
def test_counts_that_never_rise_leave_at_most_n_minus_1_clusters(states):
    """Why only n = 1 reaches the cluster raise of a TPDS run: for n >= 2 a
    sample lies off V exactly when s_minus < s_plus (a zero first entry
    makes s_plus the larger), and a sample in V lies between two cluster
    starts, so s_plus falls by at least one from each cluster start to the
    next, from at most n - 1 to at least 1. The examples reach n - 1."""
    n = states.shape[1]
    traj = Trajectory(np.arange(float(len(states))), states)
    sm, sp = np.array(traj.sigma_minus), np.array(traj.sigma_plus)
    assert not (np.diff(sm) > 0).any() and not (np.diff(sp) > 0).any()
    assert ((sm < sp) == ~np.array(traj.in_V_flags, dtype=bool)).all()
    at_starts = [traj.sigma_plus[int(t)] for t in traj.exceptional_times]
    assert all(a > b for a, b in zip(at_starts, at_starts[1:]))
    assert all(1 <= v <= n - 1 for v in at_starts)
    assert len(traj.exceptional_times) <= n - 1


@pytest.mark.parametrize(
    "call, t",
    [
        (lambda sys: transition_matrix(sys, 0.0, 2.0), "1.0010000000000001"),
        (lambda sys: simulate_linear(sys, [1.0], np.linspace(0.0, 2.0, 5)), "1.001"),
    ],
)
def test_a_domain_error_names_the_first_stage_time_that_fails(call, t):
    """sqrt(1 - t) first fails at the midpoint of the step from t = 1 (one
    interval, or the third of four); the stage times are read stage by
    stage, yet the error is not that of the next step's start, t = 1.002,
    the first start that fails."""
    seg = Segment(0.0, 2.0, [[exprlang.parse("sqrt(1 - t)")]])
    with pytest.raises(DomainError) as err:
        call(TimeVaryingSystem(1, (0.0, 2.0), [seg]))
    assert str(err.value) == f"coefficient at t = {t}: math domain error"
