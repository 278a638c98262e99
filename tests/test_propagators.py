"""The batched RK4 propagators of ``tpds.integrate`` against the per-step
loop they replaced (``integrate_reference``), and the stack form of
``Segment.matrix_at`` that evaluates A on their stage grid against the
point form.

The propagators are built and multiplied in another order of operations
than the loop (pairwise within each block of steps), in long double for
transition_matrix and in double for trajectories and the compound flow,
so results agree with the loop in double to a tolerance, not bit for bit:
a transition matrix to 1e-13 of its norm, and a trajectory state to 1e-12
of ||Phi(t, t0)|| ||z0||. With the loop in long double, the long-double
Phi agrees to within an ulp of each entry over a period, and of its
largest entry over any number of steps; a trajectory in double counts
signs as the long-double products do. Entrywise closeness of states does not hold:
``schwarz3``'s growing mode amplifies rounding differences like
exp(1.73 t), far beyond the size of its decaying components.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import integrate_reference as ref
from test_integrate import linear_systems
from test_stepper import exprs
from tpds import (
    Segment,
    TimeVaryingSystem,
    add_compound,
    compound_transition,
    exprlang,
    floquet,
    poincare_analysis,
    random_tpds_system,
    shipped,
    shipped_names,
    simulate_linear,
    simulate_nonlinear,
    transition_matrix,
)
from tpds.errors import DomainError, IntegrationSuspect, InvalidArgument
from tpds.integrate import (
    CHUNK_STEPS,
    Trajectory,
    _checked_step,
    _increments,
    _interval_transitions,
    _linear_run,
    _step_count,
    _transitions,
)

LONG_DOUBLE_IS_DOUBLE = np.finfo(np.longdouble).eps == np.finfo(float).eps


def close_phi(got, want, rel=1e-13):
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def close_states(sys, got, want, grid, step, rel=1e-12):
    """Each state within rel ||Phi(t_k, t_0)|| ||z0|| of the reference's,
    with Phi(t_k, t_0) from the loop reference."""
    phis = ref.states_of_matrix_flow(sys, grid, step)
    bound = rel * np.linalg.norm(phis, axis=(1, 2)) * np.linalg.norm(want[0])
    return bool(np.all(np.linalg.norm(got - want, axis=1) <= bound))


@pytest.mark.parametrize("sys", linear_systems(), ids=lambda s: s.name or f"random{s.n}")
def test_propagators_match_the_loop_reference(sys):
    a, b = sys.interval
    step = _checked_step(None, *sys.interval)
    # Phi over the whole interval
    assert close_phi(transition_matrix(sys, a, b).phi, ref.transition(sys, a, b, step))
    # a trajectory over the middle of the interval
    z0 = np.arange(1.0, sys.n + 1) * (-1.0) ** np.arange(sys.n)
    grid = np.linspace(a + 0.3 * (b - a), a + 0.7 * (b - a), 60)
    got = simulate_linear(sys, z0, grid).states
    assert close_states(sys, got, ref.states(sys, z0, grid, step), grid, step)
    # the compound flow over its first fifth
    t1 = a + 0.2 * (b - a)
    m = len(add_compound(np.eye(sys.n), 2).index_map)
    compound = lambda t, seg: add_compound(sys.segments[seg].matrix_at(t), 2).entries
    want = ref.integrate_piecewise(sys, np.eye(m), a, t1, step, compound)
    assert close_phi(compound_transition(sys, 2, a, t1), want)


@pytest.mark.skipif(LONG_DOUBLE_IS_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("seed", [0, 100, 200, 300])
@pytest.mark.parametrize("n", range(2, 7))
def test_phi_is_the_long_double_rk4_product_rounded(n, seed):
    # products in double were 2-13 ulps off, and det Phi, which the
    # Liouville check reads, moves by 1e-6 to 1e-4 per ulp at these n
    sys = random_tpds_system(n, rng=n + seed)
    want = ref.transition_long_double(sys, 0.0, 2 * np.pi).astype(float)
    got = transition_matrix(sys, 0.0, 2 * np.pi).phi
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def within_an_ulp_of_the_largest_entry(got, want):
    # over a few steps Phi is near I, and its small off-diagonal entries
    # carry the double-precision part of each increment (_increments):
    # up to 3 ulps of themselves, at the parent of the pairwise product too
    return np.all(np.abs(got - want) <= np.spacing(np.abs(want).max()))


@pytest.mark.skipif(LONG_DOUBLE_IS_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("count", [1, 2, 3, 255, 256, 257, int(2.5 * CHUNK_STEPS)])
def test_one_span_of_any_step_count(count):
    # one block that pairs evenly at every level, or leaves an odd factor
    # at some level, or a block filled exactly, or more than one block
    sys = random_tpds_system(4, rng=count)
    step = 2 * np.pi / 1000
    t = count * step
    got = transition_matrix(sys, 0.0, t, step).phi
    assert close_phi(got, ref.transition(sys, 0.0, t, step))
    assert within_an_ulp_of_the_largest_entry(got, ref.transition_long_double(sys, 0.0, t, step).astype(float))


@pytest.mark.skipif(LONG_DOUBLE_IS_DOUBLE, reason="long double is double here")
def test_intervals_side_by_side_with_uneven_step_counts():
    # 37 intervals take blocks of 256 // 37 = 6 steps each, which pair as
    # 6 -> 3 -> 4 (one zero increment) -> 2 -> 1; the intervals of 1, 2, 3
    # and 5 steps are padded, and those of 17 and 61 take several blocks
    sys = random_tpds_system(3, rng=7)
    step = 2 * np.pi / 1000
    counts = np.random.default_rng(8).permutation([1, 2, 3, 5, 17, 61] * 6 + [2])
    grid = np.concatenate([[0.0], np.cumsum(counts) * step])
    assert [_step_count(hi - lo, step) for lo, hi in zip(grid, grid[1:])] == counts.tolist()
    # in double, as simulate_linear multiplies, and in long double, as
    # transition_matrix does
    phis, _ = _transitions(sys, grid, step)
    long_phis, _ = _transitions(sys, grid, step, dtype=np.longdouble)
    for phi, long_phi, lo, hi in zip(phis, long_phis, grid, grid[1:]):
        assert close_phi(phi, ref.transition(sys, lo, hi, step))
        assert within_an_ulp_of_the_largest_entry(long_phi, ref.transition_long_double(sys, lo, hi, step).astype(float))


def long_double_trajectory(sys, z0, grid, step):
    """simulate_linear's trajectory with each interval's transition matrix
    multiplied in long double, as transition_matrix multiplies: CHUNK_STEPS
    intervals at a time, every interval integrated."""
    phis = [
        phi
        for g0 in range(0, len(grid) - 1, CHUNK_STEPS)
        for phi in _transitions(sys, grid[g0 : g0 + CHUNK_STEPS + 1], step, dtype=np.longdouble)[0]
    ]
    states = [np.asarray(z0, dtype=float)]
    for phi in phis:
        states.append(phi.dot(states[-1]))
    return Trajectory(grid, np.array(states))


def linear_runs():
    """(system, z0, grid): every shipped linear spec on its experiment grid,
    and random TPDS systems of n = 2..6 on 200 samples over a period."""
    for name in shipped_names():
        spec = shipped(name)
        if spec.kind == "linear":
            a, b = spec.system.interval
            yield pytest.param(spec.system, spec.experiment["z0"], np.linspace(a, b, spec.experiment["grid"]), id=name)
    for n in range(2, 7):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            z0 = rng.standard_normal(n)
            yield pytest.param(random_tpds_system(n, rng=rng), z0, np.linspace(0.0, 2 * np.pi, 200), id=f"random{n}-{seed}")


@pytest.mark.parametrize("sys, z0, grid", linear_runs())
def test_trajectories_in_double_count_signs_as_in_long_double(sys, z0, grid):
    # a trajectory reads no determinant, so simulate_linear multiplies in
    # double: its sign counts, V flags and exceptional times are those of
    # the long-double products, and its states within close_states
    step = _checked_step(None, *sys.interval)
    got = simulate_linear(sys, z0, grid)
    want = long_double_trajectory(sys, z0, grid, step)
    assert got.sigma_minus == want.sigma_minus and got.sigma_plus == want.sigma_plus
    assert got.in_V_flags == want.in_V_flags and got.exceptional_times == want.exceptional_times
    assert close_states(sys, got.states, want.states, grid, step)


def test_span_of_more_than_two_chunks():
    sys = shipped("cosh2").system
    step = 2.0 / (2.5 * CHUNK_STEPS)
    rec = transition_matrix(sys, 0.0, 2.0, step=step)
    assert close_phi(rec.phi, ref.transition(sys, 0.0, 2.0, step))
    a = 2.0
    exact = np.array([[np.cosh(a), np.sinh(a)], [np.sinh(a), np.cosh(a)]])
    assert np.allclose(rec.phi, exact, rtol=1e-9) and not rec.suspect


def test_grid_with_repeated_points_and_segment_cuts():
    sys = shipped("switched").system  # boundaries at 0.25 and 0.5
    z0 = [-1.0, 5.0, -13.0, 17.0]
    grid = [0.1, 0.2, 0.2, 0.2, 0.3, 0.6, 0.6, 0.9, 1.0]
    step = 0.01
    got = simulate_linear(sys, z0, grid, step=step).states
    assert np.array_equal(got[1], got[2]) and np.array_equal(got[2], got[3])
    assert np.array_equal(got[5], got[6])
    assert close_states(sys, got, ref.states(sys, z0, grid, step), grid, step)
    # an interval cut by both boundaries
    assert close_phi(transition_matrix(sys, 0.1, 0.9, step).phi, ref.transition(sys, 0.1, 0.9, step))


def test_more_intervals_than_a_chunk_with_uneven_step_counts():
    # more than CHUNK_STEPS intervals of 1, 3 or 5 steps each, so that the
    # grid is taken in two chunks and most propagator stacks are padded
    sys = random_tpds_system(3, rng=4)
    rng = np.random.default_rng(5)
    grid = np.cumsum(rng.choice([0.001, 0.004, 0.009], size=CHUNK_STEPS + 300))
    grid = np.concatenate([[0.0], grid]) * (2 * np.pi / grid[-1])
    step = 0.003  # 1, 3 or 5 steps per interval
    z0 = [1.0, -1.0, 1.0]
    got = simulate_linear(sys, z0, grid, step=step).states
    assert close_states(sys, got, ref.states(sys, z0, grid, step), grid, step)


# -- blocks of several windows, the floats of one window per block ----------

UNEVEN = [1, 2, 3, 5, 17, 61]  # steps per interval


def layout(kind, lanes, n, seed):
    """(system, grid, step): lanes intervals of a random TPDS system of n
    entries, of 1 to 3 times max(1, 700 // lanes) steps each ("even"), so
    that a few intervals take several windows and blocks, or of UNEVEN
    step counts in a random order ("uneven"), or of the switched spec
    (n = 4) over [0.1, 0.9] in at least 600 steps, so that intervals are
    cut at its segment ends 0.25 and 0.5 ("switched")."""
    rng = np.random.default_rng(seed)
    if kind == "switched":
        return shipped("switched").system, np.linspace(0.1, 0.9, lanes + 1), 0.8 / max(2 * lanes, 600)
    step = 2 * np.pi / 1000
    if kind == "uneven":
        counts = rng.choice(UNEVEN, size=lanes)
    else:
        counts = rng.choice([1, 2, 3], size=lanes) * max(1, 700 // lanes)
    grid = np.concatenate([[0.0], np.cumsum(counts) * step])
    return random_tpds_system(n, rng=rng, interval=(0.0, max(2 * np.pi, grid[-1]))), grid, step


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["even", "uneven", "switched"]),
    st.sampled_from([1, 2, 199, 257, 2001]),
    st.integers(2, 6),
    st.sampled_from([None, 2]),
    st.sampled_from([float, np.longdouble]),
    st.integers(0, 2**32 - 1),
)
def test_blocks_of_windows_give_the_floats_of_one_window_per_block(kind, lanes, n, p, dtype, seed):
    # a block holds up to BLOCK_ENTRIES // (m^2 lanes window) windows of
    # max(1, CHUNK_STEPS // lanes) steps each; every product window, its
    # pairwise tree, the order of the windows and each window's trace sum
    # are those of the one-window blocks, so Phi and the integral are too
    if kind == "uneven" and lanes > 257:
        lanes = 257  # 2,001 uneven intervals would take 30,000 steps
    sys, grid, step = layout(kind, lanes, n, seed)
    if p is not None and p > sys.n:
        p = None
    got = _transitions(sys, grid, step, p, dtype)
    want = ref.windowed_transitions(sys, grid, step, p, dtype)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


# entries of C and z0 beside ordinary numbers: signed zeros, subnormals,
# and magnitudes whose products overflow to inf (and inf - inf to nan)
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]


def special_entries(rng, shape, special, share):
    """Uniform entries in [-4, 4], each replaced by one of ``special`` with
    probability ``share``."""
    x = rng.uniform(-4.0, 4.0, shape)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(special, pick.sum())
    return x


def value_bytes(x):
    """The bytes that hold x's values: an x87 long double takes 10 of the
    16 bytes numpy lays it out in, and the rest are padding."""
    width = 10 if x.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63 else x.dtype.itemsize
    return np.ascontiguousarray(x).view(np.uint8).reshape(x.size, -1)[:, :width].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 10, 15]),
    st.integers(1, 4),
    st.sampled_from([float, np.longdouble]),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_increments_give_the_floats_of_the_expression(m, steps, dtype, share, nan, seed):
    # scaled and summed in place, with 4 Cm + C0 for C0 + 4 Cm and
    # 2 (X2 + X3) for 2 X2 + 2 X3, the increments are the expression's,
    # byte for byte, in double and in long double; C is sliced from a
    # (steps, 3, m, m) stack, as _transitions slices it
    rng = np.random.default_rng(seed)
    C = special_entries(rng, (steps, 3, m, m), SPECIAL + [math.nan] * nan, share)
    h = rng.uniform(1e-3, 1.0, steps)[:, None, None]
    with np.errstate(all="ignore"):
        got = _increments(C[:, 0], C[:, 1], C[:, 2], h, dtype)
        want = ref.increments(C[:, 0], C[:, 1], C[:, 2], h, dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert value_bytes(got) == value_bytes(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([2, 3, 40, 300]), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1))
@example(n=3, samples=300, share=1.0, seed=0)  # schwarz3's growth takes 1e300 past the largest double
def test_states_written_in_place_are_the_sequential_loop(n, samples, share, seed):
    # each state is the dot of its interval's transition matrix with the
    # state before it, written into its row: the same BLAS call as the
    # loop that assigned each product, so the floats are the same, and a
    # state that overflows raises with the loop's first non-finite time
    rng = np.random.default_rng(seed)
    sys = shipped("schwarz3").system if n == 3 else random_tpds_system(n, rng=rng)  # schwarz3 grows like e^(1.73 t)
    grid = np.linspace(*sys.interval, samples)
    z0 = special_entries(rng, n, SPECIAL, share)
    assume(np.any(z0))
    step = _checked_step(None, *sys.interval)
    want = ref.sequential_states(_interval_transitions(sys, grid, step), z0)
    finite = np.isfinite(want).all(axis=1)
    if not finite.all():
        with pytest.raises(IntegrationSuspect) as err:
            simulate_linear(sys, z0, grid)
        assert str(err.value) == f"the state became non-finite by t={float(grid[np.argmin(finite)])} from a finite z0"
        return
    traj, _, phis, _ = _linear_run(sys, z0, grid, None, False)
    assert traj.states.tobytes() == ref.sequential_states(phis, z0).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [None, 2])
def test_a_grid_with_no_step_gives_writable_identities(p):
    # with no step to multiply, _transitions lays out the identities itself
    sys = shipped("switched").system
    m = 4 if p is None else 6
    phi, integral = _transitions(sys, [0.25, 0.25, 0.25], 1e-3, p, np.longdouble)
    assert phi.dtype == float and phi.shape == (2, m, m) and np.array_equal(phi, np.broadcast_to(np.eye(m), (2, m, m)))
    assert integral.tobytes() == np.zeros(2).tobytes()
    phi[0, 0, 0] = 2.0  # writable, and each interval's own
    assert phi[1, 0, 0] == 1.0
    rec = transition_matrix(sys, 0.5, 0.5)
    rec.phi[0, 1] = 3.0
    assert transition_matrix(sys, 0.5, 0.5).phi[0, 1] == 0.0


@pytest.mark.parametrize("lanes", [1, 128, 129, 255, 256, 257, 300, 385, 1999, 2304, 2561, 4700])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_interval_transitions_give_the_floats_of_a_chunk_per_call(n, lanes):
    # groups of CHUNK_STEPS intervals (windows of one step) are taken
    # BLOCK_ENTRIES // (CHUNK_STEPS n^2) at a time; the r intervals left
    # over join the last call where CHUNK_STEPS // r is one step too, and
    # else go alone, in windows of CHUNK_STEPS // r steps, as before
    sys, grid, step = layout("even", lanes, n, seed=lanes)
    got = np.array(list(_interval_transitions(sys, grid, step)))
    assert got.tobytes() == np.array(ref.chunked_transitions(sys, grid, step)).tobytes()


def peak_bytes(call):
    """The peak of memory traced while call runs, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda sys, step: transition_matrix(sys, 0.0, 2 * np.pi, step=step),
        lambda sys, step: simulate_linear(sys, [1.0, -1.0, 1.0, -1.0], [0.0, np.pi, 2 * np.pi], step=step),
        lambda sys, step: compound_transition(sys, 2, 0.0, 2 * np.pi, step=step),
    ],
    ids=["transition_matrix", "simulate_linear", "compound_transition"],
)
def test_memory_does_not_grow_with_the_number_of_steps(call):
    # 3 * 10^4 steps: a stack of A at all 6 * 10^4 + 1 stage times alone
    # would take 7.7 MB, and of its second compounds 17 MB
    sys = random_tpds_system(4, rng=1)
    call(sys, None)  # compiles the array form before the count
    assert peak_bytes(lambda: call(sys, 2 * np.pi / 3e4)) < 3e6


def test_zero_length_interval_is_the_identity():
    sys = shipped("switched").system
    rec = transition_matrix(sys, 0.25, 0.25)
    assert np.array_equal(rec.phi, np.eye(4))
    assert rec.det_phi == rec.det_predicted == 1.0 and not rec.suspect
    assert np.array_equal(compound_transition(sys, 2, 0.5, 0.5), np.eye(6))
    traj = simulate_linear(sys, [1.0, 2.0, 3.0, 4.0], [0.7])
    assert np.array_equal(traj.states, [[1.0, 2.0, 3.0, 4.0]])


# -- the step --------------------------------------------------------------

BAD_STEPS = [-1.0, 0.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("step", BAD_STEPS)
def test_a_step_that_is_not_positive_and_finite_raises(step):
    # step=-1 used to return a plausible Phi (one RK4 step per span), step=0
    # a bare ZeroDivisionError or OverflowError, step=nan a bare ValueError
    cosh2 = shipped("cosh2").system
    sinusoidal2 = shipped("sinusoidal2").system
    demo = shipped("entrain_demo").system
    calls = [
        lambda: transition_matrix(cosh2, 0.0, 1.0, step=step),
        lambda: transition_matrix(cosh2, 1.0, 1.0, step=step),
        lambda: simulate_linear(cosh2, [1.0, 0.0], [0.0, 0.5, 1.0], step=step),
        lambda: compound_transition(cosh2, 1, 0.0, 1.0, step=step),
        lambda: floquet(sinusoidal2, step=step),
        lambda: simulate_nonlinear(demo, [0.1, 0.2, 0.3], [0.0, 1.0, 2.0], step=step),
        lambda: poincare_analysis(demo, [0.1, 0.2, 0.3], step=step),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match="step must be a positive finite number"):
            call()


# -- A(t) on an array of times ---------------------------------------------


def outcome(thunk):
    """The values, or the DomainError's message."""
    try:
        with np.errstate(all="ignore"):
            return thunk()
    except DomainError as exc:
        return ("DomainError", str(exc))


def ulps(a, b):
    """Distance in units in the last place of equal-signed finite floats."""
    ia, ib = (np.asarray(x, dtype=float).view(np.int64) for x in (a, b))
    return np.abs(ia - ib)


TIMES = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(exprs(["t"]), st.floats(-2.0, 2.0)), min_size=4, max_size=4), TIMES)
def test_array_matrix_at_matches_scalar(entries, ts):
    seg = Segment(0.0, 1.0, [entries[:2], entries[2:]])
    ts = np.array(sorted(ts))
    got = outcome(lambda: seg.matrix_at(ts))
    want = outcome(lambda: np.array([seg.matrix_at(t) for t in ts]))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.shape == want.shape == (len(ts), 2, 2)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    finite = np.isfinite(want) & (np.sign(got) == np.sign(want))
    assert np.all(same | (finite & (ulps(got, want) <= 2)))


FUNCTION_ENTRIES = [
    "sin(t)", "cos(t)", "tan(t)", "sinh(t)", "cosh(t)", "tanh(t)", "exp(t)", "log(t + 30)",
    "sqrt(t + 30)", "abs(t)", "(t - 0.3) ^ 2", "t ^ 3", "(t + 30) ^ -2", "(t + 30) ^ 1.5",
]


def test_array_matrix_at_gives_the_scalar_floats_of_every_function():
    # numpy's exp, sinh, cosh, tanh, tan, log and power differ from math's by
    # 1 ulp on some of these points; the array form must not
    seg = Segment(-20.0, 20.0, [[exprlang.parse(e) for e in FUNCTION_ENTRIES]])
    ts = np.linspace(-20.0, 20.0, 4001)
    got = seg.matrix_at(ts)
    want = np.array([seg.matrix_at(t) for t in ts])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("expr", ["log(t - 1)", "1 / (t - 0.5)", "t ^ 0.5", "sqrt(t) + exp(1000 * t)"])
def test_array_matrix_at_raises_the_scalar_domain_error(expr):
    seg = Segment(-1.0, 2.0, [[exprlang.parse(expr)]])
    ts = np.linspace(-1.0, 2.0, 13)  # holds 0.5, and t < 0 before t > 1
    with pytest.raises(DomainError) as scalar:
        for t in ts:
            seg.matrix_at(t)
    with pytest.raises(DomainError) as array:
        seg.matrix_at(ts)
    assert str(array.value) == str(scalar.value)


def test_silent_overflow_is_kept_and_flagged():
    entry = exprlang.parse("t * 1e308 * 10")
    seg = Segment(0.0, 1.0, [[-1.0, entry], [1.0, -1.0]])
    ts = np.linspace(0.0, 1.0, 11)
    got = seg.matrix_at(ts)
    assert np.array_equal(got, [seg.matrix_at(t) for t in ts])
    assert got[1, 0, 1] == 1e308 and np.isinf(got[2:, 0, 1]).all()
    with np.errstate(all="ignore"), pytest.raises(IntegrationSuspect, match="non-finite"):
        transition_matrix(TimeVaryingSystem(2, (0.0, 1.0), [seg]), 0.0, 1.0)


def _compilations(monkeypatch, name):
    """The first segment of a shipped spec, loaded while counting the stack
    forms compiled, and the list that records them."""
    built = []
    build = exprlang._stack_form
    monkeypatch.setattr(exprlang, "_stack_form", lambda *args: built.append(args) or build(*args))
    return shipped(name).system.segments[0], built


def test_array_form_is_compiled_on_first_use(monkeypatch):
    # the periodic schwarz3's first stacked call is its period check, at
    # load; none after that
    seg, built = _compilations(monkeypatch, "schwarz3")
    assert len(built) == 1
    assert seg.matrix_at(np.array([0.0, 1.0])).shape == (2, 3, 3)
    seg.matrix_at(np.array([2.0, 3.0]))
    assert len(built) == 1


def test_array_form_of_a_spec_without_period_is_compiled_on_first_stacked_call(monkeypatch):
    # none when the spec loads, one on the first stacked call, none after
    seg, built = _compilations(monkeypatch, "cosh2")
    assert not built
    assert seg.matrix_at(np.array([0.0, 1.0])).shape == (2, 2, 2)
    assert len(built) == 1
    seg.matrix_at(np.array([2.0, 3.0]))
    assert len(built) == 1


def test_boundaries_between_lists_the_interior_segment_boundaries():
    sys = shipped("switched").system
    assert ref.boundaries_between(sys, 0.0, 1.0) == [0.25, 0.5]
    assert ref.boundaries_between(sys, 0.3, 0.4) == []
