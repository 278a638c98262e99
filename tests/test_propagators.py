"""The batched RK4 propagators of ``tpds.integrate`` against the per-step
loop they replaced (``integrate_reference``), and the stack form of
``Segment.matrix_at`` that evaluates A on their stage grid against the
point form.

The propagators are built and multiplied in another order of operations
than the loop (pairwise within each block of steps), and in long double,
so results agree with the loop in double to a tolerance, not bit for bit:
a transition matrix to 1e-13 of its norm, and a trajectory state to 1e-12
of ||Phi(t, t0)|| ||z0||. With the loop in long double, Phi agrees to
within an ulp of each entry over a period, and of its largest entry over
any number of steps. Entrywise closeness of states does not hold:
``schwarz3``'s growing mode amplifies rounding differences like
exp(1.73 t), far beyond the size of its decaying components.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    simulate_linear,
    simulate_nonlinear,
    transition_matrix,
)
from tpds.errors import DomainError, IntegrationSuspect, InvalidArgument
from tpds.integrate import CHUNK_STEPS, _checked_step, _step_count, _transitions

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
    phis, _ = _transitions(sys, grid, step)
    for phi, lo, hi in zip(phis, grid, grid[1:]):
        assert close_phi(phi, ref.transition(sys, lo, hi, step))
        assert within_an_ulp_of_the_largest_entry(phi, ref.transition_long_double(sys, lo, hi, step).astype(float))


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


def test_array_form_is_compiled_on_first_use(monkeypatch):
    # none when the spec loads, one on the first stacked call, none after
    built = []
    build = exprlang._stack_form
    monkeypatch.setattr(exprlang, "_stack_form", lambda *args: built.append(args) or build(*args))
    seg = shipped("schwarz3").system.segments[0]
    assert not built
    assert seg.matrix_at(np.array([0.0, 1.0])).shape == (2, 3, 3)
    assert len(built) == 1
    seg.matrix_at(np.array([2.0, 3.0]))
    assert len(built) == 1


def test_boundaries_between_lists_the_interior_segment_boundaries():
    sys = shipped("switched").system
    assert ref.boundaries_between(sys, 0.0, 1.0) == [0.25, 0.5]
    assert ref.boundaries_between(sys, 0.3, 0.4) == []
