"""The generated run loops against their references.

``NonlinearSystem._run`` is the run function that
``exprlang.compile_stepper`` returns for the system, whose step picks the
loop it runs. With an explicit step it must give the floats of
the generic RK4 stepper ``rk4_steps`` over ``exprlang.compile_fn`` (the rhs
that ``sys.f`` runs after checking t and x) bit for bit, span by span
(``integrate_reference.rk4_span``); without one, those of the plain-Python
Dormand-Prince loop ``nonlinear_reference.dp5_run``, with the same accepted
and rejected steps. Both must raise the same DomainError where a stage
leaves the domain, the same LeftDomain at the same sample, and the same
IntegrationSuspect where the error control gives up.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonlinear_reference as ref
from integrate_reference import naming_the_step, rk4_span, rk4_steps
from tpds import NonlinearSystem, cli, exprlang, poincare_analysis, shipped, simulate_nonlinear, specfile
from tpds.errors import DomainError, IntegrationSuspect, LeftDomain, TpdsError
from tpds.exprlang import BinOp, Call, Neg, Num, Var, parse


def hexes(y):
    return [float(v).hex() for v in np.ravel(y)]


def outcome(thunk):
    """hex floats of the states, or the TpdsError's class and message."""
    try:
        with np.errstate(all="ignore"):
            return [hexes(y) for y in thunk()]
    except TpdsError as exc:
        return (type(exc).__name__, str(exc))


def both(sys, y, times, step=None):
    """The generated loop's states and tally, and the reference's."""
    tallies = [[0, 0], [0, 0]]
    generated = outcome(lambda: list(sys._run(np.array(y, dtype=float), times, step, tallies[0])))
    reference = outcome(lambda: list(ref.run(sys, y, times, step, tallies[1])))
    return (generated, tallies[0]), (reference, tallies[1])


def system(rhs, **kwargs):
    return NonlinearSystem(len(rhs), [parse(e) if isinstance(e, str) else e for e in rhs], **kwargs)


@pytest.mark.parametrize("name", ["takac", "entrain_demo"])
def test_shipped_spans_bit_identical(name):
    sys = shipped(name).system
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.uniform(-1.5, 1.5, sys.n)
        t0, t1 = sorted(rng.uniform(0.0, 7.0, 2))
        step = rng.uniform(1e-3, 0.05)
        got = list(sys._run(y, [t0, t1], step, [0, 0]))[-1]
        want = rk4_span(rk4_steps(sys.f), y, t0, t1, step)
        assert got.dtype == float and got.shape == (sys.n,)
        assert hexes(got) == hexes(want)
        generated, reference = both(sys, y, [t0, 0.5 * (t0 + t1), t1])
        assert generated == reference


@pytest.mark.parametrize("name", ["takac", "entrain_demo"])
@pytest.mark.parametrize("step", [None, 0.02])
def test_poincare_and_simulation_bit_identical(name, step):
    sys = shipped(name).system
    x0 = shipped(name).experiment["x0"]
    got = poincare_analysis(sys, x0, step=step)
    tally = [0, 0]
    times = [k * sys.period for k in range(len(got.iterates))]
    want = list(ref.run(sys, x0, times, step, tally))
    assert [hexes(x) for x in got.iterates] == [hexes(x) for x in want]
    assert [got.accepted_steps, got.rejected_steps] == tally
    grid = np.linspace(0.0, 2 * math.pi, 40)
    got, want = simulate_nonlinear(sys, x0, grid, step), ref.simulate_nonlinear(sys, x0, grid, step)
    assert got.state.states.tobytes() == want.state.states.tobytes()
    assert got.derivative.states.tobytes() == want.derivative.states.tobytes()
    assert got.jacobian_in_M_plus == want.jacobian_in_M_plus
    assert (got.accepted_steps, got.rejected_steps) == (want.accepted_steps, want.rejected_steps)


@pytest.mark.parametrize("step", [None, 0.1])
@pytest.mark.parametrize(
    "rhs, y",
    [
        # x1 falls below 0 from the second stage on
        (["-1", "log(x1)"], [0.01, 0.0]),
        (["-1", "sqrt(x1)"], [0.01, 0.0]),
        (["-1", "x1 ^ 0.5"], [0.01, 0.0]),
        (["x1 + 0 ^ -1", "x2"], [1.0, 1.0]),
        (["x1 ^ 2", "x2"], [1e200, 1.0]),
    ],
)
def test_out_of_domain_stage_raises_on_both_paths(rhs, y, step):
    generated, reference = both(system(rhs), y, [0.0, 0.3], step)
    assert generated[0][0] == "DomainError"
    assert generated == reference


def test_domain_error_names_the_function_and_the_time():
    # both used to give the bare "math domain error"; the compiled f fails
    # at the stage time 0.05 of the step from 0.0
    sys = system(["-1", "log(x1)"])
    y = np.array([0.01, 0.0])
    with pytest.raises(DomainError) as err:
        list(sys._run(y, [0.0, 0.3], 0.1, [0, 0]))
    assert str(err.value) == "advance in the RK4 step from t = 0.0: math domain error"
    with pytest.raises(DomainError) as err:
        list(sys._run(y, [0.0, 0.3], None, [0, 0]))
    assert re.fullmatch(r"advance in the DP5 step from t = \S+: math domain error", str(err.value))
    with pytest.raises(DomainError) as err:
        rk4_steps(sys.f)(y, 0.0, 0.1, 3)
    assert str(err.value) == "coefficient at t = 0.05: math domain error"


@pytest.mark.parametrize("step", [None, 0.02])
def test_left_domain_at_the_same_sample(step):
    sys = system(
        ["x2 + 0.3 * cos(t)", "-x1 + u"],
        input=parse("sin(3 * t)"),
        period=1.0,
        domain_box=[(-1.0, 1.0), (-1.0, 1.0)],
    )
    grid = np.linspace(0.0, 10.0, 200)
    with pytest.raises(LeftDomain) as err:
        simulate_nonlinear(sys, [0.9, 0.4], grid, step)
    with pytest.raises(LeftDomain) as want:
        ref.simulate_nonlinear(sys, [0.9, 0.4], grid, step)
    assert (err.value.time, str(err.value)) == (want.value.time, str(want.value))
    with pytest.raises(LeftDomain) as err:
        poincare_analysis(sys, [0.9, 0.4], step=step)
    with pytest.raises(LeftDomain) as want:
        list(ref.run(sys, [0.9, 0.4], range(101), step))
    assert (err.value.time, str(err.value)) == (want.value.time, str(want.value))


def test_a_loop_rejects_a_state_of_the_wrong_length():
    sys = shipped("entrain_demo").system
    for step in (None, 0.1):
        with pytest.raises(ValueError):
            next(sys._run(np.zeros(2), [0.0, 1.0], step, [0, 0]))


def test_each_loop_is_compiled_on_first_use(monkeypatch):
    # the loops compiled, by mode: "RK4" or "DP5" from the step named in
    # their DomainError messages
    compiled = []
    define = exprlang._define

    def counting(signature, *args, **kw):
        if signature.startswith("advance("):
            compiled.append(kw["at"].split()[2])
        return define(signature, *args, **kw)

    monkeypatch.setattr(exprlang, "_define", counting)
    specfile.loads(specfile.dumps(shipped("entrain_demo")))
    sys = system(["-x1"], period=1.0)
    assert not compiled
    poincare_analysis(sys, [0.5])
    poincare_analysis(sys, [0.5])
    assert compiled == ["DP5"]
    simulate_nonlinear(sys, [0.5], [0.0, 1.0], step=0.1)
    simulate_nonlinear(sys, [0.5], [0.0, 1.0], step=0.2)
    assert compiled == ["DP5", "RK4"]
    simulate_nonlinear(sys, [0.5], [0.0, 1.0])
    assert compiled == ["DP5", "RK4"]


def test_the_adaptive_loop_lands_on_every_time_and_carries_its_step_size():
    # x' = -x: the states at the samples are those of exp(-t) to within the
    # tolerance, and samples closer than the step size take a step each
    sys = system(["-x1"])
    tally = [0, 0]
    grid = [0.0, 1e-9, 2e-9, 0.5, 3.0, 3.0, 7.5]
    states = np.array(list(sys._run(np.array([1.0]), grid, None, tally)))[:, 0]
    assert np.abs(states - np.exp(-np.array(grid))).max() < 1e-9
    assert states[4] == states[5]
    coarse = [0, 0]
    list(sys._run(np.array([1.0]), [0.0, 7.5], None, coarse))
    # the two sub-nanosecond samples cost a step each and the landings on
    # 0.5 and 3.0 at most one more each: the step size after a cut step is
    # the one it was cut from, not its own (108 steps against 105)
    assert tally[0] <= coarse[0] + 4 and tally[1] == coarse[1] == 0


@pytest.mark.parametrize("name", ["takac", "entrain_demo"])
def test_the_adaptive_loop_against_dop853(name):
    # one period from the spec's x0, against scipy's DOP853 at rtol 1e-13
    from scipy.integrate import solve_ivp

    sys = shipped(name).system
    x0 = np.array(shipped(name).experiment["x0"], dtype=float)
    grid = np.linspace(0.0, sys.period, 9)
    got = simulate_nonlinear(sys, x0, grid).state.states
    want = solve_ivp(sys.f, (0.0, sys.period), x0, t_eval=grid, method="DOP853", rtol=1e-13, atol=1e-13).y.T
    assert np.abs(got - want).max() < 1e-9


def test_a_finite_time_blow_up_raises_naming_t():
    # x' = x^2 from 1 is 1 / (1 - t): the steps shrink towards t = 1 until
    # the error control gives up, by the step size or a non-finite estimate
    sys = system(["x1 * x1"])
    with pytest.raises(IntegrationSuspect) as err:
        simulate_nonlinear(sys, [1.0], [0.0, 2.0])
    t = float(re.search(r"t = (\S+)", str(err.value)).group(1).rstrip(")"))
    assert 0.99 < t <= 1.0


def test_a_non_finite_error_estimate_raises_naming_t():
    # 1e300 x2 overflows once x2 > 1.8e8, and inf - inf is nan: the first
    # stage past that makes the estimate nan; a nan norm used to be
    # rejected again and again
    sys = system(["1e300 * x2 - 1e300 * x2", "1e10"])
    with pytest.raises(IntegrationSuspect, match=r"^the DP5 error estimate is nan in the step from t = \S+$"):
        simulate_nonlinear(sys, [0.0, 0.0], [0.0, 1.0])
    generated, reference = both(sys, [0.0, 0.0], [0.0, 1.0])
    assert generated == reference


def test_a_blow_up_exits_4(tmp_path, capsys):
    spec = tmp_path / "blowup.spec"
    spec.write_text('meta: {name: blowup, n: 1}\nnonlinear: {rhs: ["x1 * x1"]}\nexperiment: {x0: [1.0], horizon: 2.0}\n')
    assert cli.main(["simulate", str(spec), "--out", str(tmp_path / "out.csv")]) == 4
    assert "numerical suspect: the DP5" in capsys.readouterr().err


def test_integral_exponent_is_a_bare_power():
    code = exprlang._pycode(parse("x1 ^ 3 + x1 ^ -2 + x1 ^ 0.5 + (-x1) ^ 2"))
    assert code.count("_pow(") == 1 and "** 3.0" in code and "** (-2.0)" in code
    # a negative literal base keeps its sign under an even power
    assert exprlang.compile_fn(BinOp("^", Num(-2.0), Num(2.0)))(0.0) == 4.0


# -- random right-hand sides --------------------------------------------

N = 2
NUMBERS = st.floats(-3.0, 3.0, allow_nan=False).map(Num)
EXPONENTS = st.one_of(
    st.integers(-3, 4).map(lambda k: Num(float(k))),
    st.integers(1, 3).map(lambda k: Neg(Num(float(k)))),
    st.sampled_from([0.5, 1.5, 2.25]).map(Num),
)


def exprs(names):
    """ASTs over the given variables, with integral and non-integral ^."""

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(lambda base, k: BinOp("^", base, k), children, EXPONENTS),
            st.builds(Call, st.sampled_from(["sin", "cos", "tanh", "exp", "log", "sqrt", "abs"]), children),
        )

    return st.recursive(st.one_of(st.sampled_from([Var(v) for v in names]), NUMBERS), extend, max_leaves=8)


RHS = st.lists(st.one_of(exprs(["t", "u", "x1", "x2"]), st.floats(-2.0, 2.0)), min_size=N, max_size=N)
STATES = st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N)


@settings(max_examples=150, deadline=None)
@given(RHS, exprs(["t"]), STATES, st.floats(-3.0, 3.0), st.floats(1e-3, 0.2), st.integers(1, 12))
def test_random_rhs_rk4_bit_identical(rhs, u, y, t, h, nsteps):
    # nsteps steps of h, as one span of the loop and by the generic stepper
    sys = NonlinearSystem(N, rhs, input=u)
    compiled = exprlang.compile_fn(sys.rhs, sys.n, sys.input)
    t1 = t + nsteps * h
    generated = outcome(lambda: list(sys._run(np.array(y), [t, t1], h, [0, 0]))[-1:])
    generic = outcome(lambda: [rk4_span(naming_the_step(rk4_steps(compiled)), np.array(y), t, t1, h)])
    assert generated == generic


@settings(max_examples=150, deadline=None)
@given(RHS, exprs(["t"]), STATES, st.floats(-3.0, 3.0), st.lists(st.floats(0.0, 0.3), min_size=1, max_size=4))
def test_random_rhs_dp5_bit_identical(rhs, u, y, t, gaps):
    # the states, the accepted and rejected steps, or the error, at the
    # times t + the running sums of the gaps
    times = list(np.cumsum([t] + gaps))
    generated, reference = both(NonlinearSystem(N, rhs, input=u), y, times)
    assert generated == reference
