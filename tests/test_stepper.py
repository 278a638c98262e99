"""The generated RK4 stepper against the generic one over the compiled rhs.

``NonlinearSystem.stepper`` (``exprlang.compile_stepper``) must give the
floats of the generic stepper ``rk4_steps`` over ``exprlang.compile_fn``
(the rhs that ``sys.f`` runs after checking t and x) bit for bit, raise the
same DomainError where a stage leaves the domain, and so leave every
nonlinear result unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from integrate_reference import rk4_steps
from tpds import NonlinearSystem, exprlang, poincare_analysis, shipped, simulate_nonlinear
from tpds.errors import DomainError, LeftDomain
from tpds.exprlang import BinOp, Call, Neg, Num, Var, parse
from tpds.integrate import _rk4_span


def hexes(y):
    return [float(v).hex() for v in y]


def outcome(thunk):
    """hex floats of the result, or the DomainError's message."""
    try:
        with np.errstate(all="ignore"):
            return hexes(thunk())
    except DomainError as exc:
        return ("DomainError", str(exc))


def naming_the_step(advance):
    """``advance`` one step at a time, with the DomainError of the compiled
    f named as the generated stepper names it: by the start of the failing
    step, then the message of the error that f re-raised."""

    def stepwise(y, t, h, nsteps):
        for _ in range(nsteps):
            try:
                y = advance(y, t, h, 1)
            except DomainError as exc:
                raise DomainError(f"advance in the RK4 step from t = {t}: {exc.__cause__}") from exc
            t += h
        return y

    return stepwise


def both(sys, y, t, h, nsteps):
    # the generic stepper runs over compile_fn, which, like the generated
    # stepper, takes a stage state that overflowed to inf or nan as it is;
    # sys.f would raise NonFiniteInput on it
    compiled = exprlang.compile_fn(sys.rhs, sys.n, sys.input)
    generated = outcome(lambda: sys.stepper(np.array(y, dtype=float), t, h, nsteps))
    generic = outcome(lambda: naming_the_step(rk4_steps(compiled))(np.array(y, dtype=float), t, h, nsteps))
    return generated, generic


def with_generic_stepper(sys):
    """A copy of sys that integrates with rk4_steps(f), as before the
    stepper was generated."""
    ref = NonlinearSystem(sys.n, sys.rhs, sys.input, sys.jacobian, sys.period, sys.domain_box, sys.name)
    ref.stepper = rk4_steps(ref.f)
    return ref


@pytest.mark.parametrize("name", ["takac", "entrain_demo"])
def test_shipped_stepper_bit_identical(name):
    sys = shipped(name).system
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.uniform(-1.5, 1.5, sys.n)
        t0, t1 = sorted(rng.uniform(0.0, 7.0, 2))
        step = rng.uniform(1e-3, 0.05)
        got = _rk4_span(sys.stepper, y, t0, t1, step)
        ref = _rk4_span(rk4_steps(sys.f), y, t0, t1, step)
        assert got.dtype == float and got.shape == (sys.n,)
        assert hexes(got) == hexes(ref)


@pytest.mark.parametrize("name", ["takac", "entrain_demo"])
def test_poincare_and_simulation_bit_identical(name):
    sys = shipped(name).system
    ref = with_generic_stepper(sys)
    x0 = shipped(name).experiment["x0"]
    got, want = poincare_analysis(sys, x0), poincare_analysis(ref, x0)
    assert got.detected_period == want.detected_period
    assert [hexes(x) for x in got.iterates] == [hexes(x) for x in want.iterates]
    assert hexes(got.residuals) == hexes(want.residuals)
    grid = np.linspace(0.0, 2 * math.pi, 40)
    got, want = simulate_nonlinear(sys, x0, grid, step=0.02), simulate_nonlinear(ref, x0, grid, step=0.02)
    assert np.array_equal(got.state.states, want.state.states)
    assert np.array_equal(got.derivative.states, want.derivative.states)
    assert got.jacobian_in_M_plus == want.jacobian_in_M_plus


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
def test_out_of_domain_stage_raises_on_both_paths(rhs, y):
    generated, generic = both(NonlinearSystem(2, [parse(e) for e in rhs]), y, 0.0, 0.1, 3)
    assert generated[0] == "DomainError"
    assert generated == generic


def test_domain_error_names_the_function_and_the_time():
    # both used to give the bare "math domain error"; the generic stepper
    # fails in f at the stage time 0.05 of the step from 0.0
    sys = NonlinearSystem(2, [parse("-1"), parse("log(x1)")])
    y = np.array([0.01, 0.0])
    with pytest.raises(DomainError) as err:
        sys.stepper(y, 0.0, 0.1, 3)
    assert str(err.value) == "advance in the RK4 step from t = 0.0: math domain error"
    with pytest.raises(DomainError) as err:
        rk4_steps(sys.f)(y, 0.0, 0.1, 3)
    assert str(err.value) == "coefficient at t = 0.05: math domain error"


def test_left_domain_at_the_same_sample():
    sys = NonlinearSystem(
        2,
        [parse("x2 + 0.3 * cos(t)"), parse("-x1 + u")],
        input=parse("sin(3 * t)"),
        period=1.0,
        domain_box=[(-1.0, 1.0), (-1.0, 1.0)],
    )
    ref = with_generic_stepper(sys)
    grid = np.linspace(0.0, 10.0, 200)
    errors = []
    for s in (sys, ref):
        with pytest.raises(LeftDomain) as err:
            simulate_nonlinear(s, [0.9, 0.4], grid)
        errors.append((err.value.time, str(err.value)))
        with pytest.raises(LeftDomain) as err:
            poincare_analysis(s, [0.9, 0.4])
        errors.append((err.value.time, str(err.value)))
    assert errors[:2] == errors[2:]


def test_stepper_rejects_a_state_of_the_wrong_length():
    sys = shipped("entrain_demo").system
    with pytest.raises(ValueError):
        sys.stepper(np.zeros(2), 0.0, 0.1, 1)


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


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(exprs(["t", "u", "x1", "x2"]), st.floats(-2.0, 2.0)), min_size=N, max_size=N),
    exprs(["t"]),
    st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N),
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 0.2),
    st.integers(1, 12),
)
def test_random_rhs_bit_identical(rhs, u, y, t, h, nsteps):
    generated, generic = both(NonlinearSystem(N, rhs, input=u), y, t, h, nsteps)
    assert generated == generic
