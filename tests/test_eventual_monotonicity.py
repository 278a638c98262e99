"""``eventual_monotonicity`` and ``line_integral_jacobian`` against the
per-sample loop they replaced (``nonlinear_reference``).

The library integrates the two states alone and takes every Jacobian of
the check in one stacked call. Where f and J are defined and finite, the
result must be the loop's bit for bit: the same (s, sign) by ``.hex()``, or
the same exception class and message. The edges where the two part, all
of them where f or J raises or is non-finite, are pinned at the end, the
loop's outcome next to the library's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonlinear_reference as ref
from tpds import NonlinearSystem, eventual_monotonicity, exprlang, shipped
from tpds.errors import TpdsError
from tpds.exprlang import parse
from tpds.nonlinear import GAUSS_LEGENDRE_POINTS, R_GRID, line_integral_jacobian

DEMO = shipped("entrain_demo").system
DEMO_FD = NonlinearSystem(DEMO.n, DEMO.rhs, DEMO.input, None, DEMO.period, DEMO.domain_box, "entrain_demo_fd")
TAKAC = shipped("takac").system
LINEAR = ["-x1 + 0.1 * x2", "-x2 + 0.1 * x1"]  # a cooperative pair for the J-only cases


def system(rhs, jacobian=None):
    parsed = lambda row: [parse(e) if isinstance(e, str) else e for e in row]
    return NonlinearSystem(len(rhs), parsed(rhs), jacobian=None if jacobian is None else [parsed(r) for r in jacobian])


def crossing(c, analytic):
    """x1' = -x1 + tanh(x2 - c)^2 / 2, x2' = -x2 + tanh(x1) / 2: J12 is
    negative where x2 < c, so J leaves M+ at the points r a + (1 - r) b
    of a segment that crosses x2 = c and stays in it elsewhere."""
    rhs = [f"-x1 + 0.5 * tanh(x2 - {c!r}) ^ 2", "-x2 + 0.5 * tanh(x1)"]
    jac = [[-1, f"tanh(x2 - {c!r}) * (1 - tanh(x2 - {c!r}) ^ 2)"], ["0.5 * (1 - tanh(x1) ^ 2)", -1]]
    return system(rhs, jac if analytic else None)


def outcome(thunk):
    """(s, sign) with s by .hex(), or the TpdsError's class and message."""
    try:
        with np.errstate(all="ignore"):
            s, sign = thunk()
        return float(s).hex(), sign
    except TpdsError as exc:
        return type(exc).__name__, str(exc)


def both(sys, a, b, horizon, samples, step=None):
    got = outcome(lambda: eventual_monotonicity(sys, a, b, horizon, samples, step))
    want = outcome(lambda: ref.eventual_monotonicity(sys, a, b, horizon, samples, step))
    return got, want


coordinates = st.floats(-2.5, 2.5)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["entrain_demo", "entrain_demo_fd", "takac", "crossing", "crossing_fd"]))
    if kind.startswith("crossing"):
        sys = crossing(draw(st.floats(-1.0, 1.0)), kind == "crossing")
    else:
        sys = {"entrain_demo": DEMO, "entrain_demo_fd": DEMO_FD, "takac": TAKAC}[kind]
    b = np.array(draw(st.lists(coordinates, min_size=sys.n, max_size=sys.n)))
    a = b + np.array(draw(st.lists(st.floats(-0.6, 0.6), min_size=sys.n, max_size=sys.n)))
    horizon = draw(st.sampled_from([0.0, 0.5, 2.0, 6.0]))
    return sys, a, b, horizon, draw(st.integers(1, 120)), draw(st.sampled_from([None, 0.05, 0.2]))


@settings(max_examples=120, deadline=None)
@given(cases())
def test_the_same_outcome_as_the_per_sample_loop(case):
    got, want = both(*case)
    assert got == want


@pytest.mark.parametrize("c", [-0.3, 0.0, 0.25])
def test_the_first_failure_in_the_order_of_the_loop(c):
    # x2 runs from c - 1 to c + 1 along the segment: r = 0 is out of M+,
    # so the loop stops at the first point and the stack must name it
    for analytic in (True, False):
        sys = crossing(c, analytic)
        got, want = both(sys, [0.2, c + 1.0], [0.1, c - 1.0], 3.0, 40)
        assert got == want
        assert got[0] == "AssumptionViolated"
    # the other way round x2 reaches c, where J12 = 0, at r = 0.5
    got, want = both(crossing(c, True), [0.1, c - 1.0], [0.2, c + 1.0], 3.0, 40)
    assert got == want == ("AssumptionViolated", "Jacobian leaves M+ at t=0, r=0.5")


def test_a_line_integral_out_of_m_plus_between_the_r_points():
    # x1 = r along the segment; J12 dips below 0 near x1 = 0.06, between
    # the r points 0 and 0.125 but at the Gauss-Legendre node 0.067
    sys = system(["0", "0"], [[-1, "1 - 100 * exp(-10000 * (x1 - 0.06) ^ 2)"], [1, -1]])
    got, want = both(sys, [1.0, 0.0], [0.0, 0.0], 1.0, 5)
    assert got == want == ("AssumptionViolated", "line-integral Jacobian leaves M+ at t=0")


def test_a_non_finite_jacobian_on_the_check_grid_raises_as_in_m_plus_does():
    # J12 is 2e308, inf, at t = 4 alone, the second check time
    sys = system(LINEAR, [[-1, "0.1 + 1e308 * (2 / (1 + 100 * (t - 4) ^ 2))"], [0.1, -1]])
    got, want = both(sys, [1.0, 0.5], [0.5, 0.2], 99.0, 100, 0.5)
    assert got == want == ("NonFiniteInput", "in_M_plus: the matrix has a nan or infinite entry")


@pytest.mark.parametrize("sys", [DEMO, DEMO_FD, TAKAC], ids=["analytic", "fd", "takac"])
def test_the_stacked_jacobians_are_those_of_jac(sys):
    # jac over a stack, and at one point, against the scalar J it replaced
    rng = np.random.default_rng(15)
    t = rng.uniform(-10.0, 10.0, 2000)
    x = rng.uniform(-3.0, 3.0, (2000, sys.n))
    got = sys.jac(t, x)
    assert got.shape == (2000, sys.n, sys.n)
    assert got.tobytes() == np.array([ref.jac(sys, s, y) for s, y in zip(t, x)]).tobytes()
    assert got.tobytes() == np.array([sys.jac(s, y) for s, y in zip(t, x)]).tobytes()
    for s, a, b in zip(t[:50], x[:50], x[50:100]):
        assert line_integral_jacobian(sys, s, a, b).tobytes() == ref.line_integral_jacobian(sys, s, a, b).tobytes()


def test_one_stacked_jacobian_and_no_calls_of_f_or_jac(monkeypatch):
    # no call of f, and one of jac: the stacked one, over all the points
    calls = []
    for name in ("f", "jac"):
        method = getattr(NonlinearSystem, name)
        monkeypatch.setattr(
            NonlinearSystem, name, lambda self, t, x, name=name, method=method: calls.append((name, np.shape(t))) or method(self, t, x)
        )
    for sys in (DEMO, DEMO_FD):
        stack = sys._jacobians
        monkeypatch.setitem(vars(sys), "_jacobians", lambda t, x, stack=stack: calls.append("stack") or stack(t, x))
        calls.clear()
        eventual_monotonicity(sys, [0.5, -0.5, 1.0], [0.4, -0.5, 1.0], 2 * np.pi, samples=100, step=0.025)
        assert calls == [("jac", (25 * (R_GRID + GAUSS_LEGENDRE_POINTS),)), "stack"]


def test_the_stacked_form_is_compiled_on_first_use(monkeypatch):
    # none when the system is built, J's on the first stacked call, none after
    built = []
    build = exprlang._stack_form
    monkeypatch.setattr(exprlang, "_stack_form", lambda *args: built.append(args) or build(*args))
    sys = NonlinearSystem(DEMO.n, DEMO.rhs, DEMO.input, DEMO.jacobian)
    assert not built
    eventual_monotonicity(sys, [0.5, -0.5, 1.0], [0.4, -0.5, 1.0], 1.0, samples=5)
    assert len(built) == 1
    eventual_monotonicity(sys, [0.5, -0.5, 1.0], [0.4, -0.5, 1.0], 1.0, samples=5)
    assert len(built) == 1


# -- where the loop and the stack part: each pinned as loop -> stack ----------


def test_a_jacobian_domain_error_at_an_unchecked_sample_is_not_seen():
    # J is undefined at t = 1 alone; the check takes t = 0, 4, 8, ...
    sys = system(LINEAR, [[-1, "0.1 + 0 / (t - 1)"], [0.1, -1]])
    got, want = both(sys, [1.0, 0.5], [0.5, 0.2], 99.0, 100, 0.5)
    assert want == ("DomainError", "coefficient at t = 1.0: float division by zero")
    assert got == ("0x0.0p+0", 1)


def test_a_non_finite_jacobian_at_an_unchecked_sample_is_not_seen():
    # J12 is 2e308, inf, at t = 1 alone
    sys = system(LINEAR, [[-1, "0.1 + 1e308 * (2 / (1 + 100 * (t - 1) ^ 2))"], [0.1, -1]])
    got, want = both(sys, [1.0, 0.5], [0.5, 0.2], 99.0, 100, 0.5)
    assert want == ("NonFiniteInput", "in_M_plus: the matrix has a nan or infinite entry")
    assert got == ("0x0.0p+0", 1)


def test_a_domain_error_in_the_stack_comes_before_an_earlier_m_plus_failure():
    # J21 = t - 0.5 is out of M+ at the first point, (t, r) = (0, 0); J12
    # is undefined at r = 0.5, where x1 = 0. The loop stopped at the
    # first; the stacked call fails at the second before any M+ test.
    sys = system(["0", "0"], [[-1, "0.1 + 0 * log(x1 ^ 2 - 1)"], ["t - 0.5", -1]])
    got, want = both(sys, [2.0, 0.0], [-2.0, 0.0], 1.0, 5)
    assert want == ("AssumptionViolated", "Jacobian leaves M+ at t=0, r=0")
    assert got == ("DomainError", "coefficient at t = 0.0: math domain error")


def test_f_undefined_at_a_sample_is_seen_by_the_stepper_or_not_at_all():
    # f is undefined at t = 1.01 alone, which no RK4 stage time hits.
    # The loop called f at every sample; the stack calls f only inside
    # the steps, and the last sample (51, off the check grid) has none.
    sys = system(["1 / (t - 1.01)"])
    got, want = both(sys, [1.0], [0.5], 1.01, 52, 0.01)
    assert want == ("DomainError", "coefficient at t = 1.01: float division by zero")
    assert got == ("0x0.0p+0", 1)
    sys = system(["1 / (t - 1.859)"])
    got, want = both(sys, [1.0], [0.5], 2 * 1.859, 3, 0.222)
    assert want == ("DomainError", "coefficient at t = 1.859: float division by zero")
    assert got == ("DomainError", "advance in the RK4 step from t = 1.859: float division by zero")


def test_a_blow_up_is_named_by_the_state_not_by_its_jacobian():
    # the loop's f checks the first non-finite sample, named x (before f
    # checked its state, J was tested there and named the matrix); the
    # stack checks the states first, as Trajectory does
    sys = system(["x1 * x1 * x1 + 0.1 * x2", "0.1 * x1 - x2"], [["3 * x1 * x1", 0.1], [0.1, -1]])
    got, want = both(sys, [3.0, 0.5], [2.9, 0.4], 5.0, 50, 0.01)
    assert want == ("NonFiniteInput", "x [nan, nan] has a non-finite entry")
    assert got == ("NonFiniteInput", "vector [nan, nan] has a non-finite entry")
