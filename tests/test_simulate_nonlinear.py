"""``simulate_nonlinear`` against the per-sample loop it replaced
(``nonlinear_reference``).

The library integrates the states alone, then takes f at all the samples
in one stacked call and J in blocks of CHUNK_STEPS samples, up to the
first block with a J outside M+. Where f and J are defined and finite, the
run must be the loop's bit for bit: the same states, derivative samples
and M+ flag, or the same exception class and message. The edges where the
two part are pinned at the end, the loop's outcome next to the library's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonlinear_reference as ref
from tpds import NonlinearSystem, shipped, simulate_nonlinear
from tpds.errors import TpdsError
from tpds.exprlang import parse
from tpds.integrate import CHUNK_STEPS

DEMO = shipped("entrain_demo").system
DEMO_FD = NonlinearSystem(DEMO.n, DEMO.rhs, DEMO.input, None, DEMO.period, DEMO.domain_box, "entrain_demo_fd")
TAKAC = shipped("takac").system
LINEAR = ["-x1 + 0.1 * x2", "-x2 + 0.1 * x1"]  # a cooperative pair for the J-only cases


def system(rhs, jacobian=None, box=None):
    parsed = lambda row: [parse(e) if isinstance(e, str) else e for e in row]
    jacobian = None if jacobian is None else [parsed(r) for r in jacobian]
    return NonlinearSystem(len(rhs), parsed(rhs), jacobian=jacobian, domain_box=box)


def crossing(c, analytic, box=None):
    """x1' = -x1 + tanh(x2 - c)^2 / 2, x2' = -x2 + tanh(x1) / 2: J12 is
    negative where x2 < c, so a run on which x2 falls through c leaves M+
    there."""
    rhs = [f"-x1 + 0.5 * tanh(x2 - {c!r}) ^ 2", "-x2 + 0.5 * tanh(x1)"]
    jac = [[-1, f"tanh(x2 - {c!r}) * (1 - tanh(x2 - {c!r}) ^ 2)"], ["0.5 * (1 - tanh(x1) ^ 2)", -1]]
    return system(rhs, jac if analytic else None, box)


def outcome(thunk):
    """The run's states and derivative samples as bytes and its M+ flag, or
    the TpdsError's class and message."""
    try:
        with np.errstate(all="ignore"):
            run = thunk()
        return run.state.states.tobytes(), run.derivative.states.tobytes(), run.jacobian_in_M_plus
    except TpdsError as exc:
        return type(exc).__name__, str(exc)


def both(sys, x0, grid, step=None):
    got = outcome(lambda: simulate_nonlinear(sys, x0, grid, step))
    want = outcome(lambda: ref.simulate_nonlinear(sys, x0, grid, step))
    return got, want


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["entrain_demo", "entrain_demo_fd", "takac", "crossing", "crossing_fd"]))
    if kind.startswith("crossing"):
        # a box that some runs start outside of and some leave
        box = draw(st.sampled_from([None, [(-1.5, 1.5), (-0.2, 2.5)]]))
        sys = crossing(draw(st.floats(-1.0, 1.0)), kind == "crossing", box)
    else:
        sys = {"entrain_demo": DEMO, "entrain_demo_fd": DEMO_FD, "takac": TAKAC}[kind]
    x0 = draw(st.lists(st.floats(-2.5, 2.5), min_size=sys.n, max_size=sys.n))
    samples = draw(st.sampled_from([1, 2, 40, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 50]))
    grid = np.linspace(0.0, draw(st.sampled_from([0.0, 0.5, 3.0, 8.0])), samples)
    return sys, x0, grid, draw(st.sampled_from([None, 0.05, 0.2]))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_the_same_run_as_the_per_sample_loop(case):
    got, want = both(*case)
    assert got == want


def count_jac_calls(monkeypatch):
    calls = []
    method = NonlinearSystem.jac
    monkeypatch.setattr(NonlinearSystem, "jac", lambda self, t, x: calls.append(len(t)) or method(self, t, x))
    return calls


def test_j_leaves_m_plus_in_the_second_block(monkeypatch):
    # x2 falls through c = 0.3 at sample 505 of 600, past the first block
    grid = np.linspace(0.0, 3.0, 600)
    for analytic in (True, False):
        got, want = both(crossing(0.3, analytic), [1.0, 2.0], grid)
        assert got == want and got[2] is False
    calls = count_jac_calls(monkeypatch)
    assert not simulate_nonlinear(crossing(0.3, True), [1.0, 2.0], grid).jacobian_in_M_plus
    assert calls == [CHUNK_STEPS, CHUNK_STEPS]  # none for the block after the failure


def test_j_in_m_plus_throughout_takes_every_block(monkeypatch):
    grid = np.linspace(0.0, 20.0, 1000)
    got, want = both(DEMO, [0.5, -0.5, 1.0], grid)
    assert got == want and got[2] is True
    calls = count_jac_calls(monkeypatch)
    simulate_nonlinear(DEMO, [0.5, -0.5, 1.0], grid)
    assert calls == [CHUNK_STEPS] * 3 + [1000 - 3 * CHUNK_STEPS]


# -- where the loop and the stack part: each pinned as loop -> stack ----------


def test_a_jacobian_domain_error_past_the_first_failure_in_its_block_is_raised():
    # J12 = t - 0.5 is out of M+ at the first sample, and J21 undefined at
    # t = 1. The loop stopped taking J at the first; the block holds both.
    sys = system(LINEAR, [[-1, "t - 0.5"], ["0.1 + 0 / (t - 1)", -1]])
    got, want = both(sys, [1.0, 0.5], np.linspace(0.0, 2.0, 21))
    assert want[2] is False
    assert got == ("DomainError", "coefficient at t = 1.0: float division by zero")
    # in a later block than the failure's, J is not taken at all
    got, want = both(sys, [1.0, 0.5], np.linspace(0.0, 1.0, CHUNK_STEPS + 44))
    assert got == want and got[2] is False


def test_a_jacobian_domain_error_before_a_box_exit_gives_way_to_left_domain():
    # J12 is undefined at t = 0.5, and x1 = t leaves [0, 2] after t = 2:
    # the loop took J at t = 0.5 first; the library integrates the whole
    # run before it takes any J
    sys = system(["1", "0"], [[0, "0.1 + 0 / (t - 0.5)"], [0.1, 0]], box=[(0.0, 2.0), (-1.0, 1.0)])
    got, want = both(sys, [0.0, 0.0], np.linspace(0.0, 3.0, 31))
    assert want == ("DomainError", "coefficient at t = 0.5: float division by zero")
    assert got == ("LeftDomain", "trajectory left the domain box")


def test_a_blow_up_is_named_by_the_state():
    # both name the first non-finite sample by f's check of its state; the
    # loop over a scalar f that did not check it named J's matrix instead
    # ("in_M_plus: the matrix has a nan or infinite entry")
    sys = system(["x1 * x1 * x1 + 0.1 * x2", "0.1 * x1 - x2"], [["3 * x1 * x1", 0.1], [0.1, -1]])
    got, want = both(sys, [3.0, 0.5], np.linspace(0.0, 5.0, 50), 0.01)
    assert got == want == ("NonFiniteInput", "x [nan, nan] has a non-finite entry")


@pytest.mark.parametrize("sys", [DEMO, DEMO_FD], ids=["analytic", "fd"])
def test_one_stacked_f(sys, monkeypatch):
    calls = []
    method = NonlinearSystem.f
    monkeypatch.setattr(NonlinearSystem, "f", lambda self, t, x: calls.append(np.shape(t)) or method(self, t, x))
    simulate_nonlinear(sys, [0.5, -0.5, 1.0], np.linspace(0.0, 2.0, 300))
    assert calls == [(300,)]
