"""One rule per argument kind, and typed errors for every malformed argument.

A square matrix goes through ``totalpos._as_matrix``, a vector's
finiteness through ``signvar._check_finite``, a state through
``integrate._checked_state``, a step through ``integrate._checked_step``
and an experiment value, from the spec or the command line, through
``specfile._SETTINGS``. The properties at the end draw nan, +-inf, empty,
wrong-shape, 1e308 and 5e-324 arguments for the public entry points and
the CLI, and a malformed argument must end in a TpdsError (exit 2, 3 or
4), never in a bare exception or a verdict.
"""

import math

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import tpds
from tpds import cli, matio, specfile
from tpds.compound import add_compound, is_metzler, metzler_compound_profile, mult_compound
from tpds.errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFiniteInput,
    NotTridiagonal,
    OrderOutOfRange,
    OutOfInterval,
    SpecFileError,
    TpdsError,
)
from tpds.nonlinear import NonlinearSystem, line_integral_jacobian
from tpds.systems import TimeVaryingSystem, in_M, in_M_plus, offdiag_min

NAN, INF = math.nan, math.inf
DEMO = tpds.shipped("entrain_demo").system
# no domain box, so a nan state is not caught by the box test first
FREE = NonlinearSystem(n=2, rhs=[tpds.exprlang.parse(e) for e in ("-x1", "x1 - x2")], period=1.0)
COSH2 = tpds.shipped("cosh2").system


def spec_file(tmp_path, name, **experiment):
    spec = tpds.shipped(name)
    spec.experiment.update(experiment)
    path = tmp_path / f"{name}.spec"
    specfile.save(spec, path)
    return str(path)


# -- edge behaviours that each rule now owns ---------------------------------


def test_spec_horizon_must_be_positive(tmp_path, capsys):
    # exited 3 (OutOfInterval from the empty grid) where --horizon -5 exited 2
    path = spec_file(tmp_path, "takac", horizon=-5)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: experiment.horizon must be a positive finite number, got -5\n"


@pytest.mark.parametrize(
    "option, message",
    [
        (["--tol", "-1"], "--tol must be a positive finite number, got -1.0"),
        (["--tol", "nan"], "--tol must be a positive finite number, got nan"),
        (["--tol", "inf"], "--tol must be a positive finite number, got inf"),
        (["--tol", "0"], "--tol must be a positive finite number, got 0.0"),
        (["--max-iters", "0"], "--max-iters must be a positive integer, got 0"),
        (["--max-iters", "-1"], "--max-iters must be a positive integer, got -1"),
    ],
)
def test_entrain_bad_tol_or_max_iters_exits_2(tmp_path, capsys, option, message):
    # ran 100 iterates and exited 3 with NoConvergence
    assert cli.main(["entrain", spec_file(tmp_path, "entrain_demo")] + option) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_spec_and_command_line_values_share_one_converter(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for key, value in [("grid", -5), ("step", 0), ("horizon", 0)]:
        assert cli.main(["simulate", spec_file(tmp_path, "takac", **{key: value}), "--out", out]) == 2
        spec_err = capsys.readouterr().err
        assert cli.main(["simulate", spec_file(tmp_path, "takac"), "--out", out, f"--{key}", str(value)]) == 2
        option_err = capsys.readouterr().err
        assert spec_err.replace(f"experiment.{key}", "X").split(", got")[0] == option_err.replace(
            f"--{key}", "X"
        ).split(", got")[0]


@pytest.mark.parametrize("command, option", [("simulate", "--z0"), ("entrain", "--x0")])
def test_a_non_finite_initial_state_option_exits_2(tmp_path, capsys, command, option):
    # as experiment.x0: [.nan, 1, 2] does; it exited 3 (LeftDomain)
    path = spec_file(tmp_path, "entrain_demo")
    extra = ["--horizon", "1", "--out", str(tmp_path / "x.csv")] if command == "simulate" else []
    assert cli.main([command, path, option, "nan,0.2,0.3"] + extra) == 2
    assert capsys.readouterr().err == f"error: an entry of {option} must be a finite number, got nan\n"


@pytest.mark.parametrize("sys", [DEMO, FREE], ids=["boxed", "free"])
def test_a_nan_initial_state_raises_before_any_step(sys):
    # ended in LeftDomain (boxed) or NoConvergence / NonFiniteInput (free)
    x0 = [NAN] + [0.2] * (sys.n - 1)
    with pytest.raises(NonFiniteInput, match=r"x0 \[nan"):
        tpds.poincare_analysis(sys, x0, max_iters=3)
    with pytest.raises(NonFiniteInput, match=r"x0 \[nan"):
        tpds.simulate_nonlinear(sys, x0, [0.0, 1.0])
    with pytest.raises(NonFiniteInput, match=r"a0 \[nan"):
        tpds.eventual_monotonicity(sys, x0, [0.1] * sys.n, 1.0, samples=5)


@pytest.mark.parametrize("method", ["f", "jac"])
@pytest.mark.parametrize("sys", [DEMO, FREE], ids=["analytic", "fd"])
def test_f_and_jac_take_a_state_or_a_stack_by_the_state_rule(sys, method):
    # a wrong-length state leaked a bare IndexError from the compiled f or J
    call, n = getattr(sys, method), sys.n
    t = np.zeros(2)
    for args, shape in [
        ((0.0, [0.1] * (n - 1)), f"{n} entries, got shape ({n - 1},)"),
        ((0.0, [[0.1] * n]), f"{n} entries, got shape (1, {n})"),
        ((t, np.zeros((2, n + 1))), f"2 states of {n} entries, got shape (2, {n + 1})"),
        ((t, np.zeros((3, n))), f"2 states of {n} entries, got shape (3, {n})"),
        ((t, np.zeros((2, n, 1))), f"2 states of {n} entries, got shape (2, {n}, 1)"),
    ]:
        with pytest.raises(DimensionMismatch) as err:
            call(*args)
        assert str(err.value) == f"x must hold {shape}"
    x = np.full((2, n), 0.1)
    x[1, -1] = -INF
    for args, row in [((0.0, [NAN] + [0.1] * (n - 1)), [NAN] + [0.1] * (n - 1)), ((t, x), x[1].tolist())]:
        with pytest.raises(NonFiniteInput) as err:
            call(*args)
        assert str(err.value) == f"x {row} has a non-finite entry"
    stack = call(t, np.full((2, n), 0.1))
    assert stack.shape == (2, n) + ((n,) if method == "jac" else ())
    assert stack[1].tobytes() == call(0.0, [0.1] * n).tobytes()


@pytest.mark.parametrize("method", ["f", "jac"])
@pytest.mark.parametrize("sys", [DEMO, FREE], ids=["analytic", "fd"])
def test_f_and_jac_take_a_time_or_a_stack_by_the_time_rule(sys, method):
    # a (2, 1) t leaked a bare TypeError from f and gave a stack from jac; a
    # nan t was evaluated silently
    call, n = getattr(sys, method), sys.n
    with pytest.raises(DimensionMismatch) as err:
        call(np.zeros((2, 1)), np.zeros((2, n)))
    assert str(err.value) == "t must be one time or a 1-d array of times, got shape (2, 1)"
    for t, x in [(NAN, [0.1] * n), (INF, [0.1] * n), ([0.0, NAN], np.full((2, n), 0.1))]:
        with pytest.raises(NonFiniteInput) as err:
            call(t, x)
        assert str(err.value) == f"t [{float(np.ravel(t)[-1])}] has a non-finite entry"
    # t is checked before x
    with pytest.raises(NonFiniteInput, match=r"^t \[nan\]"):
        call(NAN, [NAN] * (n - 1))


def test_a_segment_takes_a_time_or_a_stack_by_the_time_rule():
    # [[0.1]] gave a (1, n, n) stack; nan gave A(nan)
    seg = tpds.shipped("switched").system.segments[0]
    with pytest.raises(DimensionMismatch, match=r"got shape \(1, 1\)$"):
        seg.matrix_at([[0.1]])
    for t in (NAN, -INF, [0.1, NAN]):
        with pytest.raises(NonFiniteInput, match=r"^t \[-?(nan|inf)\] has a non-finite entry$"):
            seg.matrix_at(t)
    assert seg.matrix_at([]).shape == (0,) + seg.matrix_at(0.1).shape


def test_a_nan_time_is_outside_the_interval():
    # the comparisons with nan were all False, so nan fell through to the
    # last segment and matrix_at gave its A
    switched = tpds.shipped("switched").system
    for call in (switched.segment_index, switched.matrix_at):
        with pytest.raises(OutOfInterval, match=r"^t=nan outside"):
            call(NAN)


@pytest.mark.parametrize("t", [1j, "abc", np.array([0.1j])], ids=["complex", "text", "complex-array"])
def test_a_complex_or_non_numeric_time_is_an_invalid_argument(t):
    # a bare TypeError (1j) or ValueError ("abc"); a complex array was cast
    # to its real part with a ComplexWarning
    switched = tpds.shipped("switched").system
    for call in (switched.segments[0].matrix_at, switched.matrix_at, lambda t: DEMO.f(t, OK_X)):
        with pytest.raises(InvalidArgument) as err:
            call(t)
        assert str(err.value) == f"t must hold real numbers, got {t!r}"


@pytest.mark.parametrize("x", [["a", "b", "c"], [1j, 0.2, 0.3], "abc"], ids=["text", "complex", "string"])
def test_a_complex_or_non_numeric_state_is_an_invalid_argument(x):
    # a bare ValueError or TypeError from the float conversion
    for call, name in [
        (lambda: DEMO.f(0.0, x), "x"),
        (lambda: DEMO.jac(0.0, x), "x"),
        (lambda: tpds.simulate_nonlinear(DEMO, x, [0.0, 1.0]), "x0"),
        (lambda: tpds.poincare_analysis(DEMO, x, max_iters=2), "x0"),
    ]:
        with pytest.raises(InvalidArgument) as err:
            call()
        assert str(err.value) == f"{name} must hold real numbers, got {x!r}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tpds.simulate_nonlinear(DEMO, OK_X, ["a", "b"]), "grid must hold real numbers, got ['a', 'b']"),
        (lambda: tpds.simulate_nonlinear(DEMO, OK_X, [0, 1j]), "grid must hold real numbers, got [0, 1j]"),
        (lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], [0, 1j]), "grid must hold real numbers, got [0, 1j]"),
        (lambda: tpds.transition_matrix(COSH2, 0.0, 1j), "t must hold real numbers, got 1j"),
        (lambda: tpds.transition_matrix(COSH2, "abc", 1.0), "t0 must hold real numbers, got 'abc'"),
        (lambda: tpds.compound_transition(COSH2, 1, 0.0, 1j), "t must hold real numbers, got 1j"),
        (
            lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], horizon="abc"),
            "horizon must hold real numbers, got 'abc'",
        ),
    ],
)
def test_a_complex_or_non_numeric_grid_or_end_time_is_an_invalid_argument(call, message):
    # a bare ValueError ("could not convert string to float") or TypeError
    # ("'<=' not supported"), from the grid's float conversion or the
    # interval test
    with pytest.raises(InvalidArgument) as err:
        call()
    assert str(err.value) == message


def test_a_system_takes_one_time_by_the_time_rule():
    # a bare ValueError ("The truth value of an array ... is ambiguous")
    switched = tpds.shipped("switched").system
    for call in (switched.segment_index, switched.matrix_at, lambda t: tpds.transition_matrix(switched, 0.0, t)):
        with pytest.raises(DimensionMismatch) as err:
            call(np.array([0.1, 0.2]))
        assert str(err.value) == "t must be one time, got shape (2,)"
    with pytest.raises(DimensionMismatch, match=r"^t0 must be one time, got shape \(2,\)$"):
        tpds.compound_transition(switched, 2, [0.1, 0.2], 0.5)


def test_a_line_integral_takes_one_time():
    # raised "x must hold 32 states of 3 entries"
    with pytest.raises(DimensionMismatch) as err:
        line_integral_jacobian(DEMO, [1.0, 2.0], OK_X, [0.2, 0.1, 0.3])
    assert str(err.value) == "t must be one time, got shape (2,)"


@pytest.mark.parametrize(
    "p, error, message",
    [
        (1.5, InvalidArgument, "p must be an integer >= 1, got 1.5"),
        (True, InvalidArgument, "p must be an integer >= 1, got True"),
        (0, InvalidArgument, "p must be an integer >= 1, got 0"),
        (3, OrderOutOfRange, "order 3 outside 1..2"),
    ],
)
def test_compound_transition_checks_p_before_any_step(monkeypatch, p, error, message):
    # 1.5 leaked a bare TypeError after a whole integration; True ran as 1
    def no_step(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(tpds.integrate, "transition_matrix", no_step)
    with pytest.raises(error) as err:
        tpds.compound_transition(COSH2, p, 0.0, 2.0)
    assert str(err.value) == message


def test_a_grid_too_large_to_allocate_is_an_invalid_argument():
    # numpy's bare MemoryError ("Unable to allocate 7.11 PiB"); 10**15 fails
    # before anything is allocated
    with pytest.raises(InvalidArgument, match=r"^a grid of 1000000000000000 samples cannot be allocated$"):
        tpds.classify_time_varying(COSH2, grid=10**15)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"q_max": 2.5}, "q_max must be an integer >= 1, got 2.5"),
        ({"q_max": 0}, "q_max must be an integer >= 1, got 0"),
        ({"max_iters": -3}, "max_iters must be an integer >= 1, got -3"),
        ({"max_iters": 0}, "max_iters must be an integer >= 1, got 0"),
        ({"tol": 0}, "tol must be a positive finite number, got 0"),
        ({"tol": NAN}, "tol must be a positive finite number, got nan"),
        ({"tol": -1e-6}, "tol must be a positive finite number, got -1e-06"),
        ({"tol": "1e-6"}, "tol must be a positive finite number, got 1e-6"),
    ],
)
def test_poincare_counts_and_tolerance_raise_before_any_iterate(monkeypatch, kwargs, message):
    # q_max=2.5 raised a bare TypeError; the others ran up to 100 iterates
    # and ended in NoConvergence ("no period <= 0 detected ...")
    def no_iterate(*args):
        raise AssertionError("iterated")

    monkeypatch.setattr(tpds.nonlinear, "_rk4_span", no_iterate)
    with pytest.raises(InvalidArgument) as err:
        tpds.poincare_analysis(DEMO, OK_X, **kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("t", [NAN, INF, -INF])
def test_a_non_finite_line_integral_time_raises_naming_t(t):
    # nan gave a J with a nan diagonal, inf a DomainError
    takac = tpds.shipped("takac").system
    with pytest.raises(NonFiniteInput, match=r"^t \[.*\] has a non-finite entry$"):
        line_integral_jacobian(takac, t, [1.0, 0.0, -1.0, 0.0], [1.0, 0.1, -1.0, 0.0])


def test_zero_samples_raise_invalid_argument():
    # raised OutOfInterval about the empty grid the count made
    with pytest.raises(InvalidArgument) as err:
        tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], 1.0, samples=0)
    assert str(err.value) == "samples must be an integer >= 1, got 0"
    # one sample, at t = 0, is the least grid
    assert tpds.eventual_monotonicity(DEMO, OK_X, [0.05, 0.2, 0.3], 1.0, samples=1) == (0.0, 1)


SINUSOIDAL2 = tpds.shipped("sinusoidal2").system


@pytest.mark.parametrize(
    "horizon, error, message",
    [
        ("abc", InvalidArgument, "horizon must hold real numbers, got 'abc'"),
        (-1, OutOfInterval, "horizon must be a finite time >= 0, got -1"),
        (NAN, OutOfInterval, "horizon must be a finite time >= 0, got nan"),
        (INF, OutOfInterval, "horizon must be a finite time >= 0, got inf"),
        ([1.0, 2.0], OutOfInterval, "horizon must be a finite time >= 0, got [1.0, 2.0]"),
    ],
)
def test_the_horizon_is_named_with_the_value_given(horizon, error, message):
    # these named a grid [0.0, horizon] that the caller never passed
    with pytest.raises(error) as err:
        tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], horizon=horizon)
    assert str(err.value) == message


@pytest.mark.parametrize("horizon", [-1, NAN, 1e9])
def test_the_floquet_horizon_is_named_with_the_value_given(horizon):
    fd = tpds.floquet(SINUSOIDAL2, step=0.05)
    with pytest.raises(OutOfInterval) as err:
        tpds.floquet_mode_evolution(SINUSOIDAL2, fd, {1: 1.0}, horizon=horizon)
    b = SINUSOIDAL2.interval[1]
    assert str(err.value) == f"horizon must be a finite time >= 0 within [0.0, {b}], got {horizon!r}"
    with pytest.raises(InvalidArgument, match=r"^horizon must hold real numbers, got 'abc'$"):
        tpds.floquet_mode_evolution(SINUSOIDAL2, fd, {1: 1.0}, horizon="abc")


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
def test_a_sampled_check_draws_at_least_one_vector(count):
    # 0 and -1 answered True from no vector at all, 2.5 leaked a bare
    # TypeError; B = [[1, -1], [1, 1]] fails the strong bound
    B = np.array([[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(InvalidArgument) as err:
        tpds.strong_svdp_holds(B, rng=0, vectors_per_pattern=count)
    assert str(err.value) == f"vectors_per_pattern must be an integer >= 1, got {count!r}"
    assert tpds.strong_svdp_holds(B, rng=0) is False
    U = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(InvalidArgument) as err:
        tpds.column_set_equivalence(U, trials=count, rng=0)
    assert str(err.value) == f"trials must be an integer >= 1, got {count!r}"
    assert tpds.column_set_equivalence(U, trials=1, rng=0) == (True, True)


@pytest.mark.parametrize("zero_tol", ["a", -1.0, NAN, np.array([0.1, 0.2])])
def test_a_zero_tolerance_that_is_not_a_nonnegative_number_is_an_invalid_argument(zero_tol):
    # "a" leaked a bare TypeError ("'>=' not supported"), an array a bare
    # ValueError ("truth value ... is ambiguous")
    for call in (
        lambda: tpds.signs([1.0, -2.0], zero_tol=zero_tol),
        lambda: tpds.svdp_check(np.eye(2), [1.0, -2.0], zero_tol=zero_tol),
    ):
        with pytest.raises(InvalidArgument, match=r"^zero_tol must be nonnegative$"):
            call()


def test_a_bad_step_raises_even_where_no_span_needs_one():
    # returned a one-sample trajectory
    with pytest.raises(InvalidArgument, match="step must be a positive finite number, got -1"):
        tpds.simulate_nonlinear(DEMO, [0.1, 0.2, 0.3], [0.0], step=-1)


@pytest.mark.parametrize("step", [5e-324, 1e-20])
def test_a_step_too_small_to_count_raises(step):
    # length / 5e-324 overflowed to inf and math.ceil raised a bare
    # OverflowError; 1e20 steps overflowed numpy's int64 step counts
    calls = [
        lambda: tpds.transition_matrix(COSH2, 0.0, 1.0, step=step),
        lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], [0.0, 1.0], step=step),
        lambda: tpds.simulate_nonlinear(DEMO, [0.1, 0.2, 0.3], [0.0, 1.0], step=step),
        lambda: tpds.poincare_analysis(DEMO, [0.1, 0.2, 0.3], step=step),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match=f"step {step} is too small for a span of"):
            call()


def test_the_default_step_of_an_empty_span_is_not_checked():
    # a grid of one repeated time has no span to step; it raised
    # InvalidArgument when its default step was 1e-3 of that span, 0
    run = tpds.simulate_nonlinear(DEMO, [0.1, 0.2, 0.3], [0.0, 0.0])
    assert np.array_equal(run.state.states, [[0.1, 0.2, 0.3]] * 2)


@pytest.mark.parametrize(
    "call",
    [lambda A: mult_compound(A, 1), is_metzler, metzler_compound_profile],
    ids=["mult_compound", "is_metzler", "metzler_compound_profile"],
)
def test_an_empty_square_matrix_is_a_dimension_mismatch(call):
    # mult_compound raised OrderOutOfRange, is_metzler returned True and the
    # profile []
    with pytest.raises(DimensionMismatch, match="expects a nonempty square matrix"):
        call(np.zeros((0, 0)))


SQUARE = {
    "classify": tpds.classify,
    "is_geb": tpds.is_geb,
    "geb_factorize": tpds.geb_factorize,
    "oscillatory_spectrum": tpds.oscillatory_spectrum,
    "is_dominant_tridiagonal_TN": tpds.is_dominant_tridiagonal_TN,
    "mult_compound": lambda A: mult_compound(A, 1),
    "is_metzler": is_metzler,
    "metzler_compound_profile": metzler_compound_profile,
    "in_M": in_M,
    "in_M_plus": in_M_plus,
    "offdiag_min": offdiag_min,
    "classify_constant": tpds.classify_constant,
    "negative_minor_witness": lambda A: tpds.negative_minor_witness(A, 3, 1),
    "TimeVaryingSystem.constant": TimeVaryingSystem.constant,
}


@pytest.mark.parametrize("name", sorted(SQUARE))
@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_every_square_matrix_function_has_the_one_finiteness_message(name, bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(NonFiniteInput) as info:
        SQUARE[name](A)
    assert str(info.value) == f"{name}: the matrix has a nan or infinite entry"


def test_the_pinned_exceptions_to_the_matrix_rule():
    A = np.array([[1.0, 2.0], [3.0, NAN]])
    assert tpds.minor(A, (1,), (2,)) == 2.0  # a finite submatrix of a non-square-rule function
    with pytest.raises(NotTridiagonal):
        tpds.is_dominant_tridiagonal_TN([1.0, 2.0])


def test_the_one_vector_message():
    for call in [
        lambda: tpds.signs([1.0, INF]),
        lambda: tpds.Trajectory(np.arange(2.0), np.array([[1.0, 0.0], [INF, 1.0]])),
        lambda: tpds.strong_svdp_holds(np.array([[1.0, 0.0], [0.0, INF]]), rng=0),
    ]:
        with pytest.raises(NonFiniteInput, match=r"^vector \[.*\] has a non-finite entry$"):
            call()
    with pytest.raises(NonFiniteInput, match=r"^z0 \[1.0, inf\] has a non-finite entry$"):
        tpds.simulate_linear(COSH2, [1.0, INF], [0.0, 1.0])


# -- properties -------------------------------------------------------------

BAD = [NAN, INF, -INF]
EXTREME = [1e308, -1e308, 5e-324, -5e-324]
entries = st.sampled_from(BAD + EXTREME + [0.0, 1.0, -1.0, 2.5])


@st.composite
def arrays(draw, shape):
    return np.array(draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)


@st.composite
def bad_matrices(draw):
    """Empty, not 2-d, non-square or with a nan or inf entry; other entries
    drawn from 0, +-1, 2.5, +-1e308 and +-5e-324."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["empty", "ndim", "non-square", "non-finite"]))
    if kind == "empty":
        return np.zeros(draw(st.sampled_from([(0,), (0, 0), (0, n), (n, 0)])))
    if kind == "ndim":
        return draw(arrays(draw(st.sampled_from([(), (n,), (n, n, 2)]))))
    if kind == "non-square":
        return draw(arrays((n, n + draw(st.integers(1, 2)))))
    A = draw(arrays((n, n)))
    A[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD))
    return A


@st.composite
def bad_vectors(draw, n):
    """Empty, not 1-d, of the wrong length, or with a nan or inf entry."""
    kind = draw(st.sampled_from(["empty", "ndim", "length", "non-finite"]))
    if kind == "empty":
        return np.zeros(0)
    if kind == "ndim":
        return draw(arrays(draw(st.sampled_from([(), (1, n), (n, 1)]))))
    if kind == "length":
        return draw(arrays((n + draw(st.sampled_from([-1, 1, 2])) if n > 1 else 2,)))
    x = draw(arrays((n,)))
    x[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD))
    return x


bad_steps = st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1.0, -1e308, 5e-324])
bad_grids = st.one_of(
    st.just(np.zeros(0)),
    st.sampled_from([[0.0, NAN], [0.0, INF], [-INF, 0.0], [1.0, 0.5], [[0.0, 1.0]], [0.0, 1e308]]).map(np.array),
)
OK_X = [0.1, 0.2, 0.3]


def matrix_calls(A, x):
    """Each public matrix entry point on A (x a vector), and whether A is
    malformed for it: every drawn A is for the square-matrix functions;
    add_compound takes a stack of square matrices, and the others any
    nonempty matrix, whose entries only matter where they are read."""
    shape_bad = A.ndim != 2 or A.size == 0
    stack_bad = A.ndim < 2 or A.size == 0 or A.shape[-1] != A.shape[-2]
    return [(lambda f=f: f(A), True) for f in SQUARE.values()] + [
        (lambda: add_compound(A, 1), stack_bad),
        (lambda: tpds.minor(A, (1,), (1,)), shape_bad),
        (lambda: tpds.svdp_check(A, x), shape_bad),
        (lambda: tpds.strong_svdp_holds(A, rng=0, vectors_per_pattern=2), shape_bad),
        (lambda: tpds.column_set_equivalence(A, trials=4, rng=0), shape_bad),
    ]


def check_outcome(call, malformed):
    """A malformed argument raises a TpdsError. Any call may return or raise
    a TpdsError, never anything else: a leaked numpy RuntimeWarning, which
    pytest turns into an error, included."""
    try:
        got = call()
    except TpdsError:
        return
    assert not malformed, f"returned {got!r}"


@settings(max_examples=150, deadline=None)
@given(A=bad_matrices(), x=st.lists(entries, min_size=1, max_size=4).map(np.array))
def test_a_malformed_matrix_is_a_typed_error(A, x):
    for call, malformed in matrix_calls(A, x):
        check_outcome(call, malformed)


@settings(max_examples=60, deadline=None)
@given(z=bad_vectors(2), x=bad_vectors(3), y=bad_vectors(3))
def test_a_malformed_vector_is_a_typed_error(z, x, y):
    calls = [
        lambda: tpds.simulate_linear(COSH2, z, [0.0, 0.5]),
        lambda: tpds.simulate_nonlinear(DEMO, x, [0.0, 0.5]),
        lambda: tpds.poincare_analysis(DEMO, x, max_iters=2),
        lambda: tpds.eventual_monotonicity(DEMO, x, OK_X, 0.5, samples=5),
        lambda: tpds.eventual_monotonicity(DEMO, OK_X, x, 0.5, samples=5),
        lambda: line_integral_jacobian(DEMO, 0.0, x, OK_X),
        lambda: line_integral_jacobian(DEMO, 0.0, OK_X, y),
        lambda: tpds.svdp_check(np.eye(3), x),
    ]
    for call in calls:
        check_outcome(call, True)
    # a sign count takes a nonempty finite vector of any length
    malformed = x.ndim != 1 or x.size == 0 or not np.isfinite(x).all()
    for count in (tpds.signs, tpds.s_minus, tpds.s_plus, tpds.sigma, tpds.in_V):
        check_outcome(lambda: count(x), malformed)


@settings(max_examples=60, deadline=None)
@given(grid=bad_grids, step=bad_steps, t=st.sampled_from([NAN, INF, -INF, -1.0, 1e308]))
def test_a_malformed_grid_step_or_time_is_a_typed_error(grid, step, t):
    si = tpds.shipped("sinusoidal2").system
    fd = tpds.floquet(si, step=0.05)
    calls = [
        lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], grid),
        lambda: tpds.simulate_nonlinear(DEMO, OK_X, grid),
        lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], [0.0, 1.0], step=step),
        lambda: tpds.simulate_nonlinear(DEMO, OK_X, [0.0, 1.0], step=step),
        lambda: tpds.transition_matrix(COSH2, 0.0, 1.0, step=step),
        lambda: tpds.compound_transition(COSH2, 1, 0.0, 1.0, step=step),
        lambda: tpds.floquet(si, step=step),
        lambda: tpds.floquet_mode_evolution(si, fd, {1: 1.0}, horizon=si.period, step=step),
        lambda: tpds.poincare_analysis(DEMO, OK_X, step=step),
        lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], 1.0, samples=5, step=step),
        lambda: tpds.transition_matrix(COSH2, 0.0, t),
        lambda: tpds.transition_matrix(COSH2, 0.0, 3.0),  # past the interval's end, 2
        lambda: tpds.transition_matrix(COSH2, t, 2.0),
        lambda: tpds.compound_transition(COSH2, 1, t, 2.0),
        lambda: tpds.classify_time_varying(COSH2, grid=t),
        lambda: tpds.floquet_mode_evolution(si, fd, {1: 1.0}, horizon=t),
        lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], t, samples=5),
        lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], 1.0, samples=t),
        lambda: tpds.floquet_mode_evolution(si, fd, {3: 1.0}, horizon=si.period),
        lambda: tpds.floquet_mode_evolution(si, fd, [1.0, 0.0, 1.0], horizon=si.period),
    ]
    for call in calls:
        check_outcome(call, True)


# -- the CLI ------------------------------------------------------------------

BAD_OPTIONS = {
    "--step": ["nan", "inf", "-inf", "0", "-1", "5e-324", "-1e308"],
    "--grid": ["0", "-5", "1e308", "nan", ""],
    "--horizon": ["nan", "inf", "-inf", "0", "-1", "-1e308"],
    "--tol": ["nan", "inf", "-inf", "0", "-1", "-5e-324"],
    "--max-iters": ["0", "-1", "1e308", "nan"],
    "--z0": ["nan,1", "1,inf", "", "1", "1,2,3,4,5", "1e308,nan"],
    "--x0": ["nan,0.2,0.3", "0.1,-inf,0.3", "", "0.1", "1e308,nan,1"],
}
COMMANDS = {
    "simulate": ("--step", "--grid", "--horizon", "--z0"),
    "floquet": ("--step",),
    "entrain": ("--step", "--tol", "--max-iters", "--x0"),
}
SPEC_FOR = {"simulate": ["cosh2", "takac", "entrain_demo"], "floquet": ["sinusoidal2"], "entrain": ["entrain_demo"]}


def cli_code(argv):
    """The exit code of tpds argv; argparse's own refusals exit 2 too."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@st.composite
def bad_command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    option = draw(st.sampled_from(COMMANDS[command]))
    spec = draw(st.sampled_from(SPEC_FOR[command]))
    return command, spec, option, draw(st.sampled_from(BAD_OPTIONS[option]))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=bad_command_lines())
def test_a_malformed_option_exits_2_3_or_4(tmp_path, line):
    command, name, option, value = line
    path = spec_file(tmp_path, name)
    argv = [command, path, f"{option}={value}"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")] + ["--grid=20"] * (option != "--grid")
    assert cli_code(argv) in (2, 3, 4)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(A=bad_matrices(), additive=st.booleans())
def test_a_malformed_matrix_file_exits_2_or_3(tmp_path, A, additive):
    # an A that is not 2-d is written under a header that promises one more entry
    rows, cols = A.shape if A.ndim == 2 else (A.size + 1, 1)
    path = tmp_path / "a.mat"
    path.write_text(f"{rows} {cols}\n" + " ".join(repr(float(v)) for v in A.ravel()) + "\n")
    assert cli_code(["check", str(path)]) in (0, 2, 3)  # check skips a non-square matrix
    assert cli_code(["compound", str(path), "1", "--additive" if additive else "--multiplicative"]) in (2, 3)


def leaves(doc, path=()):
    """Every (path, value) of a plain-data document, containers included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from leaves(value, path + (key,))


MUTANTS = [NAN, INF, -INF, "", [], {}, None, "abc", 1e308, -1e308, 5e-324, -1, 0, [[1]], True, "t +", [NAN]]
SHIPPED_DOCS = {name: specfile.to_dict(tpds.shipped(name)) for name in tpds.shipped_names()}


@st.composite
def mutated_specs(draw):
    name = draw(st.sampled_from(sorted(SHIPPED_DOCS)))
    doc = yaml.safe_load(yaml.safe_dump(SHIPPED_DOCS[name]))
    paths = [p for p, _ in leaves(doc) if p]
    path = draw(st.sampled_from(paths))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(st.sampled_from(MUTANTS))
    return name, path, yaml.safe_dump(doc)


@settings(max_examples=200, deadline=None)
@given(case=mutated_specs())
def test_a_mutated_spec_loads_or_raises_spec_file_error(case):
    _, _, text = case
    try:
        specfile.loads(text)
    except SpecFileError:
        pass


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_specs())
def test_a_mutated_spec_exits_0_2_3_or_4(tmp_path, case):
    """Each command on a spec with one mutated value: exit 0 where the value
    is still a valid one, else 2, 3 or 4, never a bare exception."""
    name, _, text = case
    path = tmp_path / "m.spec"
    path.write_text(text)
    command = {"takac": "entrain", "entrain_demo": "entrain", "sinusoidal2": "floquet"}.get(name, "simulate")
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")]
    if command == "entrain":
        argv += ["--max-iters", "3"]
    assert cli_code(argv) in (0, 2, 3, 4)
