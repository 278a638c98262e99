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

import functools
import math
import re
import sys
import time

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
from tpds.integrate import MAX_STEPS, _step_count, _step_counts
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


@functools.cache
def sinusoidal():
    system = tpds.shipped("sinusoidal2").system
    return system, tpds.floquet(system)


COMPLEX_MATRIX = np.array([[2 + 1j, 1], [1, 2]])
TEXT_OR_COMPLEX = {
    # numeric strings were read as numbers and gave plausible answers
    "time-text": (lambda: tpds.transition_matrix(COSH2, "0", "1"), "t0", "'0'"),
    "grid-text": (lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], ["0", "0.5"]), "grid", "['0', '0.5']"),
    "s_minus-text": (lambda: tpds.s_minus(["1", "-1"]), "vector", "['1', '-1']"),
    "in_V-text": (lambda: tpds.in_V(["1", "-1"]), "vector", "['1', '-1']"),
    "classify-text": (lambda: tpds.classify([["2", "1"], ["1", "2"]]), "classify: the matrix", "[['2', '1'], ['1', '2']]"),
    "svdp-text": (lambda: tpds.svdp_check(np.eye(2), ["1", "0"]), "x", "['1', '0']"),
    "states-text": (lambda: tpds.integrate.Trajectory(np.array([0.0, 1.0]), [["1", "0"], ["0", "1"]]), "states", "[['1', '0'], ['0', '1']]"),
    "coeffs-text": (lambda: tpds.floquet_mode_evolution(*sinusoidal(), ["1", "0"], horizon=1.0), "coeffs", "['1', '0']"),
    "object-text": (lambda: tpds.s_plus(np.array(["1", 2.0], dtype=object)), "vector", "array(['1', 2.0], dtype=object)"),
    "bytes": (lambda: tpds.sigma(np.array([b"1", b"2"])), "vector", "array([b'1', b'2'], dtype='|S1')"),
    # a complex array was cast to its real part with a ComplexWarning
    "classify-complex": (lambda: tpds.classify(COMPLEX_MATRIX), "classify: the matrix", repr(COMPLEX_MATRIX)),
    "in_M-complex": (lambda: in_M(COMPLEX_MATRIX), "in_M: the matrix", repr(COMPLEX_MATRIX)),
    "s_minus-complex": (lambda: tpds.s_minus(np.array([1 + 1j, -1])), "vector", repr(np.array([1 + 1j, -1]))),
    "sigma-complex": (lambda: tpds.sigma(np.array([1 + 1j, -1])), "vector", repr(np.array([1 + 1j, -1]))),
    "add_compound-complex": (lambda: add_compound(COMPLEX_MATRIX, 1), "add_compound: the matrix", repr(COMPLEX_MATRIX)),
    "constant-complex": (
        lambda: TimeVaryingSystem.constant(COMPLEX_MATRIX),
        "TimeVaryingSystem.constant: the matrix",
        repr(COMPLEX_MATRIX),
    ),
    "object-complex": (
        lambda: tpds.s_minus(np.array([np.complex64(1), 1.0], dtype=object)),
        "vector",
        repr(np.array([np.complex64(1), 1.0], dtype=object)),
    ),
    # a complex list leaked a bare TypeError
    "classify-complex-list": (lambda: tpds.classify([[2 + 1j, 1], [1, 2]]), "classify: the matrix", "[[(2+1j), 1], [1, 2]]"),
    "coeffs-complex-list": (lambda: tpds.floquet_mode_evolution(*sinusoidal(), [1j, 0], horizon=1.0), "coeffs", "[1j, 0]"),
}


@pytest.mark.parametrize("call, name, given", TEXT_OR_COMPLEX.values(), ids=TEXT_OR_COMPLEX.keys())
def test_text_and_complex_input_is_not_read_as_real_numbers(call, name, given):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert str(err.value) == f"{name} must hold real numbers, got {given}"


def test_int_bool_and_float_arrays_convert_as_before():
    assert tpds.s_minus(np.array([1, -1])) == tpds.s_minus([1.0, -1.0]) == 1
    assert tpds.s_plus(np.array([True, False, True])) == 2
    assert tpds.classify(np.array([[2, 1], [1, 2]])).is_TP
    assert add_compound(np.array([[1, 2], [3, 4]]), 2).entries.tolist() == [[5.0]]
    assert in_M(np.array([[True, True], [True, False]]))


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

    monkeypatch.setattr(tpds.integrate, "_transitions", no_step)
    with pytest.raises(error) as err:
        tpds.compound_transition(COSH2, p, 0.0, 2.0)
    assert str(err.value) == message


@pytest.mark.parametrize("op", [mult_compound, add_compound], ids=["mult_compound", "add_compound"])
@pytest.mark.parametrize(
    "p, error, message",
    [
        (2.5, InvalidArgument, "p must be an integer >= 1, got 2.5"),
        ("2", InvalidArgument, "p must be an integer >= 1, got '2'"),
        (True, InvalidArgument, "p must be an integer >= 1, got True"),
        (0, InvalidArgument, "p must be an integer >= 1, got 0"),
        (3, OrderOutOfRange, "order 3 outside 1..2"),
    ],
)
def test_a_compound_order_follows_the_compound_transition_rule(op, p, error, message):
    # 2.5 and "2" leaked a bare TypeError, True ran as order True
    with pytest.raises(error) as err:
        op(np.eye(2), p)
    assert str(err.value) == message
    assert op(np.eye(2), np.int64(2)).order == 2


@pytest.mark.parametrize(
    "alpha, beta, error, message",
    [
        ((1.5, 2), (1, 2), InvalidArgument, "a minor index must be an integer >= 1, got 1.5"),
        ([1, 2], "12", InvalidArgument, "a minor index must be an integer >= 1, got '1'"),
        ((True,), (1,), InvalidArgument, "a minor index must be an integer >= 1, got True"),
        ((1, 2), (0, 1), InvalidArgument, "a minor index must be an integer >= 1, got 0"),
        (1, (1,), InvalidArgument, "minor: index tuples must be sequences, got 1, (1,)"),
        ((1, 3), (1, 2), DimensionMismatch, "bad index tuple (1, 3)"),
    ],
)
def test_a_minor_index_is_an_integer_from_1(alpha, beta, error, message):
    # (1.5, 2) leaked a bare IndexError, "12" a bare TypeError
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(error) as err:
        tpds.minor(A, alpha, beta)
    assert str(err.value) == message
    assert tpds.minor(A, np.array([1, 2]), (np.int64(1), 2)) == -2.0


TRAJECTORY_SHAPES = {
    # AxisError from the row maxima
    "1-d states": (lambda: tpds.Trajectory(np.arange(3.0), np.ones(3)), "(3,) and (3,)"),
    # accepted, each sample a 2 x 2 stack counted as two rows
    "stack": (lambda: tpds.Trajectory(np.arange(1.0), np.ones((1, 2, 2))), "(1,) and (1, 2, 2)"),
    # accepted: to_csv wrote the one row at both times, and
    # tn_weak_svdp_check answered True
    "one row, two times": (lambda: tpds.Trajectory([0.0, 1.0], [[1.0, 2.0]]), "(2,) and (1, 2)"),
    # ValueError from the row maxima
    "no entries": (lambda: tpds.Trajectory(np.arange(2.0), np.ones((2, 0))), "(2,) and (2, 0)"),
    # accepted, where a cluster time would be a 1-element array
    "2-d times": (lambda: tpds.Trajectory(np.zeros((2, 1)), np.ones((2, 2))), "(2, 1) and (2, 2)"),
}


@pytest.mark.parametrize("call, shapes", TRAJECTORY_SHAPES.values(), ids=TRAJECTORY_SHAPES.keys())
def test_a_trajectory_takes_one_state_row_per_time(call, shapes):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == f"times and states must have shapes (k,) and (k, n), n >= 1, got {shapes}"
    # nested lists of that shape are states too (n raised AttributeError)
    assert tpds.Trajectory([0.0, 1.0], [[1.0], [2.0]]).n == 1
    assert tpds.Trajectory([], np.empty((0, 2))).exceptional_times == []


W = np.array([[-1.0, 0.5, 0.0], [0.5, -1.0, 0.5], [1.0, 0.5, -1.0]])


def mode_evolution(coeffs):
    si = tpds.shipped("sinusoidal2").system
    return tpds.floquet_mode_evolution(si, tpds.floquet(si, step=0.05), coeffs, horizon=si.period)


TYPED = {
    # TypeError from range(), and from 1 <= "3"
    "witness-float": (lambda: tpds.negative_minor_witness(W, 3.0, 1), InvalidArgument, "i must be an integer >= 0, got 3.0"),
    "witness-text": (lambda: tpds.negative_minor_witness(W, "3", 1), InvalidArgument, "i must be an integer >= 0, got '3'"),
    # was DimensionMismatch "need 1 <= i, j <= 3 ...", which index 0 still raises
    "witness-negative": (lambda: tpds.negative_minor_witness(W, 3, -1), InvalidArgument, "j must be an integer >= 0, got -1"),
    # ValueError "(1, 4) is not in list"
    "entry-label": (
        lambda: mult_compound(np.eye(3), 2).entry((1, 4), (1, 2)),
        DimensionMismatch,
        "no entry ((1, 4)|(1, 2)) in a compound of order 2",
    ),
    "entry-order": (
        lambda: mult_compound(np.eye(3), 2).entry((1,), (1,)),
        DimensionMismatch,
        "no entry ((1,)|(1,)) in a compound of order 2",
    ),
    # TypeError "'int' object is not iterable", and "'NoneType' ..."
    "entry-int": (
        lambda: mult_compound(np.eye(3), 2).entry(1, 2),
        InvalidArgument,
        "entry: index tuples must be sequences, got 1, 2",
    ),
    "entry-none": (
        lambda: mult_compound(np.eye(3), 2).entry(None, None),
        InvalidArgument,
        "entry: index tuples must be sequences, got None, None",
    ),
    # read as mode 1, since True == 1 and 1.0 == 1 in the set test
    "mode-bool": (lambda: mode_evolution({True: 1.0}), InvalidArgument, "mode number must be an integer >= 0, got True"),
    "mode-float": (lambda: mode_evolution({1.0: 1.0}), InvalidArgument, "mode number must be an integer >= 0, got 1.0"),
    # was DimensionMismatch "mode numbers must lie in 1..2", which mode 0 still raises
    "mode-negative": (lambda: mode_evolution({-1: 1.0}), InvalidArgument, "mode number must be an integer >= 0, got -1"),
    "mode-zero": (lambda: mode_evolution({0: 1.0}), DimensionMismatch, "mode numbers must lie in 1..2, got [0]"),
    # ValueError "r must be non-negative", and TypeError from range()
    "index_subsets-p": (lambda: tpds.index_subsets(3, -1), InvalidArgument, "p must be an integer >= 0, got -1"),
    "index_subsets-n": (lambda: tpds.index_subsets(3.0, 1), InvalidArgument, "n must be an integer >= 0, got 3.0"),
    # ValueError "could not convert string to float: 'a'", and
    # "not enough values to unpack"
    "constant-text": (
        lambda: TimeVaryingSystem.constant([[1.0]], interval=(0, "a")),
        InvalidArgument,
        "interval must hold real numbers, got (0, 'a')",
    ),
    "random-text": (
        lambda: tpds.random_tpds_system(2, interval=(0, "a")),
        InvalidArgument,
        "interval must hold real numbers, got (0, 'a')",
    ),
    "random-one": (
        lambda: tpds.random_tpds_system(2, interval=(0,)),
        DimensionMismatch,
        "interval must be two numbers (a, b), got (0,)",
    ),
    # OverflowError "int too large to convert to float"
    "constant-huge": (
        lambda: TimeVaryingSystem.constant([[1.0]], interval=(0, 10**400)),
        NonFiniteInput,
        "interval has an entry too large for a float",
    ),
}


@pytest.mark.parametrize("call, error, message", TYPED.values(), ids=TYPED.keys())
def test_indices_labels_and_intervals_raise_typed_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
    assert tpds.negative_minor_witness(W, np.int64(3), 1)[1:3] == ((2, 3), (1, 2))
    assert mult_compound(np.eye(3), 2).entry([1, 2], np.array([1, 2])) == 1.0
    assert len(mode_evolution({np.int64(1): 1.0}).times) == 201
    assert tpds.index_subsets(np.int64(3), 0) == [()]
    assert TimeVaryingSystem.constant([[1.0]], interval=[0, np.float32(0.5)]).interval == (0.0, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tpds.classify_time_varying(COSH2, grid=10**15),
        lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], 1.0, samples=10**15),
    ],
    ids=["classify_time_varying", "eventual_monotonicity"],
)
def test_a_grid_too_large_to_allocate_is_an_invalid_argument(call):
    # numpy's bare MemoryError ("Unable to allocate 7.11 PiB"); 10**15 fails
    # before anything is allocated
    with pytest.raises(InvalidArgument, match=r"^a grid of 1000000000000000 samples cannot be allocated$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tpds.classify([[1, 2], [3]]), "classify: the matrix has a ragged shape, got [[1, 2], [3]]"),
        (lambda: tpds.s_minus([1, [2, 3]]), "vector has a ragged shape, got [1, [2, 3]]"),
        (
            lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], [0.0, [0.5, 1.0]]),
            "grid has a ragged shape, got [0.0, [0.5, 1.0]]",
        ),
    ],
    ids=["matrix", "vector", "grid"],
)
def test_ragged_input_is_a_dimension_mismatch(call, message):
    # the entries are real numbers; InvalidArgument "must hold real numbers"
    # named the wrong fault
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == message


SWITCHED = tpds.shipped("switched").system


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tpds.classify([[10**400]]), "classify: the matrix has an entry too large for a float"),
        (lambda: tpds.s_minus([10**400, 1]), "vector has an entry too large for a float"),
        (
            lambda: tpds.simulate_linear(SWITCHED, [10**400, 1, 1, 1], [0.0, 1.0]),
            "z0 has an entry too large for a float",
        ),
    ],
    ids=["matrix", "vector", "state"],
)
def test_an_int_too_large_for_a_float_is_a_non_finite_input(call, message):
    # numpy's astype(float) of the object array raised a bare OverflowError
    with pytest.raises(NonFiniteInput) as err:
        call()
    assert str(err.value) == message


COSH2 = tpds.shipped("cosh2").system


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda big: tpds.simulate_linear(COSH2, [1, 0], [0, big]),
            r"the grid must be a nonempty, finite, nondecreasing sequence within \[0\.0, 2\.0\]",
        ),
        (
            lambda big: tpds.simulate_nonlinear(DEMO, OK_X, [0, big]),
            r"the grid must be a nonempty, finite, nondecreasing sequence",
        ),
        (lambda big: tpds.transition_matrix(COSH2, 0.0, big), r"need a <= t0 <= t <= b, got t0=0\.0, t=inf"),
        (lambda big: tpds.transition_matrix(COSH2, -big, 1.0), r"need a <= t0 <= t <= b, got t0=-inf, t=1\.0"),
        (
            lambda big: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], big),
            r"horizon must be a finite time >= 0, got inf",
        ),
        (lambda big: COSH2.matrix_at(big), r"t=inf outside \(0\.0, 2\.0\)"),
    ],
    ids=["linear-grid", "nonlinear-grid", "t", "t0", "horizon", "matrix_at"],
)
def test_an_int_too_large_for_a_float_is_a_time_out_of_the_interval(call, message):
    # a grid, a horizon or a time reads such an int as the inf it rounds
    # to, and raises what inf raises; the grid, t and horizon cases raised
    # NonFiniteInput "... has an entry too large for a float"
    for big in (10**400, 10**5000, INF):
        with pytest.raises(OutOfInterval, match=f"^{message}$"):
            call(big)
    # NonlinearSystem.f names an infinite t by the time rule
    for big in (10**400, INF):
        with pytest.raises(NonFiniteInput, match=r"^t \[inf\] has a non-finite entry$"):
            DEMO.f(big, OK_X)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: tpds.classify([[10**5000, "a"]]),
            InvalidArgument,
            "classify: the matrix must hold real numbers, got [[<int of 5001 digits>, 'a']]",
        ),
        (
            lambda: tpds.classify([[10**5000, 1], [2]]),
            DimensionMismatch,
            "classify: the matrix has a ragged shape, got [[<int of 5001 digits>, 1], [2]]",
        ),
        (
            lambda: tpds.s_minus(np.array([-(10**4300), "a"], dtype=object)),
            InvalidArgument,
            "vector must hold real numbers, got array([<negative int of 4301 digits>, 'a'], dtype=object)",
        ),
        (
            lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], [10**5000]),
            OutOfInterval,
            "horizon must be a finite time >= 0, got [<int of 5001 digits>]",
        ),
        (
            lambda: tpds.poincare_analysis(DEMO, OK_X, max_iters=-(10**5000)),
            InvalidArgument,
            "max_iters must be an integer >= 1, got <negative int of 5001 digits>",
        ),
    ],
    ids=["not-real", "ragged", "object-array", "horizon-list", "count"],
)
def test_an_int_too_long_for_a_string_is_named_by_its_digits(call, error, message):
    # naming such an int by repr raised a bare ValueError ("Exceeds the
    # limit (4300 digits) for integer string conversion")
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


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
    # TypeError
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


@pytest.mark.parametrize("step", [5e-324, 1e-20, 1e-12])
def test_a_step_too_small_to_count_raises(step):
    # length / 5e-324 overflowed to inf and math.ceil raised a bare
    # OverflowError; 1e20 steps overflowed numpy's int64 step counts; 1e12
    # steps were laid out and taken, block by block, with no limit
    calls = [
        lambda: tpds.transition_matrix(COSH2, 0.0, 1.0, step=step),
        lambda: tpds.simulate_linear(COSH2, [1.0, 0.0], [0.0, 1.0], step=step),
        lambda: tpds.simulate_nonlinear(DEMO, [0.1, 0.2, 0.3], [0.0, 1.0], step=step),
        lambda: tpds.poincare_analysis(DEMO, [0.1, 0.2, 0.3], step=step),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match=f"step {step} is too small for a span of"):
            call()


def test_a_span_takes_at_most_max_steps():
    assert _step_count(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    with pytest.raises(InvalidArgument, match=f"takes more than {MAX_STEPS} steps$"):
        _step_count(1.0, 1.0 / (MAX_STEPS + 1))


def _counts(count):
    try:
        return count()
    except InvalidArgument as exc:
        return str(exc)


@st.composite
def spans(draw):
    """A step and span lengths: 0, subnormal, arbitrary, and exact and
    one-ulp-off multiples of the step, a few steps long or at MAX_STEPS."""
    step = draw(st.floats(1e-6, 10.0) | st.sampled_from([5e-324, 1e-5, 1.0 / MAX_STEPS]))
    multiple = (st.integers(0, 4) | st.integers(MAX_STEPS - 1, MAX_STEPS + 1)).map(lambda k: k * step)
    near = multiple.flatmap(lambda x: st.sampled_from([math.nextafter(x, 0.0), math.nextafter(x, INF)]))
    length = st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 1e3) | multiple | near
    return step, draw(st.lists(length, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(spans())
@example((1.0 / MAX_STEPS, [0.5, 1.0]))
@example((1.0 / (MAX_STEPS + 1), [0.5, 1.0, 2.0]))
def test_the_array_step_counts_are_the_scalar_rule(case):
    # the same counts, or the same InvalidArgument naming the first span
    # over MAX_STEPS
    step, lengths = case
    expected = _counts(lambda: [_step_count(x, step) for x in lengths])
    assert _counts(lambda: _step_counts(np.array(lengths), step).tolist()) == expected


@pytest.mark.parametrize("period", [INF, NAN, 0.0, -1.0, "1"])
def test_a_period_is_a_positive_finite_number_for_both_system_kinds(period):
    # period=inf raised numpy's RuntimeWarning from the period check's grid
    # on a linear system, and built a nonlinear one, whose poincare_analysis
    # then ended in NoConvergence at nan times
    message = f"^period must be a positive finite number, got {period}$"
    with pytest.raises(SpecFileError, match=message):
        TimeVaryingSystem.constant(np.eye(2), (0.0, 2.0), period=period)
    with pytest.raises(SpecFileError, match=message):
        NonlinearSystem(n=2, rhs=FREE.rhs, period=period)


@pytest.mark.parametrize(
    "value, shown",
    [(np.array([0.1, 0.2]), "[0.1 0.2]"), (10**400, "inf"), (-(10**400), "-inf"), (True, "True"), (np.True_, "True")],
    ids=["array", "int_too_large", "negative_int_too_large", "bool", "numpy_bool"],
)
def test_the_positive_number_rule_refuses_arrays_bools_and_ints_too_large_for_a_float(value, shown):
    # an array of two leaked a bare ValueError (its truth value), 10**400 a
    # bare OverflowError (math.isfinite), and True was read as 1.0
    message = f"must be a positive finite number, got {re.escape(shown)}$"
    calls = [
        lambda: tpds.transition_matrix(COSH2, 0.0, 1.0, step=value),
        lambda: tpds.simulate_nonlinear(DEMO, [0.1, 0.2, 0.3], [0.0, 1.0], step=value),
        lambda: tpds.poincare_analysis(DEMO, [0.1, 0.2, 0.3], tol=value),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match=message):
            call()
    with pytest.raises(SpecFileError, match=f"^period {message}"):
        TimeVaryingSystem.constant(np.eye(2), (0.0, 2.0), period=value)
    with pytest.raises(SpecFileError, match=f"^period {message}"):
        NonlinearSystem(n=2, rhs=FREE.rhs, period=value)


def test_the_positive_number_rule_keeps_every_number_it_took():
    # a 0-d array and a numpy float pass as they are
    for value in (0.1, 2, np.float64(0.5), np.array(0.25)):
        assert tpds.integrate._checked_positive(value, "step") is value


GENERATORS = [
    tpds.random_tp,
    tpds.random_tn,
    tpds.random_nonsingular,
    tpds.random_tridiagonal_cooperative,
    tpds.random_tpds_system,
]


@pytest.mark.parametrize("make", GENERATORS, ids=lambda make: make.__name__)
@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", -1, 0], ids=repr)
def test_a_generator_size_is_an_integer_from_1(make, n):
    # leaked a bare TypeError or ValueError; n = 0 returned a 0 x 0 matrix,
    # or leaked LinAlgError (random_nonsingular) or ValueError
    # (random_tpds_system), and random_tpds_system(-1) raised SpecFileError
    with pytest.raises(InvalidArgument, match=f"^n must be an integer >= 1, got {re.escape(repr(n))}$"):
        make(n, rng=0)


@pytest.mark.parametrize("make", GENERATORS, ids=lambda make: make.__name__)
def test_a_generator_size_numpy_cannot_allocate_is_an_invalid_argument(make):
    # numpy refuses the shape before allocating; this leaked its bare
    # ValueError "Maximum allowed dimension exceeded", or OverflowError
    with pytest.raises(InvalidArgument, match=f"^an n x n matrix of n = {10**30} cannot be allocated$"):
        make(10**30, rng=0)


def test_a_linear_step_too_small_for_the_budget_exits_2_at_once(tmp_path, capsys):
    # asked for 10^12 RK4 steps on cosh2's interval
    start = time.perf_counter()
    argv = ["simulate", spec_file(tmp_path, "cosh2"), "--step", "1e-12", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "error: step 1e-12 is too small for a span of" in capsys.readouterr().err


def test_a_spec_int_too_long_to_convert_is_a_spec_file_error(tmp_path, capsys):
    # the YAML loader's bare ValueError, "Exceeds the limit (4300 digits)
    # for integer string conversion", ended tpds simulate in a traceback
    text = specfile.dumps(tpds.shipped("cosh2"))
    assert "grid: 500\n" in text
    path = tmp_path / "long.spec"
    path.write_text(text.replace("grid: 500", "grid: " + "1" * (sys.get_int_max_str_digits() + 1)))
    with pytest.raises(SpecFileError, match="^invalid YAML: Exceeds the limit"):
        specfile.load(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid YAML: Exceeds the limit")


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


@pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2, 3)])
@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_strong_svdp_holds_needs_a_finite_matrix_of_any_shape(shape, bad):
    # it reads every entry, so the matrix rule's finiteness holds for every
    # shape, where a nan raised from the first sampled vector Ax
    A = np.ones(shape)
    A[1, 1] = bad
    with pytest.raises(NonFiniteInput) as info:
        tpds.strong_svdp_holds(A)
    assert str(info.value) == "strong_svdp_holds: the matrix has a nan or infinite entry"


def test_the_pinned_exceptions_to_the_matrix_rule():
    A = np.array([[1.0, 2.0], [3.0, NAN]])
    assert tpds.minor(A, (1,), (2,)) == 2.0  # a finite submatrix of a non-square-rule function
    with pytest.raises(NotTridiagonal):
        tpds.is_dominant_tridiagonal_TN([1.0, 2.0])


def test_the_one_vector_message():
    for call in [
        lambda: tpds.signs([1.0, INF]),
        lambda: tpds.Trajectory(np.arange(2.0), np.array([[1.0, 0.0], [INF, 1.0]])),
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
        (lambda: tpds.strong_svdp_holds(A), shape_bad),
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


@pytest.mark.parametrize("interval", [(0.0, INF), (-1e308, 1e308)], ids=["half_line", "span_overflows"])
def test_the_default_step_of_an_infinite_interval_is_refused(interval):
    # 1e-3 (b - a) is inf; were it not checked, one RK4 step per span would
    # return Phi(1, 0) = [[0.667, 0.333], ...] where exp(A) is [[0.568,
    # 0.432], ...], since the step-count rules only count. A one-sample
    # grid, which has no span, raises too, as for an explicit step; it
    # returned a trajectory
    sys = TimeVaryingSystem.constant([[-1.0, 1.0], [1.0, -1.0]], interval)
    calls = [
        lambda: tpds.transition_matrix(sys, 0.0, 1.0),
        lambda: tpds.simulate_linear(sys, [1.0, 0.0], [0.0, 1.0]),
        lambda: tpds.simulate_linear(sys, [1.0, 0.0], [0.0]),
        lambda: tpds.compound_transition(sys, 1, 0.0, 1.0),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match=r"^step must be a positive finite number, got inf$"):
            call()


STEP_CHECKS = {
    "transition_matrix": (lambda: tpds.transition_matrix(COSH2, 0.0, 1.0), 1),
    "simulate_linear": (lambda: tpds.simulate_linear(SWITCHED, [1.0, -1.0, 1.0, -1.0], np.linspace(0.0, 1.0, 2000)), 1),
    # its direct route reads Phi from _transitions, not transition_matrix
    "compound_transition": (lambda: tpds.compound_transition(COSH2, 1, 0.0, 1.0), 1),
    "simulate_nonlinear": (lambda: tpds.simulate_nonlinear(DEMO, OK_X, np.linspace(0.0, 2.0, 200), step=0.01), 1),
    "poincare_analysis": (lambda: tpds.poincare_analysis(DEMO, OK_X, step=0.05), 1),
    # two runs, one from each start
    "eventual_monotonicity": (lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], 1.0, samples=50, step=0.01), 2),
}


@pytest.mark.parametrize("call, checks", STEP_CHECKS.values(), ids=STEP_CHECKS.keys())
def test_a_flow_checks_its_step_once_at_its_entry(monkeypatch, call, checks):
    # the step-count rules re-checked the step per span layout (8 times in
    # a 2,000-sample simulate_linear) and the RK4 loop per sample interval
    # (200 times in a 200-sample simulate_nonlinear)
    seen = []
    rule = tpds.integrate._checked_positive

    def counted(value, name):
        seen.append(name)
        return rule(value, name)

    monkeypatch.setattr(tpds.integrate, "_checked_positive", counted)
    monkeypatch.setattr(tpds.exprlang, "_checked_positive", counted)
    call()
    assert seen.count("step") == checks


def test_a_run_function_checks_its_step_at_the_call():
    # the run was a generator that checked its step per sample interval,
    # after its first state had been yielded
    def unread():
        raise AssertionError("read a time")
        yield

    advance = tpds.exprlang.compile_stepper(FREE.rhs, 2)
    with pytest.raises(InvalidArgument, match=r"^step must be a positive finite number, got -1.0$"):
        advance([0.1, 0.2], unread(), -1.0, [0, 0, None])


def test_a_huge_q_max_costs_nothing():
    # each iterate walked q = 1..q_max: 0.70 s at 10**6 on entrain_demo, and
    # 10**12 did not return
    expected = tpds.poincare_analysis(DEMO, OK_X)
    start = time.perf_counter()
    result = tpds.poincare_analysis(DEMO, OK_X, q_max=10**12)
    assert time.perf_counter() - start < 2.0
    assert np.array_equal(result.iterates, expected.iterates)
    assert (result.detected_period, result.residuals) == (expected.detected_period, expected.residuals)
    assert (result.accepted_steps, result.rejected_steps, result.largest_error) == (
        expected.accepted_steps,
        expected.rejected_steps,
        expected.largest_error,
    )


COLUMNS = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
# a period-1 system over (0, 1e18), whose horizon of 1e17 periods asks
# for 2 x 10**19 + 1 samples
_PERIODIC = TimeVaryingSystem.constant([[-2.0, 1.0], [1.0, -2.0]], (0.0, 1e18), period=1.0)
LONG_FLOQUET = (_PERIODIC, tpds.floquet(_PERIODIC, step=0.01))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tpds.classify_time_varying(COSH2, grid=10**30), f"a grid of {10**30} samples"),
        (lambda: tpds.classify_time_varying(COSH2, grid=2**63 + 5), f"a grid of {2**63 + 5} samples"),
        (
            lambda: tpds.eventual_monotonicity(DEMO, OK_X, [0.2, 0.2, 0.3], 1.0, samples=10**30),
            f"a grid of {10**30} samples",
        ),
        (lambda: tpds.floquet_mode_evolution(*LONG_FLOQUET, [1.0], 1e17, step=0.01), "a grid of 20000000000000000001 samples"),
        (lambda: tpds.column_set_equivalence(COLUMNS, trials=10**19), f"{10**19} trials of 3 entries"),
        (lambda: tpds.column_set_equivalence(COLUMNS, trials=2**62), f"{2**62} trials of 3 entries"),
    ],
    ids=[
        "classify_time_varying",
        "classify_time_varying_2**63+5",
        "eventual_monotonicity",
        "floquet_mode_evolution",
        "column_set_equivalence",
        "column_set_equivalence_2**62",
    ],
)
def test_a_size_past_numpys_limit_is_an_invalid_argument(call, message):
    # numpy refuses each shape before allocating anything, but leaked it:
    # np.linspace a bare ValueError ("Maximum allowed size exceeded"), or
    # IndexError at 2**63 + 5, which classify_time_varying reported as
    # EmptySegments; and the random draw a bare ValueError. floquet's own
    # np.linspace leaked MemoryError at 2 x 10**15 samples, and the others
    # MemoryError at sizes numpy asks the allocator for
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)} cannot be allocated$"):
        call()

