"""Tests for the coefficient expression language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expr_reference import evaluate
from test_stepper import exprs
from tpds import NonlinearSystem, Segment, exprlang
from tpds.errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    ExprTooDeep,
    TpdsError,
    UnboundVariable,
    UnknownIdentifier,
)
from tpds.exprlang import MAX_DEPTH, BinOp, Call, Neg, Num, Var, compile_fn, compile_stepper, parse, pretty, variables


def run(src, t=0.0, x=None, u=None):
    """Compile and call, as the library does: f(t), or f(t, x) with u bound."""
    ast = parse(src)
    if x is None:
        return compile_fn(ast, u=None if u is None else Num(u))(t)
    return compile_fn(ast, len(x), None if u is None else Num(u))(t, x)


def test_parse_and_evaluate_basic():
    assert run("1 + 2 * 3") == 7.0
    assert run("(1 + 2) * 3") == 9.0
    assert run("2 ^ 3 ^ 2") == 512.0  # right-associative
    assert run("-2 ^ 2") == -4.0  # power binds above unary minus
    assert run("6 / 4") == 1.5


def test_variables_and_bindings():
    e = parse("t * x2 + sin(u)")
    assert variables(e) == {"t", "x2", "u"}
    val = run("t * x2 + sin(u)", t=2.0, x=[10.0, 3.0], u=0.0)
    assert val == pytest.approx(6.0)
    with pytest.raises(UnboundVariable):
        compile_fn(e)  # a function of t alone
    with pytest.raises(UnboundVariable):
        compile_fn(e, 2)  # no input bound to u
    with pytest.raises(UnboundVariable):
        compile_fn(e, 1, Num(0.0))  # x2 beyond n = 1
    with pytest.raises(UnboundVariable):
        compile_fn(parse("u"), 1, parse("x1"))  # the input is a function of t


def test_functions_radians():
    assert run("cos(0)") == 1.0
    assert run("sin(t)", t=math.pi / 2) == pytest.approx(1.0)
    assert run("tanh(100)") == pytest.approx(1.0)
    assert run("sqrt(2)") == pytest.approx(math.sqrt(2))


def test_compile_shapes():
    t_ast, x_ast = parse("2 * t"), parse("x1 - x2")
    assert compile_fn(t_ast)(1.5) == 3.0
    A = compile_fn([[1, t_ast], [t_ast, -0.5]])(np.float64(2.0))
    assert A.dtype == float and np.array_equal(A, [[1.0, 4.0], [4.0, -0.5]])
    v = compile_fn([x_ast, 7, parse("u * t")], 2, parse("t + 1"))(2.0, np.array([5.0, 1.0]))
    assert v.dtype == float and np.array_equal(v, [4.0, 7.0, 6.0])
    with pytest.raises(DimensionMismatch):
        compile_fn([[1.0, 2.0], [3.0]])


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + @")
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse("sin 3")
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")
    with pytest.raises(UnknownIdentifier):
        parse("foo(3)")
    with pytest.raises(UnknownIdentifier):
        parse("y + 1")


def test_domain_errors():
    with pytest.raises(DomainError):
        run("1 / (t - t)", t=np.float64(3.0))
    with pytest.raises(DomainError):
        run("log(0)")
    with pytest.raises(DomainError):
        run("sqrt(0 - 1)")
    with pytest.raises(DomainError):
        run("(0 - 2) ^ 0.5")
    with pytest.raises(DomainError):
        run("t ^ 0.5", t=-4.0)
    with pytest.raises(DomainError):
        run("exp(t)", t=1e3)
    with pytest.raises(DomainError):
        Segment(0.0, 1.0, [[parse("t ^ 0.5")]]).matrix_at(-4.0)
    sys = NonlinearSystem(n=2, rhs=[parse("1 / x1"), parse("x2 ^ 0.5")])
    with pytest.raises(DomainError):
        sys.f(0.0, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        sys.f(0.0, np.array([1.0, -2.0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Segment(0.0, 1.0, [[parse("x1")]]),
        lambda: Segment(0.0, 1.0, [[0.0, parse("u")], [1.0, 0.0]]),
        lambda: NonlinearSystem(n=2, rhs=[parse("x1"), parse("x3")]),
        lambda: NonlinearSystem(n=1, rhs=[parse("u * x1")]),
        lambda: NonlinearSystem(n=1, rhs=[parse("u")], input=parse("x1")),
        lambda: NonlinearSystem(n=1, rhs=[parse("x1")], jacobian=[[parse("x2")]]),
    ],
    ids=["segment-x1", "segment-u", "rhs-x3", "rhs-u-without-input", "input-x1", "jacobian-x2"],
)
def test_unbound_variable_at_construction(build):
    with pytest.raises(UnboundVariable):
        build()


SOURCES = [
    "1 + t",
    "-t",
    "- (t + 1) * 2",
    "t ^ 2 ^ 3",
    "(t + 1) / (t - 2)",
    "sin(cos(t))",
    "1.5 - cos(t)",
    "t * x1 - x2 / 3",
    "tanh(x1) + 0.5 * sin(t)",
    "exp(-t) * sinh(t)",
    "2 ^ -t",
    "-t ^ 2",
    "abs(t - 3)",
    "1e-3 * t + 2.5e2",
    "u * x3 - u / 2",
    "sqrt(t + 10)",
    "t - -t",
    "((t))",
    "1 / 2 / 2",
    "1 - 2 - 3",
]


@pytest.mark.parametrize("src", SOURCES)
def test_pretty_round_trip(src):
    ast = parse(src)
    assert parse(pretty(ast)) == ast


# domain edges: negative base with a fractional exponent, zero divisors,
# log / sqrt at and below zero, overflow, a literal that overflows to inf,
# and x<k> beyond the three state entries
EDGE_SOURCES = [
    "t ^ 0.5",
    "x1 ^ 0.5",
    "1 / x1",
    "u / (t - t)",
    "0 ^ -t",
    "log(t) + sqrt(x2)",
    "exp(t * 1000)",
    "10 ^ (t * 400)",
    "1e999 * t",
    "x4 + t",
]
EDGE_T = [-4.0, -1.0, 0.0, 1.0, 2.0, 3.0]
EDGE_X = [[0.0, 0.0, 0.0], [-2.0, 0.0, 1.0], [4.0, -1.0, 0.5]]


def _outcome(thunk):
    try:
        return thunk()
    except TpdsError as exc:
        return type(exc)


@pytest.mark.parametrize("src", SOURCES + EDGE_SOURCES)
def test_compiled_matches_interpreter(src):
    ast = parse(src)
    rng = np.random.default_rng(9)
    points = [(t, x, 0.0) for t in EDGE_T for x in EDGE_X]
    points += [(rng.uniform(-5.0, 5.0), list(rng.uniform(-2.0, 2.0, 3)), rng.uniform(-1.0, 1.0)) for _ in range(60)]
    for t, x, u in points:
        for xs in (x, np.array(x)):
            for ts in (t, np.float64(t)):
                ref = _outcome(lambda: evaluate(ast, t=ts, x=xs, u=u))
                got = _outcome(lambda: compile_fn(ast, len(xs), Num(u))(ts, xs))
                # repr: equal classes, or equal floats bit for bit (nan included)
                assert repr(got) == repr(ref), (src, t, x, u)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50))
def test_arithmetic_identities(a, b, c):
    assert run(f"({a} + {b}) / {c}") == pytest.approx((a + b) / c)


def test_left_associativity():
    assert run("8 - 4 - 2") == 2.0
    assert run("8 / 4 / 2") == 1.0


# -- the (t, x) stack form ------------------------------------------------

STATE_ENTRIES = [
    ["tanh(x1) * x2 - u", "exp(x1 - x2) + t", "log(x1 ^ 2 + 1) * sqrt(abs(x2) + t ^ 2)"],
    ["(x1 - 0.3) ^ 2 - x2 ^ 3", "(abs(x2) + 1) ^ 1.5 / (x1 ^ 2 + 2)", "sinh(x1) * cosh(x2) * u ^ -2"],
]
STATE_INPUT = "2 + sin(3 * t) + cos(t) ^ 2"


def state_forms(entries, n, u=None):
    """compile_fn over t, x1..xn and u, twice: for the point calls of
    ``pointwise`` and the stacked call of ``stacked``."""
    entries = [[parse(e) if isinstance(e, str) else e for e in row] for row in entries]
    u = None if u is None else parse(u)
    coefficient = compile_fn(entries, n, u)
    return coefficient, coefficient


def pointwise(scalar, t, x):
    """The scalar function at each point, or its first DomainError."""
    try:
        with np.errstate(all="ignore"):
            return np.array([scalar(s, y) for s, y in zip(t, x)])
    except DomainError as exc:
        return str(exc)


def stacked(array, t, x):
    try:
        with np.errstate(all="ignore"):
            return array(t, x)
    except DomainError as exc:
        return str(exc)


def test_state_array_form_gives_the_scalar_floats():
    scalar, array = state_forms(STATE_ENTRIES, 2, STATE_INPUT)
    rng = np.random.default_rng(15)
    t = rng.uniform(-5.0, 5.0, 4000)
    x = rng.uniform(-3.0, 3.0, (4000, 2))
    got = array(t, x)
    assert got.shape == (4000, 2, 3)
    assert got.tobytes() == pointwise(scalar, t, x).tobytes()


@pytest.mark.parametrize(
    "entry",
    ["log(x1)", "sqrt(1.5 - x2)", "1 / (x1 - x2)", "x1 ^ 0.5", "exp(1000 * x2)", "x2 ^ 1100", "u * log(1 - x2)"],
)
def test_state_array_form_raises_the_first_scalar_domain_error(entry):
    # each entry leaves its domain at some of the points; the array form
    # falls back to the points one by one and fails where they first fail
    scalar, array = state_forms([[entry, "tanh(x1)"]], 2, "t - 1")
    t = np.linspace(-1.0, 2.0, 13)
    x = np.stack([np.linspace(2.0, -1.0, 13), np.linspace(-0.5, 3.0, 13)], axis=1)
    x[4, 1] = x[4, 0]  # x1 == x2 at one point
    want = pointwise(scalar, t, x)
    assert isinstance(want, str) and want.startswith("coefficient at t = ")
    assert not want.startswith("coefficient at t = -1.0")  # not the first point
    assert stacked(array, t, x) == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(exprs(["t", "u", "x1", "x2"]), st.floats(-2.0, 2.0)), min_size=2, max_size=2),
    exprs(["t"]),
    st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=30),
)
def test_state_array_form_matches_the_scalar_form(entries, u, points):
    assert_stack_is_pointwise(compile_fn(entries, 2, u), points, 2)


def assert_stack_is_pointwise(coefficient, points, width):
    """The same values (nan and inf included) at the (t, x1, x2) points,
    called on the stack and point by point, or the same first DomainError;
    sin and cos are numpy's, which may differ from math's by an ulp."""
    t = np.array([p[0] for p in points])
    x = np.array([p[1:] for p in points])
    got, want = stacked(coefficient, t, x), pointwise(coefficient, t, x)
    if isinstance(want, str):
        assert got == want
        return
    assert got.shape == want.shape == (len(points), width)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):  # inf - inf where both are the same inf, which `same` holds
        close = np.isfinite(want) & (np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert np.all(same | close)


# -- subexpressions shared by a stack form's entries -------------------------

SHARED = ["sin(t) + exp(t)", "sin(t) * exp(t) - exp(t)", "exp(t) ^ 2 / (1 + sin(t))", "cos(sin(t))"]


def test_a_shared_subexpression_is_evaluated_once_with_the_point_floats(monkeypatch):
    # exp is applied entry by entry through math's, once for the stack
    calls = []
    exp = exprlang._ARRAY_FUNCTIONS["_fn_exp"]
    monkeypatch.setitem(exprlang._ARRAY_FUNCTIONS, "_fn_exp", lambda a: calls.append(a) or exp(a))
    coefficient = compile_fn([[parse(e) for e in SHARED[:2]], [parse(e) for e in SHARED[2:]]])
    t = np.linspace(-3.0, 3.0, 513)
    got = coefficient(t)
    assert len(calls) == 1
    assert got.tobytes() == np.array([coefficient(s) for s in t.tolist()]).tobytes()


def test_shared_subexpressions_keep_the_point_forms_domain_error():
    coefficient = compile_fn([parse(e) for e in SHARED + ["log(t - 2) * sin(t)", "exp(t) + log(t - 2)"]])
    t = np.linspace(3.0, -3.0, 13)  # log(t - 2) fails from t = 2, the third point
    with pytest.raises(DomainError) as point:
        for s in t.tolist():
            coefficient(s)
    with pytest.raises(DomainError) as stack:
        coefficient(t)
    assert str(point.value) == "coefficient at t = 2.0: math domain error"
    assert str(stack.value) == str(point.value)


@settings(max_examples=150, deadline=None)
@given(
    exprs(["t", "u", "x1", "x2"]),
    exprs(["t", "u", "x1", "x2"]),
    exprs(["t"]),
    st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=30),
)
def test_entries_that_share_parts_match_the_point_form(a, b, u, points):
    # a and b in several entries, nested in each other, and u's parts in
    # the entries: their shared parts are named once, before first use
    entries = [BinOp("+", a, b), Neg(a), BinOp("*", b, Call("sin", a)), BinOp("-", u, a)]
    assert_stack_is_pointwise(compile_fn(entries, 2, BinOp("*", u, u)), points, 4)


# Each of these once ended in a bare exception: a SyntaxError "too many
# nested parentheses" from compiling the generated code (250 terms), or a
# RecursionError in variables (1200 terms) or in the parser.
DEEP_SOURCES = {
    "sum-250": " + ".join(["t"] * 250),
    "sum-1200": " + ".join(["t"] * 1200),
    "parens-400": "(" * 400 + "1" + ")" * 400,
    "minus-2000": "-" * 2000 + "1",
}


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_an_expression_that_nests_too_deeply_raises_a_typed_error(name):
    with pytest.raises(ExprTooDeep, match=r"^the expression nests too deeply \(more than 100 levels\)$"):
        parse(DEEP_SOURCES[name])


def _chain(depth, leaf, link):
    """A left-nested tree with `depth` nodes on its longest path."""
    for _ in range(depth - 1):
        leaf = link(leaf)
    return leaf


@pytest.mark.parametrize(
    "link",
    [
        lambda e: BinOp("+", e, Var("t")),
        lambda e: BinOp("^", e, Num(2.0)),  # ((e) ** 2.0): two parentheses a level
        lambda e: Neg(e),
        lambda e: Call("exp", e),
    ],
    ids=["sum", "integral-power", "minus", "call"],
)
def test_compile_takes_every_tree_up_to_max_depth_and_refuses_one_deeper(link):
    leaf = Num(math.inf)  # _float('inf'): one more parenthesis at the bottom
    deepest = _chain(MAX_DEPTH, leaf, link)
    assert MAX_DEPTH == 100
    with np.errstate(all="ignore"):
        compile_fn(deepest)(0.5)
        compile_fn([[deepest]])(np.array([0.5, 1.5]))
    run = compile_stepper([deepest], 1)
    for step in (0.1, None):  # the first state comes once the loop has compiled
        assert next(run([1.0], [0.0, 1.0], step, [0, 0])).tolist() == [1.0]
    too_deep = link(deepest)
    for build in (compile_fn, lambda e: compile_stepper([e], 1), lambda e: compile_fn(Num(1.0), 1, u=e)):
        with pytest.raises(ExprTooDeep):
            build(too_deep)


def test_parse_counts_parentheses_minus_signs_and_the_tree_alike():
    for source in ("(" * 99 + "t" + ")" * 99, "-" * 99 + "t", " + ".join(["t"] * 100), "2 ^ " * 99 + "t"):
        parse(source)
    for source in ("(" * 100 + "t" + ")" * 100, "-" * 100 + "t", " + ".join(["t"] * 101), "2 ^ " * 100 + "t"):
        with pytest.raises(ExprTooDeep):
            parse(source)
    # an expression at the limit compiles
    assert compile_fn(parse(" + ".join(["t"] * 100)))(1.0) == 100.0


def test_variables_and_pretty_walk_a_tree_of_any_depth_without_recursion():
    # both recursed, and a 3,000-term sum gave a bare RecursionError
    huge = _chain(3000, Var("t"), lambda e: BinOp("+", e, Var("x1")))
    for walk in (variables, pretty):
        with pytest.raises(ExprTooDeep, match=r"^the expression nests too deeply \(more than 100 levels\)$"):
            walk(huge)
    deepest = _chain(MAX_DEPTH, Var("t"), lambda e: BinOp("+", e, Var("x1")))
    assert variables(deepest) == {"t", "x1"}
    assert parse(pretty(deepest)) == deepest


@pytest.mark.parametrize("expr", [5, "t", None, BinOp("+", Var("t"), 2.0), Neg(Call("sin", [Var("t")]))])
def test_variables_and_pretty_refuse_what_is_not_a_node(expr):
    for walk in (variables, pretty):
        with pytest.raises(TypeError, match="^not an expression node: "):
            walk(expr)


@pytest.fixture()
def compiled(monkeypatch):
    """From an empty cache on: the sources that exprlang compiles, the code
    object that ``_define`` executes for each function it defines, and the
    cached helper itself."""
    cached = exprlang._code
    record = {"sources": [], "executed": [], "cache": cached}
    cached.cache_clear()

    def counted(source, *args):
        record["sources"].append(source)
        return compile(source, *args)

    def executed(source):
        record["executed"].append(cached(source))
        return record["executed"][-1]

    monkeypatch.setattr(exprlang, "compile", counted, raising=False)
    monkeypatch.setattr(exprlang, "_code", executed)
    return record


def _runs(advance, y, times):
    """The states and tallies of a DOP853 and an RK4 run of one run function."""
    out = []
    for step in (None, 0.1):
        tally = [0, 0, None]
        states = [float(v).hex() for state in advance(y, times, step, tally) for v in state]
        out.append((states, tally))
    return out


def test_a_coefficient_or_stepper_built_twice_is_compiled_once(compiled):
    entries = [[parse("sin(t) * x1"), parse("x2 / 3")], [1.0, parse("t - x1")]]
    t, x = np.array([0.5, 1.5]), np.array([[1.0, 2.0], [3.0, 4.0]])
    values = []
    for _ in range(2):
        f = compile_fn(entries, 2)
        values.append([f(0.5, x[0]).tolist(), f(t, x).tolist()])
    assert values[0] == values[1]
    assert len(compiled["sources"]) == 2  # the point form and the stack form
    rhs = [parse("x2"), parse("cos(t) - x1")]
    runs = [_runs(compile_stepper(rhs, 2), [1.0, 0.0], [0.0, 1.0, 2.0]) for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(compiled["sources"]) == 4  # and the two run loops, once each


def test_the_rk4_and_dop853_loops_of_one_system_are_two_entries(compiled):
    advance = compile_stepper([parse("-x1 * t")], 1)
    first = _runs(advance, [1.0], [0.0, 0.5])
    loops = compiled["sources"]
    assert len(loops) == 2 and loops[0] != loops[1]
    assert all(source.startswith("def advance(y, times, step, tally):") for source in loops)
    info = compiled["cache"].cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    # a second run of each mode reuses its loop, and a rebuilt system both
    again = compile_stepper([parse("-x1 * t")], 1)
    assert _runs(advance, [1.0], [0.0, 0.5]) == _runs(again, [1.0], [0.0, 0.5]) == first
    info = compiled["cache"].cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


def test_coefficients_that_differ_only_in_a_constant_share_code_but_not_values(compiled):
    sin_t, quarter_t = parse("sin(t)"), parse("t / 4")
    f, g = (compile_fn([[sin_t, c], [2.0, quarter_t]]) for c in (1.0, 5.0))
    t = np.array([0.25, 0.5, 1.0])
    for h, c in ((f, 1.0), (g, 5.0)):
        want = [[[math.sin(s), c], [2.0, s / 4]] for s in t.tolist()]
        assert h(0.5).tolist() == want[1]
        assert h(t).tolist() == want
    # f's point form, g's, f's stack form, g's: one code object for each form
    point_f, point_g, stack_f, stack_g = compiled["executed"]
    assert point_f is point_g and stack_f is stack_g and point_f is not stack_f
    assert len(compiled["sources"]) == 2


def test_a_domain_error_from_cached_code_names_its_own_function_and_time(compiled):
    log = parse("log(t - 1)")
    for c, t in ((2.0, 0.5), (3.0, 0.25)):
        h = compile_fn([[log, c]])
        message = rf"^coefficient at t = {t}: math domain error$"
        with pytest.raises(DomainError, match=message):
            h(t)
        with pytest.raises(DomainError, match=message):  # the first point that fails
            h(np.array([2.0, t, 0.125]))
    for t0 in (0.5, 0.25):
        advance = compile_stepper([log], 1)
        for step, method in ((None, "DOP853"), (0.1, "RK4")):
            with pytest.raises(DomainError, match=rf"^advance in the {method} step from t = {t0}: math domain error$"):
                list(advance([1.0], [t0, 2.0], step, [0, 0, None]))
    assert len(compiled["sources"]) == 4  # the point and stack forms and the two loops


def test_a_stepper_of_the_same_rhs_built_again_generates_no_loop_lines(compiled, monkeypatch):
    """The run loop's lines are generated once per process for each code
    text (``_loop_lines``): a system built again generates nothing and
    compiles nothing, yet ``_define`` still gives it a function of its own,
    with its own globals, over the one shared code object."""
    exprlang._loop_lines.cache_clear()
    spans, defined = [], []
    dop853_span, define = exprlang._dop853_span, exprlang._define

    def counted_span(*args):
        spans.append(args)
        return dop853_span(*args)

    def recorded_define(*args, **kwargs):
        defined.append(define(*args, **kwargs))
        return defined[-1]

    monkeypatch.setattr(exprlang, "_dop853_span", counted_span)
    monkeypatch.setattr(exprlang, "_define", recorded_define)
    runs = [_runs(compile_stepper([parse("x2"), parse("cos(t) - x1")], 2), [1.0, 0.0], [0.0, 1.0]) for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(spans) == 1
    info = exprlang._loop_lines.cache_info()
    assert (info.hits, info.misses) == (2, 2)  # a DOP853 and an RK4 loop per system
    assert len(compiled["sources"]) == 2
    assert len(defined) == 4  # each system's DOP853 loop, then its RK4 loop
    for f, g in zip(defined[:2], defined[2:]):
        assert f is not g and f.__globals__ is not g.__globals__ and f.__code__ is g.__code__


def test_rhs_that_differ_only_in_the_sign_of_a_zero_generate_two_sources(compiled):
    """Num(0.0) == Num(-0.0), so the trees are equal, but the lines are keyed
    by their code: each rhs gets its own source, and its own floats."""
    plus, minus = ([BinOp("+", Var("x1"), Num(zero))] for zero in (0.0, -0.0))
    assert plus == minus
    runs = [_runs(compile_stepper(rhs, 1), [-0.0], [0.0, 0.5]) for rhs in (plus, minus)]
    dop853, rk4 = compiled["sources"][0::2], compiled["sources"][1::2]
    assert len(set(dop853)) == len(set(rk4)) == 2
    assert "(x1 + 0.0)" in rk4[0] and "(x1 + -0.0)" in rk4[1]
    rk4_states = [states for _, (states, _) in runs]
    assert rk4_states == [["-0x0.0p+0", "0x0.0p+0"], ["-0x0.0p+0", "-0x0.0p+0"]]  # -0.0 + 0.0 is 0.0


@pytest.mark.parametrize("source", ["1 +", "sin(t", "x1 ) 2", "t $ 2", "-" * (MAX_DEPTH + 1) + "t", "y1"])
def test_a_bad_expression_raises_the_same_error_every_time(source):
    """A source that fails is not kept by the parse memo: each parse raises
    again, the same error with the same message."""
    exprlang._parsed.cache_clear()
    raised = []
    for _ in range(3):
        with pytest.raises(TpdsError) as err:
            parse(source)
        raised.append((type(err.value), str(err.value), getattr(err.value, "position", None)))
    assert raised[0][0] in (ExprSyntaxError, ExprTooDeep, UnknownIdentifier)
    assert raised == raised[:1] * 3
    assert exprlang._parsed.cache_info().currsize == 0


def test_a_source_parsed_again_is_the_same_frozen_tree():
    exprlang._parsed.cache_clear()
    tree = parse("sin(t) * x1 - 2 ^ x2")
    assert parse("sin(t) * x1 - 2 ^ x2") is tree
    assert exprlang._parsed.cache_info()[:2] == (1, 1)  # (hits, misses)
    with pytest.raises(AttributeError):
        tree.left = Num(1.0)


def test_a_coefficient_built_again_generates_no_lines_but_gets_its_own_functions(compiled, monkeypatch):
    """compile_fn's point and stack lines are generated once per process for
    each code text (``_point_lines``, ``_stack_lines``): a coefficient built
    again generates nothing and compiles nothing, yet ``_define`` still
    gives it functions of its own, with their own globals, over the shared
    code objects."""
    exprlang._point_lines.cache_clear()
    exprlang._stack_lines.cache_clear()
    shared, defined = [], []
    common, define = exprlang._common, exprlang._define

    def counted_common(exprs):
        shared.append(exprs)
        return common(exprs)

    def recorded_define(*args, **kwargs):
        defined.append(define(*args, **kwargs))
        return defined[-1]

    monkeypatch.setattr(exprlang, "_common", counted_common)
    monkeypatch.setattr(exprlang, "_define", recorded_define)
    entries = [[parse("sin(t) * x1"), 2.0], [parse("sin(t) * x1 + x2"), parse("t")]]
    t, x = np.array([0.5, 1.5]), np.array([[1.0, 2.0], [3.0, 4.0]])
    fs = [compile_fn(entries, 2) for _ in range(2)]
    values = [[f(0.5, x[0]).tolist(), f(t, x).tolist()] for f in fs]
    assert values[0] == values[1]
    assert len(shared) == 1  # the stack form's subexpressions, found once
    assert exprlang._point_lines.cache_info()[:2] == exprlang._stack_lines.cache_info()[:2] == (1, 1)
    assert len(compiled["sources"]) == 2
    # the first point form, the second, then each one's stack form
    assert len(defined) == 4
    for f, g in (defined[:2], defined[2:]):
        assert f is not g and f.__globals__ is not g.__globals__ and f.__code__ is g.__code__
        assert f.__globals__["_base"] is not g.__globals__["_base"]


def test_coefficients_that_differ_only_in_a_constant_share_their_lines():
    exprlang._point_lines.cache_clear()
    exprlang._stack_lines.cache_clear()
    t = np.array([0.25, 3.0])
    for c in (1.0, 2.0):
        f = compile_fn([[c, Var("t")]])
        assert f(0.5).tolist() == [[c, 0.5]]
        assert f(t).tolist() == [[[c, 0.25]], [[c, 3.0]]]
    # the second coefficient's lines are the first's
    assert exprlang._point_lines.cache_info()[:2] == exprlang._stack_lines.cache_info()[:2] == (1, 1)


def test_coefficients_that_differ_only_in_the_sign_of_a_zero_generate_two_sources(compiled):
    """Num(0.0) == Num(-0.0), so the trees are equal, but the lines are keyed
    by their code: each coefficient gets its own sources, and its own
    floats."""
    plus, minus = ([[BinOp("*", Var("t"), Num(zero)), 1.0]] for zero in (0.0, -0.0))
    assert plus == minus
    signs = []
    for entries in (plus, minus):
        f = compile_fn(entries)
        signs.append([math.copysign(1.0, f(1.0)[0, 0]), math.copysign(1.0, f(np.array([1.0]))[0, 0, 0])])
    assert signs == [[1.0, 1.0], [-1.0, -1.0]]
    points, stacks = compiled["sources"][0::2], compiled["sources"][1::2]
    assert len(set(points)) == len(set(stacks)) == 2
    assert "(t * 0.0)" in points[0] and "(t * -0.0)" in points[1]
