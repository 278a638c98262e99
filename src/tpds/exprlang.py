"""Small expression language for time- and state-dependent coefficients.

Grammar (radians throughout)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right-associative, binds above unary minus
    atom   :=  number | 't' | 'u' | 'x<k>' | func '(' expr ')' | '(' expr ')'

Recognized functions: sin cos tan sinh cosh tanh exp log sqrt abs.

Coefficients are evaluated only through generated Python code:
``compile_fn`` turns a whole scalar, vector or matrix of them into one
checked function of t, or of t and x, that takes one point or a stack of
them: a 1-d array of times and, with x, a matching (m, n) array of states,
as for ``Segment.matrix_at`` and the f and J of
``nonlinear.NonlinearSystem``. ``compile_stepper`` turns the
right-hand side of x' = f(t, x) into one checked run function, whose step
picks its loop, fixed-step RK4 or error-controlled Dormand-Prince 5(4),
and whose stages inline every entry.
All of them emit the same code for an expression (``_pycode``) and are
defined by the same helper (``_define``).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    IntegrationSuspect,
    LeftDomain,
    UnboundVariable,
    UnknownIdentifier,
)
from .integrate import ATOL, MAX_STEPS, RTOL, _step_count

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_VAR_RE = re.compile(r"^(t|u|x[1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        while pos < len(source) and source[pos].isspace():
            pos += 1
        if pos >= len(source):
            break
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if _VAR_RE.match(val):
                return Var(val)
            raise UnknownIdentifier(f"unknown identifier {val!r} at offset {pos}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected number, identifier or '(', found {val or 'end of input'!r}", pos
        )


def parse(source):
    """Parse an expression string into an immutable AST."""
    return _Parser(source).parse()


def variables(expr):
    """Set of variable names referenced by the expression."""
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        return variables(expr.arg)
    raise TypeError(f"not an expression node: {expr!r}")


def _literal(v):
    # repr round-trips every finite float; inf and nan have no literal
    return repr(v) if math.isfinite(v) else f"_float({repr(v)!r})"


def _integral(expr):
    """True for a literal integer exponent such as 3 or -1: a real base
    raised to it is always real."""
    if isinstance(expr, Neg):
        return _integral(expr.operand)
    return isinstance(expr, Num) and math.isfinite(expr.value) and expr.value == int(expr.value)


def _pycode(expr, array=False):
    """Python source for the expression. With ``array`` an integral power
    is ``_ipow(a, k)``, which the stack form applies entry by entry, rather
    than a bare ``**``."""
    if isinstance(expr, (int, float)):
        return _literal(float(expr))
    if isinstance(expr, Num):
        return _literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{_pycode(expr.operand, array)})"
    if isinstance(expr, BinOp):
        left, right = _pycode(expr.left, array), _pycode(expr.right, array)
        if expr.op == "^" and _integral(expr.right):
            return f"_ipow({left}, {right})" if array else f"(({left}) ** {right})"
        if expr.op == "^":
            return f"_pow({left}, {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, Call):
        return f"_fn_{expr.func}({_pycode(expr.arg, array)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _pow(a, b):
    r = a**b
    if isinstance(r, complex):
        raise DomainError(f"non-real power {a} ^ {b}")
    return r


def _entrywise(fn):
    """fn applied entry by entry to its broadcast float arguments, giving a
    float array; fn's own floats and exceptions."""

    def apply(*args):
        args = np.broadcast_arrays(*args)
        flat = [a.ravel().tolist() for a in args]
        return np.fromiter(map(fn, *flat), float, args[0].size).reshape(args[0].shape)

    return apply


# The stack form's functions: numpy's where it gives the floats of math's
# (sin, cos, sqrt, abs), math's and Python's entry by entry elsewhere (see
# compile_fn).
_ARRAY_FUNCTIONS = {f"_fn_{name}": _entrywise(fn) for name, fn in FUNCTIONS.items()}
_ARRAY_FUNCTIONS.update(_fn_sin=np.sin, _fn_cos=np.cos, _fn_sqrt=np.sqrt, _fn_abs=np.abs)
_ARRAY_FUNCTIONS.update(_pow=_entrywise(_pow), _ipow=_entrywise(operator.pow))
# what sends the stack form to its point-by-point fallback: a numpy flag
# raised as FloatingPointError, or an exception of an entry-by-entry function
_FALLBACK = (ArithmeticError, ValueError, DomainError)


def _names(entry):
    return set() if isinstance(entry, (int, float)) else variables(entry)


def _bound_names(entries, n, u):
    """The variables that the entries and the input u use. One outside t,
    x1..xn (with n) and u (with an input, itself over t alone) raises
    UnboundVariable."""
    used = set().union(*map(_names, entries))
    allowed = {"t"}
    if n is not None:
        allowed |= {f"x{k}" for k in range(1, n + 1)}
    u_names = set()
    if u is not None:
        allowed.add("u")
        u_names = _names(u)
    unbound = (used - allowed) | (u_names - {"t"})
    if unbound:
        raise UnboundVariable(f"variables {sorted(unbound)} not bound")
    return used | u_names


def _define(signature, prologue, body, at=None, **env):
    """Define ``def signature:`` by exec: the prologue lines, then the body
    lines inside a wrapper that re-raises a ValueError, ZeroDivisionError,
    OverflowError or DomainError (a non-real power) as DomainError. Given
    ``at``, an f-string fragment over the function's locals such as
    ``"at t = {t}"``, the message names the function and that place before
    the original message. Body lines may carry their own further
    indentation. ``env`` adds names to the function's globals."""
    name = signature[: signature.index("(")]
    message = "str(exc)" if at is None else f'f"{name} {at}: {{exc}}"'
    source = (
        f"def {signature}:\n"
        + "".join(f"    {line}\n" for line in prologue)
        + "    try:\n"
        + "".join(f"        {line}\n" for line in body)
        + "    except (ValueError, ZeroDivisionError, OverflowError, DomainError) as exc:\n"
        + f"        raise DomainError({message}) from exc\n"
    )
    namespace = {f"_fn_{name}": fn for name, fn in FUNCTIONS.items()}
    namespace.update(_pow=_pow, _float=float, DomainError=DomainError)
    namespace.update(env)
    exec(source, namespace)
    return namespace[name]


def _cells(coeff):
    """The shape of a coefficient (() for a number or AST) and its entries
    by index, in row-major order."""
    seq = (list, tuple, np.ndarray)
    if not isinstance(coeff, seq):
        return (), {(): coeff}
    if any(isinstance(row, seq) for row in coeff):
        if any(not isinstance(row, seq) or len(row) != len(coeff[0]) for row in coeff):
            raise DimensionMismatch("coefficient matrix rows differ in length")
        cells = {(i, j): e for i, row in enumerate(coeff) for j, e in enumerate(row)}
        return (len(coeff), len(coeff[0])), cells
    return (len(coeff),), {(i,): e for i, e in enumerate(coeff)}


def _fill(cells, base, target, array=False):
    """Bake the constant cells into base; return one assignment to the
    target (a format of the cell index) per expression cell, in row-major
    order."""
    lines = []
    for idx, e in cells.items():
        if isinstance(e, (int, float, Num)):
            base[idx] = e.value if isinstance(e, Num) else e
        else:
            lines.append(f"{target.format(', '.join(map(str, idx)))} = {_pycode(e, array)}")
    return lines


def compile_fn(coeff, n=None, u=None):
    """Compile a coefficient into one checked function of a point or a stack.

    ``coeff`` is a number or AST (the function returns a float), a sequence
    of them (a 1-d array) or a sequence of equal-length sequences (a 2-d
    array). Constant entries are baked in. Without ``n`` the function is
    ``f(t)`` over t alone, as for a segment of A(t). With ``n`` it is
    ``f(t, x)`` over t and x1..xn, plus u when the input ``u`` (an AST over
    t) is given; u is then evaluated once per call, before the entries.

    At one time t (and state x), a generated point form binds each
    variable as a Python float, so the real-domain semantics hold whatever
    numeric type the caller passes: ``^`` raises DomainError on a complex
    result, and a ValueError, ZeroDivisionError or OverflowError (log or
    sqrt out of domain, division by zero, overflow) is re-raised as
    DomainError; either message is prefixed by "coefficient at t = ...". A
    variable outside the allowed set raises UnboundVariable here, at
    compile time. The caller checks t and x.

    At a 1-d array of m times (and an (m, n) array of states, xk bound to
    the column x[:, k - 1], u evaluated once over the times), a generated
    stack form, compiled on the first such call, returns the m values
    stacked, shape (m,) + the coefficient's shape, from one numpy
    evaluation of each entry. Its floats are those of the point form at
    each point. numpy's arithmetic and sqrt are correctly rounded, as
    Python's are, and its sin and cos gave math's floats on every point
    tried. Its exp, sinh, cosh, tanh, tan, log and power differ from math's
    by 1 ulp on 0.1-26 % of points, so those are applied entry by entry
    through math's and Python's. When numpy raises a divide, overflow or
    invalid flag, or an entry-by-entry function raises, the points are
    evaluated one by one by the point form instead. The DomainError (the
    first in point order) and the silent inf or nan of Python float
    arithmetic are therefore those of the point form.
    """
    shape, cells = _cells(coeff)
    used = _bound_names(cells.values(), n, u)
    lines = ["t = float(t)"] if "t" in used else []
    lines += [f"{v} = float(x[{int(v[1:]) - 1}])" for v in sorted(used - {"t", "u"})]
    if u is not None:
        lines.append(f"u = {_pycode(u)}")
    base = None
    if not shape:
        lines.append(f"return {_pycode(coeff)}")
    else:
        # constants go into a base array; each call copies it and fills
        # in the expression entries, in row-major order
        base = np.zeros(shape)
        lines += ["A = _base.copy()", *_fill(cells, base, "A[{}]"), "return A"]
    signature = f"coefficient(t{', x' if n is not None else ''})"
    point = _define(signature, [], lines, at="at t = {t}", _base=base)
    stack = functools.cache(lambda: _stack_form(signature, shape, cells, used, n, u, point))

    def coefficient(t, *x):
        return stack()(t, *x) if np.ndim(t) else point(t, *x)

    return coefficient


def _stack_form(signature, shape, cells, used, n, u, point):
    """The stack form of compile_fn's coefficient over its point form."""
    base = np.zeros(shape)
    prologue = ["t = _array(t, dtype=float)", "stacked = (len(t),) + _base.shape"]
    evaluate, fallback = [], "_point(s) for s in t.tolist()"
    if n is not None:
        prologue.insert(1, "x = _array(x, dtype=float)")
        evaluate += [f"{v} = x[:, {int(v[1:]) - 1}]" for v in sorted(used - {"t", "u"})]
        fallback = "_point(s, y) for s, y in zip(t.tolist(), x)"
    shared, rename = _common(([] if u is None else [u]) + list(cells.values()))
    if u is not None:
        shared.append(f"u = {_pycode(rename(u), array=True)}")
    cells = {idx: rename(e) for idx, e in cells.items()}
    evaluate += shared
    evaluate += ["A = _empty(stacked)", "A[...] = _base"]
    evaluate += _fill(cells, base, "A[:, {}]" if shape else "A[:]", array=True)
    body = [
        "with _errstate(divide='raise', over='raise', invalid='raise'):",
        "    try:",
        *(f"        {line}" for line in evaluate),
        "        return A",
        "    except _FALLBACK:",
        "        pass",
        f"return _array([{fallback}], dtype=float).reshape(stacked)",
    ]
    env = dict(_ARRAY_FUNCTIONS, _errstate=np.errstate, _empty=np.empty, _array=np.array)
    return _define(signature, prologue, body, _base=base, _point=point, _FALLBACK=_FALLBACK, **env)


def _common(exprs):
    """Common subexpressions of the stack form: a list of assignments and a
    function that renames. Each Call, BinOp or Neg over a variable whose
    code occurs more than once in exprs is renamed ``_s<k>``, and the
    function appends its assignment, from its own renamed parts, the first
    time it meets it. So renaming exprs in the order given lists each
    assignment after those it uses (post-order) and before its first use.
    Subexpressions are keyed by their code, not by node equality, under
    which Num(0.0) and Num(-0.0) are equal."""
    counts = {}

    def compound(e):
        return isinstance(e, (Neg, BinOp, Call)) and bool(_names(e))

    def count(e):
        if compound(e):
            key = _pycode(e, array=True)
            counts[key] = counts.get(key, 0) + 1
            if counts[key] == 1:  # the parts of a repeat are counted once
                for f in fields(e):
                    count(getattr(e, f.name))

    for e in exprs:
        count(e)
    shared, names = [], {}

    def rename(e):
        if not compound(e):
            return e
        key = _pycode(e, array=True)
        if key not in names:
            e = type(e)(*(rename(getattr(e, f.name)) for f in fields(e)))
            if counts[key] == 1:
                return e
            names[key] = f"_s{len(names)}"
            shared.append(f"{names[key]} = {_pycode(e, array=True)}")
        return Var(names[key])

    return shared, rename


# Dormand and Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980): the
# stage times c, the stage weights a (the last row gives the fifth-order
# solution, whose f is the next step's first stage) and the weights e of
# the error estimate, the fifth- less the fourth-order solution
_DP5_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP5_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP5_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def compile_stepper(rhs, n, u=None, box=None):
    """Compile the right-hand side of x' = f(t, x) into one run function,
    ``advance(y, times, step, tally)``, whose step picks its loop, each
    generated and compiled on its first run. ``rhs`` holds the n entries of
    f (numbers or ASTs over t, x1..xn and, with the input ``u``, u); ``box``,
    when given, the (lo, hi) of each coordinate. A run is a generator over a
    nonempty iterable of nondecreasing times, read lazily. It yields the
    state at each time as a float array, the start y at the first, and keeps
    the state, the stage values and the step size as Python floats from one
    time to the next, with every entry of f inlined at each stage and u
    evaluated once per stage time. Before each yield it stores the accepted
    and rejected steps so far in ``tally[0]`` and ``tally[1]``. A state more
    than 1e-12 outside the box raises LeftDomain at its time ("initial
    condition outside the domain box", "trajectory left the domain box").

    With a number ``step`` the loop takes classical RK4 in
    ``integrate._step_count(t1 - t0, step)`` equal steps between times
    t0 < t1, with the floating-point operations of RK4 over
    ``compile_fn(rhs, n, u)`` on numpy arrays in the same order: the same
    states, bit for bit.

    With ``step=None`` it takes Dormand-Prince 5(4) steps with the first
    stage taken from the last (FSAL), each accepted when the RMS norm of
    its error estimate, scaled per entry by ATOL + RTOL max(|y|, |y + dy|)
    (``integrate``), is at most 1. The first step size follows Hairer,
    Norsett and Wanner (Solving ODEs I, II.4), and each next one is the
    step's h times min(5, max(0.2, 0.9 err^(-1/5))), at most h after a
    rejection. A step that would end within 1 % of its h before the next
    time is stretched or cut to land exactly on that time; the step size it
    was cut from carries on past it. A non-finite error estimate, a step
    size no larger than 16 eps |t|, or more than MAX_STEPS steps between
    two times raises IntegrationSuspect naming t.

    The domain rules and errors are those of ``compile_fn``, but a
    DomainError's message names the step by its start ("advance in the RK4
    step from t = ...", "advance in the DP5 step from t = ...") and an
    unbound variable raises here. A y that does not hold n entries raises
    ValueError when the loop unpacks it.
    """
    used = _bound_names(rhs, n, u)
    loop = functools.cache(lambda adaptive: _run_loop(rhs, n, u, box, used, adaptive))

    def advance(y, times, step, tally):
        return loop(step is None)(y, times, step, tally)

    return advance


def _run_loop(rhs, n, u, box, used, adaptive):
    """compile_stepper's loop for one mode: Dormand-Prince given adaptive, else RK4."""
    signature = "advance(y, times, step, tally)"  # DomainError messages name it
    ks = range(1, n + 1)
    states = sorted(int(v[1:]) for v in used - {"t", "u"})
    codes = [_pycode(e) for e in rhs]
    ys = ", ".join(f"y{k}" for k in ks)

    def stage(out, time, state):
        # out1..outn: f at the time `time` (None: the previous stage's t and
        # u) and the state x_k = state.format(k=k)
        lines = []
        if time is not None and "t" in used:
            lines.append(f"t = {time}")
        if time is not None and u is not None:
            lines.append(f"u = {_pycode(u)}")
        lines += [f"x{k} = {state.format(k=k)}" for k in states]
        return lines + [f"{out}{k} = {code}" for k, code in zip(ks, codes)]

    def check_box(message, time):
        if box is None:
            return []
        inside = " and ".join(
            f"{_literal(lo - 1e-12)} <= y{k} <= {_literal(hi + 1e-12)}" for k, (lo, hi) in zip(ks, box)
        )
        return [f"if not ({inside}):", f"    raise _LeftDomain({message!r}, {time})"]

    prologue = [f"{ys}, = map(float, y)", "times = iter(times)", "s = float(next(times))"]
    head = check_box("initial condition outside the domain box", "s")
    head += ["accepted = rejected = 0", f"yield _array([{ys}])"]
    tail = check_box("trajectory left the domain box", "float(t1)")
    tail += ["tally[0] = accepted", "tally[1] = rejected", f"yield _array([{ys}])"]
    env = dict(_array=np.array, _step_count=_step_count, _sqrt=math.sqrt, _inf=math.inf)
    env.update(_LeftDomain=LeftDomain, _IntegrationSuspect=IntegrationSuspect)
    if adaptive:
        span = ["t1 = float(t1)"] + _dp5_span(stage, ks)
        body = head + ["h = None", "grow = 5.0", "for t1 in times:", *_indent(span + tail)]
        return _define(signature, prologue, body, at="in the DP5 step from t = {s}", **env)
    rk4 = (
        stage("a", "s", "y{k}")
        + stage("b", "s + h2", "y{k} + h2 * a{k}")
        + stage("c", None, "y{k} + h2 * b{k}")
        + stage("d", "s + h", "y{k} + h * c{k}")
        + [f"y{k} = y{k} + h6 * (a{k} + 2 * b{k} + 2 * c{k} + d{k})" for k in ks]
        + ["s += h"]
    )
    span = [
        "length = t1 - t0",
        "if length > 0:",
        "    nsteps = _step_count(length, step)",
        "    s = float(t0)",
        "    h = float(length / nsteps)",
        "    h2 = h / 2",
        "    h6 = h / 6",
        "    for _ in range(nsteps):",
        *_indent(rk4, 2),
        "    accepted += nsteps",
    ]
    body = head + ["for t1 in times:", *_indent(span + tail + ["t0 = t1"])]
    return _define(signature, prologue + ["t0 = s"], body, at="in the RK4 step from t = {s}", **env)


def _dp5_span(stage, ks):
    """The lines of compile_stepper's Dormand-Prince loop that take the
    state y from s to t1: the first step size, once, then at most MAX_STEPS
    steps under the step-size controller, to ATOL and RTOL."""
    n = len(ks)
    scale = lambda k, v: f"({v} / ({_literal(ATOL)} + {_literal(RTOL)} * abs(y{k})))"
    rms = lambda term: f"_sqrt(({' + '.join(f'{term(k)} * {term(k)}' for k in ks)}) / {n})"

    def combine(weights, stages, k):
        return " + ".join(f"{_literal(w)} * {g}{k}" for w, g in zip(weights, stages) if w)

    names = [f"k{j}_" for j in range(1, 8)]
    # Hairer, Norsett and Wanner, II.4: the first step size from the norms
    # of y, of f and of an explicit Euler step's change in f
    first = (
        stage(names[0], "s", "y{k}")
        + [
            f"d0 = {rms(lambda k: scale(k, f'y{k}'))}",
            f"d1 = {rms(lambda k: scale(k, f'k1_{k}'))}",
            "h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6",
        ]
        + stage("k2_", "s + h", "y{k} + h * k1_{k}")
        + [
            # h is 0 only after an infinite d1, where d2 is taken as infinite
            f"d2 = {rms(lambda k: scale(k, f'(k2_{k} - k1_{k})'))} / h if h else _inf",
            "dm = max(d1, d2)",
            "h = min(100 * h, (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h * 1e-3))",
        ]
    )
    step = [
        "if not h > 3.552713678800501e-15 * abs(s):  # 16 eps |t|",
        '    raise _IntegrationSuspect(f"the DP5 step size {h!r} is below 16 eps |t| at t = {s!r}")',
        "if accepted + rejected >= limit:",
        f'    raise _IntegrationSuspect(f"the DP5 run takes more than {MAX_STEPS} steps from t = {{t0!r}} to t = {{t1!r}}")',
        "last = s + 1.01 * h >= t1",
        "hh = t1 - s if last else h",
        "te = t1 if last else s + hh",
    ]
    for j, (c, weights) in enumerate(zip(_DP5_C, _DP5_A), start=1):
        time = "te" if c == 1.0 else f"s + {_literal(c)} * hh"
        state = "y{k} + hh * (" + combine(weights, names, "{k}") + ")"
        if j < 6:
            step += stage(names[j], time, state)
        else:  # the fifth-order solution w, and f there at the same time te
            step += [f"w{k} = {state.format(k=k)}" for k in ks] + stage(names[6], None, "w{k}")
    step += [
        f"q{k} = hh * ({combine(_DP5_E, names, k)}) / ({_literal(ATOL)} + {_literal(RTOL)} * max(abs(y{k}), abs(w{k})))"
        for k in ks
    ]
    step += [
        f"err = {rms(lambda k: f'q{k}')}",
        "if not err < _inf:",
        '    raise _IntegrationSuspect(f"the DP5 error estimate is {err} in the step from t = {s!r}")',
        "fac = min(grow, max(0.2, 0.9 * max(err, 1e-4) ** -0.2))",
        "if err <= 1.0:",
        "    accepted += 1",
        "    s = te",
        *(f"    y{k} = w{k}" for k in ks),
        *(f"    k1_{k} = k7_{k}" for k in ks),
        "    h = max(h, hh * fac) if last else hh * fac",
        "    grow = 5.0",
        "else:",
        "    rejected += 1",
        "    h = hh * fac",
        "    grow = 1.0",
    ]
    head = ["if h is None and s < t1:", *_indent(first), "t0 = s", f"limit = accepted + rejected + {MAX_STEPS}"]
    return head + ["while s < t1:", *_indent(step)]


def _indent(lines, depth=1):
    return [("    " * depth) + line for line in lines]


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(expr, parent_prec=0):
    """Render an AST back to source that reparses to an identical tree."""
    if isinstance(expr, Num):
        return _fmt_num(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({pretty(expr.arg)})"
    if isinstance(expr, Neg):
        inner = pretty(expr.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        # left-assoc for + - * /: right child needs a bump; ^ is the mirror case
        if expr.op == "^":
            left = pretty(expr.left, prec + 1)
            right = pretty(expr.right, prec)
        else:
            left = pretty(expr.left, prec)
            right = pretty(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {expr!r}")


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
