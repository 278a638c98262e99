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
right-hand side of x' = f(t, x) into one checked RK4 stepper that inlines
every entry at each stage. All of them emit the same code for an
expression (``_pycode``) and are defined by the same helper (``_define``).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)

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
        if u is not None:
            evaluate.append(f"u = {_pycode(u, array=True)}")
        fallback = "_point(s, y) for s, y in zip(t.tolist(), x)"
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


def compile_stepper(rhs, n, u=None):
    """Compile the right-hand side of x' = f(t, x) into one RK4 stepper.

    ``rhs`` holds the n entries of f (numbers or ASTs over t, x1..xn and,
    with the input ``u``, u). The result is ``advance(y, t, h, nsteps)``:
    nsteps classical RK4 steps of size h from state y at time t, returned
    as a float array. It makes the same floating-point operations in the
    same order as RK4 over ``compile_fn(rhs, n, u)`` with numpy arrays, so
    its result is bit-identical, but it keeps the state and the stage
    values a, b, c, d as Python floats and inlines every entry at each
    stage. u is evaluated once per stage time: at t, at t + h/2 (shared by
    the two middle stages) and at t + h. The domain rules and errors are
    those of ``compile_fn``, but a DomainError's message names the step by
    its start ("advance in the RK4 step from t = ..."). A y that does not
    hold n entries raises ValueError when the stepper unpacks it.
    """
    used = _bound_names(rhs, n, u)
    ks = range(1, n + 1)
    states = sorted(int(v[1:]) for v in used - {"t", "u"})
    codes = [_pycode(e) for e in rhs]

    def stage(out, time, offset):
        # out1..outn at stage time `time` (None: the previous stage's t and
        # u) and state x_k = y_k + offset; s is the time at the step's start
        lines = []
        if time is not None and "t" in used:
            lines.append(f"t = {time}")
        if time is not None and u is not None:
            lines.append(f"u = {_pycode(u)}")
        lines += [f"x{k} = y{k}{offset.format(k=k)}" for k in states]
        return lines + [f"{out}{k} = {code}" for k, code in zip(ks, codes)]

    loop = (
        stage("a", "s", "")
        + stage("b", "s + h2", " + h2 * a{k}")
        + stage("c", None, " + h2 * b{k}")
        + stage("d", "s + h", " + h * c{k}")
        + [f"y{k} = y{k} + h6 * (a{k} + 2 * b{k} + 2 * c{k} + d{k})" for k in ks]
        + ["s += h"]
    )
    prologue = [
        f"{', '.join(f'y{k}' for k in ks)}, = map(float, y)",
        "s = float(t)",
        "h = float(h)",
        "h2 = h / 2",
        "h6 = h / 6",
    ]
    body = ["for _ in range(nsteps):"] + [f"    {line}" for line in loop]
    body.append(f"return _array([{', '.join(f'y{k}' for k in ks)}])")
    at = "in the RK4 step from t = {s}"
    return _define("advance(y, t, h, nsteps)", prologue, body, at=at, _array=np.array)


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
