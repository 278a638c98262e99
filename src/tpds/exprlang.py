"""Small expression language for time- and state-dependent coefficients.

Grammar (radians throughout)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right-associative, binds above unary minus
    atom   :=  number | 't' | 'u' | 'x<k>' | func '(' expr ')' | '(' expr ')'

Recognized functions: sin cos tan sinh cosh tanh exp log sqrt abs.

Coefficients are evaluated only through ``compile_fn``, which turns a whole
scalar, vector or matrix of them into one checked Python function.
"""

from __future__ import annotations

import math
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


def _pycode(expr):
    if isinstance(expr, (int, float)):
        return _literal(float(expr))
    if isinstance(expr, Num):
        return _literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{_pycode(expr.operand)})"
    if isinstance(expr, BinOp):
        if expr.op == "^":
            return f"_pow({_pycode(expr.left)}, {_pycode(expr.right)})"
        return f"({_pycode(expr.left)} {expr.op} {_pycode(expr.right)})"
    if isinstance(expr, Call):
        return f"_fn_{expr.func}({_pycode(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _pow(a, b):
    r = a**b
    if isinstance(r, complex):
        raise DomainError(f"non-real power {a} ^ {b}")
    return r


def _names(entry):
    return set() if isinstance(entry, (int, float)) else variables(entry)


def compile_fn(coeff, n=None, u=None):
    """Compile a coefficient into one checked function.

    ``coeff`` is a number or AST (the function returns a float), a sequence
    of them (a 1-d array) or a sequence of equal-length sequences (a 2-d
    array). Constant entries are baked in. Without ``n`` the function is
    ``f(t)`` over t alone, as for a segment of A(t). With ``n`` it is
    ``f(t, x)`` over t and x1..xn, plus u when the input ``u`` (an AST over
    t) is given; u is then evaluated once per call, before the entries.

    Each variable is bound as a Python float, so the real-domain semantics
    hold whatever numeric type the caller passes: ``^`` raises DomainError
    on a complex result, and a ValueError, ZeroDivisionError or
    OverflowError (log or sqrt out of domain, division by zero, overflow)
    is re-raised as DomainError. A variable outside the allowed set raises
    UnboundVariable here, at compile time.
    """
    seq = (list, tuple, np.ndarray)
    if not isinstance(coeff, seq):
        shape, cells = None, {(): coeff}
    elif any(isinstance(row, seq) for row in coeff):
        if any(not isinstance(row, seq) or len(row) != len(coeff[0]) for row in coeff):
            raise DimensionMismatch("coefficient matrix rows differ in length")
        shape = (len(coeff), len(coeff[0]))
        cells = {(i, j): e for i, row in enumerate(coeff) for j, e in enumerate(row)}
    else:
        shape, cells = (len(coeff),), {(i,): e for i, e in enumerate(coeff)}
    used = set().union(*map(_names, cells.values()))
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
    used |= u_names

    lines = ["t = float(t)"] if "t" in used else []
    lines += [f"{v} = float(x[{int(v[1:]) - 1}])" for v in sorted(used - {"t", "u"})]
    if u is not None:
        lines.append(f"u = {_pycode(u)}")
    base = None if shape is None else np.zeros(shape)
    if base is None:
        lines.append(f"return {_pycode(coeff)}")
    else:
        # constants go into a base array; each call copies it and fills
        # in the expression entries, in row-major order
        lines.append("A = _base.copy()")
        for idx, e in cells.items():
            if isinstance(e, (int, float, Num)):
                base[idx] = e.value if isinstance(e, Num) else e
            else:
                lines.append(f"A[{', '.join(map(str, idx))}] = {_pycode(e)}")
        lines.append("return A")
    source = (
        f"def coefficient(t{', x' if n is not None else ''}):\n    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    except (ValueError, ZeroDivisionError, OverflowError) as exc:\n"
        + "        raise DomainError(str(exc)) from exc\n"
    )
    env = {f"_fn_{name}": fn for name, fn in FUNCTIONS.items()}
    env.update(_pow=_pow, _float=float, _base=base, DomainError=DomainError)
    exec(source, env)
    return env["coefficient"]


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
