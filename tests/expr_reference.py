"""Tree-walking interpreter of the expression language, for tests only.

The library evaluates coefficients only through ``tpds.exprlang.compile_fn``.
This interpreter is the reference the compiled form is compared against: it
checks each real-domain condition explicitly and performs the same
floating-point operations in the same order, so the two must agree exactly,
in value or in the error class they raise.
"""

from tpds.errors import DomainError, UnboundVariable
from tpds.exprlang import FUNCTIONS, BinOp, Call, Neg, Num, Var


def evaluate(expr, t=None, x=None, u=None):
    """Evaluate with t/x/u bindings; real-domain violations raise DomainError."""
    env = {}
    if t is not None:
        env["t"] = float(t)
    if u is not None:
        env["u"] = float(u)
    if x is not None:
        for k, v in enumerate(x, start=1):
            env[f"x{k}"] = float(v)
    return _eval(expr, env)


def _eval(expr, env):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise UnboundVariable(f"variable {expr.name!r} not bound")
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_eval(expr.operand, env)
    if isinstance(expr, BinOp):
        a = _eval(expr.left, env)
        b = _eval(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        if expr.op == "^":
            try:
                r = a**b
            except (OverflowError, ZeroDivisionError) as exc:
                raise DomainError(str(exc)) from exc
            if isinstance(r, complex):
                raise DomainError(f"non-real power {a} ^ {b}")
            return r
        raise AssertionError(expr.op)
    if isinstance(expr, Call):
        v = _eval(expr.arg, env)
        if expr.func == "log" and v <= 0:
            raise DomainError("log of nonpositive value")
        if expr.func == "sqrt" and v < 0:
            raise DomainError("sqrt of negative value")
        try:
            return FUNCTIONS[expr.func](v)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{expr.func}({v}): {exc}") from exc
    raise TypeError(f"not an expression node: {expr!r}")
