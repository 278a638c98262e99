"""Small expression language for time- and state-dependent coefficients.

Grammar (radians throughout)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right-associative, binds above unary minus
    atom   :=  number | 't' | 'u' | 'x<k>' | func '(' expr ')' | '(' expr ')'

Recognized functions: sin cos tan sinh cosh tanh exp log sqrt abs. An
expression nests at most MAX_DEPTH levels deep.

Coefficients are evaluated only through generated Python code:
``compile_fn`` turns a whole scalar, vector or matrix of them into one
checked function of t, or of t and x, that takes one point or a stack of
them: a 1-d array of times and, with x, a matching (m, n) array of states,
as for ``Segment.matrix_at`` and the f and J of
``nonlinear.NonlinearSystem``. ``compile_stepper`` turns the
right-hand side of x' = f(t, x) into one checked run function, whose step
picks its loop, fixed-step RK4 or error-controlled DOP853, and whose
stages inline every entry.
All of them emit the same code for an expression (``_pycode``) and are
defined by the same helper (``_define``), which compiles each distinct
generated source once per process.
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
    ExprTooDeep,
    IntegrationSuspect,
    LeftDomain,
    UnboundVariable,
    UnknownIdentifier,
)
from .integrate import ATOL, MAX_STEPS, RTOL, _checked_positive, _step_count

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

# The deepest an expression may nest. The parser counts a level for each
# parenthesis, function call, unary minus and exponent it descends into, and
# the tree one for each node on a path from its root; beyond MAX_DEPTH either
# raises ExprTooDeep. A tree of 100 levels generates code with at most 199
# nested parentheses, where Python's parser stops at 200.
MAX_DEPTH = 100

# The distinct generated sources whose code objects ``_define`` keeps, the
# least recently used dropped first. A nonlinear system's f and J, their
# stack forms and its two run loops are six; the largest, the DOP853 loop of
# the 4-state ``takac``, is a 20 KB source and a 35 KB code object, so a full
# cache of such loops would hold about 7 MB.
CODE_CACHE_SIZE = 128

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
        self.depth = 0  # the unary calls open: each nesting passes one

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
        self.depth += 1
        if self.depth > MAX_DEPTH:
            _too_deep()
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

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
    """Parse an expression string into an immutable AST. An expression that
    nests deeper than MAX_DEPTH raises ExprTooDeep (``variables``)."""
    tree = _Parser(source).parse()
    variables(tree)
    return tree


def _too_deep():
    raise ExprTooDeep(f"the expression nests too deeply (more than {MAX_DEPTH} levels)")


def variables(expr):
    """Set of variable names referenced by the expression, walked with a
    stack of its own, not by recursion: a path from the root that passes
    more than MAX_DEPTH nodes raises ExprTooDeep, and anything but a node
    TypeError."""
    names, stack = set(), [(expr, 1)]
    while stack:
        e, depth = stack.pop()
        if depth > MAX_DEPTH:
            _too_deep()
        if isinstance(e, BinOp):
            stack += [(e.left, depth + 1), (e.right, depth + 1)]
        elif isinstance(e, Neg):
            stack.append((e.operand, depth + 1))
        elif isinstance(e, Call):
            stack.append((e.arg, depth + 1))
        elif isinstance(e, Var):
            names.add(e.name)
        elif not isinstance(e, Num):
            raise TypeError(f"not an expression node: {e!r}")
    return names


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
    UnboundVariable, and an entry or input nested deeper than MAX_DEPTH
    ExprTooDeep (``variables``)."""
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


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(source):
    """The code object of one generated source, compiled once per process
    for each of the last CODE_CACHE_SIZE distinct sources."""
    return compile(source, "<string>", "exec")


def _define(signature, prologue, body, at=None, **env):
    """Define ``def signature:`` by exec: the prologue lines, then the body
    lines inside a wrapper that re-raises a ValueError, ZeroDivisionError,
    OverflowError or DomainError (a non-real power) as DomainError. Given
    ``at``, an f-string fragment over the function's locals such as
    ``"at t = {t}"``, the message names the function and that place before
    the original message. Body lines may carry their own further
    indentation. ``env`` adds names to the function's globals.

    The source is compiled through ``_code``, keyed by its exact text, so
    a source generated again in the same process (a spec loaded twice, or
    two coefficients that differ only in the constants baked into
    ``_base``) reuses its code object. Each call still executes it in a
    fresh namespace, so every function gets its own globals (``env``) and
    runs the bytecode a fresh compile would give."""
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
    exec(_code(source), namespace)
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
    compile time. The caller checks t and x. Constant entries are not part
    of the generated source, so coefficients that differ only in them share
    one compiled code object (``_define``), each with its own constants.

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


# Dormand and Prince's DOP853 (Hairer, Norsett and Wanner, Solving ODEs I,
# II.10, and their published code dop853.f): the times c of stages 2..12,
# the weights a of stages 2..12, the weights b of the eighth-order
# solution, whose f is the next step's first stage, and the weights of its
# two error estimates, the fifth-order e5 and the third-order e3 = b - bhh
_DOP853_C = (
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_DOP853_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1,
        0.0,
        -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2,
        0.0,
        0.0,
        1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2,
        0.0,
        0.0,
        1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2,
        0.0,
        0.0,
        1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1,
        0.0,
        0.0,
        -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1,
        0.0,
        0.0,
        -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1,
        0.0,
        0.0,
        5.18637242884406370830023853209,
        1.09143734899672957818500254654,
        -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1,
        2.49360555267965238987089396762,
        -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449,
        0.0,
        0.0,
        -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674,
        -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_DOP853_B = (
    5.42937341165687622380535766363e-2,
    0.0,
    0.0,
    0.0,
    0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_DOP853_E5 = (
    0.1312004499419488073250102996e-1,
    0.0,
    0.0,
    0.0,
    0.0,
    -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# bhh1, bhh2 and bhh3, the third-order weights of stages 1, 9 and 12
_DOP853_BHH = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_DOP853_E3 = tuple(b - _DOP853_BHH.get(i, 0.0) for i, b in enumerate(_DOP853_B))


def compile_stepper(rhs, n, u=None, box=None):
    """Compile the right-hand side of x' = f(t, x) into one run function,
    ``advance(y, times, step, tally)``, whose step picks its loop, each
    generated on its first run and compiled once per process for each
    distinct source (``_define``): the same rhs built again, as when a spec
    is loaded twice, reuses the compiled loop. ``rhs`` holds the n entries of
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
    t0 < t1. The step is checked once, when the run is created
    (``integrate._checked_positive``): one that is not a positive finite
    number raises InvalidArgument at the call, before the run's first time
    is read, and the loop only counts. The steps are taken with the
    floating-point operations of RK4 over ``compile_fn(rhs, n, u)`` on
    numpy arrays in the same order: the same states, bit for bit. It
    leaves ``tally[2]`` as it is.

    With ``step=None`` it takes steps of Dormand and Prince's DOP853, the
    eighth-order pair of Hairer, Norsett and Wanner (Solving ODEs I, II.10):
    12 stages, the last one's f at the new state taken as the next step's
    first (FSAL) once the step is accepted. A step of size h is accepted
    when its error estimate |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n) is at
    most 1, where e5^2 and e3^2 are the sums of squares of the fifth- and
    third-order estimates, scaled per entry by ATOL + RTOL max(|y|, |y + dy|)
    (``integrate``). ``tally[2]`` holds the largest estimate of an accepted
    step so far (0.0 before the first). The first step size follows II.4
    with the exponent 1/8, and each next one is the step's h times
    min(6, max(0.333, 0.9 err^(-1/8))), at most h after a rejection. A step
    that would end within 1 % of its h before the next time is stretched or
    cut to land exactly on that time; the step size it was cut from carries
    on past it. A non-finite error estimate, a step size no larger than
    16 eps |t| or than RTOL (t - t0), or more than MAX_STEPS steps between
    two times raises IntegrationSuspect naming t. t0 is the run's first
    time: the run places its solution in time only to about RTOL (t - t0),
    so at a finite-time blow-up the second bound gives up before the
    singularity, where the first would give up at the numerical solution's
    own, which lies past it when the method's error delays the blow-up.

    The domain rules and errors are those of ``compile_fn``, but a
    DomainError's message names the step by its start ("advance in the RK4
    step from t = ...", "advance in the DOP853 step from t = ...") and an
    unbound variable raises here. A y that does not hold n entries raises
    ValueError when the loop unpacks it.
    """
    used = _bound_names(rhs, n, u)
    loop = functools.cache(lambda adaptive: _run_loop(rhs, n, u, box, used, adaptive))

    def advance(y, times, step, tally):
        if step is not None:
            _checked_positive(step, "step")
        return loop(step is None)(y, times, step, tally)

    return advance


def _run_loop(rhs, n, u, box, used, adaptive):
    """compile_stepper's loop for one mode: DOP853 given adaptive, else RK4."""
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
        span = ["t1 = float(t1)"] + _dop853_span(stage, ks)
        tail.insert(-1, "tally[2] = largest")
        body = head + ["start = s", "h = None", "grow = 6.0", "largest = 0.0", "for t1 in times:", *_indent(span + tail)]
        return _define(signature, prologue, body, at="in the DOP853 step from t = {s}", **env)
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


def _dop853_span(stage, ks):
    """The lines of compile_stepper's DOP853 loop that take the state y
    from s to t1: the first step size, once, then at most MAX_STEPS steps
    under the step-size controller, to ATOL and RTOL."""
    n = len(ks)
    scale = lambda k, v: f"({v} / ({_literal(ATOL)} + {_literal(RTOL)} * abs(y{k})))"
    squares = lambda term: " + ".join(f"{term(k)} * {term(k)}" for k in ks)
    rms = lambda term: f"_sqrt(({squares(term)}) / {n})"

    def combine(weights, stages, k):
        return " + ".join(f"{_literal(w)} * {g}{k}" for w, g in zip(weights, stages) if w)

    names = [f"k{j}_" for j in range(1, 13)]
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
            "h = min(100 * h, (0.01 / dm) ** 0.125 if dm > 1e-15 else max(1e-6, h * 1e-3))",
        ]
    )
    step = [
        "if not h > 3.552713678800501e-15 * abs(s):  # 16 eps |t|",
        '    raise _IntegrationSuspect(f"the DOP853 step size {h!r} is below 16 eps |t| at t = {s!r}")',
        f"if not h > {_literal(RTOL)} * (s - start):  # RTOL (t - t0)",
        '    raise _IntegrationSuspect(f"the DOP853 step size {h!r} is below RTOL (t - t0) at t = {s!r}")',
        "if accepted + rejected >= limit:",
        f'    raise _IntegrationSuspect(f"the DOP853 run takes more than {MAX_STEPS} steps from t = {{t0!r}} to t = {{t1!r}}")',
        "last = s + 1.01 * h >= t1",
        "hh = t1 - s if last else h",
        "te = t1 if last else s + hh",
    ]
    for j, (c, weights) in enumerate(zip(_DOP853_C, _DOP853_A), start=1):
        time = "te" if c == 1.0 else f"s + {_literal(c)} * hh"
        step += stage(names[j], time, "y{k} + hh * (" + combine(weights, names, "{k}") + ")")
    # the eighth-order solution w, and its two error estimates scaled
    step += [f"w{k} = y{k} + hh * ({combine(_DOP853_B, names, k)})" for k in ks]
    step += [f"sk{k} = {_literal(ATOL)} + {_literal(RTOL)} * max(abs(y{k}), abs(w{k}))" for k in ks]
    step += [f"p{k} = ({combine(_DOP853_E5, names, k)}) / sk{k}" for k in ks]
    step += [f"q{k} = ({combine(_DOP853_E3, names, k)}) / sk{k}" for k in ks]
    step += [
        f"e5 = {squares(lambda k: f'p{k}')}",
        f"den = (e5 + 0.01 * ({squares(lambda k: f'q{k}')})) * {n}",
        "if not den < _inf:",
        '    raise _IntegrationSuspect(f"the DOP853 error estimate is {den} in the step from t = {s!r}")',
        "err = abs(hh) * e5 / _sqrt(den) if den else 0.0",
        "fac = min(grow, max(0.333, 0.9 * max(err, 1e-10) ** -0.125))",
        "if err <= 1.0:",
        "    accepted += 1",
        "    largest = max(largest, err)",
        # f at (te, w), where the twelfth stage left t and u, is the next
        # step's first stage
        *_indent(stage(names[0], None, "w{k}")),
        "    s = te",
        *(f"    y{k} = w{k}" for k in ks),
        "    h = max(h, hh * fac) if last else hh * fac",
        "    grow = 6.0",
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


def pretty(expr):
    """Render an AST back to source that reparses to an identical tree. A
    tree deeper than MAX_DEPTH raises ExprTooDeep (``variables``) before
    any rendering."""
    variables(expr)
    return _render(expr, 0)


def _render(expr, parent_prec):
    if isinstance(expr, Num):
        return _fmt_num(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({_render(expr.arg, 0)})"
    if isinstance(expr, Neg):
        inner = _render(expr.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        # left-assoc for + - * /: right child needs a bump; ^ is the mirror case
        if expr.op == "^":
            left = _render(expr.left, prec + 1)
            right = _render(expr.right, prec)
        else:
            left = _render(expr.left, prec)
            right = _render(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_prec > prec else text


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
