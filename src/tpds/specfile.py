"""YAML system-spec files describing linear or nonlinear systems.

Layout::

    meta:        name, n, interval (linear), period (optional)
    linear:      segments, each with t_start/t_end and an n x n matrix whose
                 entries are numbers or expression strings in t
    nonlinear:   rhs expressions over t/x1..xn/u, optional input u(t),
                 optional jacobian expressions, optional domain_box
    experiment:  free-form defaults (z0/x0, step, grid, horizon, seed, ...)

Exactly one of ``linear`` / ``nonlinear`` must be present. Expression
strings use the package expression language; serialization renders them
back so that a parse -> serialize -> parse round trip reproduces the same
internal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from sys import maxsize

import yaml

from . import exprlang
from .errors import SpecFileError, TpdsError
from .nonlinear import NonlinearSystem
from .systems import Segment, TimeVaryingSystem


@dataclass
class SystemSpec:
    meta: dict
    system: object  # TimeVaryingSystem or NonlinearSystem
    experiment: dict

    @property
    def kind(self):
        return "linear" if isinstance(self.system, TimeVaryingSystem) else "nonlinear"

    def setting(self, key, default=None):
        """experiment[key] converted as the commands use it, or default when
        absent: z0 and x0 a list of finite numbers, grid a positive integer,
        horizon and step positive finite numbers. A value that does not
        convert raises SpecFileError. The CLI's options of the same names go
        through the same converters (``_SETTINGS``)."""
        raw = self.experiment.get(key)
        if raw is None:
            return default
        return _SETTINGS[key](raw, f"experiment.{key}")


def _number(raw, what, kind="a finite number", ok=math.isfinite):
    """raw as a float of this kind: a YAML number, or a string such as 1e-3
    that YAML 1.1 leaves unparsed. Anything else raises SpecFileError
    "<what> must be <kind>, got <raw>"."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if isinstance(raw, bool) or not ok(value):
        raise SpecFileError(f"{what} must be {kind}, got {raw!r}")
    return value


def _positive(raw, what):
    return _number(raw, what, "a positive finite number", lambda v: 0 < v < math.inf)


def _count(raw, what):
    # no array holds more than maxsize entries
    return int(_number(raw, what, "a positive integer", lambda v: 0 < v <= maxsize and v == int(v)))


def _vector(raw, what):
    return [_number(v, f"an entry of {what}") for v in _typed(raw, list, what)]


_SETTINGS = {"z0": _vector, "x0": _vector, "grid": _count, "horizon": _positive, "step": _positive}


def _typed(raw, kind, what):
    if not isinstance(raw, kind):
        raise SpecFileError(f"{what} must be a {kind.__name__}, got {raw!r}")
    return raw


def _pair(raw, what):
    if len(_typed(raw, list, what)) != 2:
        raise SpecFileError(f"{what} must be [lo, hi], got {raw!r}")
    return _number(raw[0], what), _number(raw[1], what)


def _parse_entry(raw):
    """A number or an expression AST; which variables it may use is for the
    system it goes into to check."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        _number(raw, "an entry")
        return raw
    if not isinstance(raw, str):
        raise SpecFileError(f"entry must be a number or expression string: {raw!r}")
    try:
        return exprlang.parse(raw)
    except TpdsError as exc:
        raise SpecFileError(f"bad expression {raw!r}: {exc}") from exc


def _parse_matrix(raw, what):
    rows = _typed(raw, list, what)
    return [[_parse_entry(e) for e in _typed(row, list, f"a row of {what}")] for row in rows]


def _render_entry(e):
    if isinstance(e, (int, float)):
        return e
    return exprlang.pretty(e)


def loads(text):
    """Parse a spec document. Every malformed document raises SpecFileError,
    including a TpdsError from building its system (an unbound variable, a
    wrong row count, a failed period check)."""
    try:
        # libyaml's safe loader where pyyaml was built with it: the same
        # documents, parsed several times faster
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    # ValueError: text that libyaml cannot encode as UTF-8, and an int of more
    # than sys.get_int_max_str_digits() digits, which the loader cannot convert
    except (yaml.YAMLError, ValueError) as exc:
        raise SpecFileError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a mapping")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or "n" not in meta:
        raise SpecFileError("meta section with field 'n' is required")
    n = meta["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecFileError(f"meta.n must be a positive integer, got {n!r}")
    has_lin = "linear" in doc
    has_nl = "nonlinear" in doc
    if has_lin == has_nl:
        raise SpecFileError("exactly one of 'linear' / 'nonlinear' must be present")
    experiment = _typed(doc.get("experiment") or {}, dict, "experiment section")
    name = str(meta.get("name", ""))
    period = meta.get("period")
    period = _number(period, "meta.period") if period is not None else None
    try:
        if has_lin:
            system = _linear_system(doc["linear"], meta, n, name, period)
        else:
            system = _nonlinear_system(doc["nonlinear"], n, name, period)
    except SpecFileError:
        raise
    except TpdsError as exc:
        raise SpecFileError(f"{type(exc).__name__}: {exc}") from exc
    return SystemSpec(dict(meta), system, dict(experiment))


def _linear_system(lin, meta, n, name, period):
    if "interval" not in meta:
        raise SpecFileError("linear specs need meta.interval")
    interval = _pair(meta["interval"], "meta.interval")
    raw_segments = _typed(lin, dict, "linear section").get("segments")
    if not raw_segments:
        raise SpecFileError("linear.segments must be a nonempty list")
    segments = []
    for seg in _typed(raw_segments, list, "linear.segments"):
        seg = _typed(seg, dict, "a segment")
        segments.append(
            Segment(
                _number(seg.get("t_start"), "a segment's t_start"),
                _number(seg.get("t_end"), "a segment's t_end"),
                _parse_matrix(seg.get("matrix"), "a segment's matrix"),
            )
        )
    return TimeVaryingSystem(n=n, interval=interval, segments=segments, period=period, name=name)


def _nonlinear_system(nl, n, name, period):
    nl = _typed(nl, dict, "nonlinear section")
    input_raw = nl.get("input")
    jac_raw = nl.get("jacobian")
    box = nl.get("domain_box")
    return NonlinearSystem(
        n=n,
        rhs=[_parse_entry(e) for e in _typed(nl.get("rhs"), list, "nonlinear.rhs")],
        input=_parse_entry(input_raw) if input_raw is not None else None,
        jacobian=_parse_matrix(jac_raw, "nonlinear.jacobian") if jac_raw is not None else None,
        period=period,
        domain_box=(
            [_pair(b, "a domain_box entry") for b in _typed(box, list, "nonlinear.domain_box")]
            if box is not None
            else None
        ),
        name=name,
    )


def load(path):
    with open(path) as fh:
        return loads(fh.read())


def to_dict(spec):
    """Canonical plain-data form of a spec (basis for serialization and
    round-trip comparison)."""
    out = {"meta": dict(spec.meta)}
    sys = spec.system
    if spec.kind == "linear":
        out["linear"] = {
            "segments": [
                {
                    "t_start": seg.t_start,
                    "t_end": seg.t_end,
                    "matrix": [[_render_entry(e) for e in row] for row in seg.entries],
                }
                for seg in sys.segments
            ]
        }
    else:
        nl = {"rhs": [_render_entry(e) for e in sys.rhs]}
        if sys.input is not None:
            nl["input"] = _render_entry(sys.input)
        if sys.jacobian is not None:
            nl["jacobian"] = [[_render_entry(e) for e in row] for row in sys.jacobian]
        if sys.domain_box is not None:
            nl["domain_box"] = [[lo, hi] for lo, hi in sys.domain_box]
        out["nonlinear"] = nl
    out["experiment"] = dict(spec.experiment)
    return out


def dumps(spec):
    return yaml.safe_dump(to_dict(spec), sort_keys=False, default_flow_style=None)


def save(spec, path):
    with open(path, "w") as fh:
        fh.write(dumps(spec))


def shipped_names():
    """Names of the spec files distributed with the package."""
    root = resources.files(__package__) / "specs"
    return sorted(p.name[: -len(".spec")] for p in root.iterdir() if p.name.endswith(".spec"))


def shipped(name):
    """Load a distributed spec file by name (without the .spec suffix)."""
    root = resources.files(__package__) / "specs"
    path = root / f"{name}.spec"
    if not path.is_file():
        raise SpecFileError(f"no shipped spec named {name!r} (have {shipped_names()})")
    return loads(path.read_text())
