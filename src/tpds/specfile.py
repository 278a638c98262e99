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


def _parse_entry(raw, n, allow_state=False):
    if isinstance(raw, bool):
        raise SpecFileError(f"boolean is not a matrix entry: {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise SpecFileError(f"non-finite number is not an entry: {raw!r}")
    if isinstance(raw, (int, float)):
        return raw
    if not isinstance(raw, str):
        raise SpecFileError(f"entry must be a number or expression string: {raw!r}")
    try:
        expr = exprlang.parse(raw)
    except TpdsError as exc:
        raise SpecFileError(f"bad expression {raw!r}: {exc}") from exc
    names = exprlang.variables(expr)
    allowed = {"t"}
    if allow_state:
        allowed |= {"u"} | {f"x{k}" for k in range(1, n + 1)}
    bad = names - allowed
    if bad:
        raise SpecFileError(f"expression {raw!r} references {sorted(bad)}")
    return expr


def _render_entry(e):
    if isinstance(e, (int, float)):
        return e
    return exprlang.pretty(e)


def loads(text):
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecFileError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a mapping")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or "n" not in meta:
        raise SpecFileError("meta section with field 'n' is required")
    n = int(meta["n"])
    has_lin = "linear" in doc
    has_nl = "nonlinear" in doc
    if has_lin == has_nl:
        raise SpecFileError("exactly one of 'linear' / 'nonlinear' must be present")
    experiment = doc.get("experiment") or {}
    if not isinstance(experiment, dict):
        raise SpecFileError("experiment section must be a mapping")
    name = str(meta.get("name", ""))
    period = meta.get("period")
    period = float(period) if period is not None else None

    if has_lin:
        if "interval" not in meta:
            raise SpecFileError("linear specs need meta.interval")
        a, b = (float(v) for v in meta["interval"])
        raw_segments = doc["linear"].get("segments")
        if not raw_segments:
            raise SpecFileError("linear.segments must be a nonempty list")
        segments = []
        for seg in raw_segments:
            matrix = seg.get("matrix")
            if not isinstance(matrix, list) or len(matrix) != n:
                raise SpecFileError(f"segment matrix must have {n} rows")
            entries = []
            for row in matrix:
                if not isinstance(row, list) or len(row) != n:
                    raise SpecFileError(f"segment matrix rows must have {n} entries")
                entries.append([_parse_entry(e, n) for e in row])
            segments.append(Segment(float(seg["t_start"]), float(seg["t_end"]), entries))
        system = TimeVaryingSystem(
            n=n, interval=(a, b), segments=segments, period=period, name=name
        )
    else:
        nl = doc["nonlinear"]
        rhs_raw = nl.get("rhs")
        if not isinstance(rhs_raw, list) or len(rhs_raw) != n:
            raise SpecFileError(f"nonlinear.rhs must list {n} expressions")
        input_raw = nl.get("input")
        input_expr = (
            _parse_entry(input_raw, n) if input_raw is not None else None
        )
        rhs = [_parse_entry(e, n, allow_state=True) for e in rhs_raw]
        if input_expr is None:
            for raw, e in zip(rhs_raw, rhs):
                if not isinstance(e, (int, float)) and "u" in exprlang.variables(e):
                    raise SpecFileError(f"rhs {raw!r} uses u but no input is given")
        jac_raw = nl.get("jacobian")
        jacobian = None
        if jac_raw is not None:
            jacobian = [[_parse_entry(e, n, allow_state=True) for e in row] for row in jac_raw]
        box = nl.get("domain_box")
        domain_box = None
        if box is not None:
            domain_box = [(float(lo), float(hi)) for lo, hi in box]
        system = NonlinearSystem(
            n=n,
            rhs=rhs,
            input=input_expr,
            jacobian=jacobian,
            period=period,
            domain_box=domain_box,
            name=name,
        )
    return SystemSpec(dict(meta), system, dict(experiment))


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
