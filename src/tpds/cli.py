"""Command-line front end.

Exit codes: 0 success, 2 malformed input file or option value, 3
assertion/analysis failure, 4 numerical-consistency suspect. The output
directory for generated files defaults to the current directory and can be
overridden with the ``TPDS_OUTDIR`` environment variable or ``--outdir``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys

import numpy as np

from . import matio, specfile
from .compound import add_compound, mult_compound
from .errors import (
    IntegrationSuspect,
    InvalidArgument,
    SpecFileError,
    TpdsError,
    UnknownFigure,
)
from .floquet import floquet, floquet_mode_evolution
from .integrate import _grid, simulate_linear, trajectory_record
from .nonlinear import poincare_analysis, simulate_nonlinear
from .systems import classify_time_varying, in_M, in_M_plus
from .totalpos import classify, oscillatory_spectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSERTION = 3
EXIT_SUSPECT = 4


def _outdir(args):
    d = getattr(args, "outdir", None) or os.environ.get("TPDS_OUTDIR") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _yesno(flag):
    return "yes" if flag else "no"


def cmd_check(args):
    A = matio.load(args.matrix)
    report = []
    if A.shape[0] == A.shape[1]:
        cls = classify(A)
        report += [
            f"TN {_yesno(cls.is_TN)}",
            f"TP {_yesno(cls.is_TP)}",
            f"SSR {_yesno(cls.is_SSR)}",
            f"oscillatory {_yesno(cls.is_oscillatory)}",
            f"M {_yesno(in_M(A))}",
            f"M+ {_yesno(in_M_plus(A))}",
        ]
        if cls.witness is not None:
            alpha, beta, value = cls.witness
            report.append(f"first negative minor: rows {alpha} cols {beta} value {value:.6g}")
    else:
        report.append(f"non-square {A.shape[0]}x{A.shape[1]}: classification skipped")
    print("\n".join(report))
    return EXIT_OK


def cmd_compound(args):
    A = matio.load(args.matrix)
    op = add_compound if args.additive else mult_compound
    C = op(A, args.p)
    sys.stdout.write(matio.dumps(C.entries))
    return EXIT_OK


def _option(args, name, spec, default=None):
    """The value of --name if given, else the spec's experiment setting (or
    default), either way converted by the one converter of that setting
    (``specfile._SETTINGS``); a value it rejects exits 2."""
    value = getattr(args, name)
    if value is None:
        return spec.setting(name, default)
    return specfile._SETTINGS[name](value, f"--{name}")


def cmd_simulate(args):
    """Write a spec's trajectory with its sign counts to CSV. A linear spec
    is integrated once, under the TPDS contract when it samples as a TPDS;
    the determinant flag (exit 4) reads the interval transition matrices
    that produced the samples (``integrate.trajectory_record``). A
    nonlinear spec writes z = f(t, x(t))."""
    spec = specfile.load(args.spec)
    step = _option(args, "step", spec)
    points = _option(args, "grid", spec, 1000)
    horizon = _option(args, "horizon", spec)
    key = "z0" if spec.kind == "linear" else "x0"
    z0 = spec.setting(key) if args.z0 is None else specfile._vector(args.z0, "--z0")
    if z0 is None:
        raise SpecFileError(f"no initial condition: pass --z0 or set experiment.{key}")
    if spec.kind != "linear" and horizon is None:
        raise SpecFileError("no horizon: pass --horizon or set experiment.horizon")
    grid = _grid(*(spec.system.interval if spec.kind == "linear" else (0.0, horizon)), points)
    if spec.kind == "linear":
        verdict = classify_time_varying(spec.system, grid=200)
        traj, rec = trajectory_record(spec.system, z0, grid, step=step, tpds=verdict.is_TPDS)
        suspect = rec.suspect
    else:
        run = simulate_nonlinear(spec.system, z0, grid, step=step)
        # the sign-variation story lives on z = f(t, x(t)), so that is what
        # gets written for nonlinear systems
        traj = run.derivative
        suspect = False
    out = args.out or os.path.join(_outdir(args), f"{spec.meta.get('name', 'run')}.csv")
    traj.to_csv(out)
    print(f"wrote {out} ({len(traj.times)} samples)")
    if suspect:
        print("determinant consistency check failed beyond tolerance", file=sys.stderr)
        return EXIT_SUSPECT
    return EXIT_OK


def cmd_floquet(args):
    spec = specfile.load(args.spec)
    if spec.kind != "linear":
        raise SpecFileError("floquet needs a linear periodic spec")
    fd = floquet(spec.system, step=args.step)
    print(f"period {fd.period:.10g}")
    for k, m in enumerate(fd.multipliers):
        vec = " ".join(f"{v:.10g}" for v in fd.eigvecs[:, k])
        print(f"multiplier {k + 1}: {m:.10g}  sign_changes {fd.sign_counts[k]}  eigvec {vec}")
    return EXIT_OK


def cmd_entrain(args):
    spec = specfile.load(args.spec)
    if spec.kind != "nonlinear":
        raise SpecFileError("entrain needs a nonlinear periodic spec")
    x0 = _option(args, "x0", spec)
    if x0 is None:
        raise SpecFileError("no initial condition: pass --x0 or set experiment.x0")
    # command-line values only: the spec does not set these two
    max_iters = specfile._count(args.max_iters, "--max-iters")
    tol = specfile._positive(args.tol, "--tol")
    res = poincare_analysis(spec.system, x0, max_iters=max_iters, tol=tol, step=args.step)
    print(f"detected_period {res.detected_period}")
    tail = res.residuals[-5:]
    print("residual tail " + " ".join(f"{r:.3e}" for r in tail))
    steps = f"steps {res.accepted_steps} rejected {res.rejected_steps}"
    if res.largest_error is not None:  # an error-controlled run
        steps += f" largest_error {res.largest_error:.3e}"
    print(steps)
    return EXIT_OK


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _figure_sigma_switched(outdir):
    spec = specfile.shipped("switched")
    grid = _grid(*spec.system.interval, spec.setting("grid", 1000))
    traj = simulate_linear(spec.system, spec.setting("z0"), grid, tpds=True)
    traj.to_csv(os.path.join(outdir, "sigma_switched.csv"))
    flagged = zip(traj.times, traj.sigma_minus, traj.in_V_flags)
    rows = [(f"{t:.10g}", sm) for t, sm, ok in flagged if ok]
    _write_rows(os.path.join(outdir, "sigma_switched_plot.dat"), ["t", "sigma"], rows)


def _figure_floquet_sinusoidal(outdir):
    spec = specfile.shipped("sinusoidal2")
    n, step = spec.system.n, 5e-4 * spec.system.period
    fd = floquet(spec.system, step=step)
    rows = [
        [k + 1, f"{fd.multipliers[k]:.10g}", fd.sign_counts[k]]
        + [f"{v:.10g}" for v in fd.eigvecs[:, k]]
        for k in range(n)
    ]
    header = ["k", "multiplier", "sign_changes"] + [f"v{i + 1}" for i in range(n)]
    _write_rows(os.path.join(outdir, "floquet_sinusoidal.csv"), header, rows)
    traj = floquet_mode_evolution(
        spec.system, fd, {1: 1.0, 2: 10.0}, horizon=10 * fd.period, step=step
    )
    traj.to_csv(os.path.join(outdir, "floquet_sinusoidal_modes.csv"))


def _figure_takac(outdir):
    spec = specfile.shipped("takac")
    res = poincare_analysis(spec.system, spec.setting("x0"))
    rows = [
        [k]
        + [f"{v:.10g}" for v in x]
        + [f"{res.residuals[k]:.3e}" if k < len(res.residuals) else ""]
        for k, x in enumerate(res.iterates)
    ]
    header = ["k"] + [f"x{i + 1}" for i in range(spec.system.n)] + ["residual"]
    _write_rows(os.path.join(outdir, "takac_iterates.csv"), header, rows)


def _figure_spectrum_tp3(outdir):
    A = np.array([[5, 4, 1], [4, 6, 4], [1, 4, 5]], dtype=float)
    rows = [
        [k + 1, f"{lam:.10g}", count] + [f"{v:.10g}" for v in vec]
        for k, (lam, vec, count) in enumerate(oscillatory_spectrum(A))
    ]
    header = ["k", "eigenvalue", "sign_changes", "v1", "v2", "v3"]
    _write_rows(os.path.join(outdir, "spectrum_tp3.csv"), header, rows)


FIGURES = {
    "sigma-switched": _figure_sigma_switched,
    "floquet-sinusoidal": _figure_floquet_sinusoidal,
    "takac": _figure_takac,
    "spectrum-tp3": _figure_spectrum_tp3,
}


def cmd_reproduce(args):
    outdir = _outdir(args)
    if args.figure not in FIGURES:
        raise UnknownFigure(f"unknown figure {args.figure!r}; choose from {', '.join(FIGURES)}")
    FIGURES[args.figure](outdir)
    print(f"figure data written under {outdir}")
    return EXIT_OK


def _float_list(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def build_parser():
    """A new parser for the ``tpds`` command line, with one subcommand per
    ``cmd_*`` function. ``main`` parses with one built once per process
    (``_parser``), so a caller that extends the parser returned here does
    not change what ``main`` parses."""
    ap = argparse.ArgumentParser(
        prog="tpds",
        description="Sign-variation analysis of totally positive differential systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a matrix file (TN/TP/SSR/oscillatory/M/M+)")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compound", help="print a compound of a matrix file")
    p.add_argument("matrix")
    p.add_argument("p", type=int)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--additive", action="store_true")
    g.add_argument("--multiplicative", action="store_true")
    p.set_defaults(func=cmd_compound)

    p = sub.add_parser("simulate", help="integrate a system spec and write the trajectory CSV")
    p.add_argument("spec")
    p.add_argument("--z0", type=_float_list)
    p.add_argument(
        "--step",
        type=float,
        help="fixed RK4 step; by default 1e-3 of the interval for a linear spec, "
        "and error-controlled (DOP853) for a nonlinear one",
    )
    p.add_argument("--grid", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--out")
    p.add_argument("--outdir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("floquet", help="monodromy spectrum of a periodic linear spec")
    p.add_argument("spec")
    p.add_argument("--step", type=float)
    p.set_defaults(func=cmd_floquet)

    p = sub.add_parser("entrain", help="Poincare-map period detection for a nonlinear spec")
    p.add_argument("spec")
    p.add_argument("--x0", type=_float_list)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--step", type=float, help="fixed RK4 step; by default error-controlled (DOP853)")
    p.set_defaults(func=cmd_entrain)

    p = sub.add_parser("reproduce", help="write figure-backing data files")
    p.add_argument("figure", help="one of " + ", ".join(FIGURES))
    p.add_argument("--outdir")
    p.set_defaults(func=cmd_reproduce)

    return ap


# one parser per process, built on the first main call rather than at
# import; reuse is safe because parse_args keeps no state between calls
# (its defaults are immutable, and --z0/--x0 build a new list per parse)
_parser = functools.cache(build_parser)


def main(argv=None):
    """Run one ``tpds`` command line (``sys.argv[1:]`` when argv is None)
    and return its exit code; argparse exits 2 on a malformed one. Every
    call after the first reuses the parser (``_parser``), so an in-process
    caller pays for its verdict, not for building six subparsers."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IntegrationSuspect as exc:
        print(f"numerical suspect: {exc}", file=sys.stderr)
        return EXIT_SUSPECT
    except TpdsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
