"""Seeded inputs and verdict lists of the three workloads.

A verdict is one user-level call (``classify(A)``, ``simulate_linear(...)``,
``floquet(...)``, ``poincare_analysis(...)``, ``cli.main([...])``) paired with
the oracle that judges its result. ``build(workload, seed, tmp)`` is the
benchmark's set-up: it loads every shipped spec, generates the seeded
inputs, writes the files the CLI verdicts read, and evaluates each
system's coefficients once so that expressions are compiled before timing.
Every pass runs the same verdicts in the same order, so work per pass
depends only on the seed.

Why these workloads:

* ``matrix`` -- exhaustive-minor verdicts, n = 2..10. ``totalpos`` takes
  nearly all the time: one n = 10 ``classify`` enumerates 184,755 minors,
  while the n <= 5 verdicts that make up most of a pass take about a
  millisecond. A batched or O(n^3) kernel that wins at large n but adds
  per-call overhead shows in both ``verdicts_per_s`` and ``verdict_p50_ms``.
  Hardly touches ``exprlang``, ``integrate`` or ``nonlinear``.
* ``linear`` -- time-varying linear systems: the shipped ``switched``,
  ``schwarz3``, ``sinusoidal2`` and ``cosh2`` specs plus seeded
  ``random_tpds_system`` with n = 2..6. A(t) evaluation through compiled
  ``exprlang`` closures, RK4 and per-sample sign counts dominate.
  ``switched`` has constant segments next to an expression segment, and
  ``compound_transition`` builds 6 x 6 additive compounds thousands of
  times, the opposite use of ``compound`` from ``matrix``.
* ``entrain`` -- nonlinear entrainment on ``takac`` and ``entrain_demo``,
  with the finite-difference Jacobian path on a copy of ``entrain_demo``.
  ``NonlinearSystem.f`` / ``jac`` and RK4 dominate; ``totalpos``,
  ``compound`` and ``floquet`` are never called, so it is the bypass
  workload for matrix-kernel changes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("matrix", "linear", "entrain")
# seconds of one pass at the reference host speed, at the commit that
# introduced the benchmark; a run makes round(--seconds / PASS_S) passes
PASS_S = {"matrix": 7.5, "linear": 3.0, "entrain": 1.15}
TWO_PI = 2 * math.pi


@dataclass
class Verdict:
    kind: str  # verdict kind, "<call>.<input family>"
    n: int  # problem size
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class CliOut:
    code: int
    text: str


def cli_call(tpds, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tpds.cli.main(argv)
    return CliOut(code, out.getvalue())


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def build(workload, seed, tmp):
    """Set-up for one workload.

    Returns the verdicts of one pass, each run once per pass, and the
    warm-up indices (the first verdict of each kind).
    """
    import tpds
    import tpds.cli  # noqa: F401  (the CLI verdicts call tpds.cli.main)

    specs = {name: tpds.shipped(name) for name in tpds.shipped_names()}
    make = {"matrix": _matrix, "linear": _linear, "entrain": _entrain}[workload]
    verdicts = make(tpds, specs, seed, tmp)
    first = {}
    for i, v in enumerate(verdicts):
        first.setdefault(v.kind, i)
    return verdicts, list(first.values())


# -- matrix --------------------------------------------------------------
# One seeded matrix per (family, n): every family at n = 2..7, three at
# n = 8, two at n = 9, one at n = 10. The TN family is two matrices per
# size, one oscillatory and one not: `classify` re-classifies A^(n-1) when
# a matrix comes out oscillatory, which doubles its cost, and a single
# `random_tn` draw is oscillatory with a probability of 0.2-0.35, so with
# one draw per size the cost of the small verdicts that hold the median
# would depend on the seed. With the calls below, 72 verdicts a pass, most
# of them n <= 5. Every verdict weighs the same in the latency
# percentiles, so the eight n >= 8 ones (219 ms to 4 s each, against under
# 60 ms for the rest) put the 90th percentile inside the n = 8 group
# rather than on the gap below it, where it would read the slowest of the
# n <= 7 samples.
MATRIX_PLAN = (
    [(label, n) for n in range(2, 8) for label in ("tp", "tn_osc", "tn_red", "ns", "tri")]
    + [("tp", 8), ("tn_osc", 8), ("tn_red", 8), ("ns", 8), ("tp", 9), ("ns", 9), ("tp", 10)]
)
CLI_CHECK_FILES = (("tp", 3), ("tn_osc", 4), ("ns", 5), ("tp", 6), ("tn_red", 7), ("ns", 8))
MAX_TN_DRAWS = 200


def _tn_pair(tpds, seed, n):
    """The first oscillatory and the first non-oscillatory matrix among
    seeded `random_tn` draws of order n."""
    r = _rng(seed, 1, n)
    found = {}
    for _ in range(MAX_TN_DRAWS):
        A = tpds.random_tn(n, rng=r)
        found.setdefault("tn_osc" if oracles.tn_oscillatory(A) else "tn_red", A)
        if len(found) == 2:
            return found
    raise RuntimeError(f"no oscillatory and non-oscillatory random_tn pair of order {n} in {MAX_TN_DRAWS} draws")


def _matrix(tpds, specs, seed, tmp):
    gens = {
        "tp": tpds.random_tp,
        "ns": tpds.random_nonsingular,
        "tri": tpds.random_tridiagonal_cooperative,
    }
    labels = {"tp": 0, "ns": 2, "tri": 3}
    tn = {n: _tn_pair(tpds, seed, n) for label, n in MATRIX_PLAN if label == "tn_osc"}
    mats = {
        (label, n): tn[n][label] if label.startswith("tn") else gens[label](n, rng=_rng(seed, labels[label], n))
        for label, n in MATRIX_PLAN
    }
    minor = tpds.minor
    out = []
    for (label, n), A in mats.items():
        if label == "tri":
            out.append(Verdict("classify_constant.tri", n, lambda A=A: tpds.classify_constant(A), oracles.constant_tpds(A)))
            continue
        family = label.split("_")[0]
        out.append(Verdict(f"classify.{label}", n, lambda A=A: tpds.classify(A), oracles.classify_label(label, A, minor)))
        if label == "tp" and n <= 7:
            out.append(Verdict("oscillatory_spectrum.tp", n, lambda A=A: tpds.oscillatory_spectrum(A), oracles.oscillatory_spectrum(A)))
        if n > 5:
            continue
        if family in ("tp", "tn"):
            out.append(Verdict(f"geb_factorize.{label}", n, lambda A=A: tpds.geb_factorize(A), oracles.geb_residual(A)))
        if label == "tp":
            B = mats["ns", n]
            p = 2
            out.append(Verdict("mult_compound.tp_ns", n, lambda A=A, B=B, p=p: tpds.mult_compound(A @ B, p), oracles.cauchy_binet(A, B, p)))
            x = _rng(seed, 10, n).standard_normal(n)
            out.append(Verdict("svdp_check.tp", n, lambda A=A, x=x: tpds.svdp_check(A, x), oracles.svdp_tp(A, x)))
            if n >= 3:
                U = A[:, : n - 1].copy()
                rs = int(_rng(seed, 11, n).integers(2**31))
                out.append(
                    Verdict("column_set_equivalence.tp", n, lambda U=U, rs=rs: tpds.column_set_equivalence(U, rng=rs), oracles.column_set_tp(U))
                )
    for label, n in CLI_CHECK_FILES:
        A = mats[label, n]
        path = os.path.join(tmp, f"{label}{n}.mat")
        tpds.matio.dump(A, path)
        out.append(Verdict(f"cli.check.{label}", n, lambda path=path: cli_call(tpds, ["check", path]), oracles.cli_check(label, A, minor)))
    return out


# -- linear --------------------------------------------------------------
SPEC_TPDS = {"switched": True, "schwarz3": True, "sinusoidal2": False, "cosh2": True}
EIGHTH = TWO_PI / 8


def _prime_linear(sys):
    for seg in sys.segments:
        seg.matrix_at(seg.t_start)


def _linear(tpds, specs, seed, tmp):
    from scipy.linalg import expm

    out = []
    systems = {name: specs[name].system for name in SPEC_TPDS}
    # one seeded system per n, over its period 2 pi (compound flow: an eighth)
    randoms = {n: tpds.random_tpds_system(n, rng=_rng(seed, 20, n)) for n in range(2, 7)}
    for sys in list(systems.values()) + list(randoms.values()):
        _prime_linear(sys)

    sw, sc, si, co = (systems[k] for k in ("switched", "schwarz3", "sinusoidal2", "cosh2"))
    T = si.period
    # classify_time_varying at the default grid of 1000 samples per segment
    expect = {
        "switched": oracles.ctv("TPDS", delta=0.25),
        "schwarz3": oracles.ctv("TPDS", delta_min=0.5 - 1e-3),
        "sinusoidal2": oracles.ctv("TNDS_only"),
        "cosh2": oracles.ctv("TPDS", delta=2.0 / 1000),
    }
    for name, sys in systems.items():
        out.append(Verdict(f"classify_time_varying.{name}", sys.n, lambda sys=sys: tpds.classify_time_varying(sys), expect[name]))
    for n, sys in randoms.items():
        out.append(Verdict("classify_time_varying.random", n, lambda sys=sys: tpds.classify_time_varying(sys), oracles.ctv("TPDS", delta_min=0.5)))

    # simulate_linear on the specs' own experiment grids
    for name, sys in systems.items():
        z0 = np.asarray(specs[name].experiment["z0"], dtype=float)
        grid = np.linspace(*sys.interval, int(specs[name].experiment["grid"]))
        states = None
        if name == "cosh2":
            states = np.array([oracles.cosh2_phi(0.0, t) @ z0 for t in grid])
        if name == "sinusoidal2":
            states = np.array([oracles.sinusoidal2_phi(0.0, t) @ z0 for t in grid])
        check = oracles.sign_trajectory(
            SPEC_TPDS[name], first=3 if name == "switched" else None, last=0 if name == "switched" else None, states=states
        )
        out.append(
            Verdict(
                f"simulate_linear.{name}",
                sys.n,
                lambda sys=sys, z0=z0, grid=grid, tp=SPEC_TPDS[name]: tpds.simulate_linear(sys, z0, grid, tpds=tp),
                check,
            )
        )
    for n, sys in randoms.items():
        # alternating signs: n - 1 sign changes that a TPDS can only reduce
        z0 = np.array([(-1) ** k for k in range(n)]) * _rng(seed, 21, n).uniform(0.5, 2.0, n)
        grid = np.linspace(0.0, TWO_PI, 200)
        out.append(
            Verdict(
                "simulate_linear.random",
                n,
                lambda sys=sys, z0=z0, grid=grid: tpds.simulate_linear(sys, z0, grid, tpds=True),
                oracles.sign_trajectory(True, first=n - 1),
            )
        )

    # transition matrices: closed forms where they exist, Liouville otherwise
    tm = [
        ("switched", sw, 0.0, 1.0, oracles.transition(phi_want=oracles.switched_phi(sw, 0.0, 1.0, expm))),
        ("cosh2", co, 0.0, 2.0, oracles.transition(phi_want=oracles.cosh2_phi(0.0, 2.0))),
        ("sinusoidal2", si, 0.0, T, oracles.transition(phi_want=oracles.sinusoidal2_phi(0.0, T))),
        ("schwarz3", sc, 0.0, sc.period, oracles.transition(det_want=1.0, positive=True)),
    ]
    for n, sys in randoms.items():
        det = math.exp(oracles.trace_integral(sys, 0.0, TWO_PI))
        tm.append(("random", sys, 0.0, TWO_PI, oracles.transition(det_want=det, positive=True)))
    for name, sys, a, b, check in tm:
        out.append(Verdict(f"transition_matrix.{name}", sys.n, lambda sys=sys, a=a, b=b: tpds.transition_matrix(sys, a, b), check))

    # Floquet: sinusoidal2 has multipliers e^{+-2 pi} with eigenvectors (1, 1), (1, -1)
    s2 = 1 / math.sqrt(2)
    out.append(
        Verdict(
            "floquet.sinusoidal2",
            2,
            lambda: tpds.floquet(si),
            oracles.floquet_data(2, multipliers=[math.exp(TWO_PI), math.exp(-TWO_PI)], eigvecs=[[s2, s2], [s2, -s2]]),
        )
    )
    out.append(Verdict("floquet.schwarz3", 3, lambda: tpds.floquet(sc), oracles.floquet_data(3, log_det=0.0)))
    for n, sys in randoms.items():
        log_det = oracles.trace_integral(sys, 0.0, TWO_PI)
        out.append(Verdict("floquet.random", n, lambda sys=sys: tpds.floquet(sys), oracles.floquet_data(n, log_det=log_det)))
    fd = tpds.floquet(si)
    out.append(
        Verdict(
            "floquet_mode_evolution.sinusoidal2",
            2,
            lambda: tpds.floquet_mode_evolution(si, fd, {1: 1.0, 2: 10.0}, horizon=2 * T),
            oracles.sign_trajectory(True, tail=0),
        )
    )

    # compound dynamics, p = 2
    log_det_sw = math.log(np.linalg.det(oracles.switched_phi(sw, 0.0, 1.0, expm)))
    out.append(
        Verdict(
            "compound_transition.switched",
            4,
            lambda: tpds.compound_transition(sw, 2, 0.0, 1.0),
            oracles.compound_flow(4, 2, log_det_sw, phi_want=oracles.switched_phi(sw, 0.0, 1.0, expm)),
        )
    )
    for n, sys in randoms.items():
        log_det = oracles.trace_integral(sys, 0.0, EIGHTH)
        out.append(
            Verdict("compound_transition.random", n, lambda sys=sys: tpds.compound_transition(sys, 2, 0.0, EIGHTH), oracles.compound_flow(n, 2, log_det))
        )

    # the CLI, writing into the temp dir
    spec_dir = os.path.join(os.path.dirname(tpds.__file__), "specs")
    for name, sys in systems.items():
        path = os.path.join(tmp, f"{name}.csv")
        if name == "switched":
            rows = lambda head, rows: None if (rows[0][-3], rows[-1][-3]) == ("3", "0") else "s_minus does not go 3 -> 0"
        elif name == "cosh2":
            want = oracles.cosh2_phi(0.0, 2.0)[:, 0]
            rows = lambda head, rows, want=want: None if oracles.rel_err([float(v) for v in rows[-1][1:3]], want) < oracles.INTEGRATION_TOL else "final state off closed form"
        else:
            rows = lambda head, rows, n=sys.n: None if len(rows) > 1 and len(rows[0]) == n + 4 else "malformed trajectory file"
        out.append(
            Verdict(
                f"cli.simulate.{name}",
                sys.n,
                lambda name=name, path=path: cli_call(tpds, ["simulate", os.path.join(spec_dir, f"{name}.spec"), "--out", path]),
                oracles.csv_rows(path, rows),
            )
        )
    mult = lambda v: None if abs(float(v) / math.exp(TWO_PI) - 1) < oracles.INTEGRATION_TOL else f"multiplier {v} != e^(2 pi)"
    out.append(
        Verdict(
            "cli.floquet.sinusoidal2",
            2,
            lambda: cli_call(tpds, ["floquet", os.path.join(spec_dir, "sinusoidal2.spec")]),
            oracles.cli_lines(r"multiplier 1: (?P<m>\S+)\s+sign_changes (?P<s>\d+)", m=mult, s="0"),
        )
    )
    out.append(
        Verdict(
            "cli.floquet.schwarz3",
            3,
            lambda: cli_call(tpds, ["floquet", os.path.join(spec_dir, "schwarz3.spec")]),
            oracles.cli_lines(r"multiplier 3: \S+\s+sign_changes (?P<s>\d+)", s="2"),
        )
    )
    fig_dir = os.path.join(tmp, "fig")
    plot = os.path.join(fig_dir, "sigma_switched_plot.dat")
    out.append(
        Verdict(
            "cli.reproduce.sigma-switched",
            4,
            lambda: cli_call(tpds, ["reproduce", "sigma-switched", "--outdir", fig_dir]),
            oracles.csv_rows(plot, lambda head, rows: None if (rows[0][1], rows[-1][1]) == ("3", "0") else "sigma does not go 3 -> 0"),
        )
    )
    fl = os.path.join(fig_dir, "floquet_sinusoidal.csv")
    out.append(
        Verdict(
            "cli.reproduce.floquet-sinusoidal",
            2,
            lambda: cli_call(tpds, ["reproduce", "floquet-sinusoidal", "--outdir", fig_dir]),
            oracles.csv_rows(
                fl,
                lambda head, rows: None
                if oracles.rel_err([float(r[1]) for r in rows], [math.exp(TWO_PI), math.exp(-TWO_PI)]) < oracles.INTEGRATION_TOL
                else "multipliers differ from e^(+-2 pi)",
            ),
        )
    )
    return out


# -- entrain ------------------------------------------------------------
STEP = TWO_PI / 250  # RK4 step of the simulations: 250 steps per period


def _entrain(tpds, specs, seed, tmp):
    takac = specs["takac"].system
    demo = specs["entrain_demo"].system
    # the same right-hand side without the analytic Jacobian
    demo_fd = tpds.NonlinearSystem(
        n=demo.n, rhs=demo.rhs, input=demo.input, jacobian=None, period=demo.period, domain_box=demo.domain_box, name="entrain_demo_fd"
    )
    systems = {"entrain_demo": demo, "entrain_demo_fd": demo_fd, "takac": takac}
    for sys in systems.values():
        x = np.zeros(sys.n)
        sys.f(0.0, x)
        sys.jac(0.0, x)

    x_takac = np.asarray(specs["takac"].experiment["x0"], dtype=float)

    def start(name, *stream):
        # takac: near its locally stable period-2 orbit; entrain_demo: anywhere in the box
        r = _rng(seed, *stream)
        return x_takac + r.uniform(-0.02, 0.02, 4) if name == "takac" else r.uniform(-2.0, 2.0, 3)

    out = []
    for name, q in (("takac", 2), ("entrain_demo", 1)):
        x0 = start(name, 30, q)
        out.append(Verdict(f"poincare_analysis.{name}", systems[name].n, lambda sys=systems[name], x0=x0: tpds.poincare_analysis(sys, x0), oracles.poincare_period(q)))

    grid = np.linspace(0.0, TWO_PI, 50)
    for k, (name, sys) in enumerate(systems.items()):
        x0 = start(name, 33, k)
        out.append(
            Verdict(
                f"simulate_nonlinear.{name}",
                sys.n,
                lambda sys=sys, x0=x0: tpds.simulate_nonlinear(sys, x0, grid, step=STEP),
                # takac's x4 -> x1 feedback puts its Jacobian outside M+
                oracles.nonlinear_run(sys, name != "takac"),
            )
        )

    # ordered pairs of the cooperative entrain_demo, in a seeded order
    for k, name in enumerate(("entrain_demo", "entrain_demo_fd")):
        sys = systems[name]
        r = _rng(seed, 34, k)
        b0 = r.uniform(-1.5, 1.0, sys.n)
        a0 = b0 + r.uniform(0.1, 0.5, sys.n)
        sign, (x, y) = (1, (a0, b0)) if r.integers(2) else (-1, (b0, a0))
        out.append(
            Verdict(
                f"eventual_monotonicity.{name}",
                sys.n,
                lambda sys=sys, x=x, y=y: tpds.eventual_monotonicity(sys, x, y, TWO_PI, samples=100, step=STEP),
                oracles.ordered_pair(sign),
            )
        )

    spec_dir = os.path.join(os.path.dirname(tpds.__file__), "specs")
    for name, q in (("takac", "2"), ("entrain_demo", "1")):
        out.append(
            Verdict(
                f"cli.entrain.{name}",
                specs[name].system.n,
                lambda name=name: cli_call(tpds, ["entrain", os.path.join(spec_dir, f"{name}.spec")]),
                oracles.cli_lines(r"detected_period (?P<q>\S+)", q=q),
            )
        )
    return out
