"""Tests of the benchmark itself: oracles reject corrupted results, and the
traced work counters repeat exactly for the same seed.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tpds  # noqa: E402

import oracles  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from worker import Tally, run_pass  # noqa: E402

TWO_PI = 2 * math.pi


def rejects(check, result):
    return check(result) is not None


# -- oracles accept good results and reject corrupted ones ----------------


def test_classify_oracle_rejects_flipped_verdict():
    A = tpds.random_tp(4, rng=1)
    check = oracles.classify_label("tp", A, tpds.minor)
    cls = tpds.classify(A)
    assert check(cls) is None
    assert rejects(check, dataclasses.replace(cls, is_TP=False))
    assert rejects(check, dataclasses.replace(cls, is_oscillatory=False))
    for label, A in workloads._tn_pair(tpds, 1, 4).items():
        check = oracles.classify_label(label, A, tpds.minor)
        cls = tpds.classify(A)
        assert check(cls) is None
        assert rejects(check, dataclasses.replace(cls, is_oscillatory=not cls.is_oscillatory))
        assert rejects(check, dataclasses.replace(cls, is_TN=False))


def test_witness_oracle_rejects_a_positive_minor():
    A = tpds.random_nonsingular(4, rng=2)
    check = oracles.classify_label("ns", A, tpds.minor)
    cls = tpds.classify(A)
    assert check(cls) is None
    i, j = np.argwhere(A > 0)[0] + 1
    assert rejects(check, dataclasses.replace(cls, witness=((i,), (j,), -1.0)))
    assert rejects(check, dataclasses.replace(cls, witness=None))
    assert rejects(check, dataclasses.replace(cls, is_TN=True, witness=None))


def test_cauchy_binet_rejects_perturbed_entry():
    A, B = tpds.random_tp(4, rng=3), tpds.random_nonsingular(4, rng=4)
    check = oracles.cauchy_binet(A, B, 2)
    C = tpds.mult_compound(A @ B, 2)
    assert check(C) is None
    bad = copy.deepcopy(C)
    bad.entries[1, 2] *= 1 + 1e-6
    assert rejects(check, bad)


def test_geb_oracle_rejects_a_wrong_factor():
    A = tpds.random_tn(4, rng=5)
    check = oracles.geb_residual(A)
    fact = tpds.geb_factorize(A)
    assert check(fact) is None
    bad = copy.deepcopy(fact)
    bad.factors[0] = bad.factors[0] * 1.001
    assert rejects(check, bad)


def test_spectrum_and_svdp_oracles():
    A = tpds.random_tp(4, rng=6)
    spec = tpds.oscillatory_spectrum(A)
    check = oracles.oscillatory_spectrum(A)
    assert check(spec) is None
    lam, v, k = spec[1]
    assert rejects(check, spec[:1] + [(lam * 1.001, v, k)] + spec[2:])
    x = np.array([1.0, -2.0, 0.5, 3.0])
    res = tpds.svdp_check(A, x)
    check = oracles.svdp_tp(A, x)
    assert check(res) is None
    assert rejects(check, (res[0], res[1] + 1, res[2]))


def test_constant_and_time_varying_oracles_reject_flipped_verdict():
    A = tpds.random_tridiagonal_cooperative(4, rng=7)
    cls = tpds.classify_constant(A)
    check = oracles.constant_tpds(A)
    assert check(cls) is None
    assert rejects(check, dataclasses.replace(cls, verdict="TNDS_only"))
    sw = tpds.shipped("switched").system
    cls = tpds.classify_time_varying(sw)
    check = oracles.ctv("TPDS", delta=0.25)
    assert check(cls) is None
    assert rejects(check, dataclasses.replace(cls, verdict="TNDS_only"))


def test_floquet_oracle_rejects_perturbed_multiplier():
    si = tpds.shipped("sinusoidal2").system
    fd = tpds.floquet(si, step=1e-3 * si.period)
    s2 = 1 / math.sqrt(2)
    check = oracles.floquet_data(2, multipliers=[math.exp(TWO_PI), math.exp(-TWO_PI)], eigvecs=[[s2, s2], [s2, -s2]])
    assert check(fd) is None
    bad = copy.deepcopy(fd)
    bad.multipliers[0] *= 1 + 1e-4
    assert rejects(check, bad)
    sc = tpds.shipped("schwarz3").system
    fd = tpds.floquet(sc)
    check = oracles.floquet_data(3, log_det=0.0)
    assert check(fd) is None
    bad = copy.deepcopy(fd)
    bad.multipliers[1] *= 1.01
    assert rejects(check, bad)


def test_transition_and_trajectory_oracles():
    co = tpds.shipped("cosh2").system
    rec = tpds.transition_matrix(co, 0.0, 2.0)
    check = oracles.transition(phi_want=oracles.cosh2_phi(0.0, 2.0))
    assert check(rec) is None
    assert rejects(check, dataclasses.replace(rec, phi=rec.phi * (1 + 1e-5)))
    assert isinstance(check(dataclasses.replace(rec, suspect=True)), str)
    sw = tpds.shipped("switched")
    grid = np.linspace(0.0, 1.0, 200)
    traj = tpds.simulate_linear(sw.system, sw.experiment["z0"], grid, tpds=True)
    check = oracles.sign_trajectory(True, first=3, last=0)
    assert check(traj) is None
    bad = copy.deepcopy(traj)
    bad.states[-1] = bad.states[0]
    assert rejects(check, bad)


def test_flagged_result_is_not_silently_wrong():
    co = tpds.shipped("cosh2").system
    rec = tpds.transition_matrix(co, 0.0, 2.0)
    drifting = dataclasses.replace(rec, suspect=True, det_phi=rec.det_predicted * 1.1)
    assert isinstance(oracles.transition()(drifting), oracles.Flagged)
    # a suspect flag without drift is a wrong flag, not a flagged result
    assert not isinstance(oracles.transition()(dataclasses.replace(rec, suspect=True)), oracles.Flagged)


def test_poincare_oracle_rejects_wrong_period():
    takac = tpds.shipped("takac")
    res = tpds.poincare_analysis(takac.system, takac.experiment["x0"])
    check = oracles.poincare_period(2)
    assert check(res) is None
    assert rejects(check, dataclasses.replace(res, detected_period=1))


def test_eventual_monotonicity_and_cli_oracles():
    assert oracles.ordered_pair(1)((0.0, 1)) is None
    assert rejects(oracles.ordered_pair(1), (0.0, -1))
    check = oracles.cli_lines(r"detected_period (?P<q>\S+)", q="2")
    assert check("detected_period 2\n") is None
    assert rejects(check, "detected_period 1\n")


# -- known defects excuse only their own outcome class ----------------------


def test_known_defect_that_changes_class_is_unexpected():
    def outcome(kind, n, result, exc=None):
        tally = Tally()
        check = lambda r: None if r == "good" else "rejected"
        tally.add(workloads.Verdict(kind, n, None, check), 0.0, result, exc)
        return dict(tally.unexpected)

    violation = tpds.errors.FloquetViolation("unseparated")
    assert outcome("floquet.random", 4, None, violation) == {}
    assert outcome("floquet.random", 4, "good") == {}
    assert outcome("floquet.random", 4, "bad") != {}  # raised -> wrong
    assert outcome("floquet.random", 3, None, violation) != {}  # outside the listed sizes
    assert outcome("classify.tp", 7, "bad") == {}
    assert outcome("classify.tp", 7, None, ValueError()) != {}  # wrong -> raised
    assert outcome("classify.tp", 5, "bad") != {}


# -- counters repeat for the same seed ------------------------------------

COUNTERS_SKIP_SIZE = 8  # keep matrix verdicts cheap here: n = 8..10 are timed only in the benchmark


def traced_counters(workload, seed, tmp_path):
    """Per-layer counters of two traced passes, and the outcomes per verdict
    kind of both together."""
    tr = tracer_mod.Tracer()
    tr.install()
    tally = Tally()
    try:
        verdicts, warmup = workloads.build(workload, seed, str(tmp_path))
        cheap = [i for i, v in enumerate(verdicts) if v.n < COUNTERS_SKIP_SIZE]
        run_pass(verdicts, warmup)
        out = []
        for _ in range(2):
            tr.reset()
            run_pass(verdicts, cheap, tally=tally, tracer=tr)
            out.append({k: v for k, v in tr.summary().items() if not k.endswith("_s")})
    finally:
        tr.uninstall()
    return out, {k: dict(v) for k, v in tally.by_kind.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_and_outcomes_repeat_for_same_seed(workload, tmp_path):
    (first, outcomes), (again, outcomes_again) = traced_counters(workload, 11, tmp_path), traced_counters(workload, 11, tmp_path)
    assert first[0] == first[1] == again[0]
    assert outcomes == outcomes_again
    busy = {
        "matrix": ("totalpos.minors", "compound.entries"),
        "linear": ("systems.A_evals", "exprlang.evals", "integrate.rhs_evals", "compound.entries"),
        "entrain": ("nonlinear.f_evals", "nonlinear.jac_evals", "nonlinear.poincare_iterates"),
    }[workload]
    assert all(first[0][k] > 0 for k in busy)
    if workload == "entrain":
        assert first[0]["totalpos.minors"] == first[0]["compound.entries"] == 0


def test_tn_pair_is_one_oscillatory_and_one_not():
    for n in range(2, 6):
        pair = workloads._tn_pair(tpds, 3, n)
        assert tpds.classify(pair["tn_osc"]).is_oscillatory
        assert not tpds.classify(pair["tn_red"]).is_oscillatory


def test_scaled_times_follow_the_reference_kernel(monkeypatch):
    import worker

    verdicts = [workloads.Verdict("sleep", 1, lambda: time.sleep(0.01), lambda r: None)]
    monkeypatch.setattr(worker, "kernel_s", lambda: 2 * worker.REF_KERNEL_S)  # a host at half speed
    raw = []
    scaled = run_pass(verdicts, [0], scale=True, raw=raw)
    assert scaled[0] == pytest.approx(raw[0] / 2)


def test_tracer_uninstall_restores_the_package():
    originals = (tpds.classify, tpds.totalpos.classify, tpds.Segment.matrix_at, tpds.exprlang.compile_fn)
    tr = tracer_mod.Tracer()
    tr.install()
    assert tpds.totalpos.classify is not originals[1]
    tr.uninstall()
    assert (tpds.classify, tpds.totalpos.classify, tpds.Segment.matrix_at, tpds.exprlang.compile_fn) == originals


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
