"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package and prints a single
pass/fail line (visible with ``pytest -s`` or on failure).  Tolerances are
pinned; loosening them requires a corresponding analysis in the project
notes.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from signvar_reference import strong_svdp_reference
from tpds import (
    add_compound,
    classify,
    classify_constant,
    floquet,
    floquet_mode_evolution,
    geb_factorize,
    is_geb,
    mult_compound,
    negative_minor_witness,
    oscillatory_spectrum,
    poincare_analysis,
    random_nonsingular,
    random_tn,
    random_tp,
    random_tpds_system,
    random_tridiagonal_cooperative,
    s_minus,
    s_plus,
    shipped,
    simulate_linear,
    strong_svdp_holds,
    transition_matrix,
)
from tpds.errors import RankDeficient

TWO_PI = 2.0 * np.pi


def report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {num:02d} {name}"


def test_01_oscillatory_spectrum_fixture():
    A = np.array([[5.0, 4.0, 1.0], [4.0, 6.0, 4.0], [1.0, 4.0, 5.0]])
    expected = [2 * (3 + 2 * np.sqrt(2)), 4.0, 2 * (3 - 2 * np.sqrt(2))]
    spectrum = oscillatory_spectrum(A)
    ok = len(spectrum) == 3
    for (lam, _vec, count), target, want_count in zip(spectrum, expected, (0, 1, 2)):
        ok = ok and abs(lam - target) <= 1e-8 * abs(target)
        ok = ok and count == want_count
    report(1, "oscillatory spectrum fixture", ok)


def test_02_closed_form_transition_matrix():
    sys = shipped("cosh2").system
    rec = transition_matrix(sys, 0.0, 1.0)
    exact = np.array([[np.cosh(0.5), np.sinh(0.5)], [np.sinh(0.5), np.cosh(0.5)]])
    ok = bool(np.abs(rec.phi - exact).max() <= 1e-6)
    for t in np.linspace(0.2, 2.0, 10):
        ok = ok and abs(transition_matrix(sys, 0.0, float(t)).det_phi - 1.0) <= 1e-8
    report(2, "cosh/sinh closed form and unit determinant", ok)


def test_03_floquet_fixture_and_mode_decay():
    sys = shipped("sinusoidal2").system
    fd = floquet(sys, step=5e-4 * sys.period)
    ok = abs(fd.multipliers[0] - np.exp(TWO_PI)) <= 1e-5 * np.exp(TWO_PI)
    ok = ok and abs(fd.multipliers[1] - np.exp(-TWO_PI)) <= 1e-5 * np.exp(-TWO_PI)
    ok = ok and fd.sign_counts == [0, 1]
    traj = floquet_mode_evolution(sys, fd, [1.0, 10.0], horizon=10 * fd.period)
    tail = len(traj.sigma_minus) // 10
    ok = ok and set(traj.sigma_minus[-tail:]) == {0}
    report(3, "sinusoidal Floquet multipliers and terminal sigma", ok)


def test_04_switched_system_sigma_profile():
    spec = shipped("switched")
    grid = np.linspace(0.0, 1.0, 500)
    runs = {}
    ok = True
    for step in (1e-3, 5e-4):
        traj = simulate_linear(spec.system, spec.experiment["z0"], grid, step=step, tpds=True)
        sigma = traj.sigma_minus
        ok = ok and sigma[0] == 3
        ok = ok and all(b <= a for a, b in zip(sigma, sigma[1:]))
        ok = ok and all(d <= 0 for d in np.diff(traj.sigma_plus))
        runs[step] = sigma
    ok = ok and runs[1e-3] == runs[5e-4]
    report(4, "switched system sigma non-increasing and step independent", ok)


def test_05_compound_identities():
    rng = np.random.default_rng(50)
    ok = True
    for k in range(50):
        if k % 2:
            A = rng.integers(-3, 4, size=(5, 5)).astype(float)
            B = rng.integers(-3, 4, size=(5, 5)).astype(float)
            exact = True
        else:
            A = rng.standard_normal((5, 5))
            B = rng.standard_normal((5, 5))
            exact = False
        for p in (2, 3, 4):
            lhs = mult_compound(A @ B, p).entries
            rhs = mult_compound(A, p).entries @ mult_compound(B, p).entries
            add_lhs = add_compound(A + B, p).entries
            add_rhs = add_compound(A, p).entries + add_compound(B, p).entries
            if exact:
                ok = ok and np.array_equal(add_lhs, add_rhs)
            scale = max(np.abs(rhs).max(), 1.0)
            ok = ok and np.abs(lhs - rhs).max() <= 1e-9 * scale
            ok = ok and np.abs(add_lhs - add_rhs).max() <= 1e-9 * max(np.abs(add_rhs).max(), 1.0)
    C = rng.standard_normal((4, 4)) * 0.5
    for p in (2, 3):
        lhs = expm(add_compound(C, p).entries)
        rhs = mult_compound(expm(C), p).entries
        ok = ok and np.abs(lhs - rhs).max() <= 1e-6 * max(np.abs(rhs).max(), 1.0)
    # written-out second and third additive compounds of a 4x4 instance
    a = rng.standard_normal((4, 4))
    expected2 = np.array(
        [
            [a[0, 0] + a[1, 1], a[1, 2], a[1, 3], -a[0, 2], -a[0, 3], 0],
            [a[2, 1], a[0, 0] + a[2, 2], a[2, 3], a[0, 1], 0, -a[0, 3]],
            [a[3, 1], a[3, 2], a[0, 0] + a[3, 3], 0, a[0, 1], a[0, 2]],
            [-a[2, 0], a[1, 0], 0, a[1, 1] + a[2, 2], a[2, 3], -a[1, 3]],
            [-a[3, 0], 0, a[1, 0], a[3, 2], a[1, 1] + a[3, 3], a[1, 2]],
            [0, -a[3, 0], a[2, 0], -a[3, 1], a[2, 1], a[2, 2] + a[3, 3]],
        ]
    )
    expected3 = np.array(
        [
            [a[0, 0] + a[1, 1] + a[2, 2], a[2, 3], -a[1, 3], a[0, 3]],
            [a[3, 2], a[0, 0] + a[1, 1] + a[3, 3], a[1, 2], -a[0, 2]],
            [-a[3, 1], a[2, 1], a[0, 0] + a[2, 2] + a[3, 3], a[0, 1]],
            [a[3, 0], -a[2, 0], a[1, 0], a[1, 1] + a[2, 2] + a[3, 3]],
        ]
    )
    ok = ok and np.allclose(add_compound(a, 2).entries, expected2, atol=1e-12)
    ok = ok and np.allclose(add_compound(a, 3).entries, expected3, atol=1e-12)
    report(5, "Cauchy-Binet, additivity, exponential link, 4x4 formulas", ok)


def test_06_sign_variation_diminishing_at_scale():
    rng = np.random.default_rng(60)
    tp_violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        A = random_tp(n, rng)
        x = rng.standard_normal(n)
        if rng.random() < 0.3:
            x[rng.integers(n)] = 0.0
        if not np.any(x):
            x[0] = 1.0
        if s_plus(A @ x) > s_minus(x):
            tp_violations += 1
    tn_violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        A = random_tn(n, rng)
        x = rng.standard_normal(n)
        if s_minus(A @ x) > s_minus(x):
            tn_violations += 1
    report(6, "variation diminishing on 1000 TP and 1000 TN pairs",
           tp_violations == 0 and tn_violations == 0)


def test_07_constant_classification_bridge():
    rng = np.random.default_rng(70)
    times = (0.01, 0.1, 1.0)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = random_tridiagonal_cooperative(n, rng)
        kind = rng.integers(4)
        far_entries = []
        if kind == 1:
            i = int(rng.integers(n - 1))
            if rng.random() < 0.5:
                A[i, i + 1] = 0.0
            else:
                A[i + 1, i] = 0.0
        elif kind == 2 and n >= 3:
            i = int(rng.integers(n - 2))
            j = int(i + rng.integers(2, n - i))
            A[i, j] = rng.uniform(0.5, 1.5)
            far_entries.append((i, j))
        elif kind == 3:
            i = int(rng.integers(n - 1))
            A[i + 1, i] = -rng.uniform(0.3, 1.0)
        verdict = classify_constant(A)
        flows = [classify(expm(A * t)) for t in times]
        if verdict.is_TPDS:
            ok = ok and all(c.is_TP for c in flows)
        elif verdict.is_TNDS:
            ok = ok and all(c.is_TN for c in flows)
            ok = ok and not any(c.is_TP for c in flows)
        else:
            # not TNDS: the flow already has a negative minor at small time
            ok = ok and not flows[0].is_TN
        for i, j in far_entries:
            # witness API uses 1-based matrix indices
            ok = ok and negative_minor_witness(A, i + 1, j + 1) is not None
    report(7, "constant-matrix verdicts agree with sampled flow classification", ok)


def test_08_ssr_strong_svdp_equivalence():
    rng = np.random.default_rng(80)
    ok = True
    for k in range(100):
        n = int(rng.integers(2, 5))
        if k % 3 == 0:
            A = random_tp(n, rng)
            if k % 6 == 0:
                # row reversal keeps strict sign regularity: it multiplies
                # every order-j minor by (-1)^(j(j-1)/2), and negation by (-1)^j
                A = A[::-1] * (-1.0) ** (k % 12 // 6)
        else:
            A = random_nonsingular(n, rng)
        ssr = classify(A).is_SSR
        sampled = strong_svdp_reference(A, rng=int(rng.integers(1 << 31)), vectors_per_pattern=6)
        ok = ok and ssr == sampled == strong_svdp_holds(A)
    # singular matrix: the variation bound holds yet strict sign regularity
    # fails, and the theorem, which needs full column rank, does not decide it
    S = np.array([[2.0, 2.0], [1.0, 1.0]])
    ok = ok and strong_svdp_reference(S, rng=1) and not classify(S).is_SSR
    with pytest.raises(RankDeficient):
        strong_svdp_holds(S)
    report(8, "strict sign regularity matches enumerated variation bound", ok)


def test_09_double_period_counterexample():
    sys = shipped("takac").system
    worst = 0.0
    for t in np.linspace(0.0, 4 * np.pi, 1000):
        g = np.array([np.cos(t), np.sin(t), -np.cos(t), -np.sin(t)])
        gdot = np.array([-np.sin(t), np.cos(t), np.sin(t), -np.cos(t)])
        worst = max(worst, float(np.abs(gdot - sys.f(t, g)).max()))
    res = poincare_analysis(sys, [1.001, 0.0, -1.0, 0.0])
    ok = worst <= 1e-10 and res.detected_period == 2
    report(9, "forced cubic system settles on twice the forcing period", ok)


def test_10_entrainment_demo():
    sys = shipped("entrain_demo").system
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(5):
        x0 = rng.uniform(-1.0, 1.0, 3)
        res = poincare_analysis(sys, x0)
        ok = ok and res.detected_period == 1 and res.residuals[-1] < 1e-6
    report(10, "periodic contraction entrains from 5 seeded starts", ok)


def test_11_bidiagonal_factorization_round_trip():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = random_tn(n, rng)
        fac = geb_factorize(A)
        scale = max(np.abs(A).max(), 1.0)
        ok = ok and fac.residual_error <= 1e-10 * scale
        ok = ok and all(is_geb(F) for F in fac.factors)
    report(11, "Neville factorization reconstructs 100 TN matrices", ok)


def test_12_sigma_monotonicity_at_scale():
    rng = np.random.default_rng(120)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        sys = random_tpds_system(n, rng, interval=(0.0, 3.0))
        z0 = rng.uniform(-2.0, 2.0, n)
        if not np.any(z0):
            z0[0] = 1.0
        traj = simulate_linear(sys, z0, np.linspace(0.0, 3.0, 200), step=5e-3)
        ok = ok and all(d <= 0 for d in np.diff(traj.sigma_plus))
        ok = ok and len(traj.exceptional_times) <= n - 1
    report(12, "sigma monotone on 100 random time-varying systems", ok)
