"""Oracles for the structural constant-matrix verdicts, run against the library.

``classify_constant`` and ``is_dominant_tridiagonal_TN`` decide from the
matrix's pattern alone; these tests hold them to independent
characterisations:

- Schwarz: a constant A gives a TPDS iff exp(At) is TP for t > 0, and a
  TNDS iff exp(At) is TN; a positive entry a_ij with |i - j| > 1 forces a
  negative 2x2 minor of exp(At) at small t (``negative_minor_witness``).
- Smith: a tridiagonal matrix with nonnegative off-diagonals and
  a_i >= b_i + c_{i-1} is TN, which the exhaustive ``classify`` must agree
  with.
- Metzler propagation: a matrix whose first and second additive compounds
  are Metzler has a Metzler additive compound at every order
  (``metzler_compound_profile``).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from tpds import (
    classify,
    classify_constant,
    is_dominant_tridiagonal_TN,
    metzler_compound_profile,
    negative_minor_witness,
    random_tridiagonal_cooperative,
)

# the benchmark's matrix workload draws its n = 6 cooperative tridiagonal
# from numpy.random.default_rng([seed, 3, 6]) (perfbench/workloads.py)
WORKLOAD_SEEDS = (6101, 6102, 6103, 6104, 6105, 6106, 6107, 6108, 6109, 6110, 6301, 7101, 9001)


def cross_check_constant(A, verdict):
    """exp(At) at three scaled times must match `verdict` (a "neither"
    already fails TN at the first), and every far positive entry must have
    a negative 2x2 minor witness."""
    n = A.shape[0]
    t_scale = 1.0 / max(1.0, np.abs(A).max())
    for t in (0.01 * t_scale, 0.1 * t_scale, 1.0 * t_scale):
        cls = classify(expm(A * t))
        if verdict == "TPDS":
            assert cls.is_TP, f"TPDS verdict but exp(At) not TP at t={t}"
        if verdict in ("TPDS", "TNDS_only"):
            assert cls.is_TN, f"TNDS verdict but exp(At) not TN at t={t}"
        if verdict == "neither" and t == 0.01 * t_scale:
            assert not cls.is_TN, f"not TNDS, but exp(At) TN at t={t}"
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and A[i, j] > 0:
                assert negative_minor_witness(A, i + 1, j + 1) is not None, (
                    f"no negative 2x2 minor found for a[{i + 1},{j + 1}] > 0"
                )


def constant_cases(n, seed):
    """A cooperative tridiagonal, the same with one off-diagonal zeroed, one
    made negative, and (n >= 3) one far-off-diagonal entry made nonzero."""
    rng = np.random.default_rng([seed, n])
    A = random_tridiagonal_cooperative(n, rng=rng)
    cases = [("TPDS", A)]
    B = A.copy()
    i = int(rng.integers(n - 1))
    B[i, i + 1] = 0.0
    cases.append(("TNDS_only", B))
    N = A.copy()
    N[i + 1, i] = -rng.uniform(0.3, 1.0)
    cases.append(("neither", N))
    if n >= 3:
        C = A.copy()
        i = int(rng.integers(n - 2))
        j = int(i + rng.integers(2, n - i))
        if rng.random() < 0.5:
            i, j = j, i
        C[i, j] = rng.uniform(0.5, 1.5) * rng.choice([1.0, -1.0])
        cases.append(("neither", C))
    return cases


@pytest.mark.parametrize("n", range(2, 7))
def test_constant_verdicts_match_exp_At(n):
    for seed in range(8):
        for expected, A in constant_cases(n, seed):
            verdict = classify_constant(A).verdict
            assert verdict == expected
            cross_check_constant(A, verdict)


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_workload_tridiagonals_match_exp_At(seed):
    A = random_tridiagonal_cooperative(6, rng=np.random.default_rng([seed, 3, 6]))
    cls = classify_constant(A)
    assert cls.verdict == "TPDS"
    cross_check_constant(A, cls.verdict)


def test_exp_At_oracle_refutes_wrong_verdicts():
    # the oracle is live: it rejects each verdict one class too strong
    for expected, A in constant_cases(4, 0) + constant_cases(5, 1):
        stronger = {"TNDS_only": "TPDS", "neither": "TNDS_only"}.get(expected)
        if stronger is not None:
            with pytest.raises(AssertionError):
                cross_check_constant(A, stronger)


@pytest.mark.parametrize("n", range(2, 8))
def test_dominance_implies_exhaustive_tn(n):
    rng = np.random.default_rng([71, n])
    dominant = 0
    for k in range(100):
        # off-diagonals mostly positive, some zero, a few negative
        sup, sub = rng.uniform(0.0, 1.0, (2, n - 1)) * rng.choice(
            [0.0, 1.0, -1.0], (2, n - 1), p=[0.2, 0.75, 0.05]
        )
        A = np.diag(sup, 1) + np.diag(sub, -1)
        # every row dominant but one, which may fall short; slack 0 puts
        # every row on the boundary a_i = |b_i| + |c_{i-1}|
        slack = rng.uniform(0.0, 0.6, n)
        slack[rng.integers(n)] = rng.uniform(-0.6, 0.1)
        np.fill_diagonal(A, np.abs(A).sum(axis=1) + (0.0 if k % 5 == 0 else slack))
        if is_dominant_tridiagonal_TN(A):
            dominant += 1
            assert classify(A).is_TN, A
    assert dominant >= 10


@pytest.mark.parametrize("n", range(1, 8))
def test_metzler_at_orders_one_and_two_is_metzler_at_every_order(n):
    rng = np.random.default_rng([83, n])
    propagated = 0
    for k in range(40):
        # off-diagonals mostly positive, some zero, a few negative
        off = rng.uniform(0.0, 1.0, (2, n - 1)) * rng.choice(
            [0.0, 1.0, -1.0], (2, n - 1), p=[0.2, 0.7, 0.1]
        )
        tri = np.diag(rng.standard_normal(n)) + np.diag(off[0], 1) + np.diag(off[1], -1)
        dense = rng.standard_normal((n, n))
        metzler = np.abs(dense) * (1 - 2 * np.eye(n))
        for A in (tri, dense, metzler):
            status = dict(metzler_compound_profile(A))
            assert sorted(status) == list(range(1, n + 1))
            if status[1] and status.get(2, True):
                propagated += 1
                assert all(status.values()), A
    assert propagated >= 10
