"""The exact TP test of ``classify`` against rational minors, its certificate,
the size limit it lifts, and the A^(n-1) check on oscillatory matrices."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minor_reference as ref
from tpds import (
    classify,
    random_nonsingular,
    random_tn,
    random_tp,
    random_tridiagonal_cooperative,
)
from tpds.errors import NonFiniteInput, SizeLimitExceeded
from tpds.totalpos import _exact


def _boundary_tp(n, rng):
    """random_tp with its last entry moved so that det A is within about
    10% of det A of zero, on either side."""
    A = random_tp(n, rng)
    cofactor = np.linalg.det(A[:-1, :-1])
    A[-1, -1] -= np.linalg.det(A) / cofactor * rng.uniform(0.9, 1.1)
    return A


FAMILIES = {
    "tp": random_tp,
    "tn": random_tn,
    "boundary_tp": _boundary_tp,
    "positive": lambda n, rng: rng.uniform(0.05, 1.0, (n, n)),
}


def _check_against_exact_minors(A):
    minors = ref.exact_minors(A)
    got = classify(A)
    assert got.is_TP == all(v > 0 for v in minors.values())
    cert = got.certificate
    if got.is_TP:
        assert (got.is_TN, got.is_SSR, got.is_oscillatory, got.witness) == (True, True, True, None)
        assert cert.rule == "initial minors" and cert.nonpositive is None
        return got
    # the refutation names a real entry or initial minor, with its exact sign
    assert cert.rule == "exhaustive"
    matrix, rows, cols, sign = cert.nonpositive
    if matrix == "A^T":
        rows, cols = cols, rows
    else:
        assert matrix in ("A", "entry")
    value = minors[tuple(i - 1 for i in rows), tuple(j - 1 for j in cols)]
    assert value <= 0 and sign == (value > 0) - (value < 0)
    if matrix != "entry":
        assert rows == tuple(range(rows[0], rows[-1] + 1))
        assert cols == tuple(range(cols[0], cols[-1] + 1))
        assert rows[0] == 1 or cols[0] == 1
    return got


def test_exact_tp_matches_rational_minors():
    verdicts = {name: [0, 0] for name in FAMILIES}
    for name, gen in FAMILIES.items():
        rng = np.random.default_rng(sorted(FAMILIES).index(name))
        for n in range(2, 6):
            for _ in range(32):
                verdicts[name][_check_against_exact_minors(gen(n, rng)).is_TP] += 1
    assert sum(map(sum, verdicts.values())) >= 500
    # every family hits both verdicts, boundary_tp mostly on its determinant
    assert verdicts["tp"][1] == 128
    assert min(min(v) for name, v in verdicts.items() if name != "tp") >= 5


finite = st.one_of(
    st.floats(-1.0, 4.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 3.0, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(finite, min_size=n * n, max_size=n * n)))
def test_exact_tp_property(entries):
    n = int(round(len(entries) ** 0.5))
    A = np.array(entries).reshape(n, n)
    try:
        _check_against_exact_minors(A)
    except NonFiniteInput:
        # only the threshold path overflows; TP was decided first
        assert not ref.exact_is_tp(A)


def test_det_sign_is_exact():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for _ in range(20):
            A = rng.integers(-2, 3, (n, n)).astype(float) * rng.choice([1.0, 0.375, 1e-5])
            want = ref.exact_minors(A)[tuple(range(n)), tuple(range(n))]
            num = _exact(A)[1]
            assert (num > 0) - (num < 0) == (want > 0) - (want < 0)
    # the third row is the sum of the first two, exactly
    A = np.array([[0.5, 1.25, 3.0], [2.0, 0.75, 1.0], [2.5, 2.0, 4.0]])
    assert _exact(A)[:2] == (2, 0)


def _low_rank(m, n, rank, rng):
    """An m x n matrix of small integers, exactly of the given rank (a
    product of integer factors, each product exact in floats)."""
    while True:
        A = rng.integers(-3, 4, (m, rank)) @ rng.integers(-3, 4, (rank, n))
        if np.linalg.matrix_rank(A) == rank:  # exact for such small integers
            return A.astype(float)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.375, 2.0**-1074, 1e-300, 1e300]),
)
def test_exact_rank_and_determinant_match_rational_elimination(m, n, data, seed, scale):
    # full-rank, rank-deficient, wide, tall and square inputs, down to
    # subnormal entries and up to 1e300, against Fractions
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(0, min(m, n)))
    A = _low_rank(m, n, rank, rng) * scale if rank else np.zeros((m, n))
    if data.draw(st.booleans()):  # or dense, of full rank almost surely
        A = rng.standard_normal((m, n)) * scale
    got_rank, num, den = _exact(A)
    want_rank, det = ref.exact_rank_det(A)
    assert got_rank == want_rank
    if m == n:
        assert Fraction(num, den**n) == det
    else:
        assert num == 0 and det is None


@pytest.mark.parametrize("n", [12, 15])
def test_certified_tp_lifts_the_size_limit(n):
    A = random_tp(n, rng=n)
    got = classify(A)
    assert (got.is_TN, got.is_TP, got.is_SSR, got.is_oscillatory) == (True, True, True, True)
    assert got.certificate.rule == "initial minors"


def test_uncertified_large_matrix_still_refused():
    A = random_tp(11, rng=4)
    A[10, 10] *= 0.5  # breaks the last initial minor's sign, nothing else
    with pytest.raises(SizeLimitExceeded):
        classify(A)
    with pytest.raises(NonFiniteInput):
        classify(np.full((12, 12), np.nan))


def test_certificate_names_the_first_failure():
    cert = classify(np.array([[1.0, 2.0], [3.0, 1.0]])).certificate
    assert cert.nonpositive == ("A", (1, 2), (1, 2), -1) and cert.det_sign is None
    cert = classify(np.array([[1.0, 0.0], [0.0, 1.0]])).certificate
    assert cert.nonpositive == ("entry", (1,), (2,), 0) and cert.det_sign is None
    cert = classify(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])).certificate
    assert cert.nonpositive == ("entry", (1,), (3,), 0) and cert.det_sign == 1
    # the leading-column minors are positive; A(1,2|2,3) is zero. The
    # matrix is TN, nonsingular and oscillatory
    got = classify(np.array([[1.0, 2.0, 4.0], [1.0, 3.0, 6.0], [1.0, 4.0, 9.0]]))
    assert got.certificate.nonpositive == ("A^T", (2, 3), (1, 2), 0)
    assert got.certificate.det_sign == 1 and got.is_oscillatory and not got.is_TP
    # the certificate does not take part in equality
    a, b = classify(np.eye(2)), classify(np.eye(2))
    assert a == b and a.certificate is not b.certificate


@pytest.mark.parametrize(
    "A, det_sign, oscillatory",
    [
        ([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]], 1, True),
        ([[1.0, 1.0], [1.0, 1.0]], 0, False),  # singular
        ([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]], 0, False),  # singular tridiagonal
        ([[1.0, 1.0], [0.0, 1.0]], None, False),  # a zero subdiagonal entry
        ([[1.0, 0.0], [1.0, 1.0]], None, False),  # a zero superdiagonal entry
        ([[1.0]], None, True),  # certified TP
        ([[0.0]], 0, False),
    ],
)
def test_oscillation_by_gantmacher_krein(A, det_sign, oscillatory):
    got = classify(np.array(A))
    assert got.is_TN
    assert got.is_oscillatory == oscillatory and got.certificate.det_sign == det_sign


def _dominant_tridiagonal(n, rng):
    """random_tridiagonal_cooperative shifted to be diagonally dominant:
    TN, nonsingular and oscillatory, but not TP for n >= 3."""
    T = random_tridiagonal_cooperative(n, rng)
    return T + (np.abs(T).sum(axis=1).max() + 1.0) * np.eye(n)


@pytest.mark.parametrize(
    "family", [random_tp, random_tn, random_nonsingular, _dominant_tridiagonal]
)
def test_power_of_oscillatory_matrix_is_tn(family):
    """An oscillatory matrix's (n-1)st power is TP (Gantmacher-Krein). The
    thresholds do not scale consistently from A to its power, so only the
    robust direction is asserted: no minor of the power below -thr."""
    oscillatory = 0
    for n in range(2, 8):
        for seed in range(4):
            A = family(n, rng=100 * seed + n)
            if not classify(A).is_oscillatory:
                continue
            oscillatory += 1
            assert classify(np.linalg.matrix_power(A, n - 1)).is_TN, (family.__name__, n, seed)
    assert oscillatory or family is random_nonsingular


def test_exact_checks_hold_under_python_O():
    script = textwrap.dedent(
        """
        import numpy as np
        from tpds import classify, random_tp
        from tpds.errors import SizeLimitExceeded

        assert False, "assertions are live"  # stripped by -O
        A = random_tp(12, rng=1)
        print(classify(A).is_TP)
        A[11, 11] *= 0.5
        try:
            classify(A)
        except SizeLimitExceeded:
            print("refused")
        print(classify(np.array([[1.0, 2.0], [2.0, 4.0]])).is_TP)
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "refused", "False"]
