"""The batched minor kernel against the per-minor reference, and its input checks."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import minor_reference as ref
from tpds import (
    classify,
    cli,
    column_set_equivalence,
    minor,
    mult_compound,
    random_nonsingular,
    random_tn,
    random_tp,
    random_tridiagonal_cooperative,
)
from tpds.errors import NonFiniteInput
from tpds.totalpos import MINOR_CHUNK, _minors

GENERATORS = {
    "tp": random_tp,
    "tn": random_tn,
    "ns": random_nonsingular,
    "tri": random_tridiagonal_cooperative,
}


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize(
    "A",
    [
        random_nonsingular(8, rng=11),
        random_tn(6, rng=12),
        np.array([[2, 0, 1], [0, 0, 3], [1, 4, 0]], dtype=float),
        np.random.default_rng(13).standard_normal((5, 7)),
    ],
    ids=["ns8", "tn6", "int3", "rect5x7"],
)
def test_minors_and_thresholds_are_bit_identical(A):
    # order 4 of the 8 x 8 matrix has 70^2 minors, several batches' worth
    assert 70 * 70 > 4 * MINOR_CHUNK
    for k in range(1, min(A.shape) + 1):
        d, thr = _minors(A, k)
        d_ref, thr_ref = ref.minors(A, k)
        assert d.shape == d_ref.shape
        assert _bits(d) == _bits(d_ref), k
        assert _bits(thr) == _bits(thr_ref), k


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_classification_matches_reference(family):
    """TN and the witness match the per-minor reference bit for bit, and so
    do SSR and oscillation of every matrix the exact test did not certify.
    TP, and SSR / oscillation of certified matrices, are judged by exact
    minors instead: the reference's zero threshold outgrows the minors of
    random_tp from n = 6 on and calls them not TP."""
    gen = GENERATORS[family]
    sizes = list(range(2, 8)) + ([8] if family == "ns" else [])
    witnesses = threshold_misses = 0
    for n in sizes:
        A = gen(n, rng=100 + n)
        want = ref.classify(A)
        got = classify(A)
        assert (got.is_TN, got.witness) == (want.is_TN, want.witness), (family, n)
        assert got.is_TP == ref.exact_is_tp(A), (family, n)
        if got.is_TP:
            assert got.certificate.rule == "initial minors"
            assert got.is_TN and got.is_SSR and got.is_oscillatory
            threshold_misses += not want.is_TP
        else:
            assert got.certificate.rule == "exhaustive"
            assert (got.is_SSR, got.is_oscillatory) == (want.is_SSR, want.is_oscillatory), (family, n)
        witnesses += want.witness is not None
    if family in ("ns", "tri"):
        assert witnesses  # the first-negative-minor order is exercised
    if family == "tp":
        assert threshold_misses  # the threshold defect is exercised


def test_mult_compound_matches_reference_at_n10():
    A = random_nonsingular(10, rng=5)
    assert _bits(mult_compound(A, 5).entries) == _bits(ref.minors(A, 5)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_everywhere(bad):
    A = np.array([[2.0, 1.0, 0.5], [1.0, bad, 1.0], [0.5, 1.0, 2.0]])
    with pytest.raises(NonFiniteInput):
        classify(A)
    with pytest.raises(NonFiniteInput):
        minor(A, (1, 2), (1, 2))
    assert minor(A, (1, 3), (1, 3)) == pytest.approx(3.75)
    with pytest.raises(NonFiniteInput):
        mult_compound(A, 2)
    with pytest.raises(NonFiniteInput):
        column_set_equivalence(A[:, :2], rng=0)


def test_overflowing_minor_raises():
    with pytest.raises(NonFiniteInput):
        classify(np.full((2, 2), 1e200))


def test_cli_check_rejects_nan_file(tmp_path, capsys):
    path = tmp_path / "nan.mat"
    path.write_text("2 2\n1 nan\n0 1\n")
    assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
    assert "TN yes" not in capsys.readouterr().out


def test_cli_maps_kernel_error_to_assertion_exit(tmp_path):
    path = tmp_path / "big.mat"
    path.write_text("2 2\n1e200 1e200\n1e200 1e200\n")
    assert cli.main(["check", str(path)]) == cli.EXIT_ASSERTION
    assert cli.main(["compound", str(path), "2", "--multiplicative"]) == cli.EXIT_ASSERTION


def test_cross_checks_raise_under_python_O():
    # each inner oracle is forced to disagree; the check must still fire
    # with assertions compiled out
    script = textwrap.dedent(
        """
        import numpy as np
        import tpds
        from tpds import compound, signvar, totalpos
        from tpds.errors import CrossCheckFailed

        assert False, "assertions are live"  # stripped by -O
        fired = []

        def expect(call):
            try:
                call()
            except CrossCheckFailed:
                fired.append(True)

        totalpos.classify = lambda A: totalpos.Classification(False, False, False, False)
        expect(lambda: totalpos.is_dominant_tridiagonal_TN(np.diag([2.0, 2.0, 2.0])))
        compound.is_metzler = lambda M: M.shape[0] > 1
        expect(lambda: compound.metzler_compound_profile(np.eye(3)))
        signvar.s_plus = lambda y, zero_tol=None: signvar.s_minus(y, zero_tol) + 1
        expect(lambda: signvar.in_V([1.0, -1.0]))
        print(len(fired))
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["3"]
