"""The batched minor kernel against the per-minor reference, and its input checks."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tpds.totalpos import MINOR_CHUNK, Certificate, Classification, _minors, _subsets

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


@pytest.mark.parametrize(
    "A, per_batch",
    [(random_nonsingular(10, rng=15), 4), (np.random.default_rng(16).standard_normal((5, 14)), 1)],
    ids=["ns10", "rect5x14"],
)
def test_order_5_minors_are_bit_identical_whatever_the_batch(A, per_batch):
    # ns10: C(10,5) = 252 column subsets, so 4 whole row subsets a batch;
    # rect5x14: C(14,5) = 2002 > MINOR_CHUNK, so one row subset a batch
    ncols = comb(A.shape[1], 5)
    assert max(1, MINOR_CHUNK // ncols) == per_batch
    d, thr = _minors(A, 5)
    d_ref, thr_ref = ref.minors(A, 5)
    assert d.shape == d_ref.shape == (comb(len(A), 5), ncols)
    assert _bits(d) == _bits(d_ref)
    assert _bits(thr) == _bits(thr_ref)


def test_the_cached_index_tables_are_read_only():
    table = _subsets(6, 3)
    assert _subsets(6, 3) is table and table.shape == (20, 3)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 5
    assert table[0].tolist() == [0, 1, 2] and table[-1].tolist() == [3, 4, 5]


def test_classify_at_n10_holds_a_bounded_batch():
    # every order of a TN matrix is enumerated; order 5 has 252^2 minors,
    # whose d and thr take 0.5 MB each. Batches of whole row subsets keep
    # the peak near a few of those, where gathering every order-5
    # submatrix at once would hold 25 entries a minor (12.7 MB).
    A = random_tn(10, rng=7)
    classify(A)
    one_output = comb(10, 5) ** 2 * 8
    tracemalloc.start()
    try:
        cls = classify(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.is_TN and cls.certificate.orders == 10
    assert peak < 8 * one_output, peak


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


FAMILIES = dict(GENERATORS, neg_tp=lambda n, rng: -random_tp(n, rng=rng))


def _same_as_full_enumeration(A):
    """classify(A) against the full enumeration on every field and on the
    certificate's rule, nonpositive and det_sign; returns the certificate."""
    got, want = classify(A), ref.classify_full(A)
    assert got == want  # the verdicts and the witness; the certificate is not compared
    cert, full = got.certificate, want.certificate
    assert (cert.rule, cert.nonpositive, cert.det_sign) == (full.rule, full.nonpositive, full.det_sign)
    return cert


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_classify_matches_the_full_enumeration(family):
    """Stopping once TN and SSR are both refuted changes no field: the
    witness is the first negative minor in ascending order either way."""
    stopped = 0
    for n in range(2, 10):
        A = FAMILIES[family](n, rng=1400 + n)
        cert = _same_as_full_enumeration(A)
        if cert.rule == "initial minors":
            assert cert.orders is None
        else:
            assert 1 <= cert.orders <= n
            stopped += cert.orders < n
    # TN matrices need every order; the other families exercise the stop,
    # neg_tp from n = 7 on at a later order than 1 (its first zero minor)
    assert bool(stopped) == (family not in ("tp", "tn")), stopped


ENTRIES = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0, 1e200, 1e-300])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(ENTRIES, min_size=n * n, max_size=n * n)))
def test_classify_matches_the_full_enumeration_on_small_matrices(entries):
    A = np.array(entries).reshape((round(len(entries) ** 0.5),) * 2)
    try:
        ref.classify_full(A)
    except NonFiniteInput:
        # a later order overflows; classify either stops before it, with
        # TN and SSR refuted, or overflows too
        try:
            got = classify(A)
        except NonFiniteInput:
            return
        assert not (got.is_TN or got.is_SSR) and got.certificate.orders < len(A)
        return
    _same_as_full_enumeration(A)


def test_orders_enumerated():
    # random entries of both signs refute TN and SSR at order 1; a TN
    # matrix needs every order
    assert classify(random_nonsingular(9, rng=14)).certificate.orders == 1
    for n in (3, 6, 9):
        cls = classify(random_tn(n, rng=14))
        assert cls.is_TN and not cls.is_TP and cls.certificate.orders == n


def test_order_one_refutation_returns_before_an_overflowing_order():
    # order 2 overflows (1e400), which used to raise NonFiniteInput; order 1
    # has already refuted TN (the -1) and SSR (mixed signs)
    A = [[1e200, -1.0], [1e200, 1e200]]
    with pytest.raises(NonFiniteInput):
        ref.classify_full(A)
    cls = classify(A)
    assert cls == Classification(False, False, False, False, ((1,), (2,), -1.0))
    assert cls.certificate == Certificate("exhaustive", ("entry", (1,), (2,), -1))
    assert cls.certificate.orders == 1


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


@pytest.mark.filterwarnings("error")
def test_subnormal_minors_raise_no_warning():
    # numpy's stacked LU determinant of this order-4 minor raises the
    # divide-by-zero flag; the verdict is finite and must come without a
    # RuntimeWarning
    A = [[0, 1, 3, 0], [5e-324, 1, 3, -1], [-1, 0, 0, 1e-300], [0, 5e-324, 5e-324, 1e-300]]
    cls = classify(A)
    assert cls == Classification(False, False, False, False, ((2,), (4,), -1.0))
    assert cls.certificate == Certificate("exhaustive", ("entry", (1,), (1,), 0))


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
