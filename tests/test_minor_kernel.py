"""The batched minor kernel against the per-minor reference, and its input checks."""

import tracemalloc
from itertools import combinations
from math import comb
from unittest.mock import patch

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
from tpds import totalpos
from tpds.errors import NonFiniteInput
from tpds.totalpos import (
    _LAPLACE_SPLIT,
    LAPLACE_MIN_MINORS,
    MINOR_CHUNK,
    MINOR_REL_TOL,
    Certificate,
    Classification,
    _by_laplace,
    _laplace_index,
    _minors,
    _subsets,
)

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


# -- the Laplace level of classify's orders 2 to 6 --------------------------


def _lower(A):
    return {p: _minors(A, p)[0] for p in (1, 2, 3)}


def _laplace_orders(n):
    return [k for k in range(1, n + 1) if _by_laplace(n, k)]


def _lu_count(monkeypatch):
    """A counter of the minors of order >= 4 that reach _stacked_det."""
    seen = {"lu": 0}
    stacked_det = totalpos._stacked_det

    def counting(s):
        if s.shape[-1] >= 4:
            seen["lu"] += int(np.prod(s.shape[:-2]))
        return stacked_det(s)

    monkeypatch.setattr(totalpos, "_stacked_det", counting)
    return seen


def test_laplace_covers_the_large_orders_3_to_6():
    # more than LAPLACE_MIN_MINORS (128) minors: LU keeps orders 7 to 10
    # and the tables of 25 to 49 minors (5 x 5 order 4, 6 x 6 order 5,
    # 7 x 7 order 6), the closed forms order 2 at every n and order 3 of
    # n <= 5 (100 minors)
    assert LAPLACE_MIN_MINORS == 128
    assert [_laplace_orders(n) for n in range(2, 11)] == [
        [], [], [], [], [3, 4], [3, 4, 5], [3, 4, 5, 6], [3, 4, 5, 6], [3, 4, 5, 6]
    ]


def test_a_sweep_over_n_6_to_10_builds_each_laplace_table_once():
    # 17 pairs (n, k) take the Laplace level at n <= 10; a cache smaller
    # than that builds every table of the second sweep again
    pairs = {(n, k) for n in range(6, 11) for k in _laplace_orders(n)}
    assert len(pairs) == 17
    matrices = [random_tn(n, rng=3500 + n) for n in range(6, 11)]
    _laplace_index.cache_clear()
    for _ in range(2):
        for A in matrices:
            assert classify(A).certificate.orders == len(A)
    info = _laplace_index.cache_info()
    assert (info.misses, info.currsize) == (17, 17), info


def test_the_laplace_index_tables_are_the_ranks_of_the_combinations():
    for n in range(2, 11):
        for k in (kk for kk in _LAPLACE_SPLIT if kk <= n):
            p = _LAPLACE_SPLIT[k]
            lo, hi, sign = _laplace_index(n, k)
            assert _laplace_index(n, k) is _laplace_index(n, k)
            for table in (lo, hi, sign):
                assert not table.flags.writeable
            with pytest.raises(ValueError):
                lo[0, 0] = 1
            rank = {s: i for size in (p, k - p) for i, s in enumerate(combinations(range(n), size))}
            positions = list(combinations(range(k), p))
            assert lo.shape == hi.shape == (len(positions), comb(n, k))
            for s, S in enumerate(combinations(range(n), k)):
                for t, J in enumerate(positions):
                    assert lo[t, s] == rank[tuple(S[j] for j in J)]
                    assert hi[t, s] == rank[tuple(S[j] for j in range(k) if j not in J)]
            # (-1)^(1 + ... + p + the 1-based positions in J)
            assert sign.tolist() == [(-1) ** (sum(range(1, p + 1)) + sum(j + 1 for j in J)) for J in positions]


LAPLACE_FAMILIES = {
    "tn": random_tn,
    "ns": random_nonsingular,
    "abs_ns": lambda n, rng: np.abs(random_nonsingular(n, rng=rng)),
    "neg_tp": lambda n, rng: -random_tp(n, rng=rng),
    "checkerboard": lambda n, rng: random_tn(n, rng=rng) * (-1.0) ** np.add.outer(range(n), range(n)),
}


@pytest.mark.parametrize("family", sorted(LAPLACE_FAMILIES))
@pytest.mark.parametrize("n", range(6, 11))
def test_laplace_minors_are_within_a_tenth_of_the_threshold_of_lu(family, n):
    # every order the Laplace level takes, 3 to 6, against the closed form
    # and LU on the same minors (measured: 1e-14 of the row product at
    # most, against 1e-11 here; order 3 is equal)
    for scale in (2.0**-120, 1.0, 2.0**120):
        A = LAPLACE_FAMILIES[family](n, rng=3400 + n) * scale
        lower = _lower(A)
        for k in _laplace_orders(n):
            d, thr = _minors(A, k, lower)
            d_lu, thr_lu = _minors(A, k)
            assert _bits(thr) == _bits(thr_lu)
            assert (np.abs(d - d_lu) <= 1e-11 * (thr / MINOR_REL_TOL)).all(), (family, n, scale, k)


SIGNED_ENTRIES = st.sampled_from([-3.0, -1.5, -1.0, -0.7, -0.0, 0.0, 0.1, 0.5, 1.0, 2.0])


def _closed_form_and_laplace(A):
    """The order-3 table of A by the closed form and, as classify takes
    it, from the Laplace level over the orders 1 and 2, which come from
    their closed forms at every n."""
    lower = _lower(A)
    assert not _by_laplace(len(A), 2) and _by_laplace(len(A), 3)
    d, thr = _minors(A, 3, lower)
    d_closed, thr_closed = _minors(A, 3)
    assert _bits(thr) == _bits(thr_closed)
    return d_closed, d


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 10).flatmap(lambda n: st.lists(SIGNED_ENTRIES, min_size=n * n, max_size=n * n)), st.integers(-120, 120))
def test_order_3_from_the_laplace_level_is_the_closed_form(entries, power):
    # the p = 1 terms are _stacked_det's products, added in its order
    A = np.array(entries).reshape((round(len(entries) ** 0.5),) * 2) * 2.0**power
    d_closed, d = _closed_form_and_laplace(A)
    assert _bits(d) == _bits(d_closed)


def test_the_laplace_level_keeps_the_closed_forms_signed_zeros():
    # -0.0 on the diagonal and +0.0 elsewhere, or the other way round:
    # every minor is a zero, of either sign, as the closed form's products
    # and differences give it
    for A in (np.diag(np.full(6, -0.0)), -np.diag(np.full(10, -0.0))):
        d_closed, d = _closed_form_and_laplace(A)
        assert not d.any() and np.signbit(d).any() and not np.signbit(d).all()
        assert _bits(d) == _bits(d_closed)


def _gaussian_kernel(x, y, c):
    """exp(-c (x_i - y_j)^2), totally positive for increasing x and y."""
    return np.exp(-c * np.subtract.outer(x, y) ** 2)


def _with_minor_at(B, k, factor):
    """B with its entry (1, 1) moved so that the leading order-k minor is
    factor times its zero threshold, as LU computes both."""
    A = B.copy()
    R = np.arange(k)
    for _ in range(4):  # the threshold moves with the entry, slightly
        sub = A[np.ix_(R, R)]
        thr = MINOR_REL_TOL * np.prod(np.abs(sub).max(axis=1))
        A[0, 0] += (factor * thr - np.linalg.det(sub)) / np.linalg.det(sub[1:, 1:])
    return A


@pytest.mark.parametrize("n, k", [(6, 4), (7, 4), (7, 5), (8, 5), (8, 6), (9, 6)])
@pytest.mark.parametrize("factor", [-1.01, -0.99, 0.99, 1.01])
def test_a_minor_near_its_threshold_is_decided_as_lu_decides_it(n, k, factor):
    # a well-conditioned TP matrix: lowering its entry (1, 1) takes the
    # leading minors below zero from the highest order down, so the lower
    # orders stay nonnegative. The witness is where LU puts it, and its
    # value the exact minor, which LU's float misses in its eighth digit
    # at (6, 4)
    A = _with_minor_at(_gaussian_kernel(np.arange(n), np.arange(n), 0.5), k, factor)
    d, thr = _minors(A, k, _lower(A))
    d_lu, _ = _minors(A, k)
    assert d_lu[0, 0] / thr[0, 0] == pytest.approx(factor, abs=1e-6)
    assert np.array_equal(d < -thr, d_lu < -thr)
    assert np.array_equal(np.abs(d) <= thr, np.abs(d_lu) <= thr)
    got = _same_as_lu(A)
    if factor < -1:
        assert got.witness[:2] == (tuple(range(1, k + 1)),) * 2
        assert got.witness[2] == pytest.approx(d_lu[0, 0], rel=1e-6)


def test_an_overflowing_laplace_order_raises_as_lu_does():
    # orders 2 and 3 of 1e80 x a TN matrix are finite, order 4 overflows:
    # the Laplace products and LU both come out infinite, without a warning
    A = random_tn(7, rng=3601) * 1e80
    lower = _lower(A)
    message = "an order-4 minor or its threshold is nan or infinite"
    for call in (lambda: _minors(A, 4, lower), lambda: classify(A), lambda: ref.classify_full(A)):
        with pytest.raises(NonFiniteInput, match=f"^{message}$"):
            call()


def test_a_tn_classify_at_n8_takes_65_minors_by_lu(monkeypatch):
    # orders 4 to 6 (4,900, 3,136 and 784 minors) come from the Laplace
    # level; orders 7 and 8 (64 + 1) stay on LU
    A = random_tn(8, rng=3602)
    seen = _lu_count(monkeypatch)
    assert classify(A).is_TN
    assert seen["lu"] == 65
    seen["lu"] = 0
    with patch.dict(_LAPLACE_SPLIT, clear=True):
        assert classify(A).is_TN
    assert seen["lu"] == 8885


def _dented(n, rng, k=None):
    """A Gaussian kernel on random increasing nodes with its leading
    order-k minor, k = 4..6 unless given, set to a few thresholds below or
    above zero: a witness, or a small minor, at a Laplace order."""
    g = np.random.default_rng(rng)
    x, y = (np.cumsum(g.uniform(0.5, 1.5, n)) for _ in range(2))
    B = _gaussian_kernel(x, y, g.uniform(0.3, 1.0))
    return _with_minor_at(B, g.integers(4, 7) if k is None else k, g.choice([-1e4, -10.0, -2.0, 2.0, 10.0]))


CLASSIFY_FAMILIES = dict(LAPLACE_FAMILIES, tp=random_tp)


def _exact_value(A, witness):
    """The exact minor a witness names, rounded once to a float."""
    rows, cols, _ = witness
    return float(ref.exact_minor(A, [i - 1 for i in rows], [j - 1 for j in cols]))


def _same_as_lu(A):
    """classify(A) against the all-LU enumeration and against classify with
    the Laplace level off, on every field, the witness position, the
    certificate's rule, nonpositive and det_sign, and the order it stopped
    at; and its witness value against the exact minor (``exact_minor``),
    rounded once. Where a high order overflows, classify_full raises and
    classify stops first or raises the same error. Returns classify(A)."""
    got = _outcome(classify, A)
    with patch.dict(_LAPLACE_SPLIT, clear=True):
        lu = _outcome(classify, A)
    full = _outcome(ref.classify_full, A)
    if isinstance(lu, str):
        assert got == lu == full
        return got
    for want in [lu] + ([full] if isinstance(full, Classification) else []):
        assert got == want
        assert repr(got.witness) == repr(want.witness)  # floats by their digits: -0.0 too
        cert, full_cert = got.certificate, want.certificate
        assert (cert.rule, cert.nonpositive, cert.det_sign) == (full_cert.rule, full_cert.nonpositive, full_cert.det_sign)
    assert got.certificate.orders == lu.certificate.orders
    if got.witness is not None:
        assert got.witness[2] == _exact_value(A, got.witness)
    return got


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(CLASSIFY_FAMILIES)),
    st.integers(6, 10),
    st.integers(0, 2**32 - 1),
    st.integers(-120, 120),
)
def test_classify_with_the_laplace_level_is_classify_with_lu(family, n, seed, power):
    _same_as_lu(CLASSIFY_FAMILIES[family](n, rng=seed) * 2.0**power)


def test_witnesses_at_laplace_orders_are_lu_s():
    # the positions are LU's and the values exact: seeds 0-39 read no
    # minor LU misreads (none of 75 million in seeds 0-1499 but seed 75);
    # the witnesses sit at orders 4 to 7
    orders = set()
    for seed in range(40):
        got = _same_as_lu(_dented(7 + seed % 4, seed))
        orders.add(len(got.witness[0]))
    assert {4, 5, 6} <= orders


@pytest.mark.parametrize("n, k", [(6, 4), (7, 5), (8, 6)])
def test_witnesses_at_the_orders_that_moved_to_laplace_are_lu_s(n, k):
    # the orders that LU took below MINOR_CHUNK minors and the Laplace
    # level takes above LAPLACE_MIN_MINORS, the witness at LU's position
    # with the exact value; a dent of -2, -10 or -1e4
    # thresholds is the witness, one of +2 or +10 a small positive minor
    # that leaves the witness to order k + 1
    assert _by_laplace(n, k) and comb(n, k) ** 2 <= MINOR_CHUNK
    orders = [len(_same_as_lu(_dented(n, 3700 + seed, k)).witness[0]) for seed in range(12)]
    assert set(orders) == {k, k + 1}, orders


WITNESS_FAMILIES = {
    "ns": random_nonsingular,
    # the zero minors of the EB product, moved off zero by 1 % noise
    "tn_perturbed": lambda n, rng: random_tn(n, rng=rng) * (1 + 0.01 * np.random.default_rng(rng).standard_normal((n, n))),
    "dented": lambda n, rng: _dented(n, rng, k=min(n, 2 + rng % 5)),
}


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(sorted(WITNESS_FAMILIES)), st.integers(3, 10), st.integers(0, 2**32 - 1))
def test_every_witness_is_the_exact_minor_rounded_once(family, n, seed):
    # at every order and by every route: the entries, the closed forms, the
    # Laplace level and LU
    A = WITNESS_FAMILIES[family](n, seed)
    witness = classify(A).witness
    if witness is not None:
        assert witness[2] == _exact_value(A, witness) and witness[2] < 0


def test_the_witness_families_reach_every_route():
    # the property's families put witnesses at orders 1 to 7
    orders = {
        family: {len(w[0]) for n in range(3, 11) for seed in range(6) if (w := classify(gen(n, seed)).witness)}
        for family, gen in WITNESS_FAMILIES.items()
    }
    assert orders["ns"] == {1} and {2, 3} <= orders["tn_perturbed"], orders
    assert set(range(2, 8)) <= orders["dented"], orders


def test_a_graded_minor_that_lu_misreads_is_read_exactly():
    # an order-4 minor of a graded Gaussian kernel whose rows differ in
    # scale by 1e12: LU reads it as -2.08 thresholds, where it is exactly
    # +0.013 of one, as the Laplace level reads it. So the parent's
    # witness is gone, and the first minor below -thr is the dented order-6
    # one, exactly negative too.
    A = _dented(10, 100)
    rows, cols = (0, 1, 8, 9), (5, 7, 8, 9)
    s = [tuple(r) for r in _subsets(10, 4).tolist()].index
    d, thr = _minors(A, 4, _lower(A))
    d_lu, _ = _minors(A, 4)
    t = thr[s(rows), s(cols)]
    exact = ref.exact_minor(A, rows, cols)
    assert d_lu[s(rows), s(cols)] < -2 * t
    assert 0 < exact < t / 50 and d[s(rows), s(cols)] == float(exact)
    with patch.dict(_LAPLACE_SPLIT, clear=True):
        assert classify(A).witness[:2] == ((1, 2, 9, 10), (6, 8, 9, 10))
    got = classify(A)
    assert got.witness[:2] == ((1, 2, 3, 4, 5, 6),) * 2
    assert got.witness[2] == float(ref.exact_minor(A, range(6), range(6)))


def _outcome(call, A):
    try:
        return call(A)
    except NonFiniteInput as exc:
        return str(exc)
