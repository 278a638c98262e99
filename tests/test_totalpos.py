"""Tests for minor enumeration, classification, factorization and SVDP."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geb_reference
import signvar_reference as ref
from tpds import totalpos
from tpds import (
    GEBFactorization,
    classify,
    column_set_equivalence,
    geb_factorize,
    is_dominant_tridiagonal_TN,
    is_geb,
    minor,
    oscillatory_spectrum,
    random_nonsingular,
    random_tn,
    random_tp,
    strong_svdp_holds,
    svdp_check,
)
from tpds.errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFiniteInput,
    NotTN,
    NotTridiagonal,
    PivotBreakdown,
    RankDeficient,
    SizeLimitExceeded,
    TpdsError,
    SpectralViolation,
    ZeroVector,
)

A_SPECTRAL = np.array([[5, 4, 1], [4, 6, 4], [1, 4, 5]], dtype=float)


def test_minor_basic():
    assert minor(A_SPECTRAL, (1, 2), (1, 2)) == pytest.approx(14.0)
    assert minor(A_SPECTRAL, (1,), (3,)) == pytest.approx(1.0)
    assert minor(A_SPECTRAL, (1, 2, 3), (1, 2, 3)) == pytest.approx(
        np.linalg.det(A_SPECTRAL)
    )


def test_minor_rejects_bad_indices():
    with pytest.raises(DimensionMismatch):
        minor(A_SPECTRAL, (1, 2), (1,))
    with pytest.raises(DimensionMismatch):
        minor(A_SPECTRAL, (2, 1), (1, 2))  # not increasing
    with pytest.raises(DimensionMismatch):
        minor(A_SPECTRAL, (1, 4), (1, 2))  # out of range
    with pytest.raises(DimensionMismatch):
        minor(A_SPECTRAL, (), ())


def test_classify_identity():
    cls = classify(np.eye(3))
    assert cls.is_TN and not cls.is_TP
    assert not cls.is_SSR and not cls.is_oscillatory
    assert cls.witness is None


def test_classify_ssr_not_tn():
    cls = classify(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert cls.is_SSR and not cls.is_TN
    alpha, beta, value = cls.witness
    assert alpha == (1, 2) and beta == (1, 2)
    assert value == pytest.approx(-5.0)


def test_classify_oscillatory_tridiagonal():
    A = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=float)
    cls = classify(A)
    assert cls.is_TN and not cls.is_TP
    assert cls.is_oscillatory
    # its square is the spectral fixture, which is fully TP
    sq = classify(A @ A)
    assert sq.is_TP and sq.is_oscillatory


def test_classify_similarity_breaks_TN():
    # a TN nilpotent upper-shift conjugated by a cyclic permutation
    A = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    P = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert classify(A).is_TN
    conj = P @ A @ np.linalg.inv(P)
    assert not classify(conj).is_TN


def test_classify_size_guard():
    with pytest.raises(SizeLimitExceeded):
        classify(np.eye(11))
    with pytest.raises(DimensionMismatch):
        classify(np.ones((2, 3)))


def test_dominant_tridiagonal():
    A = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 2]], dtype=float)
    assert is_dominant_tridiagonal_TN(A)
    # sufficient only: this TN matrix fails the dominance inequality
    B = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert classify(B).is_TN and not is_dominant_tridiagonal_TN(B)
    with pytest.raises(NotTridiagonal):
        is_dominant_tridiagonal_TN(np.ones((3, 3)))


def test_geb_factorize_2x2():
    A = np.array([[1.0, 2.0], [1.0, 3.0]])
    fact = geb_factorize(A)
    assert fact.residual_error < 1e-12
    assert np.allclose(fact.product(), A)
    for F in fact.factors:
        assert is_geb(F)


def test_geb_factorize_random_tn():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = random_tn(4, rng)
        fact = geb_factorize(A)
        assert fact.residual_error < 1e-10
        assert all(is_geb(F) for F in fact.factors)


def test_geb_requires_tn():
    with pytest.raises(NotTN):
        geb_factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_geb_pivot_breakdown():
    # zero pivot above a nonzero entry in the first column
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert classify(A).is_TN
    with pytest.raises(PivotBreakdown):
        geb_factorize(A)


def _geb_outcome(factorize, A):
    """The factors and residual, bit for bit, or the error type and message."""
    try:
        with np.errstate(all="ignore"):  # an overflowing elimination is a case under test
            fact = factorize(np.array(A, dtype=float))
    except TpdsError as exc:
        return type(exc), str(exc)
    return fact.residual_error.hex(), [(F.shape, F.tobytes()) for F in fact.factors]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([random_tn, random_tp]), st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_every_geb_factor_passes_is_geb(gen, n, seed):
    # is_geb no longer runs inside geb_factorize: its factors are GEB by
    # construction, which this checks, and the residual is the per-factor
    # loop's bit for bit
    A = gen(n, rng=seed)
    fact = geb_factorize(A)
    assert 1 <= len(fact.factors) <= n * (n - 1) + 1
    assert all(is_geb(F) for F in fact.factors)
    assert _geb_outcome(geb_factorize, A) == _geb_outcome(geb_reference.geb_factorize, A)


GEB_ENTRIES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 1 - 1e-11, 1e-11, 1e-13, 1e-200, 1e100, 1e150, 1e300])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(GEB_ENTRIES, min_size=n * n, max_size=n * n)))
def test_geb_factorize_matches_the_per_factor_loop(entries):
    A = np.array(entries).reshape((round(len(entries) ** 0.5),) * 2)
    assert _geb_outcome(geb_factorize, A) == _geb_outcome(geb_reference.geb_factorize, A)


@pytest.mark.parametrize(
    "A, error, message",
    [
        # the lower multiplier 1e300 / 1e-11 overflows
        ([[1e-11, 0.0], [1e300, 1.0]], NonFiniteInput, "is_geb: the matrix has a nan or infinite entry"),
        # TN within the threshold, but the second pivot is -1e-11
        ([[1.0, 1.0], [1.0, 1 - 1e-11]], PivotBreakdown, "produced a non-GEB factor"),
        # an infinite lower multiplier, and a pivot of -inf: the lower
        # factor comes first, and is_geb checks finiteness before signs
        ([[1e-11, 1e-200], [1e300, -0.0]], NonFiniteInput, "is_geb: the matrix has a nan or infinite entry"),
        # finite lower factors, a nan pivot and an infinite upper multiplier
        ([[1e-11, 1e300], [-0.0, 1e-200]], NonFiniteInput, "is_geb: the matrix has a nan or infinite entry"),
    ],
)
def test_a_bad_multiplier_or_pivot_raises_as_the_per_factor_loop(A, error, message):
    assert classify(A).is_TN
    assert _geb_outcome(geb_factorize, A) == _geb_outcome(geb_reference.geb_factorize, A) == (error, message)


def test_an_overflowing_elimination_warns_nothing():
    # called without np.errstate, so the suite's error::RuntimeWarning filter
    # turns any numpy warning into a failure: the multiplier 1e300 / 1e-11
    # overflowed with a RuntimeWarning before the NonFiniteInput
    with pytest.raises(NonFiniteInput, match="^is_geb: the matrix has a nan or infinite entry$"):
        geb_factorize([[1e-11, 0.0], [1e300, 1.0]])


def test_oscillatory_spectrum_fixture():
    out = oscillatory_spectrum(A_SPECTRAL)
    vals = [lam for lam, _, _ in out]
    expected = [2 * (3 + 2 * np.sqrt(2)), 4.0, 2 * (3 - 2 * np.sqrt(2))]
    assert vals == pytest.approx(expected, rel=1e-8)
    assert [count for _, _, count in out] == [0, 1, 2]
    refs = [
        np.array([1.0, np.sqrt(2), 1.0]),
        np.array([1.0, 0.0, -1.0]),
        np.array([1.0, -np.sqrt(2), 1.0]),
    ]
    for (_, vec, _), ref in zip(out, refs):
        ref = ref / np.linalg.norm(ref)
        assert np.allclose(vec, ref, atol=1e-8)


def test_oscillatory_spectrum_rejects_non_oscillatory():
    with pytest.raises(SpectralViolation):
        oscillatory_spectrum(np.eye(3))  # reducible


def test_svdp_check_basic():
    A = np.array([[1.0, 2.0], [3.0, 1.0]])  # SSR
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_normal(2)
        sin, sout, ok = svdp_check(A, x)
        assert ok and sout <= sin
    with pytest.raises(ZeroVector):
        svdp_check(A, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        svdp_check(A, [1.0, 2.0, 3.0])


def test_strong_svdp_without_ssr():
    # singular rank-one matrix: the variation bound holds for every vector
    # even though no minor condition can (2x2 minors all vanish)
    A = np.array([[2.0, 2.0], [1.0, 1.0]])
    assert strong_svdp_holds(A, rng=0)
    assert not classify(A).is_SSR


def test_strong_svdp_on_random_tp():
    rng = np.random.default_rng(5)
    A = random_tp(3, rng)
    assert strong_svdp_holds(A, rng=1, vectors_per_pattern=5)


def test_column_set_equivalence_positive_case():
    U = np.array([[1.0, -1.0], [np.sqrt(2), 0.0], [1.0, 1.0]])
    same_sign, bound = column_set_equivalence(U, trials=300, rng=2)
    assert same_sign and bound


def test_column_set_equivalence_negative_case():
    U = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    same_sign, bound = column_set_equivalence(U, trials=300, rng=2)
    assert not same_sign and not bound


def test_column_set_equivalence_preconditions():
    with pytest.raises(RankDeficient):
        column_set_equivalence(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        column_set_equivalence(np.eye(2))


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc).__name__, str(exc)


def test_column_set_bound_matches_per_trial_loop():
    """One (trials, m) draw counted at once gives the per-trial loop's
    answer, including a column whose products overflow on some trials:
    a non-finite product raises only when it comes before the first
    violation."""
    for seed in range(100):
        rng = np.random.default_rng([seed, 1])
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        U = [random_tp(n, rng=seed), random_tn(n, rng=seed), rng.standard_normal((n, n))][seed % 3][:, :m]
        trials = [200, 37, 1, 300][seed % 4]  # 0 trials raise InvalidArgument (test_argument_rules)
        zero_tol = [None, 1e-3][seed % 2]
        got = outcome(lambda: column_set_equivalence(U, trials, seed, zero_tol)[1])
        assert got == outcome(lambda: ref.column_set_bound_reference(U, trials, seed, zero_tol)), seed
    seen = set()
    for seed in range(20):
        for column in ([1e308, -1e308, 1.0], [1e308, 1e308, 1.0]):
            U = np.array(column)[:, None]
            got = outcome(lambda: column_set_equivalence(U, rng=seed)[1])
            assert got == outcome(lambda: ref.column_set_bound_reference(U, rng=seed)), (seed, column)
            seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {False, "NonFiniteInput"}


def test_strong_svdp_matches_per_vector_loop():
    for seed in range(16):
        rng = np.random.default_rng([seed, 2])
        n = int(rng.integers(2, 5))
        A = [random_tp(n, rng=seed), random_tn(n, rng=seed), random_nonsingular(n, rng=seed)][seed % 3]
        if seed % 4 == 3:
            A = np.abs(rng.standard_normal((n + 1, n)))  # not square
        vpp = [20, 3, 1, 6][seed % 4]
        got = outcome(lambda: strong_svdp_holds(A, seed, vpp))
        assert got == outcome(lambda: ref.strong_svdp_reference(A, seed, vpp)), seed
    outcomes = set()
    for A in ([[1e308, 1e308], [1.0, 2.0]], [[1e308, -1e308], [1.0, 1.0]]):
        for seed in range(3):
            got = outcome(lambda: strong_svdp_holds(A, rng=seed))
            assert got == outcome(lambda: ref.strong_svdp_reference(A, rng=seed)), (A, seed)
            outcomes.add(got if isinstance(got, bool) else got[0])
    assert outcomes == {False, "NonFiniteInput"}


@pytest.mark.parametrize("n", range(1, 8))
def test_sign_patterns_from_their_numbers_are_the_table(n):
    # every batch's patterns, computed from the numbers of its vectors,
    # are the rows of the whole table that strong_svdp_holds laid out
    table = ref.sign_pattern_table(n)
    assert np.array_equal(totalpos._sign_patterns(np.arange(3**n - 1), n), table)
    rows = np.arange(5, min(5 + totalpos.SVDP_CHUNK, 20 * (3**n - 1)))
    assert np.array_equal(totalpos._sign_patterns(rows // 20, n), table[rows // 20])


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_strong_svdp_memory_does_not_grow_with_the_patterns():
    # the table of the 3^n - 1 patterns took 10.0 MB at n = 10 and 32.8 MB
    # at n = 11 (its own 4.7 and 15.6 MB, and the meshgrid copies), and the
    # size check that laid out its shape untouched (np.empty) 4.7 and
    # 15.6 MB; one batch of SVDP_CHUNK vectors takes 5.0 MB at n = 10 and
    # 5.5 MB at n = 11
    A = random_tp(11, rng=0)
    strong_svdp_holds(A[:2, :2], rng=0)
    assert traced_peak(lambda: strong_svdp_holds(A[:10, :10], rng=0, vectors_per_pattern=1)) < 6e6
    assert traced_peak(lambda: strong_svdp_holds(A, rng=0, vectors_per_pattern=1)) < 6e6


@pytest.mark.parametrize(
    "n, count",
    [(40, 1), (39, 3), (1, 2**62)],
)
def test_strong_svdp_refuses_a_run_numpy_cannot_number_before_any_draw(n, count):
    # 3^40 - 1 vectors, 3 (3^39 - 1) and 2^63 exceed np.intp; nothing is
    # laid out and the generator is not drawn from
    A, rng = np.eye(n), np.random.default_rng(0)
    state = rng.bit_generator.state
    message = f"^the {3**n - 1} nonzero sign patterns of {n} entries cannot be allocated$"
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgument, match=message):
            strong_svdp_holds(A, rng=rng, vectors_per_pattern=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5, peak
    assert rng.bit_generator.state == state


def test_svdp_check_on_non_square_matrices():
    rng = np.random.default_rng(8)
    for shape in ((2, 4), (4, 2), (3, 3), (1, 3), (3, 1)):
        for _ in range(30):
            A = rng.standard_normal(shape)
            x = rng.choice([-1.0, 0.0, 2.0], size=shape[1])
            if not x.any():
                continue
            sin, sout, ok = svdp_check(A, x)
            assert (sin, sout) == (ref.counts(x)[0], ref.counts(A @ x)[1])
            assert ok == (sout <= sin)


def test_dominance_rejects_a_vector():
    with pytest.raises(NotTridiagonal):
        is_dominant_tridiagonal_TN([1.0, 2.0])


def test_geb_residual_is_that_of_the_product_from_the_identity():
    for n, A in ((3, random_tp(3, rng=4)), (5, random_tn(5, rng=6))):
        fact = geb_factorize(A)
        P = np.eye(n)
        for F in fact.factors:
            P = P @ F
        want = float(np.linalg.norm(P - A) / max(np.linalg.norm(A), 1e-300))
        assert fact.residual_error.hex() == want.hex()


BAD_SHAPES = {
    "classify-0x0": lambda: classify(np.zeros((0, 0))),
    "geb_factorize-0x0": lambda: geb_factorize(np.zeros((0, 0))),
    "oscillatory_spectrum-0x0": lambda: oscillatory_spectrum(np.zeros((0, 0))),
    "column_set_equivalence-vector": lambda: column_set_equivalence(np.ones(3)),
    "svdp_check-vector": lambda: svdp_check(np.ones(3), np.ones(3)),
    "svdp_check-column-x": lambda: svdp_check(np.eye(3), np.ones((3, 1))),
    "strong_svdp_holds-vector": lambda: strong_svdp_holds(np.ones(3)),
    "strong_svdp_holds-0x0": lambda: strong_svdp_holds(np.zeros((0, 0))),
    "minor-vector": lambda: minor(np.ones(3), (1,), (1,)),
    "is_geb-vector": lambda: is_geb(np.ones(3)),
    "is_geb-0x0": lambda: is_geb(np.zeros((0, 0))),
    "product-empty": lambda: GEBFactorization().product(),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_bad_shapes_raise_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch):
        BAD_SHAPES[case]()


def test_is_geb_rejects_non_finite_entries():
    with pytest.raises(NonFiniteInput):
        is_geb(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_ordered_spectrum_checks_both_counts_of_each_eigenvector():
    # eigenvector 2 is (1, -1, 0): one sign change, but two once its zero
    # end entry may take either sign
    V = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [1.0, 0.0, 1.0]])
    M = V @ np.diag([3.0, 2.0, 1.0]) @ np.linalg.inv(V)
    with pytest.raises(SpectralViolation, match=r"eigenvector 2 has sign counts \(1, 2\), expected 1"):
        totalpos._ordered_spectrum(M)


def test_sampled_products_round_as_one_vector_at_a_time(monkeypatch):
    """The batched checks form U @ c and A @ x exactly as the per-vector
    loop did, so a sign at the zero tolerance cannot flip."""
    seen = []

    def spy(Y, zero_tol=None):
        seen.append(np.array(Y))
        return sign_rows(Y, zero_tol)

    sign_rows = totalpos._sign_rows
    monkeypatch.setattr(totalpos, "_sign_rows", spy)
    rng = np.random.default_rng(12)
    U = rng.standard_normal((6, 3))
    column_set_equivalence(U, trials=500, rng=4)
    draws = np.random.default_rng(4).standard_normal((500, 3))
    assert seen[-1].tobytes() == np.array([U @ c for c in draws]).tobytes()
    A = rng.standard_normal((4, 3))
    strong_svdp_holds(A, rng=5, vectors_per_pattern=2)
    patterns = np.array([p for p in np.ndindex(3, 3, 3) if p != (1, 1, 1)]) - 1
    X = np.repeat(patterns, 2, axis=0) * np.random.default_rng(5).uniform(0.1, 2.0, (52, 3))
    assert seen[-2].tobytes() == np.array([A @ x for x in X]).tobytes()
