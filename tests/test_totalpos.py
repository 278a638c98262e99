"""Tests for minor enumeration, classification, factorization and SVDP."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import geb_reference
import minor_reference
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
    random_tridiagonal_cooperative,
    strong_svdp_holds,
    svdp_check,
)
from tpds.errors import (
    DimensionMismatch,
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
    # even though no minor condition can (2x2 minors all vanish), so the
    # theorem, which needs full column rank, does not decide it
    A = np.array([[2.0, 2.0], [1.0, 1.0]])
    assert ref.strong_svdp_reference(A, rng=0)
    assert not classify(A).is_SSR
    with pytest.raises(RankDeficient, match=r"^strong_svdp_holds: the 2 x 2 matrix is not SSR and its columns are linearly dependent$"):
        strong_svdp_holds(A)


def test_strong_svdp_on_random_tp():
    A = random_tp(3, np.random.default_rng(5))
    assert strong_svdp_holds(A) is True
    assert strong_svdp_holds(A[:, :2]) is True and strong_svdp_holds(A[:2]) is True  # tall and wide


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


def test_the_rank_rules_read_what_a_relative_cutoff_misread():
    # np.linalg.matrix_rank, whose cutoff is relative to the largest
    # singular value, read both as of deficient column rank. det A is
    # exactly twice the float 1e308, so A has full rank and, not SSR, fails the bound; the
    # order-2 minors of U, 1e300, 2e300 and 1, all lie beyond their
    # thresholds and share one sign
    A = [[1e308, -1e308], [1.0, 1.0]]
    assert minor_reference.exact_rank_det(A) == (2, 2 * Fraction(1e308))
    assert strong_svdp_holds(A) is False
    assert column_set_equivalence([[1e300, 1e300], [1, 2], [1, 3]], rng=0) == (True, True)


def test_column_set_equivalence_reads_rank_by_the_minor_thresholds():
    # of full rank exactly, but its one nonzero order-2 minor, about 1e-12,
    # lies within its threshold of about 1e-10; matrix_rank read rank 2
    U = [[1.0, 1.0], [1.0, 1.0 + 1e-12], [0.0, 0.0]]
    assert minor_reference.exact_rank_det(U)[0] == 2
    with pytest.raises(RankDeficient, match="^columns are linearly dependent$"):
        column_set_equivalence(U, rng=0)


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


SIGN_ENTRIES = [-2.0, -1.0, -1e-12, -0.0, 0.0, 1e-12, 1e-3, 1.0, 3.0]


@settings(max_examples=400, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    data=st.data(),
    zero_tol=st.sampled_from([None, 0.0, 1e-3, 5.0]),
)
def test_svdp_check_matches_the_padded_count(m, n, data, zero_tol):
    # s_minus(x) and s_plus(Ax) give the padded count's ints and verdict on
    # every shape, square or not, and raise where it raised: x's nan first,
    # then a non-finite Ax
    entries = st.sampled_from(SIGN_ENTRIES + [1e308, -1e308, np.nan])
    A = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)))
    x = np.array(data.draw(st.lists(st.sampled_from(SIGN_ENTRIES + [np.nan]), min_size=n, max_size=n)))
    if not np.any(x != 0):
        x[0] = 1.0  # a zero x raises ZeroVector before any count
    got = outcome(lambda: svdp_check(A, x, zero_tol))
    assert got == outcome(lambda: ref.svdp_check_reference(A, x, zero_tol))
    if not isinstance(got[0], str):
        assert [type(v) for v in got] == [int, int, bool]


def dominance_loop(A):
    """is_dominant_tridiagonal_TN's verdict by its row loop, on a checked
    tridiagonal A."""
    a, b, c = np.diag(A), np.diag(A, 1), np.diag(A, -1)
    n = len(a)
    if np.any(b < 0) or np.any(c < 0):
        return False
    for i in range(n):
        bi = b[i] if i < n - 1 else 0.0
        ci = c[i - 1] if i > 0 else 0.0
        if a[i] < bi + ci:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_dominant_tridiagonal_matches_the_row_loop(n, data):
    # one array comparison, a >= (b, 0) + (0, c), decides as
    # the loop did, on ties and on sums that round
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1e16, 2.0])
    A = np.diag(data.draw(st.lists(values, min_size=n, max_size=n)))
    if n > 1:
        A += np.diag(data.draw(st.lists(values, min_size=n - 1, max_size=n - 1)), 1)
        A += np.diag(data.draw(st.lists(values, min_size=n - 1, max_size=n - 1)), -1)
    assert is_dominant_tridiagonal_TN(A) is dominance_loop(A)


def svdp_family(name, n, seed):
    if name == "tp":
        return random_tp(n, rng=seed)
    if name == "tn":
        return random_tn(n, rng=seed)
    if name == "nonsingular":
        return random_nonsingular(n, rng=seed)
    if name == "exp":
        return expm(random_tridiagonal_cooperative(n, rng=seed))
    return np.abs(np.random.default_rng(seed).standard_normal((n + 1, n)))  # tall


SVDP_VARIANTS = {"A": lambda A: A, "negated": lambda A: -A, "reversed": lambda A: A[::-1]}


def dense_violation(A, draws=100_000):
    """A violating x among seeded normal draws, by the reference counts at
    the default zero tolerance, or None."""
    X = np.random.default_rng(0).standard_normal((draws, A.shape[1]))
    Y = X @ A.T
    sign = lambda V: np.where(np.abs(V) <= 1e-9, 0, np.sign(V)).astype(int)
    bad = np.flatnonzero(ref.sign_counts(sign(Y))[1] > ref.sign_counts(sign(X))[0])
    return X[bad[0]] if bad.size else None


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["tp", "tn", "nonsingular", "exp", "tall"]),
    variant=st.sampled_from(sorted(SVDP_VARIANTS)),
    n=st.integers(2, 5),
    seed=st.integers(0, 9),
)
def test_strong_svdp_agrees_with_the_sampled_oracle(name, variant, n, seed):
    # the rule is never True where the per-vector loop finds a violation,
    # and False wherever it does; where it is False and the loop finds
    # none, a minor lies within its threshold or a denser search finds the
    # violation the loop missed; all 600 inputs the strategy can draw pass
    A = SVDP_VARIANTS[variant](svdp_family(name, n, seed))
    got = strong_svdp_holds(A)
    sampled = ref.strong_svdp_reference(A, rng=seed, vectors_per_pattern=4)
    assert got is True or got is False
    assert sampled or not got
    if got is False and sampled:
        band = any((np.abs(d) <= thr).any() for d, thr in (totalpos._minors(A, k) for k in range(1, n + 1)))
        x = None if band else dense_violation(A)
        assert band or (x is not None and not svdp_check(A, x)[2])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([-2.0, -1.0, -1e-12, -0.0, 0.0, 1e-12, 1.0, 2.0]), st.sampled_from([0.0, 1e-12, 1.5])),
        min_size=1,
        max_size=6,
    )
)
def test_one_strict_sign_decides_as_the_three_tests_it_replaced(pairs):
    # classify's SSR test and column_set_equivalence's common sign, as they
    # were written, on minors at, inside and beyond their thresholds
    d, thr = (np.array([v]) for v in zip(*pairs))
    ssr = not ((np.abs(d) <= thr).any() or not ((d > 0).all() or (d < 0).all()))
    same_sign = bool(np.all(np.abs(d) > thr) and (np.all(d > 0) or np.all(d < 0)))
    assert totalpos._one_strict_sign(d, thr) is ssr is same_sign


# (matrix, x): the sampler said True on each, yet x breaks the bound
SVDP_SAMPLER_MISSES = {
    "random_nonsingular(2, rng=9)": (random_nonsingular(2, rng=9), [0.32919, 0.94426]),
    "tall 3x2, rng=5": (svdp_family("tall", 2, 5), [-0.85821, 0.51329]),
    "tall 3x2, rng=9": (svdp_family("tall", 2, 9), [-0.36816, 0.92976]),
}


@pytest.mark.parametrize("case", sorted(SVDP_SAMPLER_MISSES))
def test_strong_svdp_finds_the_violations_the_sampler_missed(case):
    A, x = SVDP_SAMPLER_MISSES[case]
    for B in (A, -A, A[::-1]):
        s_minus_x, s_plus_y, holds = svdp_check(B, x)
        assert not holds and s_plus_y == s_minus_x + 1
        assert ref.strong_svdp_reference(B, rng=0) is True  # the sampler's miss
        assert strong_svdp_holds(B) is False


@pytest.mark.parametrize("n, seed", [(3, 9), (4, 0)])
def test_a_nonsingular_matrix_with_a_zero_minor_fails_the_bound(n, seed):
    # an order-2 minor is exactly 0.0, so A is not SSR and, being
    # nonsingular, fails the bound for some x, though the sampler finds none
    A = random_tn(n, rng=seed)
    assert 0.0 in totalpos._minors(A, 2)[0] and np.linalg.matrix_rank(A) == n
    assert ref.strong_svdp_reference(A, rng=0) is True
    assert strong_svdp_holds(A) is False


@pytest.mark.parametrize("n", [8, 12])
def test_strong_svdp_certifies_the_symmetries_of_a_tp_matrix(n):
    # classify reads most row-reversed random_tp past n = 5 as not SSR,
    # their tiny minors inside the threshold; each is exactly SSR, and at
    # n = 12 classify could not enumerate them at all
    A = random_tp(n, rng=0)
    for B in (A, -A, A[::-1], -A[::-1]):
        assert strong_svdp_holds(B) is True
    if n > totalpos.EXHAUSTIVE_LIMIT:
        with pytest.raises(SizeLimitExceeded):
            classify(A[::-1])
    else:
        assert not classify(A[::-1]).is_SSR


def test_strong_svdp_refusals():
    with pytest.raises(SizeLimitExceeded):
        strong_svdp_holds(np.eye(11))  # TN, not TP, and past the enumeration cap
    with pytest.raises(SizeLimitExceeded, match=r"^11 x 2 matrix; exhaustive enumeration is capped at n=10$"):
        strong_svdp_holds(np.ones((11, 2)))
    with pytest.raises(RankDeficient):
        strong_svdp_holds(np.random.default_rng(0).standard_normal((2, 3)))  # wide and not SSR
    with pytest.raises(NonFiniteInput, match=r"^an order-2 minor or its threshold is nan or infinite$"):
        strong_svdp_holds([[1e200, 1e200, 1e200], [1e200, 2e200, 1e200], [1e200, 1e200, 2e200]])
    assert strong_svdp_holds(np.eye(10)) is False  # nonsingular, zero entries
    assert strong_svdp_holds([[-3.0]]) is True


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
    """The batched check forms U @ c exactly as the per-trial loop did, so
    a sign at the zero tolerance cannot flip."""
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
