"""Tests for the sign-variation counts s_minus / s_plus / sigma."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import signvar_reference as ref
from tpds import in_V, s_minus, s_plus, sigma, signs, strong_svdp_holds, svdp_check
from tpds.errors import NonFiniteInput, NotInV
from tpds.signvar import sign_counts


def s_plus_bruteforce(y, zero_tol=None):
    """Exhaustive +/-1 replacement oracle for ``s_plus`` (exponential)."""
    s = signs(y, zero_tol)
    zero_idx = np.flatnonzero(s == 0)
    if zero_idx.size == 0:
        return int(np.sum(s[1:] != s[:-1]))
    top = 0
    for mask in range(2 ** zero_idx.size):
        t = s.copy()
        for b, i in enumerate(zero_idx):
            t[i] = 1 if (mask >> b) & 1 else -1
        top = max(top, int(np.sum(t[1:] != t[:-1])))
    return top


NAN_MATRIX = [[2.0, 1.0], [1.0, np.nan]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: s_minus([1, np.nan, -1]),
        lambda: s_plus([1, -np.inf, 0, 1]),
        lambda: in_V([1, np.nan, -1]),
        lambda: svdp_check(NAN_MATRIX, [1, -1]),
        lambda: strong_svdp_holds(NAN_MATRIX, rng=0),
    ],
    ids=["s_minus", "s_plus", "in_V", "svdp_check", "strong_svdp_holds"],
)
def test_non_finite_entry_raises(call):
    with pytest.raises(NonFiniteInput):
        call()


def test_counts_on_mixed_vector():
    y = [1, 0, 2, -3, 0, 1.1]
    assert s_minus(y) == 2
    assert s_plus(y) == 4


def test_no_zeros_counts_agree():
    y = [1.0, -2.0, 3.0, -4.0]
    assert s_minus(y) == s_plus(y) == 3
    assert sigma(y) == 3


def test_all_zero_vector():
    assert s_minus([0, 0, 0]) == 0
    assert s_plus([0, 0, 0]) == 2
    assert not in_V([0, 0, 0])


def test_signs_integer_input_is_exact():
    assert signs([1, 0, -2]).tolist() == [1, 0, -1]
    # float input uses the default tolerance
    assert signs([1.0, 1e-12, -2.0]).tolist() == [1, 0, -1]


def test_signs_rejects_empty_and_negative_tol():
    with pytest.raises(ValueError):
        signs([])
    with pytest.raises(ValueError):
        signs([1.0, 2.0], zero_tol=-1.0)
    # a single-entry vector is fine (scalar systems)
    assert s_minus([3.0]) == s_plus([3.0]) == 0


def test_sigma_off_V_raises():
    # interior zero without a strict sign change on both sides
    with pytest.raises(NotInV):
        sigma([1, 0, 2])
    with pytest.raises(NotInV):
        sigma([0, 1, 2])


def test_sigma_near_boundary_of_V():
    # z(eps) = (-1, eps, 2): in V for eps = 0 (zero sits between a strict
    # sign change), sigma = 1 on both sides of the boundary
    assert sigma([-1, 0, 2]) == 1
    assert sigma([-1.0, 1e-3, 2.0]) == 1
    assert sigma([-1.0, -1e-3, 2.0]) == 1


def test_single_entry_V_membership():
    # one entry: both counts are 0, and only a nonzero entry is in V
    assert in_V([2.0]) and in_V([-1]) and sigma([3.0]) == 0
    assert not in_V([0.0])
    with pytest.raises(NotInV):
        sigma([0.0])


def test_exhaustive_V_membership_small_n():
    """in_V agrees with the defining conditions over all sign patterns."""
    for n in (2, 3, 4, 5, 6):
        for pat in itertools.product((-1, 0, 1), repeat=n):
            y = np.array(pat, dtype=float)
            expected = pat[0] != 0 and pat[-1] != 0 and all(
                not (pat[i] == 0 and pat[i - 1] * pat[i + 1] >= 0)
                for i in range(1, n - 1)
            )
            assert in_V(y) == expected, pat
            assert in_V(y) == (s_minus(y) == s_plus(y)), pat


def test_s_plus_matches_bruteforce_exhaustive():
    for n in (2, 3, 4, 5):
        for pat in itertools.product((-1, 0, 1), repeat=n):
            y = np.array(pat, dtype=float)
            assert s_plus(y) == s_plus_bruteforce(y), pat


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=8))
def test_s_plus_dp_equals_bruteforce(pattern):
    y = np.array(pattern, dtype=float)
    assert s_plus(y) == s_plus_bruteforce(y)


@given(st.lists(st.integers(-10, 10), min_size=2, max_size=8))
def test_counts_invariant_under_positive_scaling(ys):
    y = np.array(ys, dtype=float)
    assert s_minus(2.5 * y) == s_minus(y)
    assert s_plus(2.5 * y) == s_plus(y)


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=8))
def test_counts_invariant_under_negation(pattern):
    y = np.array(pattern, dtype=float)
    assert s_minus(-y) == s_minus(y)
    assert s_plus(-y) == s_plus(y)


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=8))
def test_count_ordering_and_range(pattern):
    y = np.array(pattern, dtype=float)
    n = len(pattern)
    assert 0 <= s_minus(y) <= s_plus(y) <= n - 1


@pytest.mark.parametrize("n", range(1, 8))
def test_sign_counts_every_pattern(n):
    S = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    sm, sp = sign_counts(S)
    want_sm, want_sp = ref.sign_counts(S)
    assert (sm.tolist(), sp.tolist()) == (want_sm.tolist(), want_sp.tolist())


def test_sign_counts_random_patterns():
    rng = np.random.default_rng(3)
    for n in range(8, 11):
        S = rng.integers(-1, 2, size=(3000, n))
        S[::7] = 0
        sm, sp = sign_counts(S)
        want_sm, want_sp = ref.sign_counts(S)
        assert (sm.tolist(), sp.tolist()) == (want_sm.tolist(), want_sp.tolist())


leading_shapes = st.one_of(
    st.just(()), st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 3))
)
sign_stacks = st.tuples(leading_shapes, st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.int64, shape[0] + (shape[1],), elements=st.integers(-1, 1))
)


@settings(deadline=None)  # the exhaustive oracle takes up to 2^12 replacements a row
@given(sign_stacks)
def test_sign_counts_any_stack_matches_reference_and_bruteforce(S):
    """The closed form keeps the leading shape and agrees row by row with
    the column-loop reference and with exhaustive +/-1 replacement."""
    sm, sp = sign_counts(S)
    assert np.shape(sm) == np.shape(sp) == S.shape[:-1]
    rows = S.reshape(-1, S.shape[-1])
    want_sm, want_sp = ref.sign_counts(rows)
    assert np.ravel(sm).tolist() == want_sm.tolist()
    assert np.ravel(sp).tolist() == want_sp.tolist()
    assert np.ravel(sp).tolist() == [s_plus_bruteforce(row) for row in rows]
