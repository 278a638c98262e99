"""Tests for multiplicative and additive compound matrices."""

import numpy as np
import pytest
from scipy.linalg import expm

import compound_reference as ref
from tpds import add_compound, index_subsets, is_metzler, metzler_compound_profile, mult_compound
from tpds.errors import DimensionMismatch, InvalidArgument, NonFiniteInput, OrderOutOfRange


def expected_add_compound_3(a):
    """Second additive compound of a 3x3 matrix, written out entrywise."""
    return np.array(
        [
            [a[0, 0] + a[1, 1], a[1, 2], -a[0, 2]],
            [a[2, 1], a[0, 0] + a[2, 2], a[0, 1]],
            [-a[2, 0], a[1, 0], a[1, 1] + a[2, 2]],
        ]
    )


def expected_add_compound_4_order2(a):
    return np.array(
        [
            [a[0, 0] + a[1, 1], a[1, 2], a[1, 3], -a[0, 2], -a[0, 3], 0],
            [a[2, 1], a[0, 0] + a[2, 2], a[2, 3], a[0, 1], 0, -a[0, 3]],
            [a[3, 1], a[3, 2], a[0, 0] + a[3, 3], 0, a[0, 1], a[0, 2]],
            [-a[2, 0], a[1, 0], 0, a[1, 1] + a[2, 2], a[2, 3], -a[1, 3]],
            [-a[3, 0], 0, a[1, 0], a[3, 2], a[1, 1] + a[3, 3], a[1, 2]],
            [0, -a[3, 0], a[2, 0], -a[3, 1], a[2, 1], a[2, 2] + a[3, 3]],
        ]
    )


def expected_add_compound_4_order3(a):
    return np.array(
        [
            [a[0, 0] + a[1, 1] + a[2, 2], a[2, 3], -a[1, 3], a[0, 3]],
            [a[3, 2], a[0, 0] + a[1, 1] + a[3, 3], a[1, 2], -a[0, 2]],
            [-a[3, 1], a[2, 1], a[0, 0] + a[2, 2] + a[3, 3], a[0, 1]],
            [a[3, 0], -a[2, 0], a[1, 0], a[1, 1] + a[2, 2] + a[3, 3]],
        ]
    )


def test_index_subsets_lexicographic():
    assert index_subsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert index_subsets(3, 3) == [(1, 2, 3)]


def test_mult_compound_extremes():
    A = np.random.default_rng(0).standard_normal((4, 4))
    assert np.allclose(mult_compound(A, 1).entries, A)
    full = mult_compound(A, 4).entries
    assert full.shape == (1, 1)
    assert full[0, 0] == pytest.approx(np.linalg.det(A))
    eye2 = mult_compound(np.eye(4), 2).entries
    assert np.allclose(eye2, np.eye(6))


def test_compound_entry_addressing():
    A = np.arange(16, dtype=float).reshape(4, 4)
    C = mult_compound(A, 2)
    alpha, beta = (1, 3), (2, 4)
    sub = A[np.ix_([0, 2], [1, 3])]
    assert C.entry(alpha, beta) == pytest.approx(np.linalg.det(sub))


def test_cauchy_binet():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5))
        for p in (2, 3):
            lhs = mult_compound(A @ B, p).entries
            rhs = mult_compound(A, p).entries @ mult_compound(B, p).entries
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_add_compound_formula_n3():
    A = np.random.default_rng(2).standard_normal((3, 3))
    assert np.allclose(add_compound(A, 2).entries, expected_add_compound_3(A))


def test_add_compound_formulas_n4():
    A = np.random.default_rng(3).standard_normal((4, 4))
    assert np.allclose(add_compound(A, 2).entries, expected_add_compound_4_order2(A))
    assert np.allclose(add_compound(A, 3).entries, expected_add_compound_4_order3(A))


def test_add_compound_trace_order_n():
    A = np.random.default_rng(4).standard_normal((4, 4))
    assert add_compound(A, 4).entries[0, 0] == pytest.approx(np.trace(A))


def test_additivity_exact_on_integers():
    rng = np.random.default_rng(5)
    A = rng.integers(-5, 6, size=(4, 4)).astype(float)
    B = rng.integers(-5, 6, size=(4, 4)).astype(float)
    for p in (1, 2, 3, 4):
        lhs = add_compound(A + B, p).entries
        rhs = add_compound(A, p).entries + add_compound(B, p).entries
        assert np.array_equal(lhs, rhs)


def test_add_compound_is_derivative_of_mult_compound():
    A = np.random.default_rng(6).standard_normal((4, 4))
    n = 4
    for p in (2, 3):
        m = len(index_subsets(n, p))
        errs = []
        for h in (1e-4, 1e-5):
            diff = (mult_compound(np.eye(n) + h * A, p).entries - np.eye(m)) / h
            errs.append(np.abs(diff - add_compound(A, p).entries).max())
        assert errs[0] < 1e-2 and errs[1] < errs[0]


def test_exponential_link():
    A = np.random.default_rng(7).standard_normal((4, 4)) * 0.5
    for p in (2, 3):
        lhs = expm(add_compound(A, p).entries)
        rhs = mult_compound(expm(A), p).entries
        assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-9)


def test_metzler_profile_propagation():
    # tridiagonal Metzler: every additive compound is Metzler
    A = np.array(
        [[-1.0, 2.0, 0.0, 0.0], [1.0, -2.0, 3.0, 0.0],
         [0.0, 2.0, -1.0, 1.0], [0.0, 0.0, 4.0, -3.0]]
    )
    profile = metzler_compound_profile(A)
    assert all(ok for _, ok in profile)
    # a positive far-off-diagonal entry breaks Metzler at order 2
    B = A.copy()
    B[0, 2] = 1.0
    profile_b = dict(metzler_compound_profile(B))
    assert is_metzler(B) and not profile_b[2]


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_metzler_checks_reject_non_finite_entries(bad):
    # nan >= 0 is False, so a nan used to read as "not Metzler" at order 1
    # and vanish from the order-2 compound's off-diagonal
    A = np.array([[0.0, bad], [1.0, 0.0]])
    with pytest.raises(NonFiniteInput):
        is_metzler(A)
    with pytest.raises(NonFiniteInput):
        metzler_compound_profile(A)


def test_is_metzler_rejects_a_vector():
    with pytest.raises(DimensionMismatch):
        is_metzler([1.0, -2.0])


def test_order_out_of_range():
    # an order below 1 is not a count (the rule compound_transition keeps);
    # it raised OrderOutOfRange before the order had one rule
    A = np.eye(3)
    for op in (mult_compound, add_compound):
        with pytest.raises(OrderOutOfRange, match=r"^order 4 outside 1\.\.3$"):
            op(A, 4)
        for bad in (0, -1):
            with pytest.raises(InvalidArgument, match=f"^p must be an integer >= 1, got {bad}$"):
                op(A, bad)


def test_add_compound_matches_reference_loop():
    """The precomputed gather equals the per-entry label loop bit for bit,
    signed zeros and entries near overflow included."""
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for p in range(1, n + 1):
            for scale in (1.0, 1e300):
                A = scale * rng.standard_normal((n, n))
                A[rng.random((n, n)) < 0.2] = -0.0
                for B in (A, A.T, A - np.diag(np.diag(A)) - 0.0 * np.eye(n)):
                    B = B.copy()
                    B[np.diag_indices(n)] = np.where(rng.random(n) < 0.5, -0.0, np.diag(B))
                    got = add_compound(B, p)
                    assert got.entries.tobytes() == ref.add_compound(B, p).tobytes(), (n, p, scale)
                    assert got.index_map == index_subsets(n, p)
