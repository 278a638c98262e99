"""Tests for the M / M+ classes and TNDS/TPDS system classification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import systems_reference as ref
from tpds import (
    Segment,
    exprlang,
    TimeVaryingSystem,
    classify_constant,
    classify_time_varying,
    in_M,
    in_M_plus,
    is_dominant_tridiagonal_TN,
    negative_minor_witness,
    random_tridiagonal_cooperative,
    shipped,
)
from tpds.errors import (
    DimensionMismatch,
    DomainError,
    EmptySegments,
    InvalidArgument,
    NonFiniteInput,
    OutOfInterval,
    SpecFileError,
    TpdsError,
)
from tpds import systems
from tpds.systems import SystemClass, _membership, offdiag_min


def test_in_M_and_M_plus():
    A = np.array([[-1.0, 2.0, 0.0], [3.0, 0.0, 1.0], [0.0, 4.0, -2.0]])
    assert in_M(A) and in_M_plus(A)
    B = A.copy()
    B[0, 2] = 0.5  # far off-diagonal
    assert not in_M(B)
    C = A.copy()
    C[1, 0] = -1.0  # negative subdiagonal
    assert not in_M(C)
    D = A.copy()
    D[0, 1] = 0.0  # nonnegative but not strict
    assert in_M(D) and not in_M_plus(D)
    assert in_M(np.array([[5.0]])) and in_M_plus(np.array([[5.0]]))


def test_offdiag_min():
    A = np.array([[-1.0, 2.0, 0.0], [3.0, 0.0, 1.0], [0.0, 4.0, -2.0]])
    assert offdiag_min(A) == 1.0
    assert offdiag_min(np.array([[7.0]])) == np.inf


def test_system_validation():
    entries = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(SpecFileError):
        TimeVaryingSystem(2, (1.0, 0.0), [Segment(0.0, 1.0, entries)])
    with pytest.raises(EmptySegments):
        TimeVaryingSystem(2, (0.0, 1.0), [])
    with pytest.raises(SpecFileError):  # gap between segments
        TimeVaryingSystem(
            2, (0.0, 1.0),
            [Segment(0.0, 0.4, entries), Segment(0.6, 1.0, entries)],
        )
    with pytest.raises(SpecFileError):  # wrong entry dimension
        TimeVaryingSystem(3, (0.0, 1.0), [Segment(0.0, 1.0, entries)])
    with pytest.raises(SpecFileError):  # claimed period does not hold
        TimeVaryingSystem.constant(np.eye(2), (0.0, 10.0), period=-1.0)


def test_period_check_rejects_aperiodic_entries():
    entries = [[0.0, exprlang.parse("t")], [1.0, 0.0]]
    with pytest.raises(SpecFileError):
        TimeVaryingSystem(2, (0.0, 10.0), [Segment(0.0, 10.0, entries)], period=1.0)


def _with_period(pieces, period):
    """A system of the given (t_start, t_end, entries) pieces, entries as
    expression strings or floats, built without a period and then given
    one, so that its period check has not run yet."""
    parse = lambda e: e if isinstance(e, float) else exprlang.parse(e)
    segments = [Segment(lo, hi, [[parse(e) for e in row] for row in entries]) for lo, hi, entries in pieces]
    sys = TimeVaryingSystem(len(pieces[0][2]), (pieces[0][0], pieces[-1][1]), segments)
    sys.period = period
    return sys


def _outcome(check):
    try:
        check()
    except TpdsError as exc:
        return type(exc), str(exc)
    return None


OSCILLATING = [["cos(t)", "1 + sin(t)"], ["2 + cos(t)", "sin(t)"]]
ON, OFF = [[-1.0, 1.0], [1.0, -1.0]], [[-2.0, 0.5], [0.5, -2.0]]
SWITCHED = [(k / 2, (k + 1) / 2, ON if k % 2 else OFF) for k in range(8)]  # period 1 on (0, 4)
PERIOD_CASES = {
    "periodic": ([(0.0, 20.0, OSCILLATING)], 2 * np.pi, None),
    "switched-periodic": (SWITCHED, 1.0, None),
    "aperiodic": ([(0.0, 10.0, [["t", 1.0], [1.0, 0.0]])], 1.0, SpecFileError),
    "switched-aperiodic": (SWITCHED[:-1] + [(3.5, 4.0, OFF)], 1.0, SpecFileError),
    "nan-in-a-later-segment": ([(0.0, 5.0, ON), (5.0, 10.0, [[np.nan, 1.0], [1.0, 0.0]])], 2.0, NonFiniteInput),
    # Python's float product overflows to inf without an error where cos(t) > -0.2
    "silent-overflow": ([(0.0, 20.0, [["1e308 * (2 + cos(t))", 1.0], [1.0, 0.0]])], 2 * np.pi, NonFiniteInput),
    "domain-error": ([(0.0, 10.0, [["sqrt(t - 3)", 1.0], [1.0, 0.0]])], 1.0, DomainError),
    "domain-error-in-a-later-segment": ([(0.0, 5.0, ON), (5.0, 10.0, [["sqrt(-t)", 1.0], [1.0, 0.0]])], 2.0, DomainError),
    "interval-equals-period": ([(0.0, 1.0, [["t", 1.0], [1.0, 0.0]])], 1.0, None),
    # OFF on a window between the 100 times: only its midpoint, 1.0005, sees it
    "switched-narrow-window": ([(0.0, 1.0, ON), (1.0, 1.001, OFF), (1.001, 3.0, ON)], 1.0, SpecFileError),
    # raised numpy's RuntimeWarning from the grid of the 100 times
    "infinite-period": (SWITCHED, np.inf, SpecFileError),
}


@pytest.mark.parametrize("pieces, period, error", PERIOD_CASES.values(), ids=PERIOD_CASES.keys())
def test_stacked_period_check_decides_as_the_per_time_loop(pieces, period, error):
    # no error, or the same error class and message, so at the same t
    sys = _with_period(pieces, period)
    expected = _outcome(lambda: ref.check_period(sys))
    assert (expected and expected[0]) is error
    assert _outcome(sys._check_period) == expected


def test_period_check_raises_the_first_domain_error_in_segment_order():
    # the loop met sqrt(-t) at t + T = 6.04 (in the second segment) before
    # sqrt(1 - t) failed in the first one at t = 1.01
    first, second = [["sqrt(1 - t)", 1.0], [1.0, 0.0]], [["sqrt(-t)", 1.0], [1.0, 0.0]]
    sys = _with_period([(0.0, 5.0, first), (5.0, 10.0, second)], 6.0)
    with pytest.raises(DomainError, match=r"^coefficient at t = 6\.040404040404041: math domain error$"):
        ref.check_period(sys)
    with pytest.raises(DomainError, match=r"^coefficient at t = 1\.0101010101010102: math domain error$"):
        sys._check_period()


def test_period_check_evaluates_every_sample_before_checking_any():
    # A(t) is inf for t < 1.2, and sqrt(5 - t) fails for t > 5: the loop
    # stopped at the first inf, the stacked check meets the domain error
    entries = [["1e308 * (3 - t)", 1.0], [1.0, "sqrt(5 - t)"]]
    sys = _with_period([(0.0, 10.0, entries)], 1.0)
    with pytest.raises(NonFiniteInput, match=r"^A\(t\) or A\(t\+T\) has a non-finite entry at t=0\.09090909090909091$"):
        ref.check_period(sys)
    with pytest.raises(DomainError, match=r"^coefficient at t = 5\.090909090909091: math domain error$"):
        sys._check_period()


def test_switched_segments():
    sys = shipped("switched").system
    assert sys.segment_index(0.1) == 0
    assert sys.segment_index(0.3) == 1
    assert sys.segment_index(0.9) == 2
    assert sys.segment_index(1.0) == 2  # right endpoint belongs to the last segment
    with pytest.raises(OutOfInterval):
        sys.segment_index(1.5)
    # middle segment is t on the off-diagonals
    B = sys.matrix_at(0.3)
    assert B[0, 1] == pytest.approx(0.3)
    assert B[0, 0] == 0.0


def test_a_time_just_before_a_late_first_segment_belongs_to_it():
    # the first segment starts 1e-12 after a, within the tiling slack; a
    # per-segment scan gave the last segment to -0.5e-12, before it
    sys = TimeVaryingSystem(
        2,
        (0.0, 1.0),
        [Segment(1e-12, 0.5, [[0.0, 1.0], [1.0, 0.0]]), Segment(0.5, 1.0, [[0.0, 2.0], [2.0, 0.0]])],
    )
    assert sys.segment_index(-0.5e-12) == 0
    assert sys.matrix_at(-0.5e-12)[0, 1] == 1.0
    assert [sys.segment_index(t) for t in (0.0, 0.25, 0.5, 1.0)] == [0, 0, 1, 1]
    with pytest.raises(OutOfInterval):
        sys.segment_index(-2e-12)


def test_classify_constant_verdicts():
    rng = np.random.default_rng(0)
    A = random_tridiagonal_cooperative(4, rng)
    cls = classify_constant(A)
    assert cls.is_TPDS and cls.delta == pytest.approx(offdiag_min(A))

    B = A.copy()
    B[0, 1] = 0.0
    cls_b = classify_constant(B)
    assert cls_b.is_TNDS and not cls_b.is_TPDS

    C = A.copy()
    C[0, 2] = 1.0
    cls_c = classify_constant(C)
    assert cls_c.verdict == "neither"
    assert any("a[1,3]" in msg for _, msg in cls_c.violations)

    D = A.copy()
    D[1, 0] = -0.5
    assert classify_constant(D).verdict == "neither"


def test_negative_minor_witness():
    A = np.array(
        [[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 1.0, 0.0],
         [0.5, 1.0, -1.0, 1.0], [0.0, 0.0, 1.0, -1.0]]
    )
    # a31 > 0: some 2x2 minor of exp(At) must go negative for small t
    out = negative_minor_witness(A, 3, 1)
    assert out is not None
    t, rows, cols, value = out
    assert value < 0
    # leading-order size is t * a31
    assert value == pytest.approx(-t * A[2, 0], rel=0.3)
    # transpose picture
    B = A.T.copy()
    out_t = negative_minor_witness(B, 1, 3)
    assert out_t is not None and out_t[3] < 0
    with pytest.raises(DimensionMismatch):
        negative_minor_witness(A, 2, 1)


def test_witness_propagators_match_expm(monkeypatch):
    # every Phi the witness takes from transition_matrix, against scipy's
    # expm: A with its largest entry at a31 > 0 stops at the first time
    # tried, A in M tries all four
    seen = []
    take = systems.transition_matrix
    monkeypatch.setattr(systems, "transition_matrix", lambda *args: seen.append(take(*args)) or seen[-1])
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        A = rng.standard_normal((n, n)) * 10 ** rng.uniform(-2, 3)
        if trial % 2:
            A = np.triu(np.tril(A, 1), -1)
            A[np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)] **= 2
        else:
            A[2, 0] = np.abs(A).max()
        seen.clear()
        out = negative_minor_witness(A, 3, 1)
        assert (out is None) == bool(trial % 2)
        assert len(seen) == (4 if trial % 2 else 1)
        scale = 1.0 / max(1.0, np.abs(A).max())
        for rec, tau in zip(seen, systems.WITNESS_T_GRID):
            assert rec.t0 == 0.0 and rec.t == tau
            expected = expm(A * scale * tau)
            assert np.abs(rec.phi - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("big", [1e300, 1.7e308])
def test_negative_minor_witness_of_a_huge_matrix(big):
    # the times shrink with 1 / max |a_ij|; Phi is taken for the scaled
    # matrix, whose RK4 stages would overflow unscaled
    A = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.5, 1.0, -1.0]])
    t, rows, cols, value = negative_minor_witness(A * big, 3, 1)
    assert (rows, cols) == ((2, 3), (1, 2)) and t == pytest.approx(0.1 / big, rel=1e-15)
    assert value == pytest.approx(negative_minor_witness(A, 3, 1)[3], rel=1e-13)


def test_classify_time_varying_verdicts():
    schwarz = shipped("schwarz3").system
    cls = classify_time_varying(schwarz, grid=300)
    assert cls.is_TPDS
    assert cls.delta == pytest.approx(0.5, abs=1e-3)

    switched = shipped("switched").system
    assert classify_time_varying(switched, grid=300).is_TPDS

    # off-diagonal that touches zero: TNDS only
    from tpds import exprlang

    e = exprlang.parse("1 + sin(t)")
    sys = TimeVaryingSystem(
        2, (0.0, 10.0), [Segment(0.0, 10.0, [[0.0, e], [e, 0.0]])]
    )
    # grid fine enough to resolve the quadratic dip of 1 + sin(t) below the
    # strictness floor near t = 3*pi/2
    weak = classify_time_varying(sys, grid=20000)
    assert weak.verdict == "TNDS_only"
    assert weak.violations

    # sign change in an off-diagonal: neither
    e2 = exprlang.parse("sin(t)")
    sys2 = TimeVaryingSystem(
        2, (0.0, 10.0), [Segment(0.0, 10.0, [[0.0, e2], [e2, 0.0]])]
    )
    assert classify_time_varying(sys2, grid=500).verdict == "neither"


def test_constant_system_wrapper():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = TimeVaryingSystem.constant(A, (0.0, 5.0), period=1.0)
    assert np.array_equal(sys.matrix_at(0.3), A)
    assert np.array_equal(sys.matrix_at(4.9), A)
    assert sys.period == 1.0


def classify_time_varying_reference(sys, grid, delta_floor=1e-6):
    """The per-sample loop over the reference in_M / offdiag_min that the
    stacked classify_time_varying replaced."""
    a = sys.interval[0]
    samples = []
    for seg in sys.segments:
        ts = np.linspace(seg.t_start, seg.t_end, grid, endpoint=False)
        samples += [(float(t), seg.matrix_at(t)) for t in ts[ts > a]]
    violations = [(t, "A(t) not in M") for t, At in samples if not ref.in_M(At)]
    if violations:
        return SystemClass("neither", None, violations)
    delta = np.inf
    for _, At in samples:
        delta = min(delta, ref.offdiag_min(At))
    if delta >= delta_floor:
        return SystemClass("TPDS", float(delta), [])
    low = [(t, "off-diagonal below delta floor") for t, At in samples if ref.offdiag_min(At) < delta_floor]
    return SystemClass("TNDS_only", None, low)


def test_classify_time_varying_matches_per_sample_reference():
    from tpds import exprlang, random_tpds_system

    def system(*entries):
        e = [[v if isinstance(v, float) else exprlang.parse(v) for v in row] for row in entries]
        return TimeVaryingSystem(len(e), (0.0, 10.0), [Segment(0.0, 4.0, e), Segment(4.0, 10.0, e)])

    cases = [
        (shipped("switched").system, "TPDS"),
        (shipped("schwarz3").system, "TPDS"),
        (shipped("sinusoidal2").system, "TNDS_only"),
        (random_tpds_system(5, rng=1), "TPDS"),
        (system([0.0, "(t - 2) ^ 2"], ["1 + sin(t)", 0.0]), "TNDS_only"),
        (system([0.0, "sin(t)", 0.0], [1.0, -1.0, 0.0], [0.0, 2.0, "t"]), "neither"),
        (system([0.0, 1.0, "0.1 * cos(t)"], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]), "neither"),
        (system([0.0, 1.0], [-5e-324, 0.0]), "neither"),
        (system(["t"]), "TPDS"),
        # the second segment starts 5e-13 before the first ends, within the
        # tiling tolerance: its first sample, t - 4 < 0 there, is its own,
        # though segment_index would give that time to the first segment
        (
            TimeVaryingSystem(
                2,
                (0.0, 10.0),
                [
                    Segment(0.0, 4.0, [[0.0, 1.0], [1.0, 0.0]]),
                    Segment(4.0 - 5e-13, 10.0, [[0.0, exprlang.parse("t - 4")], [1.0, 0.0]]),
                ],
            ),
            "neither",
        ),
    ]
    for sys, verdict in cases:
        for grid in (7, 1000):
            got = classify_time_varying(sys, grid=grid)
            assert got == classify_time_varying_reference(sys, grid)
            assert got.verdict == verdict or grid == 7
            assert type(got.delta) in (float, type(None))


def test_classify_time_varying_non_finite_sample_raises():
    from tpds import exprlang

    e = exprlang.parse("t * 1e308 * 10")
    sys = TimeVaryingSystem(2, (0.0, 1.0), [Segment(0.0, 1.0, [[-1.0, e], [1.0, -1.0]])])
    with pytest.raises(NonFiniteInput, match="t=0.18"):
        classify_time_varying(sys)


def test_periodic_system_with_nan_coefficient_raises():
    # a nan difference compares False against the period tolerance
    with pytest.raises(NonFiniteInput):
        TimeVaryingSystem.constant([[0.0, 1.0], [1.0, np.nan]], (0.0, 10.0), period=1.0)
    TimeVaryingSystem.constant([[0.0, 1.0], [1.0, 2.0]], (0.0, 10.0), period=1.0)


@pytest.mark.parametrize(
    "n, where",
    [
        (n, where)
        for n in (2, 3, 7, 8)
        for where in ("diagonal", "superdiagonal", "subdiagonal", "far")
        if n >= 3 or where != "far"
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constant_verdicts_reject_non_finite(n, where, bad):
    # a dominant cooperative tridiagonal: every verdict would be positive
    A = np.diag(np.full(n, 3.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    k = n // 2
    at = {"diagonal": (k, k), "superdiagonal": (k - 1, k), "subdiagonal": (k, k - 1), "far": (0, n - 1)}
    A[at[where]] = bad
    for verdict in (classify_constant, in_M, in_M_plus, is_dominant_tridiagonal_TN):
        with pytest.raises(NonFiniteInput):
            verdict(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(2, 0), (2, 2)])
def test_negative_minor_witness_rejects_non_finite(bad, at):
    A = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.5, 1.0, -1.0]])
    A[at] = bad
    with pytest.raises(NonFiniteInput):
        negative_minor_witness(A, 3, 1)


@pytest.mark.parametrize("A", [np.zeros((0, 0)), np.zeros((2, 3)), np.ones(3), np.float64(1.0)])
def test_constant_verdicts_reject_non_square_and_empty(A):
    for verdict in (classify_constant, in_M, in_M_plus):
        with pytest.raises(DimensionMismatch):
            verdict(A)


# entries that sit on the M rule's edges: signed zeros, the smallest
# subnormals of either sign, and +-1, mixed with ordinary floats
M_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]) | st.floats(-1e3, 1e3)


@st.composite
def membership_stacks(draw):
    """A (k, n, n) stack, n = 1..8. Each slice has its far entries set to
    signed zeros or not, and its off-diagonals made nonnegative or not, so
    that every verdict of the M rule is drawn."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    As = np.array(draw(st.lists(M_ENTRIES, min_size=k * n * n, max_size=k * n * n))).reshape(k, n, n)
    d = abs(np.subtract.outer(np.arange(n), np.arange(n)))
    far, near, m = d > 1, d == 1, int((d > 1).sum())
    for A in As:
        if draw(st.booleans()):
            A[far] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=m, max_size=m))
            if draw(st.booleans()):
                A[near] = np.abs(A[near])
    return As


@settings(max_examples=300, deadline=None)
@given(membership_stacks())
def test_membership_matches_per_entry_reference(As):
    bad, low = _membership(As)
    for k, A in enumerate(As):
        for got, want in [
            (in_M(A), ref.in_M(A)),
            (in_M_plus(A), ref.in_M_plus(A)),
            (offdiag_min(A), ref.offdiag_min(A)),
            (classify_constant(A), ref.classify_constant(A)),
        ]:
            assert repr(got) == repr(want) and type(got) is type(want)
        assert type(classify_constant(A).delta) is type(ref.classify_constant(A).delta)
        # the stacked kernel answers each slice as the single-matrix calls do
        assert bool(bad[k].any()) is not ref.in_M(A)
        assert float(low[k]).hex() == float(ref.offdiag_min(A)).hex()


@pytest.mark.parametrize("grid", [-1, 2.5, True, "10", None])
def test_classify_time_varying_grid_must_be_an_integer_at_least_0(grid):
    sys = TimeVaryingSystem.constant([[0.0, 1.0], [1.0, 0.0]], (0.0, 1.0))
    with pytest.raises(InvalidArgument, match="grid must be an integer >= 0"):
        classify_time_varying(sys, grid=grid)
    assert classify_time_varying(sys, grid=np.int64(3)).verdict == "TPDS"


@pytest.mark.parametrize(
    "A, i, j",
    [
        (np.ones((3, 4)), 3, 1),  # not square
        (np.ones(3), 3, 1),  # not a matrix
        (np.eye(3), 5, 1),  # i beyond n
        (np.eye(3), 0, 2),  # i below 1: read row -1 and answered
    ],
)
def test_negative_minor_witness_rejects_bad_shapes_and_indices(A, i, j):
    with pytest.raises(DimensionMismatch):
        negative_minor_witness(A, i, j)


@pytest.mark.parametrize("grid", [0, 1])
def test_classify_time_varying_without_samples_raises(grid):
    # grid 0 samples nothing and grid 1 only the excluded left endpoint; an
    # empty stack of samples must not read as TPDS with delta = inf
    sys = TimeVaryingSystem.constant([[0.0, -1.0], [1.0, 0.0]], (0.0, 1.0))
    with pytest.raises(EmptySegments, match="no sample"):
        classify_time_varying(sys, grid=grid)
    assert classify_time_varying(sys, grid=2).verdict == "neither"
    sys.segments = []  # the same check covers a system stripped of its segments
    with pytest.raises(EmptySegments, match="no sample"):
        classify_time_varying(sys, grid=2)
