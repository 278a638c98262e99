"""Minor enumeration and classification of TN / TP / SSR / oscillatory matrices.

Index tuples addressing minors are 1-based and strictly increasing, matching
the usual mathematical convention A(alpha|beta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFiniteInput,
    NotTN,
    NotTridiagonal,
    PivotBreakdown,
    RankDeficient,
    SizeLimitExceeded,
    SpectralViolation,
    ZeroVector,
)
from .signvar import _allocatable, _check_finite, _checked_count, _real_array, _shown, _sign_rows, s_minus, s_plus, sign_counts

EXHAUSTIVE_LIMIT = 10
MINOR_REL_TOL = 1e-10
GEB_ZERO_TOL = 1e-12  # Neville pivots and GEB structure entries this small count as zero
SPECTRUM_IMAG_TOL, SPECTRUM_ZERO_TOL = 1e-8, 1e-8  # see _ordered_spectrum
MINOR_CHUNK = 1024  # submatrices gathered and evaluated per batch
LAPLACE_MIN_MINORS = 128  # an order 3-6 of more minors than this takes the Laplace level


def _as_matrix(A, name, square=True, finite=True):
    """The one matrix rule: A as a nonempty 2-d float array, square and
    finite unless told otherwise. A complex or text entry raises
    InvalidArgument (``signvar._real_array``), any other shape
    DimensionMismatch, and a nan or infinite entry, where the matrix must
    be finite, NonFiniteInput."""
    A = _real_array(A, f"{name}: the matrix")
    if A.ndim != 2 or A.size == 0 or (square and A.shape[0] != A.shape[1]):
        raise DimensionMismatch(f"{name} expects a nonempty {'square ' if square else ''}matrix")
    if finite and not np.isfinite(A).all():
        raise NonFiniteInput(f"{name}: the matrix has a nan or infinite entry")
    return A


@lru_cache(maxsize=None)
def _bands(n):
    """Masks of the far (|i - j| > 1) and near (|i - j| == 1) entries of n x n."""
    d = abs(np.subtract.outer(np.arange(n), np.arange(n)))
    far, near = d > 1, d == 1
    far.flags.writeable = near.flags.writeable = False  # shared through the cache
    return far, near


@lru_cache(maxsize=64)
def _subsets(n, k):
    """Lexicographically ordered k-subsets of range(n), one per row; cached
    and read-only, since every caller of one (n, k) shares the table."""
    table = np.array(list(combinations(range(n), k)), dtype=np.intp)
    table.flags.writeable = False
    return table


def _minors(A, k, lower=None):
    """Every order-k minor of A with its scale-aware zero threshold.

    Returns ``(d, thr)``, both C(m,k) x C(n,k) for an m x n matrix A: row
    subsets in lexicographic order down the first axis, column subsets in
    lexicographic order along the second. ``thr`` is MINOR_REL_TOL times
    the product of the submatrix's row max-norms, taken left to right.
    ``A[:, cols]`` and its row max-norms are gathered once per order;
    minors are then evaluated in batches of whole row subsets, each batch
    about MINOR_CHUNK minors, or one row subset when there are more column
    subsets than that, as a strided (rows, cols, k, k) view of the
    gathered rows. ``lower``, when given, maps the orders below k to
    their ``d`` tables of the same square A: an order 3 to 6 with more
    than LAPLACE_MIN_MINORS minors (``_by_laplace``) is then one Laplace
    level over them (``_laplace``) instead of the closed form or LU. At
    order 3 those are the closed form's own products and sums, so every
    float is the closed form's. At orders 4 to 6 they differ from LU's by rounding:
    within 1e-11 of the threshold's row product in the tests (1e-14
    measured), unless LU's own error is larger. They serve for comparisons
    with ``thr``; ``classify`` reports no float of them.
    Raises NonFiniteInput when a minor or threshold comes out nan or
    infinite, from a non-finite entry of A or from overflow.
    """
    rows = _subsets(A.shape[0], k)
    cols = _subsets(A.shape[1], k)
    sub = A[:, cols]  # sub[i, c, j] = A[i, cols[c, j]]
    rowmax = np.abs(sub).max(axis=2)  # max-norm of row i over column subset c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        if lower is not None and _by_laplace(A.shape[0], k):
            d = _laplace(lower, A.shape[0], k)
        else:
            d = np.empty((len(rows), len(cols)))
            batch = max(1, MINOR_CHUNK // len(cols))
            for start in range(0, len(rows), batch):
                r = rows[start : start + batch]
                d[start : start + len(r)] = _stacked_det(sub[r].transpose(0, 2, 1, 3))
        scale = rowmax[rows[:, 0]]
        for i in range(1, k):
            scale = scale * rowmax[rows[:, i]]
        thr = MINOR_REL_TOL * scale
    if not (np.isfinite(d).all() and np.isfinite(thr).all()):
        raise NonFiniteInput(f"an order-{k} minor or its threshold is nan or infinite")
    return d, thr


_LAPLACE_SPLIT = {3: 1, 4: 2, 5: 2, 6: 3}  # order k -> rows p of the first factor of its Laplace terms


def _by_laplace(n, k):
    """Whether ``_minors``, given the lower tables of an n x n matrix,
    takes its order-k minors from the Laplace level: for k = 3 to 6 with
    more than LAPLACE_MIN_MINORS minors, the measured crossover against
    LU (n = 6, order 4: 225 minors in 0.6 of LU's time; n = 5, order 4:
    25 minors in 1.7 times it). So LU keeps orders 7 to 10 and the tables
    of 25 to 49 minors (n = 5, 6, 7 at orders 4, 5, 6), and order 3 of
    n <= 5 keeps the closed form. Order 2 keeps its closed form at every
    n: the level took 1.24 to 1.29 times its time at n = 6 to 8, for the
    same floats."""
    return k in _LAPLACE_SPLIT and comb(n, k) ** 2 > LAPLACE_MIN_MINORS


@lru_cache(maxsize=32)
def _laplace_index(n, k):
    """Index tables of the Laplace level of order k over range(n).

    Returns ``(lo, hi, sign)``. Row t of ``lo`` and ``hi`` is the p-subset
    J = ``_subsets(k, p)[t]`` of positions, p = ``_LAPLACE_SPLIT[k]``, and
    column s the k-subset ``_subsets(n, k)[s]``: ``lo[t, s]`` is the
    lexicographic rank of the p entries at J among the p-subsets of
    range(n), and ``hi[t, s]`` that of the k - p others among the
    (k - p)-subsets. Row 0 splits off the first p entries. ``sign[t]`` is
    (-1)^(1 + ... + p + the 1-based positions in J). The ranks come from
    one 2^n lookup by bitmask; read-only, like ``_subsets``, and cached for
    all 17 pairs (n, k) that ``_by_laplace`` takes up to EXHAUSTIVE_LIMIT,
    so that a process classifying every n from 6 to 10 builds each once.
    """
    p = _LAPLACE_SPLIT[k]
    positions = _subsets(k, p)
    bits = 1 << _subsets(n, k)
    mask_lo = bits.T[positions].sum(axis=1)
    mask_hi = bits.sum(axis=1) - mask_lo
    rank = np.zeros(1 << n, dtype=np.intp)
    for size in (p, k - p):
        rank[(1 << _subsets(n, size)).sum(axis=1)] = np.arange(comb(n, size))
    sign = 1 - 2 * ((p * (p - 1) // 2 + positions.sum(axis=1)) % 2)
    tables = rank[mask_lo], rank[mask_hi], sign
    for table in tables:
        table.flags.writeable = False
    return tables


def _laplace(lower, n, k):
    """Every order-k minor of an n x n matrix from its minors of orders p
    and k - p (``lower``), by the generalized Laplace expansion along the
    first p rows of each row subset R, one level deep:
    det A[R|C] = sum over J of sign(J) d_p[R_lo, C_J] d_(k-p)[R_hi, C minus C_J],
    terms added in the order of J. Each term is two gathers of whole
    tables and a product, with no LU; the tables are built column subset
    by row subset, so that each gather copies whole rows, and transposed
    at the end. At p = 1 (order 3, ``lower[1]`` holding A's entries) the
    terms are the products of ``_stacked_det``'s closed form, added in the
    same order, so the values are the closed form's bit for bit, signed
    zeros included."""
    p = _LAPLACE_SPLIT[k]
    lo, hi, sign = _laplace_index(n, k)
    # first[c, r] = d_p[R_lo of row subset r, column p-subset c]; rest likewise
    first, rest = lower[p][lo[0]].T.copy(), lower[k - p][hi[0]].T.copy()
    d = first[lo[0]]
    d *= rest[hi[0]]
    a, b = np.empty_like(d), np.empty_like(d)
    for t in range(1, len(sign)):
        np.take(first, lo[t], axis=0, out=a)
        np.take(rest, hi[t], axis=0, out=b)
        a *= b
        if sign[t] > 0:
            d += a
        else:
            d -= a
    return d.T.copy()


def _stacked_det(s):
    """Determinants of a (..., k, k) stack: closed forms up to k = 3, the
    same products and sums as the scalar formulas, and LU
    (``np.linalg.det``) above; ``_minors`` is the one caller, for every
    order it does not take from the Laplace level (``_laplace``)."""
    k = s.shape[-1]
    if k == 1:
        return s[..., 0, 0]
    if k == 2:
        return s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
    if k == 3:
        return (
            s[..., 0, 0] * (s[..., 1, 1] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 1])
            - s[..., 0, 1] * (s[..., 1, 0] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 0])
            + s[..., 0, 2] * (s[..., 1, 0] * s[..., 2, 1] - s[..., 1, 1] * s[..., 2, 0])
        )
    return np.linalg.det(s)


def _one_strict_sign(d, thr):
    """Whether the minors d of one order are all beyond their zero
    thresholds thr (>= 0) and of one sign: the test of strict sign
    regularity at that order. The first minor's sign says which sign that
    must be, so one comparison of the tables decides."""
    return bool((d > thr).all() if d.flat[0] > 0 else (d < -thr).all())


def minor(A, alpha, beta):
    """Determinant of the submatrix selected by 1-based index tuples.

    Each index must be an integer >= 1, not a bool (InvalidArgument, by
    the count rule, otherwise), and the tuples equally long, nonempty,
    strictly increasing and within the matrix (DimensionMismatch
    otherwise).
    """
    A = _as_matrix(A, "minor", square=False, finite=False)
    try:
        alpha = tuple(alpha)
        beta = tuple(beta)
    except TypeError:
        raise InvalidArgument(f"minor: index tuples must be sequences, got {_shown(alpha)}, {_shown(beta)}") from None
    if len(alpha) != len(beta) or not alpha:
        raise DimensionMismatch("index tuples must be nonempty and equally long")
    for idx, bound in ((alpha, A.shape[0]), (beta, A.shape[1])):
        for i in idx:
            _checked_count(i, "a minor index", least=1)
        if list(idx) != sorted(set(idx)) or idx[-1] > bound:
            raise DimensionMismatch(f"bad index tuple {idx}")
    sub = A[np.ix_([i - 1 for i in alpha], [j - 1 for j in beta])]
    return float(_minors(sub, len(alpha))[0][0, 0])


@dataclass(frozen=True)
class Certificate:
    """What decided a classification.

    ``rule`` is "initial minors" when the exact test certified TP, so that
    no minor was enumerated, or "exhaustive" when it refuted TP and the
    minors were enumerated for TN, SSR and the witness, order by order
    until TN and SSR are both refuted, or to n. ``orders`` is the highest
    order enumerated (None when none was). ``nonpositive`` is
    what refuted TP: ``("entry", (i,), (j,), sign)`` for the first entry
    <= 0 in row-major order, or ``(matrix, rows, cols, sign)`` for the
    first initial minor <= 0 of ``matrix`` ("A" or "A^T"), 1-based, where
    ``sign`` is the exact sign of that value (0 or -1). ``det_sign`` is
    the exact sign of det A when the oscillation test needed it.
    """

    rule: str
    nonpositive: tuple | None = None
    det_sign: int | None = None
    orders: int | None = field(default=None, compare=False)


@dataclass
class Classification:
    is_TN: bool
    is_TP: bool
    is_SSR: bool
    is_oscillatory: bool
    witness: tuple | None = None  # (alpha, beta, value) of first TN violation
    certificate: Certificate | None = field(default=None, compare=False)


def _dyadic_integers(A):
    """The entries of A as Python ints, all scaled by one power of two.

    Every finite float is a dyadic rational, so one common power-of-two
    denominator ``den`` makes them all integers. Returns ``(rows, den)``,
    rows a list of lists of ints with A = rows / den; a positive scale
    leaves every minor's sign unchanged, and an order-k minor of A is the
    integer one over den**k.
    """
    ratios = [x.as_integer_ratio() for x in A.ravel().tolist()]
    den = max((d for _, d in ratios), default=1)
    ints = [num * (den // d) for num, d in ratios]
    n = A.shape[1]
    return [ints[i : i + n] for i in range(0, len(ints), n)], den


def _first_nonpositive_initial_minor(M):
    """First minor det M[i-k+1..i | 1..k] <= 0 of a square integer matrix
    with positive entries, as (k, i, value) with i 0-based, or None.

    Fraction-free Neville condensation: D_k(i, c) = det M[i-k+1..i |
    1..k-1, c] obeys Sylvester's identity
    D_k(i,c) = (D_{k-1}(i,c) D_{k-1}(i-1,k-1) - D_{k-1}(i,k-1) D_{k-1}(i-1,c))
    / D_{k-2}(i-1,k-2), and the division is exact. Orders ascend and,
    within an order, i ascends; both factors kept from earlier orders are
    minors of this kind already found positive, so no divisor is zero.
    O(n^3) integer operations.
    """
    n = len(M)
    # cur[i] lists D_k(i, c) for c = k..n (1-based); older holds order k - 1
    older, cur = None, M
    for k in range(2, n + 1):
        new = [None] * n
        for i in range(k - 1, n):
            hi, lo = cur[i - 1], cur[i]
            p, q = hi[0], lo[0]
            div = older[i - 1][0] if k > 2 else 1
            row = [(a * p - q * b) // div for a, b in zip(lo[1:], hi[1:])]
            if row[0] <= 0:
                return k, i, row[0]
            new[i] = row
        older, cur = cur, new
    return None


def _tp_refutation(A):
    """None when the stored floats of the square matrix A are exactly TP,
    else the first entry or initial minor found <= 0, as in
    ``Certificate.nonpositive``.

    Gasca and Pena ("Total positivity and Neville elimination", LAA 165,
    1992): A is TP iff all its n^2 initial minors, those with consecutive
    rows and consecutive columns one of which starts at 1, are positive.
    They are the leading-column minors of A and of A^T.
    """
    bad = np.flatnonzero(~(A > 0))
    if bad.size:
        i, j = divmod(int(bad[0]), A.shape[1])
        return ("entry", (i + 1,), (j + 1,), -1 if A[i, j] < 0 else 0)
    M, _ = _dyadic_integers(A)
    for name, X in (("A", M), ("A^T", [list(col) for col in zip(*M)])):
        found = _first_nonpositive_initial_minor(X)
        if found is not None:
            k, i, value = found
            rows = tuple(range(i - k + 2, i + 2))
            return (name, rows, tuple(range(1, k + 1)), -1 if value < 0 else 0)
    return None


def _exact(A):
    """Exact rank and determinant of the stored floats of A, any shape.

    One Bareiss fraction-free elimination (Bareiss, Math. Comp. 22, 1968)
    with row exchanges over ``_dyadic_integers(A)``, columns in order, a
    column with no nonzero entry in the rows not yet pivoted skipped: each
    division is exact, and the number of pivots is the rank. Returns
    ``(rank, num, den)``. For a nonsingular square A, det A = num / den**n,
    which ``num / den**n`` rounds once (int true division); otherwise num
    is 0. O(n^3) integer operations, on ints that grow with the order.
    """
    M, den = _dyadic_integers(A)
    m, n = A.shape
    rank, sign, prev = 0, 1, 1
    for j in range(n):
        p = next((i for i in range(rank, m) if M[i][j]), None)
        if p is None:
            continue
        if p != rank:
            M[rank], M[p], sign = M[p], M[rank], -sign
        top = M[rank]
        for row in M[rank + 1 :]:
            for c in range(j + 1, n):
                row[c] = (row[c] * top[j] - row[j] * top[c]) // prev
        prev = top[j]
        rank += 1
    return rank, sign * prev if rank == m == n else 0, den


def classify(A):
    """TN / TP / SSR / oscillatory classification of a square matrix.

    TP is exact on the stored floats: every entry must be positive and every
    initial minor of A and of A^T, computed in integer arithmetic, must be
    positive (Gasca-Pena). A certified matrix is also TN, SSR and
    oscillatory, and nothing is enumerated. Otherwise the minors are
    enumerated in batches, order by order until TN and SSR are both
    refuted, or to n, each against the zero threshold MINOR_REL_TOL times
    the product of its rows' max-norms: TN means no minor below -thr, SSR
    that every order's minors are beyond thr and share one sign
    (``_one_strict_sign``, which ``column_set_equivalence`` and
    ``strong_svdp_holds`` also use). Only A itself is certified: a row
    reversal or negation of a TP matrix, exactly SSR, is enumerated, and
    a minor of it within its threshold reads as not SSR (91 of 100
    row-reversed ``random_tp`` at n = 6 to 10; ``strong_svdp_holds``
    certifies those symmetries). The
    witness is the first minor below -thr with the orders ascending and,
    within an order, row subsets outer and column subsets inner, both
    lexicographic. It is set by the time TN is refuted, so the orders left
    out could change no field of the result; for the same reason an order
    is tested for TN only while TN stands, and for SSR only while SSR
    stands. The tables of orders 1 to 3 are kept and passed to
    ``_minors``, which takes every order 3 to 6 of more than
    LAPLACE_MIN_MINORS minors (n >= 6) from one Laplace level over them
    instead of the closed forms or LU; order 3 comes out bit for bit as the
    closed form gives it. An order-4 to 6 value sums at most 20 products
    of closed forms, so its rounding error stays within a few hundred ulps
    of the threshold's row product, where LU's can exceed the threshold
    itself on a graded matrix: the two decide alike except on a minor that
    LU misreads (none among the benchmark's inputs). The witness value is
    the exact minor of the stored floats, rounded once: ``_exact`` of its
    one k x k submatrix, num / den**k, at every order, whichever route
    decided it. Oscillation follows
    Gantmacher-Krein: TN, super- and subdiagonal entries positive, and
    det A > 0, its sign exact by the same ``_exact``. A nan or infinite entry raises
    NonFiniteInput, and so does a minor or threshold of an enumerated order
    that overflows; anything but a nonempty square matrix raises
    DimensionMismatch. The enumeration is capped at n = EXHAUSTIVE_LIMIT: a
    larger matrix that is not certified TP raises SizeLimitExceeded.
    """
    A = _as_matrix(A, "classify")
    n = A.shape[0]
    nonpositive = _tp_refutation(A)
    if nonpositive is None:
        return Classification(True, True, True, True, None, Certificate("initial minors"))
    if n > EXHAUSTIVE_LIMIT:
        raise SizeLimitExceeded(
            f"{n} x {n} matrix is not TP; exhaustive enumeration is capped at n={EXHAUSTIVE_LIMIT}"
        )

    is_tn = True
    is_ssr = True
    witness = None
    lower = {}
    for k in range(1, n + 1):
        d, thr = _minors(A, k, lower)
        if k <= 3:
            lower[k] = d
        if is_tn:
            negative = d < -thr
            if negative.any():
                is_tn = False
                r, c = np.unravel_index(np.argmax(negative), d.shape)
                rows, cols = _subsets(n, k)[[r, c]]
                _, num, den = _exact(A[np.ix_(rows, cols)])
                witness = (tuple(int(i) + 1 for i in rows), tuple(int(j) + 1 for j in cols), num / den**k)
        is_ssr = is_ssr and _one_strict_sign(d, thr)
        if not (is_tn or is_ssr):
            break

    det_sign = None
    if is_tn and (np.diag(A, 1) > 0).all() and (np.diag(A, -1) > 0).all():
        num = _exact(A)[1]
        det_sign = (num > 0) - (num < 0)
    is_osc = det_sign == 1
    certificate = Certificate("exhaustive", nonpositive, det_sign, orders=k)
    return Classification(is_tn, False, is_ssr, is_osc, witness, certificate)


def is_dominant_tridiagonal_TN(A):
    """Diagonal-dominance test a_i >= b_i + c_{i-1} for tridiagonal matrices,
    with b_n = c_0 = 0, by one array comparison over the rows.

    Sufficient for TN, not necessary: True certifies a TN matrix, False
    says nothing. Nothing is enumerated. Anything but a nonempty square
    matrix, or an entry outside the three central diagonals, raises
    NotTridiagonal, and a nan or infinite entry NonFiniteInput.
    """
    try:
        A = _as_matrix(A, "is_dominant_tridiagonal_TN")
    except DimensionMismatch as exc:
        raise NotTridiagonal(str(exc)) from exc
    if np.any(A[_bands(A.shape[0])[0]] != 0):
        raise NotTridiagonal("nonzero entry outside the three central diagonals")
    a, b, c = np.diag(A), np.diag(A, 1), np.diag(A, -1)
    if np.any(b < 0) or np.any(c < 0):
        return False
    return bool(np.all(a >= np.concatenate((b, [0.0])) + np.concatenate(([0.0], c))))


def _eb(n, i, j, m):
    """The n x n identity with m at (i, j), 0-based: an elementary
    bidiagonal factor when |i - j| == 1."""
    E = np.eye(n)
    E[i, j] = m
    return E


@dataclass
class GEBFactorization:
    factors: list = field(default_factory=list)
    residual_error: float = 0.0

    def product(self):
        if not self.factors:
            raise DimensionMismatch("a factorization with no factors has no product")
        P = self.factors[0]
        for F in self.factors[1:]:
            P = P @ F
        return P


def is_geb(F):
    """Structural check: diagonal plus at most one first-off-diagonal entry,
    all of them nonnegative, up to GEB_ZERO_TOL. Anything but a nonempty
    square matrix raises DimensionMismatch, a nan or inf entry
    NonFiniteInput. ``geb_factorize`` does not call it: its factors pass
    by construction, which the tests check with it."""
    F = _as_matrix(F, "is_geb")
    tol = GEB_ZERO_TOL
    off = F.copy()
    np.fill_diagonal(off, 0.0)
    sub = np.diag(off, -1)
    sup = np.diag(off, 1)
    outside = np.abs(off).sum() - np.abs(sub).sum() - np.abs(sup).sum()
    if outside > tol:
        return False
    if np.count_nonzero(np.abs(sub) > tol) + np.count_nonzero(np.abs(sup) > tol) > 1:
        return False
    return bool(np.all(np.diag(F) >= -tol) and np.all(sub >= -tol) and np.all(sup >= -tol))


def geb_factorize(A):
    """Neville-elimination factorization of a TN matrix into TN GEB factors.

    Returns lower bidiagonal factors, then a diagonal factor, then upper
    bidiagonal factors, whose ordered product reconstructs the input. No
    pivoting is performed; a zero pivot above a nonzero entry, or a
    multiplier below -GEB_ZERO_TOL, is a breakdown. An entry counts as zero
    when its magnitude is at most GEB_ZERO_TOL, or when it is negative and
    its magnitude is at most GEB_ZERO_TOL times the largest magnitude in
    its column of the matrix that the pass eliminates (the input, then the
    transpose of the reduced matrix): the rounding left by cancellation in
    a column of large entries, not a sign; a column with a non-finite
    entry has no such negative zeros. The input is checked as
    in classify. Every factor is GEB by construction, so ``is_geb`` is not
    run on them: a nan or infinite multiplier or pivot raises
    NonFiniteInput, and a pivot below -GEB_ZERO_TOL PivotBreakdown, checked
    factor by factor in the order of the product, with the messages
    ``is_geb`` gives. The overflow that leads to a non-finite factor gives
    no numpy warning.
    """
    A = _as_matrix(A, "geb_factorize")
    n = A.shape[0]
    if not classify(A).is_TN:
        raise NotTN("geb_factorize requires a TN input")

    def neville_lower(M):
        # Returns factors [L_i(m), ...], their multipliers m and the reduced
        # matrix R with M = factors[0] @ factors[1] @ ... @ R, eliminating
        # below-diagonal entries column by column, bottom-up.
        M0, M = M, M.copy()
        factors, multipliers = [], []
        for j in range(n - 1):
            for i in range(n - 1, j, -1):
                x = M[i, j]
                if abs(x) <= GEB_ZERO_TOL or (x < 0 and _negligible_in(x, M0[:, j])):
                    M[i, j] = 0.0
                    continue
                if abs(M[i - 1, j]) <= GEB_ZERO_TOL:
                    raise PivotBreakdown(
                        f"zero pivot above nonzero entry at row {i + 1}, column {j + 1}"
                    )
                m = x / M[i - 1, j]
                if m < -GEB_ZERO_TOL:
                    raise PivotBreakdown(f"negative multiplier {m} (input not TN?)")
                M[i, :] -= m * M[i - 1, :]
                M[i, j] = 0.0
                multipliers.append(max(m, 0.0))
                factors.append(_eb(n, i, i - 1, multipliers[-1]))
        return factors, multipliers, M

    with np.errstate(all="ignore"):  # a multiplier that overflows raises NonFiniteInput below
        lower, lower_m, U = neville_lower(A)
        upper_t, upper_m, Rt = neville_lower(U.T)
        pivots = np.diag(Rt)
        upper = [F.T for F in reversed(upper_t)]
        factors = lower + [np.diag(pivots)] + upper

        fact = GEBFactorization(factors)
        denom = max(np.linalg.norm(A), 1e-300)
        fact.residual_error = float(np.linalg.norm(fact.product() - A) / denom)
    # a bidiagonal factor is a unit diagonal with one multiplier >= 0 beside
    # it, the diagonal factor holds the pivots: only a non-finite value or a
    # negative pivot can make a factor fail is_geb
    for values in (lower_m, pivots, upper_m):
        if not np.isfinite(values).all():
            raise NonFiniteInput("is_geb: the matrix has a nan or infinite entry")
        if np.less(values, -GEB_ZERO_TOL).any():
            raise PivotBreakdown("produced a non-GEB factor")
    return fact


def _negligible_in(x, column):
    """Whether the negative entry x counts as zero in geb_factorize: its
    magnitude is at most GEB_ZERO_TOL times the largest magnitude in its
    column, and that is finite. Called only for negative entries beyond
    GEB_ZERO_TOL, so a TN input's columns are scanned only where rounding
    left such an entry."""
    scale = np.abs(column).max()
    return bool(np.isfinite(scale)) and -GEB_ZERO_TOL * scale <= x


def oscillatory_spectrum(A):
    """Eigen-decomposition of an oscillatory matrix with structure checks.

    Eigenvalues must come out real, positive and distinct; eigenvector k
    (unit norm, first nonzero entry positive) must show exactly k-1 sign
    changes under both counts.
    """
    A = _as_matrix(A, "oscillatory_spectrum")
    if not classify(A).is_oscillatory:
        raise SpectralViolation("input did not classify as oscillatory")
    vals, vecs = _ordered_spectrum(A)
    return [(float(vals[k]), vecs[:, k], k) for k in range(len(vals))]


def _ordered_spectrum(M):
    """Eigenvalues of M in decreasing order and their eigenvectors, checked.

    The eigenvalues must come out real (imaginary parts within
    SPECTRUM_IMAG_TOL of the spectral radius), positive and strictly
    decreasing, and eigenvector k (column k-1, unit norm, first entry above
    SPECTRUM_ZERO_TOL positive) must show exactly k-1 sign changes under
    both counts; anything else raises SpectralViolation.
    """
    vals, vecs = np.linalg.eig(M)
    scale = np.abs(vals).max()
    if np.any(np.abs(vals.imag) > SPECTRUM_IMAG_TOL * scale):
        raise SpectralViolation("complex eigenvalue beyond tolerance")
    vals = vals.real
    order = np.argsort(-vals)
    vals = vals[order]
    vecs = vecs[:, order].real
    if np.any(vals <= 0):
        raise SpectralViolation("nonpositive eigenvalue")
    if np.any(np.diff(vals) >= -SPECTRUM_IMAG_TOL * scale):
        raise SpectralViolation("eigenvalues not strictly decreasing")
    for k in range(len(vals)):
        v = vecs[:, k]
        v = v / np.linalg.norm(v)
        lead = v[np.abs(v) > SPECTRUM_ZERO_TOL]
        vecs[:, k] = -v if lead.size and lead[0] < 0 else v
    sm, sp = sign_counts(_sign_rows(vecs.T, SPECTRUM_ZERO_TOL)[0])
    expected = np.arange(len(vals))
    wrong = np.flatnonzero((sm != expected) | (sp != expected))
    if wrong.size:
        k = wrong[0]
        raise SpectralViolation(f"eigenvector {k + 1} has sign counts ({sm[k]}, {sp[k]}), expected {k}")
    return vals, vecs


def svdp_check(A, x, zero_tol=None):
    """Evaluate the variation-diminishing inequality s+(Ax) <= s-(x).

    Returns s_minus(x, zero_tol), s_plus(Ax, zero_tol) and whether the
    bound holds, as int, int and bool. A non-finite x, then a non-finite
    Ax, raises NonFiniteInput (``signs``)."""
    A = _as_matrix(A, "svdp_check", square=False, finite=False)
    x = _real_array(x, "x")
    if not np.any(x != 0):
        raise ZeroVector("svdp_check requires a nonzero vector")
    if x.ndim != 1 or A.shape[1] != x.shape[0]:
        raise DimensionMismatch("incompatible shapes")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Ax raises in signs
        y = A @ x
    sin, sout = s_minus(x, zero_tol), s_plus(y, zero_tol)
    return sin, sout, sout <= sin


def column_set_equivalence(U, trials=200, rng=None, zero_tol=None):
    """Compare the common-sign-minors condition with the sampled s+ bound.

    For U in R^{n x m} (m < n, full column rank) checks (a) whether all
    order-m minors are nonzero with one sign and (b) whether s+(Uc) <= m-1
    for `trials` random nonzero coefficient vectors, drawn as one
    (trials, m) array and counted by one ``sign_counts`` call. The first
    row that fails the bound or has a nan or inf entry decides (b): a
    non-finite one raises NonFiniteInput. trials must be an integer >= 1
    for which numpy can lay out the (trials, n) images
    (``signvar._allocatable``), else InvalidArgument. U reads as of
    deficient column rank, and raises RankDeficient, exactly when none of
    its order-m minors lies beyond its zero threshold: the threshold model
    of (a) itself, read from the same table, so a U whose minors are all
    within their thresholds raises even if it has full rank in exact
    arithmetic ([[1, 1], [1, 1 + 1e-12], [0, 0]]).
    """
    U = _as_matrix(U, "column_set_equivalence", square=False, finite=False)
    _checked_count(trials, "trials", least=1)
    n, m = U.shape
    if not 1 <= m < n:
        raise DimensionMismatch("need at least one column and strictly fewer columns than rows")
    d, thr = _minors(U, m)
    if not (np.abs(d) > thr).any():
        raise RankDeficient("columns are linearly dependent")
    same_sign = _one_strict_sign(d, thr)
    rng = np.random.default_rng(rng)

    if not _allocatable((trials, n)):
        raise InvalidArgument(f"{_shown(int(trials))} trials of {n} entries cannot be allocated")
    C = rng.standard_normal((trials, m))
    zero = ~C.any(axis=1)
    while zero.any():  # every coefficient vector must be nonzero
        C[zero] = rng.standard_normal((int(zero.sum()), m))
        zero = ~C.any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row raises below
        Y = (U @ C[..., None])[..., 0]  # row by row as U @ c rounds; C @ U.T does not
    S, finite = _sign_rows(Y, zero_tol)
    bad = np.flatnonzero(~finite | (sign_counts(S)[1] > m - 1))
    if bad.size:  # a nan or inf row before the first failing one raises
        _check_finite(Y[: bad[0] + 1])
    return same_sign, not bad.size


def strong_svdp_holds(A):
    """Whether s+(Ax) <= s-(x) for every nonzero x, decided by the
    variation-diminishing theorem (Gantmacher-Krein; Ando, LAA 90, 1987,
    section 5; Pinkus, Totally Positive Matrices, 2010, ch. 3): the bound
    holds for every strictly sign-regular (SSR) A, of any shape, and an A
    of full column rank that meets it is SSR. Nothing is sampled.

    A square A is SSR for certain when one of -A, A[::-1] and -A[::-1] is
    exactly TP on its stored floats (``_tp_refutation``), since negation
    multiplies an order-k minor by (-1)^k and row reversal by
    (-1)^(k(k-1)/2); ``classify`` certifies A itself, and otherwise decides
    SSR by its thresholded enumeration, so an uncertified n > EXHAUSTIVE_LIMIT
    raises SizeLimitExceeded. A non-square A takes the same per-order test
    over all its minors, up to max(m, n) = EXHAUSTIVE_LIMIT. SSR returns
    True. Otherwise A of full column rank, exactly on its stored floats
    (``_exact``; [[1e308, -1e308], [1, 1]] has it), returns False, and any
    other A, every wide one among them, raises RankDeficient: there the
    bound can hold without SSR ([[2, 2], [1, 1]] meets it). A minor within
    its threshold reads as not SSR, so a nonsingular A with such a minor
    returns False. The matrix must be finite (NonFiniteInput), and an
    enumerated minor that overflows raises NonFiniteInput too.
    """
    A = _as_matrix(A, "strong_svdp_holds", square=False)
    m, n = A.shape
    if m == n:
        ssr = any(_tp_refutation(B) is None for B in (-A, A[::-1], -A[::-1])) or classify(A).is_SSR
    else:
        if max(m, n) > EXHAUSTIVE_LIMIT:
            raise SizeLimitExceeded(f"{m} x {n} matrix; exhaustive enumeration is capped at n={EXHAUSTIVE_LIMIT}")
        ssr = all(_one_strict_sign(*_minors(A, k)) for k in range(1, min(m, n) + 1))
    if ssr:
        return True
    if _exact(A)[0] == n:
        return False
    raise RankDeficient(f"strong_svdp_holds: the {m} x {n} matrix is not SSR and its columns are linearly dependent")
