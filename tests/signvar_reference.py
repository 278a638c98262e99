"""The column-loop dynamic program that computed sign counts before the
closed-form ``tpds.signvar.sign_counts``; kept as the test reference, with
per-vector loop references for the batched callers built on it, the
padded count of s-(x) and s+(Ax) that svdp_check made before it called
s_minus and s_plus, and the sampled check of s+(Ax) <= s-(x) over every
sign pattern that strong_svdp_holds ran before it decided the bound by
the theorem, now the oracle it is tested against."""

import numpy as np

from tpds import signs
from tpds.errors import NonFiniteInput


def sign_counts(S):
    """s_minus and s_plus of every row of a -1/0/+1 sign matrix at once.

    One pass over the columns with all rows in step: s_minus counts changes
    between consecutive nonzero signs, s_plus runs the dynamic program of
    ``s_plus`` on every row. Returns two integer arrays.
    """
    S = np.asarray(S)
    first = S[:, 0]
    last = first  # latest nonzero sign of each row, 0 before the first
    sm = np.zeros(len(S), dtype=int)
    # best alternation count with the previous entry -1 / +1, -1 if impossible
    bm = np.where(first == 1, -1, 0)
    bp = np.where(first == -1, -1, 0)
    for v in S.T[1:]:
        sm += (v != 0) & (last != 0) & (v != last)
        last = np.where(v != 0, v, last)
        to_m = np.maximum(np.where(bp >= 0, bp + 1, -1), bm)
        to_p = np.maximum(np.where(bm >= 0, bm + 1, -1), bp)
        bm = np.where(v != 1, to_m, -1)
        bp = np.where(v != -1, to_p, -1)
    return sm, np.maximum(bm, bp)


def counts(y, zero_tol=None):
    """(s_minus, s_plus) of one vector through the reference."""
    sm, sp = sign_counts(signs(y, zero_tol)[None])
    return int(sm[0]), int(sp[0])


def svdp_counts(Sx, Sy):
    """s-(x) and s+(y) of the sign vectors of x and y, from one
    ``sign_counts`` call on both padded with zeros to one length: a
    trailing zero leaves s- alone and adds exactly one to s+."""
    n, m = len(Sx), len(Sy)
    L = max(n, m)
    S = np.zeros((2, L), dtype=int)
    S[0, :n] = Sx
    S[1, :m] = Sy
    sm, sp = sign_counts(S)
    return sm[0], sp[1] - (L - m)


def svdp_check_reference(A, x, zero_tol=None):
    """svdp_check's counts and verdict by the padded count, x's signs
    taken (and its finiteness checked) before those of Ax; A and x are
    taken as already checked."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(A, dtype=float) @ x
    sin, sout = svdp_counts(signs(x, zero_tol), signs(y, zero_tol))
    return int(sin), int(sout), bool(sout <= sin)


def column_set_bound_reference(U, trials=200, rng=None, zero_tol=None):
    """The per-trial loop behind column_set_equivalence's sampled bound:
    draw c, redraw while zero, stop at the first s+(Uc) > m - 1."""
    U = np.asarray(U, dtype=float)
    m = U.shape[1]
    rng = np.random.default_rng(rng)
    for _ in range(trials):
        c = rng.standard_normal(m)
        while not np.any(c):
            c = rng.standard_normal(m)
        with np.errstate(over="ignore", invalid="ignore"):
            y = U @ c
        if not np.isfinite(y).all():
            raise NonFiniteInput(f"vector {y.tolist()} has a non-finite entry")
        if counts(y, zero_tol)[1] > m - 1:
            return False
    return True


def sign_pattern_table(n):
    """Every nonzero sign pattern in {-1, 0, +1}^n, one row each, in the
    order of the grid of n axes [-1, 0, 1]."""
    patterns = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    return patterns[patterns.any(axis=1)]


def strong_svdp_reference(A, rng=None, vectors_per_pattern=20, zero_tol=None):
    """The sampled oracle of strong_svdp_holds: every nonzero sign
    pattern in order, `vectors_per_pattern` magnitude draws each, stop at
    the first s+(Ax) > s-(x). False is a violation found; True only says
    that none was drawn."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    rng = np.random.default_rng(rng)
    for pat in sign_pattern_table(n):
        for _ in range(vectors_per_pattern):
            x = pat * rng.uniform(0.1, 2.0, size=n)
            with np.errstate(over="ignore", invalid="ignore"):
                y = A @ x
            if not np.isfinite(y).all():
                raise NonFiniteInput(f"vector {y.tolist()} has a non-finite entry")
            if counts(y, zero_tol)[1] > counts(x, zero_tol)[0]:
                return False
    return True
