"""The column-loop dynamic program that computed sign counts before the
closed-form ``tpds.signvar.sign_counts``; kept as the test reference, with
per-vector loop references for the batched callers built on it."""

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


def strong_svdp_reference(A, rng=None, vectors_per_pattern=20, zero_tol=None):
    """The per-vector loop behind strong_svdp_holds: every nonzero sign
    pattern in order, `vectors_per_pattern` magnitude draws each, stop at
    the first s+(Ax) > s-(x)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    rng = np.random.default_rng(rng)
    patterns = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    for pat in patterns:
        if not np.any(pat):
            continue
        for _ in range(vectors_per_pattern):
            x = pat * rng.uniform(0.1, 2.0, size=n)
            with np.errstate(over="ignore", invalid="ignore"):
                y = A @ x
            if not np.isfinite(y).all():
                raise NonFiniteInput(f"vector {y.tolist()} has a non-finite entry")
            if counts(y, zero_tol)[1] > counts(x, zero_tol)[0]:
                return False
    return True
