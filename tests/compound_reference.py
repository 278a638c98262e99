"""Per-entry reference implementation of the additive compound, for tests only.

This is the nested loop over subset labels that the library's precomputed
gather (``tpds.compound.add_compound``) replaced. It performs the same
floating-point operations in the same order, so the two must agree bit for
bit.
"""

import numpy as np

from tpds.compound import index_subsets


def add_compound(A, p):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    labels = index_subsets(n, p)
    m = len(labels)
    out = np.zeros((m, m))
    for i, alpha in enumerate(labels):
        for j, beta in enumerate(labels):
            if alpha == beta:
                out[i, j] = sum(A[a - 1, a - 1] for a in alpha)
                continue
            only_a = [k for k, a in enumerate(alpha) if a not in beta]
            only_b = [k for k, b in enumerate(beta) if b not in alpha]
            if len(only_a) == 1 and len(only_b) == 1:
                l, mm = only_a[0], only_b[0]
                out[i, j] = (-1) ** (l + mm) * A[alpha[l] - 1, beta[mm] - 1]
    return out
