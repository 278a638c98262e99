"""The hand loops that built the random TP/TN matrices before
``tpds.generators._eb_product`` multiplied ``totalpos._eb`` factors by
``GEBFactorization.product``, kept as the test reference."""

import numpy as np


def _eb_lower(n, i, m):
    L = np.eye(n)
    L[i, i - 1] = m
    return L


def _eb_upper(n, i, m):
    U = np.eye(n)
    U[i - 1, i] = m
    return U


def eb_product(n, lower_params, diag, upper_params):
    """Full-elimination-order product: lower factors, diagonal, upper factors."""
    A = np.eye(n)
    k = 0
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            A = A @ _eb_lower(n, i, lower_params[k])
            k += 1
    A = A @ np.diag(diag)
    k = 0
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            A = A @ _eb_upper(n, i, upper_params[k])
            k += 1
    return A
