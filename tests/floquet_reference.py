"""``tpds.floquet`` as it was before it took the monodromy in double: the
same RK4 propagators multiplied in long double (``transition_matrix``),
rounded to double once, and the same ordered spectrum; kept as the test
reference for the multipliers of the double product."""

from tpds.errors import FloquetViolation, NotPeriodic, SpectralViolation
from tpds.floquet import FloquetData
from tpds.integrate import transition_matrix
from tpds.totalpos import _ordered_spectrum


def floquet_long_double(sys, step=None):
    """FloquetData of Phi(T, 0) from ``transition_matrix``, or its raise."""
    if sys.period is None:
        raise NotPeriodic("system carries no period")
    T = sys.period
    B = transition_matrix(sys, 0.0, T, step).phi
    try:
        vals, vecs = _ordered_spectrum(B)
    except SpectralViolation as exc:
        raise FloquetViolation(str(exc)) from exc
    return FloquetData(T, B, vals, vecs, list(range(len(vals))))
