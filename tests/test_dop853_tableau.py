"""The DOP853 coefficients that ``exprlang`` inlines as float literals.

Each table is compared with scipy's copy of the published coefficients
(``scipy.integrate._ivp.dop853_coefficients``) to 1 ulp, and the tables are
checked against the method's own conditions, summed exactly over the stored
floats (``fractions.Fraction``): the weights of each stage sum to its time,
the eighth-order weights integrate t^(k-1) exactly for k = 1..8, and the
fifth- and third-order error weights vanish on the polynomials that those
orders integrate exactly. Each bound is the rounding of the literals to
doubles, 2^-52 relative per factor.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as dop853

from tpds import exprlang

STAGES = 12
C = (0.0,) + exprlang._DOP853_C  # stage 1 at the step's start


def within_ulp(got, want):
    return all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want, strict=True))


def test_the_stage_times_match_the_published_ones():
    assert len(C) == STAGES
    assert within_ulp(C, dop853.C[:STAGES])


def test_each_row_of_stage_weights_matches_the_published_one():
    assert len(exprlang._DOP853_A) == STAGES - 1
    for i, row in enumerate(exprlang._DOP853_A, start=1):
        assert within_ulp(row, dop853.A[i, :i]), f"stage {i + 1}"
        # the published row has nothing after the stages before it
        assert not np.any(dop853.A[i, i:])


@pytest.mark.parametrize(
    "name, want",
    [
        ("_DOP853_B", dop853.B),
        ("_DOP853_E5", dop853.E5[:STAGES]),
        ("_DOP853_E3", dop853.E3[:STAGES]),
    ],
)
def test_the_solution_and_error_weights_match_the_published_ones(name, want):
    assert within_ulp(getattr(exprlang, name), want)


def test_the_estimates_take_nothing_from_the_stage_at_the_new_state():
    # the f of the new state is the next step's first stage, not a stage
    # of the step's own estimates
    assert dop853.E5[STAGES] == dop853.E3[STAGES] == 0.0


@pytest.mark.parametrize("i", range(1, STAGES))
def test_the_weights_of_a_stage_sum_to_its_time(i):
    row = exprlang._DOP853_A[i - 1]
    total = sum(map(Fraction, row)) - Fraction(C[i])
    bound = (sum(map(abs, row)) + C[i]) * 2.0**-52
    assert abs(total) <= bound


@pytest.mark.parametrize(
    "name, orders, exact",
    [
        ("_DOP853_B", range(1, 9), lambda k: Fraction(1, k)),
        ("_DOP853_E5", range(1, 6), lambda k: 0),
        ("_DOP853_E3", range(1, 4), lambda k: 0),
    ],
)
def test_the_quadrature_conditions(name, orders, exact):
    # sum_i w_i c_i^(k-1) = 1/k for the eighth-order weights b; the error
    # weights are differences of two solutions that both meet it
    weights = getattr(exprlang, name)
    for k in orders:
        total = sum(Fraction(w) * Fraction(c) ** (k - 1) for w, c in zip(weights, C))
        bound = k * sum(abs(w) * c ** (k - 1) for w, c in zip(weights, C)) * 2.0**-52
        assert abs(total - exact(k)) <= bound, f"k = {k}"
    # and fails at the next order, as a pair of its orders does
    k = orders[-1] + 1
    total = sum(Fraction(w) * Fraction(c) ** (k - 1) for w, c in zip(weights, C))
    assert abs(total - exact(k)) > 1e-6
