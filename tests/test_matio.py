"""Tests for the plain-text matrix format."""

import numpy as np
import pytest

from tpds import matio
from tpds.errors import SpecFileError


def test_round_trip_integers_stay_exact():
    A = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    B = matio.loads(matio.dumps(A))
    assert B.dtype == np.int64
    assert np.array_equal(A, B)


def test_round_trip_floats():
    A = np.array([[0.5, -1.25], [3.0, 2.0e-7]])
    B = matio.loads(matio.dumps(A))
    assert B.dtype == np.float64
    assert np.array_equal(A, B)


def test_comments_and_whitespace():
    text = """
    # leading comment
    2 2   # header
    1 2
    3 4   # trailing comment
    """
    assert np.array_equal(matio.loads(text), np.array([[1, 2], [3, 4]]))


def test_entries_may_span_lines():
    assert np.array_equal(
        matio.loads("2 3\n1 2 3 4\n5 6"), np.arange(1, 7).reshape(2, 3)
    )


@pytest.mark.parametrize(
    "bad",
    ["", "2\n1 2", "2 2\n1 2 3", "2 2\n1 2 3 4 5", "2 2\n1 2 3 x"],
)
def test_malformed_files(bad):
    with pytest.raises(SpecFileError):
        matio.loads(bad)


def test_file_round_trip(tmp_path):
    A = np.array([[1.5, 2.0], [-3.0, 4.0]])
    path = tmp_path / "m.mat"
    matio.dump(A, path)
    assert np.array_equal(matio.load(path), A)


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_entry_is_rejected(tok):
    with pytest.raises(SpecFileError):
        matio.loads(f"2 2\n1 {tok}\n0 1\n")
