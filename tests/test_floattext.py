"""floattext.join against its oracle, ``repr``, byte for byte.

A property over every 64-bit pattern (NaNs, infinities and subnormals
included), and a sweep of the classes where shortest-digit printers go
wrong: powers of two and of ten and their neighbours, subnormals, short
decimals across every exponent, integers, signed zeros and the switch
points between fixed and exponent notation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liangflow import floattext


def _texts(values, nan="nan"):
    values = np.asarray(values, dtype=np.float64)
    return floattext.join(values.reshape(-1, 1), "", "\n", nan).split("\n")[:-1]


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    want = [repr(float(v)) for v in values]
    got = _texts(values)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:10]


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_every_bit_pattern_reads_as_repr(patterns):
    _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(_with_neighbours(np.concatenate([powers, -powers])))


def test_powers_of_ten_and_their_neighbours():
    _assert_repr(_with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_first_subnormals():
    subnormals = np.arange(1, 100_001, dtype=np.uint64).view(np.float64)
    _assert_repr(np.concatenate([subnormals, -subnormals]))
    assert _texts([5e-324, 8e-323]) == ["5e-324", "8e-323"]  # Java prints 4.9E-324, 7.9E-323


def test_integers():
    _assert_repr(np.arange(-100_000, 100_001, dtype=np.float64))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9, 12, 25, 99, 123, 999, 4999, 12345678,
                               123456789012345, 9007199254740993])
def test_short_decimals_at_every_exponent(m):
    values = [float(f"{m}e{e}") for e in range(-345, 310)]
    _assert_repr(_with_neighbours(values))


def test_zeros_and_the_notation_switch_points():
    _assert_repr([0.0, -0.0, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
                  -1e16, -1e-4, 1e15, 123456789012345680.0, 0.001, 1.7976931348623157e308])


def test_non_finite_values():
    assert _texts([np.nan, -np.nan, np.inf, -np.inf]) == ["nan", "nan", "inf", "-inf"]
    assert _texts([np.nan, 1.5], nan="null") == ["null", "1.5"]
    assert _texts([np.nan, -2.0], nan="") == ["", "-2.0"]


def test_separators_and_row_ends():
    values = np.array([[1.0, -0.5, np.nan], [2e-7, 3.0, 1e300]])
    text = floattext.join(values, ", ", "]\n[")
    assert text == "1.0, -0.5, nan]\n[2e-07, 3.0, 1e+300]\n["
    assert floattext.join(values[:, :1], ",", "\n") == "1.0\n2e-07\n"
