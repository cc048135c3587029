"""floattext.join against its oracle, ``repr``, byte for byte.

A property over every 64-bit pattern (NaNs, infinities and subnormals
included), and a sweep of the classes where shortest-digit printers go
wrong: powers of two and of ten and their neighbours, subnormals, short
decimals across every exponent, integers, signed zeros and the switch
points between fixed and exponent notation. The same classes through
the orjson path, on both sides of its odd-share cutoff; and
floattext.read_rows against ``float``, bit for bit.
"""

import itertools

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


# --------------------------------------------------- the orjson write path

_ODD = [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e16,
        -1.7976931348623157e308, 9.999999999999999e-05, -1e-5]
_PLAIN = [0.0, -0.0, 1.0, -0.5, 1e-4, -999999999999999.9, 0.1, 123.456, 1e15, 2.5e-3]


def _repr_join(values, sep, end, nan):
    text = (nan if v != v else repr(v) for v in values.reshape(-1).tolist())
    cells = [list(itertools.islice(text, values.shape[1])) for _ in range(len(values))]
    return "".join(sep.join(row) + end for row in cells)


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("sep, end, n_cols", [
    (",", "\n", 10),  # write_csv
    (",\n      ", "\n    ],\n    [\n      ", 10),  # emit_json's rows
    (", ", "],[", 2),  # orjson's own separators
    ("", "],\n", 4),
])
def test_join_on_both_sides_of_the_odd_share_cutoff(monkeypatch, above, sep, end, n_cols):
    kernel_shapes = []  # of the arrays the kernel wrote: the whole one, or the odd values
    kernel = floattext._kernel_join
    monkeypatch.setattr(floattext, "_kernel_join",
                        lambda *a: kernel_shapes.append(a[0].shape) or kernel(*a))
    rng = np.random.default_rng(n_cols + 2 * above)
    size = 400
    n_odd = int(floattext._ODD_SHARE * size) + above
    values = rng.choice(_PLAIN, size) * rng.choice([1.0, -1.0, 7.0], size)
    values[:n_odd] = np.resize(_ODD, n_odd)
    values = rng.permutation(values).reshape(-1, n_cols)
    for nan in ("nan", "null", ""):
        assert floattext.join(values, sep, end, nan) == _repr_join(values, sep, end, nan)
    assert kernel_shapes.count(values.shape) == 3 * above


def test_join_without_odd_values_and_of_no_rows():
    values = np.array([[1.0, -0.0], [0.25, 1e15]])
    assert floattext.join(values, ";", "|") == "1.0;-0.0|0.25;1000000000000000.0|"
    assert floattext.join(np.empty((0, 3)), ",", "\n") == ""


def test_orjson_path_on_the_hard_classes(monkeypatch):
    monkeypatch.setattr(floattext, "_kernel_join", None)  # every value below is not odd
    powers = np.ldexp(1.0, np.arange(-14, 54))
    tens = np.array([float(f"1e{e}") for e in range(-4, 16)])
    short = np.array([float(f"{m}e{e}") for m in (1, 3, 7, 99, 12345678, 123456789012345)
                      for e in range(-20, 16)])
    values = _with_neighbours(np.concatenate([powers, tens, short, np.arange(1.0, 10001.0)]))
    values = values[(values >= 1e-4) & (values < 1e16)]
    values = np.concatenate([values, -values, [0.0, -0.0]])
    for n_cols in (2, 7):
        rows = values[: len(values) // n_cols * n_cols].reshape(-1, n_cols)
        assert floattext.join(rows, ",", "\n") == _repr_join(rows, ",", "\n", "nan")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=2, max_size=60),
       st.integers(2, 6), st.randoms(use_true_random=False))
def test_values_orjson_writes_read_as_repr(magnitudes, n_cols, random):
    values = np.array([m if random.random() < 0.5 else -m for m in magnitudes])
    values = np.resize(values, (-(-len(values) // n_cols), n_cols))
    assert floattext.join(values, ",", "\n") == _repr_join(values, ",", "\n", "nan")


def _spy_on_the_kernel(monkeypatch):
    shapes = []  # of the arrays the kernel wrote
    kernel = floattext._kernel_join
    monkeypatch.setattr(floattext, "_kernel_join",
                        lambda *a: shapes.append(a[0].shape) or kernel(*a))
    return shapes


@pytest.mark.parametrize("sep, end", [
    (",", "\n"), ("1e3", "00\n"), ("],[", "]"), ("0", "1e"), ("1e300", "e300"), ("]", "],["),
    (",\n      ", "\n    ],\n    [\n      "),
])
@pytest.mark.parametrize("all_odd_row", [False, True])
# rows of 20 that hold an odd value: the splice runs in those rows alone
@pytest.mark.parametrize("held", [1, 2, 11, 20])
def test_join_splices_odd_values_into_the_rows_that_hold_them(monkeypatch, sep, end,
                                                             all_odd_row, held):
    shapes = _spy_on_the_kernel(monkeypatch)
    rng = np.random.default_rng(held)
    values = rng.choice(_PLAIN, (20, 30)) * rng.choice([1.0, -1.0, 7.0], (20, 30))
    rows = [0, 19, *rng.permutation(np.arange(1, 19))][:held]  # the first and last rows first
    values[rows, 0], values[rows, -1] = rng.choice(_ODD, held), rng.choice(_ODD, held)
    if all_odd_row:
        values[rows[-1]] = np.resize(_ODD, 30)
    n_odd = 2 * held + 28 * all_odd_row
    for nan in ("nan", "null", ""):
        assert floattext.join(values, sep, end, nan) == _repr_join(values, sep, end, nan)
    # 40 odd values of 600 are below _ODD_SHARE, 68 above
    above = n_odd > floattext._ODD_SHARE * values.size
    assert above == (held == 20 and all_odd_row)
    assert shapes == [values.shape if above else (n_odd, 1)] * 3


# --------------------------------------------------- the orjson read path

def _float_rows(lines):
    return np.array([[float(c) for c in line.split(",")] for line in lines]).reshape(len(lines), -1)


def _read_rows(texts, width: int):
    """``floattext.read_rows`` of the UTF-8 bytes of each text, stacked, or None if
    it gives up on any."""
    values = [floattext.read_rows(text.encode(), width) for text in texts]
    return None if any(rows is None for rows in values) else np.concatenate(values)


@pytest.mark.parametrize("cell", [
    "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623158e308",
    "1.00000000000000011102230246251565404236316680908203125",  # 1 + ulp/2: ties to even
    "1.00000000000000011102230246251565404236316680908203126",
    "0.1000000000000000055511151231257827021181583404541015625", "9007199254740993",
    "18446744073709553665", "123456789012345678901234567890e-300", "1e23", "8.41e21",
    "7.2057594037927933e16", "1" + "0" * 400 + "e-400", "0." + "0" * 400 + "1e400", "-0.0",
    "-1e-400", "-2e-324",  # negative values that underflow read as -0.0
])
def test_hard_decimals_read_as_float(cell):
    values = _read_rows([cell + "," + cell + "\n"], 2)
    assert values.tobytes() == _float_rows([cell + "," + cell]).tobytes()


@pytest.mark.parametrize("lines", [["-0\n"], ["1,-0\n"], ["-0,1e-400\n"], ["1e400\n"], ["+1\n"],
                                   ["\t\n", "1\n"], ["1\n", " \n", "2\n"], ["1,2\n"], ["nan\n"],
                                   ["1\r2\n"], ["１\n"], ["1_0\n"]])
def test_read_rows_gives_up(lines):
    assert _read_rows(["".join(lines)], 1) is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.integers(1, 5), st.sampled_from(["%r", "%.17g"]))
def test_written_rows_read_back_with_the_same_bits(values, n_cols, form):
    values = np.resize(values, (-(-len(values) // n_cols), n_cols))
    lines = [",".join(form % v for v in row) + "\n" for row in values.tolist()]
    got = _read_rows(["".join(lines)], n_cols)
    if got is None:  # only the integer token -0, which %.17g writes for -0.0
        assert form == "%.17g" and np.signbit(values[values == 0]).any()
    else:
        assert got.tobytes() == values.tobytes()


@pytest.mark.parametrize("text, rows", [
    ("\n1,2\n\n\n3,4\n\n", [[1, 2], [3, 4]]),  # at the part's start, between rows, at its end
    ("\r\n1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),
    ("\n1,\n\n,4\n", [[1, np.nan], [np.nan, 4]]),  # and on the null retry
    ("\n\r\n", np.empty((0, 2))),  # a part of empty lines only
])
def test_read_rows_skips_empty_lines(text, rows):
    values, want = _read_rows([text], 2), np.array(rows, dtype=float)
    assert values.shape == want.shape and values.tobytes() == want.tobytes()


def test_read_rows_reads_empty_cells_as_nan():
    values = _read_rows([",1\n2,\r\n,\n3,\n"], 2)
    nan = np.array([np.nan]).view(np.uint64)[0]
    assert values.view(np.uint64).tolist() == [[nan, 0x3FF0000000000000], [0x4000000000000000, nan],
                                               [nan, nan], [0x4008000000000000, nan]]
    assert _read_rows(["1, \n"], 2) is None  # a blank cell is not empty


def test_read_rows_reads_a_block_in_pieces(monkeypatch):
    # a 4096-line block of 8 columns in parts of 100 lines or fewer, one orjson call a part
    rng = np.random.default_rng(5)
    lines = [",".join(map(repr, row)) + "\n" for row in rng.standard_normal((4096, 8)).tolist()]
    parts = ["".join(lines[at:at + 100]) for at in range(0, len(lines), 100)]
    rows, loads = [], floattext.orjson.loads
    monkeypatch.setattr(floattext.orjson, "loads", lambda text: rows.append(len(loads(text))) or
                        loads(text))
    values = _read_rows(parts, 8)
    assert values.tobytes() == _float_rows([line.rstrip("\n") for line in lines]).tobytes()
    assert rows == [part.count("\n") for part in parts]


@pytest.mark.parametrize("part, width, rows", [
    ("1,\n,2\n3,4\n", 2, [[1, np.nan], [np.nan, 2], [3, 4]]),  # empty cells
    ("\n1,2\n\n3,4\n", 2, [[1, 2], [3, 4]]),  # empty lines
    ("\r\n1,,\r\n\r\n,2,3\r\n", 3, [[1, np.nan, np.nan], [np.nan, 2, 3]]),  # both
    ("+1,2\n", 2, None),
    ("1,-0\n", 2, None),  # the integer -0
    ("\n,1\n-0,2\n", 2, None),  # and beside an empty line and an empty cell
])
def test_read_rows_reads_a_part_at_most_twice(monkeypatch, part, width, rows):
    loads, texts = floattext.orjson.loads, []
    monkeypatch.setattr(floattext.orjson, "loads", lambda text: texts.append(text) or loads(text))
    values = _read_rows([part], width)
    assert len(texts) <= 2
    if rows is None:
        assert values is None
    else:
        assert values.tobytes() == np.array(rows, dtype=float).tobytes()


def test_read_rows_takes_each_piece_on_its_own():
    nan = float("nan")
    parts = ["1,2\n", "3,\n", ",4e-400\n", "5.5,6\n", "7,-0.0\n"]  # the second has a gap
    values = _read_rows(parts, 2)
    want = np.array([[1, 2], [3, nan], [nan, 0.0], [5.5, 6], [7, -0.0]])
    assert values.tobytes() == want.tobytes()
    # a blank line at a part's end is no row, as in the row loop
    assert _read_rows(["1,2\n\n", "3,4\n"], 2).tolist() == [[1, 2], [3, 4]]
    # a fault in the last part alone gives up on the text
    for last in ("7,-0\n", "7\n", "7,\r8\n", "7,nan\n"):
        assert _read_rows(["1,2\n", "3,4\n", last], 2) is None


@pytest.mark.parametrize("sep, end", [("]", "\n"), ("1e", "\n"), (",", "e3"), ("0", "00")])
def test_join_with_separators_the_orjson_layout_cannot_hold(sep, end):
    values = np.array([[1.0, 300.0]] * 9 + [[0.1, 1e300]])  # one odd value in 20
    assert floattext.join(values, sep, end) == _repr_join(values, sep, end, "nan")
