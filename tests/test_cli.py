"""End-to-end command-line behavior: parsing, commands, exit codes, determinism."""

import csv
import io
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from liangflow import (
    EmptyFileError,
    MalformedError,
    ValidationError,
    all_pairs,
    emit_json,
    flow_matrix_from_json,
    validate_series_set,
)
from liangflow.cli import load_preset, main, parse_csv, write_csv
import liangflow.cli as cli

from conftest import all_pairs_seconds


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------- CSV handling


def test_parse_csv_basic(tmp_path):
    path = _write(tmp_path, "t.csv", "a,b\n1,2\n3,4\n")
    names, values = parse_csv(path)
    assert names == ["a", "b"]
    np.testing.assert_array_equal(values, [[1.0, 3.0], [2.0, 4.0]])


def test_parse_csv_drops_a_byte_order_mark(tmp_path, monkeypatch, capsys):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, which must not end up in the first name
    blocks = _small_blocks(monkeypatch, 100, 1000)
    rows = np.random.default_rng(3).standard_normal((500, 2)).tolist()
    path = tmp_path / "bom.csv"
    text = "x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        names, values = parse_csv(str(path))
        assert names == ["x1", "x2"] and values.T.tolist() == rows
        assert main(["analyze", "--input", str(path), "--dt", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["names"] == ["x1", "x2"]
    assert len(blocks) > 1


def test_parse_csv_ragged_row_reports_line(tmp_path):
    path = _write(tmp_path, "t.csv", "a,b\n1,2\n3\n")
    with pytest.raises(MalformedError, match="line 3"):
        parse_csv(path)


def test_parse_csv_error_names_the_physical_line(tmp_path):
    # blank lines are skipped but still counted: the short row is line 5
    path = _write(tmp_path, "t.csv", "a,b\n\n1,2\n\n3\n")
    with pytest.raises(MalformedError, match="line 5: expected 2 cells, got 1"):
        parse_csv(path)
    path = _write(tmp_path, "u.csv", "\r\na,b\r\n\r\n1,x\r\n")
    with pytest.raises(MalformedError, match="line 4: non-numeric value 'x'"):
        parse_csv(path)
    path = _write(tmp_path, "v.csv", "a,b\n1,\n\n2,x\n")  # after a gap in the same block
    with pytest.raises(MalformedError, match="line 4: non-numeric value 'x'"):
        parse_csv(path)


@pytest.fixture
def serial(monkeypatch):
    """One usable CPU, so ``cli._in_order`` makes every call in this process."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)


@pytest.fixture
def row_loop_calls(monkeypatch, serial):
    """(path, lines) of each piece parse_csv handed to the row-by-row reader.

    Serial, because a call in a pool worker would append to the worker's copy.
    """
    calls = []
    rows = cli._parse_rows

    def spy(path, names, reader, line):
        try:
            return rows(path, names, reader, line)
        finally:
            calls.append((path, reader.line_num))

    monkeypatch.setattr(cli, "_parse_rows", spy)
    return calls


def test_parse_csv_plain_numbers_take_the_bulk_reader(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", '\n" x ", y \r\n1 , 2.5\r\n-3e5,5e-324\r\n\r\n')
    names, values = parse_csv(path)
    assert row_loop_calls == []
    assert names == ["x", "y"]
    np.testing.assert_array_equal(values, [[1.0, -3e5], [2.5, 5e-324]])


def test_parse_csv_fallback_python_float_syntax(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", "a,b\n1_0,2\n\uff13,4\n")
    _, values = parse_csv(path)
    assert {p for p, _ in row_loop_calls} == {path}
    assert values.tolist() == [[10.0, 3.0], [2.0, 4.0]]


def test_parse_csv_fallback_hash_is_data_not_comment(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", "a,b\n1,2\n#1,2\n3,4\n")
    with pytest.raises(MalformedError, match="line 3: non-numeric value '#1' in column 'a'"):
        parse_csv(path)
    assert {p for p, _ in row_loop_calls} == {path}


def test_parse_csv_fallback_trailing_comma_is_ragged(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", "a,b\n1,2,\n3,4,\n")
    with pytest.raises(MalformedError, match="line 2: expected 2 cells, got 3"):
        parse_csv(path)
    assert {p for p, _ in row_loop_calls} == {path}


def test_parse_csv_invalid_utf8_after_the_first_block(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n")
    with pytest.raises(MalformedError, match="not UTF-8"):
        parse_csv(str(path))
    # as in one pass over the file, undecodable text outranks an earlier bad cell
    path.write_bytes(b"a,b\n1,x\n" + b"1,2\n" * 100000 + b"3,\xff\n")
    with pytest.raises(MalformedError, match="not UTF-8"):
        parse_csv(str(path))


def test_parse_csv_empty_cell_becomes_nan(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", "a,b\n1,\n3, \n")
    _, values = parse_csv(path)
    assert {p for p, _ in row_loop_calls} == {path}
    assert values[0].tolist() == [1.0, 3.0]
    assert np.isnan(values[1]).all()


def test_parse_csv_non_numeric(tmp_path):
    path = _write(tmp_path, "t.csv", "a,b\n1,2\n3,oops\n")
    with pytest.raises(MalformedError, match="'b'"):
        parse_csv(path)


def test_parse_csv_empty_and_header_only(tmp_path):
    with pytest.raises(EmptyFileError):
        parse_csv(_write(tmp_path, "e.csv", ""))
    for text in ("a,b\n", "a,b\n\n\r\n"):
        header_only = _write(tmp_path, "h.csv", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EmptyFileError, match="header only"):
                parse_csv(header_only)
        assert caught == []  # no reader warns about a block without data


def _row_loop_bits(path, names):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return cli._parse_rows(path, names, reader, 1).T.tobytes()


def test_parse_csv_gaps_take_the_filled_bulk_reader(tmp_path, row_loop_calls):
    rows = ["%d,%d,%d" % (i, -i, i) for i in range(10000)]
    rows[50], rows[9000], rows[9001] = ",-50,50", "9000,,", "9001,-9001,"
    path = _write(tmp_path, "t.csv", "a,b,c\n" + "\n".join(rows) + "\n")
    _, values = parse_csv(path)
    assert row_loop_calls == []
    want = np.array([np.arange(10000.0), -np.arange(10000.0), np.arange(10000.0)])
    want[0, 50] = want[1, 9000] = want[2, 9000] = want[2, 9001] = np.nan
    np.testing.assert_array_equal(values, want)
    assert values.tobytes() == _row_loop_bits(path, ["a", "b", "c"])


@pytest.mark.parametrize("text", [
    "a,b,c,d\n1,,,4\n,,,8\n9,,11,\n",  # runs of two and three empty cells
    "a,b,c\n,2,3\n4,5,\n,,\n",  # an empty first and an empty last cell
    "a,b,c\r\n,2,3\r\n4,5,\r\n7,,9\r\n",  # CRLF line ends
    "a,b,c\n1,,3\n4,5,",  # a last line without a newline
    "a,b\n1,2\n,\n3,\n",  # a d=2 line that is just ","
])
def test_parse_csv_gap_shapes_take_the_filled_bulk_reader(tmp_path, row_loop_calls, text):
    path = _write(tmp_path, "t.csv", text)
    names, values = parse_csv(path)
    assert row_loop_calls == []
    assert np.isnan(values).any()
    assert values.tobytes() == _row_loop_bits(path, names)


def test_parse_csv_gaps_with_python_float_syntax_give_the_row_loop_bits(tmp_path,
                                                                       row_loop_calls):
    path = _write(tmp_path, "t.csv", "a,b,c\n1_0,,3\n,5,\n7,8,9\n")
    names, values = parse_csv(path)
    assert {p for p, _ in row_loop_calls} == {path}
    assert values.tobytes() == _row_loop_bits(path, names)
    assert values[0, 0] == 10.0 and np.isnan(values[1, 0])


def test_parse_csv_gaps_with_a_bad_cell_give_the_row_loop_error(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", "a,b,c\n1,,3\n,5,\n7,x,9\n10,,\n")
    with pytest.raises(MalformedError, match="line 4: non-numeric value 'x' in column 'b'"):
        parse_csv(path)
    assert {p for p, _ in row_loop_calls} == {path}


def test_parse_csv_plain_decimals_take_the_orjson_reader(tmp_path, row_loop_calls):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-3, 12, (300, 3))
    text = "a,b,c\r\n" + "".join("%r, %.17g,\t%r\r\n" % tuple(row) for row in rows.tolist())
    names, values = parse_csv(_write(tmp_path, "t.csv", text))
    assert row_loop_calls == []
    assert values.T.tobytes() == rows.tobytes()


@pytest.mark.parametrize("text", [
    "a,b,c,d\n1,,,4\n,,,8\n9,,11,\n",  # runs of two and three empty cells
    "a,b,c\r\n,2,3\r\n4,5,\r\n7,,9\r\n",  # CRLF, an empty first and an empty last cell
    "a,b,c\n1,,3\n4,5,",  # a last line without a newline
    "a,b\n1,2\n,\n3,\n\n\n",  # a d=2 line that is just ",", blank lines at the end
    "a,b\n1.5,-0.0\n2.5e-3 ,\n,\t7\n",  # whitespace beside a gap
])
def test_parse_csv_gaps_take_the_orjson_reader(tmp_path, row_loop_calls, text):
    path = _write(tmp_path, "t.csv", text)
    names, values = parse_csv(path)
    assert row_loop_calls == []
    assert np.isnan(values).any()
    assert values.tobytes() == _row_loop_bits(path, names)


@pytest.mark.parametrize("part", [2, 1 << 16])  # empty lines at each part's start, or inside
@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("rows", [["1.5,-2,3", "4,5,6", "7e-3,8,9"],
                                  ["1.5,,3", ",5,6", "7e-3,8,"]])
def test_parse_csv_blank_lines_take_the_orjson_reader(tmp_path, monkeypatch, row_loop_calls,
                                                      part, end, rows):
    monkeypatch.setattr(cli, "_READ_PART", part)
    lines = ["a,b,c", "", "", rows[0], "", rows[1], "", "", "", rows[2], "", ""]
    text = end.join(lines) + end
    path = _write(tmp_path, "t.csv", text)
    names, values = parse_csv(path)
    assert row_loop_calls == []
    assert values.shape == (3, 3)
    assert values.tobytes() == _row_loop_bits(path, names)
    bad = _write(tmp_path, "u.csv", text + "1,x,3" + end)
    with pytest.raises(MalformedError, match=f"line {len(lines) + 1}: non-numeric value 'x'"):
        parse_csv(bad)


@pytest.mark.parametrize("text", [
    "a,b\n1,\n+2,3\n",  # a cell orjson rejects, after a gap
    "a,b\n+1,2\n3,\n",  # and before one
    "a,b\n-0,\n1,2\n",  # the integer -0
    "a,b\n.5,\n1,2\n",
    "a,b\n5.,2\n,4\n",
    "a,b\n1,\n01,2\n",
    "a,b\nnan,\n1,2\n",
    "a,b\n,inf\n1,2\n",
    "a,b\n1,-inf\n,2\n",
])
def test_parse_csv_gaps_orjson_rejects_take_the_row_loop(tmp_path, row_loop_calls, text):
    path = _write(tmp_path, "t.csv", text)
    names, values = parse_csv(path)
    assert [p for p, _ in row_loop_calls] == [path]  # the one block, once
    assert np.isnan(values).any()
    assert values.tobytes() == _row_loop_bits(path, names)


# Cells that orjson reads otherwise than float, or not at all, among plain ones
@pytest.mark.parametrize("cell", [
    "-0", "0", "-0.0", "-0e0", "9007199254740993", "18446744073709551615",
    "18446744073709551617", "18446744073709553665", "-9223372036854775809", "1e400",
    "-1e400", "1e-400", "-1e-400", "-2e-324", "+1", ".5", "5.", "01", "-01", "1_0", " 1.5", "1.5 ", "\t-0",
    "-0\t", " \t2.5e-3 \t", "nan", "inf", "-inf", "1E5", "1e+05",
])
def test_parse_csv_cells_give_the_row_loop_bits(tmp_path, cell):
    path = _write(tmp_path, "t.csv", "a,b\n0.5,1.25\n%s,-2.0\n3.5,%s\n" % (cell, cell))
    names, values = parse_csv(path)
    assert values.tobytes() == _row_loop_bits(path, names)


@pytest.mark.parametrize("text", [
    "a,b\r\n1,2\r\n3,-0\r\n",  # CRLF
    "a,b\n1,2\r3,4\n",  # a lone CR ends a line
    "a,b\n1,2\r3,4\r",
    "a,b\n1,\r3,4\n",  # and JSON would read it as whitespace after an empty cell
    "a,b\n1,2\n\n3,4\n\n\n",  # blank lines, inside and at the end
    "a,b\n\r\n1,2\n3,4\n",
    "a,b\n 1 ,\t2\t\n  3,4  \n",  # spaces and tabs around cells
    "a,b\n1,2\n3,4",  # no newline at the end
])
def test_parse_csv_line_shapes_give_the_row_loop_bits(tmp_path, text):
    path = _write(tmp_path, "t.csv", text)
    names, values = parse_csv(path)
    assert values.tobytes() == _row_loop_bits(path, names)


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\ntrue,4\n", "line 3: non-numeric value 'true' in column 'a'"),
    ("a,b\n1,2\n3,null\n", "line 3: non-numeric value 'null' in column 'b'"),
    ("a,b\n1,2\n \n3,4\n", "line 3: expected 2 cells, got 1"),  # a whitespace-only line
    ("a,b\n1,2\n\t\n3,4\n", "line 3: expected 2 cells, got 1"),
    ("a,b\n1,2\n3,4,5\n", "line 3: expected 2 cells, got 3"),
    ("a,b\n1,2\n[3],4\n", "line 3: non-numeric value '[3]' in column 'a'"),
    ("a,b,c\n1,\r3,4\n", "line 2: expected 3 cells, got 2"),  # not one row 1,3,4
])
def test_parse_csv_cells_orjson_rejects_give_the_row_loop_error(tmp_path, capsys, text, message):
    path = _write(tmp_path, "t.csv", text)
    assert main(["analyze", "--input", path]) == 2
    assert capsys.readouterr().err == f"liangflow: error: {path}: {message}\n"


def test_parse_csv_blocks_keep_physical_lines_and_quoted_records(tmp_path, monkeypatch):
    blocks = _small_blocks(monkeypatch, 2, 1)
    # the quoted cell "4\n" is one record over lines 3-4, across a block boundary
    text = 'a,b\n1,2\n3,"4\n"\n5,6\n\n7,\n'
    _, values = parse_csv(_write(tmp_path, "t.csv", text))
    np.testing.assert_array_equal(values, [[1, 3, 5, 7], [2, 4, 6, np.nan]])
    with pytest.raises(MalformedError, match="line 9: non-numeric value 'x'"):
        parse_csv(_write(tmp_path, "u.csv", text + "\n8,x\n"))
    with pytest.raises(MalformedError, match="line 9: expected 2 cells, got 1"):
        parse_csv(_write(tmp_path, "v.csv", text + "\n8\n"))
    assert len(blocks) > 1


def _block_lines(monkeypatch):
    """The physical lines of each part of each block parse_csv cuts, in order: one
    list a block."""
    sizes = []
    blocks = cli._blocks

    def spy(fh, line):
        for parts, start in blocks(fh, line):
            sizes.append([cli._line_count(part) for part in parts])
            yield parts, start

    monkeypatch.setattr(cli, "_blocks", spy)
    return sizes


def _small_blocks(monkeypatch, lines: int, part: int):
    """Blocks of ``lines`` lines in reads of ``part`` characters, so that a small file
    is cut into several; ``_block_lines``'s list, to check that it was."""
    monkeypatch.setattr(cli, "_READ_BLOCK", lines)
    monkeypatch.setattr(cli, "_READ_PART", part)
    return _block_lines(monkeypatch)


@pytest.mark.parametrize("part", [2, 1 << 16])
def test_parse_csv_read_ends_between_a_cr_and_its_lf(tmp_path, monkeypatch, part):
    # one column of 3-character lines after a first line of 3 + pad: a read of 2 characters
    # from a line's start ends on its CR, and the first read of 2**16 does so at one pad.
    # The rest of the line, its LF, is read with it.
    monkeypatch.setattr(cli, "_READ_PART", part)
    reads = []

    class Recorded(io.TextIOWrapper):
        def read(self, size=-1):
            text = super().read(size)
            reads.append(text)
            return text

    monkeypatch.setattr(cli, "open", lambda file, newline=None, encoding=None: Recorded(
        io.BufferedReader(io.FileIO(file)), encoding=encoding, newline=newline), raising=False)
    for pad in range(3):
        text = "a\r\n1" + " " * pad + "\r\n" + "5\r\n" * 22_000
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            values = parse_csv(_write(tmp_path, "t.csv", text))[1]
            np.testing.assert_array_equal(values, [[1] + [5] * 22_000])
            with pytest.raises(MalformedError, match="line 22003: non-numeric value 'x'"):
                parse_csv(_write(tmp_path, "u.csv", text + "x\r\n"))
    assert any(text.endswith("\r") for text in reads)


def test_parse_csv_lone_cr_error_names_the_physical_line(tmp_path, monkeypatch):
    # in blocks of about 5 lines, with a blank line before the bad cell, which is many blocks in
    blocks = _small_blocks(monkeypatch, 5, 8)
    lines = ["a,b"] + ["1,2"] * 30 + [""] + ["3,4"] * 10 + ["5,x"] + ["6,7"] * 10
    path = _write(tmp_path, "t.csv", "\r".join(lines) + "\r")
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        with pytest.raises(MalformedError, match="line 43: non-numeric value 'x' in column 'b'"):
            parse_csv(path)
    assert len(blocks) > 1


@pytest.mark.parametrize("d", [2, 200])
def test_parse_csv_blocks_hold_about_read_block_lines(tmp_path, monkeypatch, d):
    # every block but the last holds at least _READ_BLOCK lines, and fewer without its last
    # read: at d = 2 a read holds some 25 lines, at d = 200 one
    blocks = _small_blocks(monkeypatch, 64, 1000)
    values = np.random.default_rng(d).standard_normal((d, 1000))
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv([f"x{i}" for i in range(d)], values, fh)
    assert parse_csv(str(path))[1].tobytes() == values.tobytes()
    assert sum(map(sum, blocks)) == 1000 and len(blocks) > 10
    assert all(sum(reads) >= 64 > sum(reads[:-1]) for reads in blocks[:-1]), blocks
    assert max(map(max, blocks)) > 1 if d == 2 else blocks[0] == [1] * 64


def test_parse_csv_returns_c_order_and_analyze_the_library_bytes(tmp_path, monkeypatch, capsys):
    blocks = _small_blocks(monkeypatch, 100, 1000)
    names = [f"x{i}" for i in range(5)]
    values = np.random.default_rng(6).standard_normal((5, 1000))
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(names, values, fh)
    assert parse_csv(str(path))[1].flags.c_contiguous
    want = emit_json(all_pairs(validate_series_set(values, names, 1.0), k=1, alpha=0.05,
                               normalize=True, mode="multivariate"))
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert main(["analyze", "--input", str(path)]) == 0
        assert capsys.readouterr().out == want
    assert len(blocks) > 1


def test_parse_csv_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        parse_csv(str(tmp_path / "nope.csv"))


def test_csv_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((3, 40))
    path = tmp_path / "rt.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(("a", "b", "c"), values, fh)
    names, back = parse_csv(str(path))
    assert names == ["a", "b", "c"]
    np.testing.assert_array_equal(back, values)


def test_write_csv_bytes_match_per_value_repr():
    # 9000 samples: two full blocks of 4096 and a partial one
    values = np.random.default_rng(1).standard_normal((3, 9000))
    values[0, :5] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
    values[1, 4095:4098] = [1e308, -5e-324, 0.0]
    names = ("a", "b,c", 'q"')
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(names)
    for col in values.T:
        writer.writerow([repr(float(v)) for v in col])
    got = io.StringIO()
    write_csv(names, values, got)
    assert got.getvalue() == want.getvalue()


def test_simulate_stdout_bytes_equal_file_bytes(tmp_path, capsysbinary):
    argv = ["simulate", "--preset", "chain5", "--n", "5000", "--seed", "4"]
    path = tmp_path / "sim.csv"
    assert main(argv + ["--output", str(path)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


# ------------------------------------------------- CSV conversion on every CPU


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so ``cli._in_order`` takes its process pool on any host."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


needs_fork_pool = pytest.mark.skipif(not cli._FORK_POOL, reason="no fork pool on this Python")


@pytest.mark.parametrize("cpus, n_tasks, fork_pool, pooled",
                         [(1, 5, True, False), (2, 1, True, False), (2, 2, True, True),
                          (3, 9, True, True), (2, 2, False, False)])
def test_in_order_pools_with_two_cpus_and_two_tasks(monkeypatch, cpus, n_tasks, fork_pool, pooled):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_FORK_POOL", fork_pool and cli._FORK_POOL)
    pids = list(cli._in_order(os.getpid, [()] * n_tasks))
    assert len(pids) == n_tasks
    assert (os.getpid() not in pids) == (pooled and cli._FORK_POOL)
    assert multiprocessing.active_children() == []


@needs_fork_pool
def test_in_order_forks_no_more_workers_than_tasks(monkeypatch):
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    for n_tasks in (2, 3, 4, 5, 20):
        assert list(cli._in_order(divmod, [(n, 3) for n in range(n_tasks)])) == [
            divmod(n, 3) for n in range(n_tasks)]
    assert sizes == [2, 3, 4, 4, 4]
    assert multiprocessing.active_children() == []


def test_in_order_keeps_task_order_and_bounds_the_lookahead(two_cpus):
    drawn = []

    def tasks():
        for i in range(40):
            drawn.append(i)
            yield i, 7

    for k, got in enumerate(cli._in_order(divmod, tasks()), 1):
        assert got == divmod(k - 1, 7)
        assert len(drawn) <= k + 2  # the result handed out, and one waiting per worker
    assert multiprocessing.active_children() == []


def test_in_order_raises_the_first_error_in_task_order(two_cpus):
    # a task for "b" may fail first in time; the one for "a" comes first in order
    with pytest.raises(ValueError, match="'a'"):
        list(cli._in_order(int, [("1",), ("a",)] + [("b",)] * 6))
    assert multiprocessing.active_children() == []


@needs_fork_pool
def test_in_order_dead_worker_raises_broken_pool():
    # in a child interpreter with a deadline, because a pool that waited on the dead worker
    # would hang
    code = (
        "import multiprocessing, os\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "import liangflow.cli as cli\n"
        "cli._usable_cpus = lambda: 2\n"
        "try:\n"
        "    list(cli._in_order(os._exit, [(3,)] * 4))\n"
        "except BrokenProcessPool:\n"
        "    print(multiprocessing.active_children())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_csv_pool_leaves_no_children(tmp_path, monkeypatch, two_cpus):
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 5)
    blocks = _small_blocks(monkeypatch, 5, 1)
    values = np.random.default_rng(3).standard_normal((3, 40))
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(("a", "b", "c"), values, fh)
    assert multiprocessing.active_children() == []
    assert parse_csv(str(path))[1].tobytes() == values.tobytes()
    assert multiprocessing.active_children() == []
    with open(path, "a", encoding="utf-8") as fh:  # the last block, one line, goes to a worker
        fh.write("1,2,x\n")
    with pytest.raises(MalformedError, match="line 42: non-numeric value 'x' in column 'c'"):
        parse_csv(str(path))
    assert multiprocessing.active_children() == []
    assert len(blocks) > 1 and blocks[-1] == [1]


def test_parse_csv_reads_a_malformed_file_to_its_end_once(tmp_path, monkeypatch, two_cpus):
    # the pooled pass stops a few blocks in, then reads on to the end of the file
    path = _write(tmp_path, "t.csv", "a,b\n1,x\n" + "1,2\n" * 100_000)
    read = []

    class Counted(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            read.append(n)
            return n

        def readall(self):
            data = super().readall()
            read.append(len(data))
            return data

    def counted_open(file, newline=None, encoding=None):
        return io.TextIOWrapper(io.BufferedReader(Counted(file)), encoding=encoding,
                                newline=newline)

    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    with pytest.raises(MalformedError, match="line 2: non-numeric value 'x' in column 'b'"):
        parse_csv(path)
    size = os.path.getsize(path)
    assert size <= sum(read) < 1.5 * size


def test_parse_csv_drains_a_malformed_file_in_bounded_memory(tmp_path, two_cpus):
    # the rest of the file after a bad line 2 is read for undecodable text, not held
    path = _write(tmp_path, "t.csv", "a,b\n1,x\n" + "1,2\n" * 8_000_000)  # 32 MB
    tracemalloc.start()
    try:
        with pytest.raises(MalformedError, match="line 2: non-numeric value 'x'"):
            parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path) / 4


def test_csv_io_without_sched_getaffinity(tmp_path, monkeypatch):
    # os.sched_getaffinity exists on Linux only; elsewhere the CPU count stands in for it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 5)
    blocks = _small_blocks(monkeypatch, 5, 1)
    assert cli._usable_cpus() == (os.cpu_count() or 1)
    values = np.random.default_rng(4).standard_normal((2, 23))
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(("a", "b"), values, fh)
    assert parse_csv(str(path))[1].tobytes() == values.tobytes()
    assert multiprocessing.active_children() == [] and len(blocks) > 1


# in blocks of 3 lines: clean; quoted, its last record open into the next block; gappy;
# quoted, with a blank line; clean; clean. All of them are parsed in the pool.
MIXED_LINES = ("1,2", "3,4", "5,6", '7,"8"', "9,10", '11,"12', '"', "13,", ",14", "15,16",
               "", "17,18", '19,"20"', "21,22", "23,24", "25,26", "27,28", "29,30")


def _outcome(path):
    try:
        names, values = parse_csv(path)
    except MalformedError as e:
        return type(e), str(e)
    return names, values.tobytes()


@pytest.mark.parametrize(
    "bad, message",
    [
        ({}, None),
        ({16: "27,x"}, "line 18: non-numeric value 'x'"),
        ({3: '7,"y"', 16: "27,x"}, "line 5: non-numeric value 'y'"),  # a quoted block first
        ({7: "13,z", 12: '19,"w"'}, "line 9: non-numeric value 'z'"),  # a pooled block first
        ({16: "27,28,0", 17: "x"}, "line 18: expected 2 cells, got 3"),
    ],
)
def test_parse_csv_pool_gives_the_serial_result(tmp_path, monkeypatch, bad, message):
    blocks = _small_blocks(monkeypatch, 3, 1)
    lines = [bad.get(i, text) for i, text in enumerate(MIXED_LINES)]
    path = _write(tmp_path, "t.csv", "a,b\n" + "\n".join(lines) + "\n")
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        outcomes.append(_outcome(path))
    assert outcomes[0] == outcomes[1] and len(blocks) > 1
    if message is None:
        want = [[1, 3, 5, 7, 9, 11, 13, np.nan, 15, 17, 19, 21, 23, 25, 27, 29],
                [2, 4, 6, 8, 10, 12, np.nan, 14, 16, 18, 20, 22, 24, 26, 28, 30]]
        np.testing.assert_array_equal(parse_csv(path)[1], want)
    else:
        assert outcomes[1][0] is MalformedError and message in outcomes[1][1]


UNDECODABLE = (
    # a bad cell in the first block, which ends in the text reader's second 8192-byte read and
    # cuts a 3-byte character there, and a bad byte after the blocks read ahead
    b"a,b\n1,x\n1,234\n" + "\uff13,4\n".encode() * 20000 + b"3,\xff\n",
    # an unterminated quote that runs on into the bad byte, and one that csv gives up on (at
    # 131072 characters) before it
    b'a,b\n1,"2\n' + b"3,4\n" * 100 + b"3,\xff\n",
    b'a,b\n1,"2\n' + b"3,4\n" * 40000 + b"3,\xff\n",
)


def test_parse_csv_pool_reports_undecodable_text_as_one_pass(tmp_path, monkeypatch):
    # the message names the bytes, not a position that depends on how far the reader got
    blocks = _small_blocks(monkeypatch, 2000, 1000)
    path = tmp_path / "t.csv"
    for data in UNDECODABLE:
        path.write_bytes(data)
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            assert _outcome(str(path)) == (
                MalformedError, f"{path} is not UTF-8 text: can't decode b'\\xff': invalid start "
                                "byte")
    assert len(blocks) > 1


@needs_fork_pool
def test_parse_csv_pool_parses_quoted_blocks_in_the_workers(tmp_path, monkeypatch, two_cpus):
    blocks = _small_blocks(monkeypatch, 3, 1)
    path = _write(tmp_path, "t.csv", "a,b\n" + "\n".join(MIXED_LINES) + "\n")
    with open(path, newline="", encoding="utf-8") as fh:  # the whole-file row loop
        reader = csv.reader(fh)
        next(reader)
        want = cli._parse_rows(path, ["a", "b"], reader, 0).T
    calls = []
    rows = cli._parse_rows

    def spy(path, names, reader, line):
        calls.append(line)  # in a worker, to the worker's copy of the list
        return rows(path, names, reader, line)

    monkeypatch.setattr(cli, "_parse_rows", spy)
    np.testing.assert_array_equal(parse_csv(path)[1], want)
    assert calls == [] and len(blocks) > 1
    assert multiprocessing.active_children() == []


# an unterminated quote on line 2 opens a field that runs on through the 4-character lines
# after it, until csv gives up at 131072 characters, on line 32770; the error names line 2,
# where the record starts
LONG_FIELD = 'a,b\n1,"2\n' + "3,4\n" * 40000


@pytest.mark.parametrize(
    "text, message",
    [
        (LONG_FIELD, "line 2: field larger than field limit (131072)"),
        # a bad record before it in the same block comes first
        (LONG_FIELD.replace("\n", "\n1x,2\n", 1), "line 2: non-numeric value '1x' in column 'a'"),
        ('a,"b\n' + "3,4\n" * 40000, "line 1: field larger than field limit (131072)"),
    ],
    ids=["record", "bad record first", "header"],
)
def test_parse_csv_csv_error_is_malformed(tmp_path, monkeypatch, text, message):
    # in blocks of 5 lines, so the quoted block runs on far into the file and the pool has
    # blocks after it; the header's quote fails before any block is cut
    blocks = _small_blocks(monkeypatch, 5, 16)
    path = _write(tmp_path, "t.csv", text)
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        with pytest.raises(MalformedError) as caught:
            parse_csv(path)
        assert str(caught.value) == f"{path}: {message}"
    assert main(["analyze", "--input", path]) == 2
    assert multiprocessing.active_children() == []
    assert len(blocks) > 1 if message.startswith("line 2:") else blocks == []


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_analyze_reads_a_pipe(tmp_path):
    # in a child interpreter with a deadline, in blocks of about 500 lines on two CPUs, so the
    # pipe goes through the pool on any host; the child fails if it cuts one block only
    code = (
        "import sys\n"
        "import liangflow.cli as cli\n"
        "cli._READ_BLOCK = 500\n"
        "cli._READ_PART = 1 << 12\n"
        "cli._usable_cpus = lambda: 2\n"
        "blocks, cut = cli._blocks, []\n"
        "cli._blocks = lambda fh, line: (cut.append(b) or b for b in blocks(fh, line))\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.exit(code if len(cut) > 1 else 'one block')\n"
    )

    def analyze(path, data=b""):
        return subprocess.run([sys.executable, "-c", code, "analyze", "--input", path],
                              input=data, capture_output=True, timeout=60)

    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--preset", "chain5", "--n", "3000", "--seed", "8",
                 "--output", str(sim)]) == 0
    lines = sim.read_text(encoding="utf-8").splitlines()
    lines[700] = '"%s",%s' % tuple(lines[700].split(",", 1))  # a quoted cell in block 2
    sim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from_file = analyze(str(sim))
    from_pipe = analyze("/dev/stdin", sim.read_bytes())
    assert from_file.returncode == from_pipe.returncode == 0, from_pipe.stderr
    assert from_pipe.stdout == from_file.stdout
    with_bom = analyze("/dev/stdin", b"\xef\xbb\xbf" + sim.read_bytes())
    assert with_bom.returncode == 0 and with_bom.stdout == from_file.stdout
    lines[1500] += ",0"
    lines[2600] = "x," + lines[2600]
    bad = analyze("/dev/stdin", "\n".join(lines).encode() + b"\n")
    assert bad.returncode == 2
    assert bad.stderr == b"liangflow: error: /dev/stdin: line 1501: expected 5 cells, got 6\n"
    # a bad cell on line 2 and, past the blocks read ahead, a byte that is not UTF-8: the
    # file and the pipe give the same error
    lines = sim.read_bytes().splitlines(keepends=True)
    lines[1] = b"x," + lines[1]
    lines[2900] = b"\xff" + lines[2900]
    sim.write_bytes(b"".join(lines))
    from_file = analyze(str(sim))
    from_pipe = analyze("/dev/stdin", sim.read_bytes())
    assert from_file.returncode == from_pipe.returncode == 2
    assert b"is not UTF-8 text" in from_pipe.stderr
    assert from_file.stderr.replace(bytes(sim), b"/dev/stdin") == from_pipe.stderr


# ----------------------------------------------------------------- presets


def test_load_preset_systems():
    sde, dt = load_preset("ou2")
    np.testing.assert_array_equal(sde.A, [[-1.0, 0.5], [0.0, -1.0]])
    np.testing.assert_array_equal(sde.noise_cov, np.eye(2))
    assert dt == 0.01
    assert sde.names == ("x1", "x2")

    chain, dt5 = load_preset("chain5")
    assert chain.d == 5
    assert dt5 == 0.01
    np.testing.assert_array_equal(np.diag(chain.A), -np.ones(5))
    for i in range(4):
        assert chain.A[i + 1, i] == 0.5
    assert np.count_nonzero(chain.A) == 9

    with pytest.raises(ValidationError):
        load_preset("does-not-exist")


# ---------------------------------------------------------------- commands


def test_analyze_matches_library_call(tmp_path):
    sim = str(tmp_path / "sim.csv")
    out = str(tmp_path / "flows.json")
    assert main(["simulate", "--preset", "ou2", "--n", "4000", "--seed", "5",
                 "--output", sim]) == 0
    assert main(["analyze", "--input", sim, "--dt", "0.01", "--output", out]) == 0

    names, values = parse_csv(sim)
    tss = validate_series_set(values, names, 0.01)
    expected = all_pairs(tss, k=1, alpha=0.05)
    with open(out, encoding="utf-8") as fh:
        assert flow_matrix_from_json(fh.read()) == expected


def test_analyze_takes_the_parsed_array_without_a_copy(tmp_path, monkeypatch):
    names = [f"x{i}" for i in range(4)]
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(names, np.random.default_rng(8).standard_normal((4, 300)), fh)
    parsed, seen = [], []

    def spy_parse(p):
        out = parse_csv(p)
        parsed.append(out[1])
        return out

    def spy_all_pairs(tss, **kwargs):
        seen.append(tss)
        return all_pairs(tss, **kwargs)

    monkeypatch.setattr(cli, "parse_csv", spy_parse)
    monkeypatch.setattr(cli, "all_pairs", spy_all_pairs)
    assert main(["analyze", "--input", str(path)]) == 0
    (values,), (tss,) = parsed, seen
    assert tss.values is values
    assert not tss.values.flags.writeable
    assert tss.values.tobytes() == parse_csv(str(path))[1].tobytes()


def test_analyze_interpolate_equals_the_library_route(tmp_path, capsys):
    names = [f"x{i}" for i in range(3)]
    values = np.random.default_rng(9).standard_normal((3, 400))
    values[0, [0, 50, 51, 52]] = np.nan
    values[2, [7, 399]] = np.nan
    path = tmp_path / "gaps.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(names, values, fh)
    want = emit_json(all_pairs(validate_series_set(values, names, 1.0, nan_policy="interpolate")))
    assert main(["analyze", "--input", str(path), "--nan-policy", "interpolate"]) == 0
    assert capsys.readouterr().out == want


def test_analyze_across_blas_thread_counts(tmp_path):
    # the bytes may change with the BLAS thread count (README, Determinism), the
    # values stay within criterion 11's tolerances; d = 30 is large enough for
    # OpenBLAS to split its products over two threads
    d, n = 30, 2000
    x = np.random.default_rng(10).standard_normal((d, n))
    for t in range(1, n):
        x[:, t] += 0.5 * x[:, t - 1]
    x[1, 1:] += 0.3 * x[0, :-1]
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv([f"x{i}" for i in range(d)], x, fh)
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "liangflow", "analyze", "--input", str(path)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        runs.append({f: np.array(out[f], dtype=float)
                     for f in ("T", "SE", "P", "TAU", "noise_share")})
    one, two = runs
    se, t = one["SE"], one["T"]
    z = np.abs(t).sum(axis=1) / (1.0 - one["noise_share"])  # each target's budget
    assert (np.abs(two["T"] - t) <= 1e-12 * se).all()
    assert (np.abs(two["SE"] - se) <= 1e-12 * se).all()
    assert (np.abs(two["P"] - one["P"]) <= 1e-12).all()
    assert (np.abs(two["TAU"] - one["TAU"]) * z[:, None] <= 1e-12 * (se + np.abs(t))).all()
    ns = one["noise_share"]
    assert (np.abs(two["noise_share"] - ns) <= 1e-12 * ns).all()


def test_analyze_bivariate_equals_multivariate_at_d2(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--preset", "ou2", "--n", "3000", "--seed", "6", "--output", sim])
    assert main(["analyze", "--input", sim, "--dt", "0.01"]) == 0
    multi = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--input", sim, "--dt", "0.01", "--mode", "bivariate"]) == 0
    bi = json.loads(capsys.readouterr().out)
    t_multi = np.array(multi["T"])
    t_bi = np.array(bi["T"])
    np.testing.assert_allclose(t_bi, t_multi, rtol=1e-12)
    assert bi["mode"] == "bivariate"


def test_analyze_csv_format(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--preset", "ou2", "--n", "2000", "--seed", "7", "--output", sim])
    assert main(["analyze", "--input", sim, "--dt", "0.01", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "target,source,T,se,p,tau"
    assert len(lines) == 1 + 4 + 2  # header, d*d relations, d noise rows
    noise_row = lines[-2].split(",")
    assert noise_row[0] == "x1" and noise_row[1] == ""
    assert float(noise_row[5]) > 0.0


@pytest.mark.parametrize("normalize", [False, True])
def test_analyze_csv_bytes_match_per_element_repr(tmp_path, capsys, normalize):
    names = ("a", "b,c", 'q"')
    values = np.random.default_rng(8).standard_normal((3, 400)).cumsum(axis=1) * 1e-3
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(names, values, fh)
    flag = "--normalize" if normalize else "--no-normalize"
    assert main(["analyze", "--input", str(path), flag, "--format", "csv"]) == 0
    got = capsys.readouterr().out
    fm = all_pairs(validate_series_set(parse_csv(str(path))[1], names, 1.0), normalize=normalize)
    cell = lambda x: "" if np.isnan(x) else repr(float(x))  # noqa: E731
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["target", "source", "T", "se", "p", "tau"])
    for i, tgt in enumerate(names):
        for j, src in enumerate(names):
            writer.writerow([tgt, src, repr(float(fm.T[i, j])), repr(float(fm.SE[i, j])),
                             repr(float(fm.P[i, j])), cell(fm.TAU[i, j])])
    for i, tgt in enumerate(names):
        writer.writerow([tgt, "", "", "", "", cell(fm.noise_share[i])])
    assert got == want.getvalue()
    assert '"b,c","q""",' in got  # the names were quoted
    assert (",\n" in got) != normalize  # tau cells are empty exactly without shares


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert main(["simulate", "--preset", "ou2", "--n", "500", "--seed", seed,
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_inline_constant_system(tmp_path):
    out = str(tmp_path / "const.csv")
    assert main(["simulate", "--A", "0", "--B", "0", "--x0", "1", "--n", "50",
                 "--output", out]) == 0
    names, values = parse_csv(out)
    assert names == ["x1"]
    np.testing.assert_array_equal(values, np.ones((1, 50)))


def test_simulate_require_stationary(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for a in ("0", "1"):
        rc = main(["simulate", "--A", a, "--B", "1", "--n", "50",
                   "--require-stationary", "--output", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"liangflow: numerical error: drift matrix has an eigenvalue with real part {a} >= 0;"
            " no stationary state exists\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "option, what",
    [("--x0=1", "x0 has shape (1,), expected (2,)"),
     ("--f=1,2,3", "offset has shape (3,), expected (2,)")],
)
def test_simulate_vector_of_the_wrong_length(tmp_path, capsys, option, what):
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--A=-1,0;0,-1", "--B=1,0;0,1", option, "--n", "5",
               "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"liangflow: error: {what}\n"
    assert not out.exists()


@pytest.mark.parametrize("names", ["--names=a,", "--names=a, ", "--names=,b"])
def test_simulate_rejects_an_empty_name(tmp_path, capsys, names):
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--A=-1,0;0,-1", "--B=1,0;0,1", names, "--n", "50",
               "--output", str(out)])
    assert rc == 2
    position = 1 if names == "--names=,b" else 2
    assert capsys.readouterr().err == (
        f"liangflow: error: variable name {position} of 2 is empty or blank: ''\n")
    assert not out.exists()


def test_analyze_rejects_an_empty_header_cell(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("a,,b\n" + "".join(f"{i % 3},{i % 5},{i % 7}\n" for i in range(50)))
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "liangflow: error: variable name 2 of 3 is empty or blank: ''\n")


def test_simulate_rejects_preset_plus_inline(tmp_path):
    rc = main(["simulate", "--preset", "ou2", "--A", "-1", "--n", "10",
               "--output", str(tmp_path / "x.csv")])
    assert rc == 2


def test_pipeline_simulate_then_graph(tmp_path, capsys):
    sim = str(tmp_path / "chain.csv")
    assert main(["simulate", "--preset", "chain5", "--n", "50000", "--seed", "11",
                 "--output", sim]) == 0
    assert main(["graph", "--input", sim, "--dt", "0.01", "--alpha", "0.01",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    found = {(e["source"], e["target"]) for e in payload["edges"]}
    # the generating chain drives x1 -> x2 -> ... -> x5
    assert {("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")} <= found


def test_graph_dot_output(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--preset", "ou2", "--n", "20000", "--seed", "9", "--output", sim])
    assert main(["graph", "--input", sim, "--dt", "0.01", "--alpha", "0.01"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("digraph G {")
    assert '"x2" -> "x1"' in text  # the driven direction is detectable at this N


def test_oracle_coupled_pair(capsys):
    assert main(["oracle", "--preset", "ou2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orientation"] == "T[target][source]"
    assert abs(payload["T"][0][1] - 1.0 / 9.0) < 1e-12
    assert payload["T"][1][0] == 0.0
    assert payload["T"][0][0] == -1.0
    assert max(abs(r) for r in payload["budget_residual"]) <= 1e-10
    assert payload["lyapunov_residual"] <= 1e-12
    assert abs(payload["TAU"][0][1] - 0.0556) < 5e-4


def test_oracle_diagonal_drift(capsys):
    # values starting with "-" need the --opt=value spelling
    assert main(["oracle", "--A=-1,0;0,-2", "--B", "1,0;0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T"][0][1] == 0.0
    assert payload["T"][1][0] == 0.0


def test_oracle_not_hurwitz():
    assert main(["oracle", "--A", "1", "--B", "1"]) == 3


def test_oracle_component_without_noise_is_numerical(capsys):
    # no noise reaches x2, so its stationary variance is 0 and its budget divides by it
    assert main(["oracle", "--A=-1,0.5;0,-1", "--B", "1,0;0,0"]) == 3
    assert "stationary variance of component 1 is not positive" in capsys.readouterr().err


def test_bench_time_scales_with_n():
    # the sizes alternate and each round gives one ratio, so drift in the host's speed cancels
    ratios = []
    for _ in range(5):
        small, big = (all_pairs_seconds(12, n, reps=3) for n in (150_000, 300_000))
        ratios.append(big / small)
    ratio = statistics.median(ratios)
    assert 1.5 <= ratio <= 2.5, f"doubling N scaled time by {ratio:.2f}"


# --------------------------------------------------------------- exit codes


def test_exit_code_validation(tmp_path):
    gap = _write(tmp_path, "gap.csv", "a,b\n1,2\n,3\n4,5\n6,7\n8,9\n10,11\n")
    assert main(["analyze", "--input", gap, "--dt", "1"]) == 2
    assert main(["analyze", "--input", gap, "--dt", "1", "--nan-policy",
                 "interpolate"]) == 0
    # n >= d + 3 is the library's rule, not a flag's
    short = _write(tmp_path, "short.csv", "a,b\n1,2\n3,5\n4,1\n0,7\n")
    assert main(["analyze", "--input", short]) == 2


def test_interpolate_names_an_all_empty_column(tmp_path, capsys):
    rows = "".join(f"{i},,{i * i % 7}\n" for i in range(10))
    path = _write(tmp_path, "t.csv", "temp,rain,wind\n" + rows)
    assert main(["analyze", "--input", path, "--nan-policy", "interpolate"]) == 2
    assert capsys.readouterr().err == (
        "liangflow: error: series 'rain' has no finite values to interpolate from\n")


def test_exit_code_numerical(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(60)
    rows = "\n".join(f"{float(a)!r},{2.0 * float(a)!r}" for a in x)
    path = _write(tmp_path, "collinear.csv", "a,b\n" + rows + "\n")
    assert main(["analyze", "--input", path, "--dt", "1"]) == 3


def test_exit_code_overflow(tmp_path):
    rng = np.random.default_rng(2)
    rows = "\n".join(f"{1e200 * a!r},{1e200 * b!r}"
                     for a, b in rng.standard_normal((60, 2)).tolist())
    path = _write(tmp_path, "huge.csv", "a,b\n" + rows + "\n")
    assert main(["analyze", "--input", path, "--dt", "1"]) == 3


def test_exit_code_unexpected(monkeypatch, tmp_path):
    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._DISPATCH, "oracle", boom)
    assert main(["oracle", "--preset", "ou2"]) == 1


def test_unexpected_failure_prints_its_traceback(monkeypatch, tmp_path, capsys):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._DISPATCH, "oracle", boom)
    assert main(["oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert 'in boom\n    raise RuntimeError("wires crossed")\n' in err
    assert err.endswith("RuntimeError: wires crossed\nliangflow: unexpected error: wires crossed\n")
    # other exit codes keep their one line
    missing = str(tmp_path / "nope.csv")
    assert main(["analyze", "--input", missing]) == 2
    assert capsys.readouterr().err.startswith(f"liangflow: error: cannot read {missing}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "x.csv", "--dt", "-1"],
        ["analyze", "--input", "x.csv", "--k", "0"],
        ["analyze", "--input", "x.csv", "--alpha", "1.5"],
        ["graph", "--input", "x.csv", "--min-tau", "-0.2"],
        ["graph", "--input", "x.csv", "--min-tau", "nan"],
        ["analyze", "--input", "x.csv", "--dt", "inf"],
        ["analyze", "--input", "x.csv", "--dt", "nan"],
        ["analyze", "--input", "x.csv", "--alpha", "nan"],
        ["simulate", "--preset", "ou2", "--n", "0"],
        ["graph", "--input", "x.csv", "--min-tau", "inf", "--format", "json"],
        ["simulate", "--preset", "ou2", "--n", "10", "--seed", "-1"],
        ["simulate", "--A=", "--B=1", "--n", "5"],
        ["simulate", "--A=1,2;3", "--B=1,0;0,1", "--n", "5"],
        ["simulate", "--A=-1", "--B=x", "--n", "5"],
        ["simulate", "--preset", "ou2", "--A=", "--n", "5"],
        ["simulate", "--A=-1", "--B=1", "--x0=1,,2", "--n", "5"],
        ["oracle", "--A=-1", "--B=1", "--f="],
    ],
)
def test_exit_code_bad_config(argv):
    # configuration is rejected before any file access
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_argparse_rejects_missing_required():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


# --------------------------------------------------------------------- help


def test_help_documents_orientation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "T[target][source]" in out
    for command in ("analyze", "graph", "simulate", "oracle"):
        assert command in out
    assert "bench" not in out  # timing is perfbench/run.py's job
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "liangflow", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "T[target][source]" in proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    # scipy, and numpy.testing, which it pulls in, cost about 0.3 s of every CLI start, and
    # only the oracle needs scipy. The process pool's modules load only for a CSV of more
    # than one block.
    prefixes = ("scipy", "numpy.testing", "concurrent.futures", "multiprocessing")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, liangflow, liangflow.cli\n"
         f"print(sorted(m for m in sys.modules if m.startswith({prefixes})))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_other_than_oracle_load_no_scipy(tmp_path):
    # in one child interpreter: simulate, analyze of a CSV of three blocks and graph
    # run on numpy alone; the oracle then imports scipy for its Lyapunov solve
    sim = str(tmp_path / "sim.csv")
    code = (
        "import sys\n"
        "import liangflow.cli as cli\n"
        "def run(*argv):\n"
        "    assert cli.main(list(argv)) == 0, argv\n"
        f"sim = {sim!r}\n"
        "run('simulate', '--preset', 'chain5', '--n', '10000', '--seed', '3', '--output', sim)\n"
        "run('analyze', '--input', sim, '--output', sim + '.json')\n"
        "run('graph', '--input', sim, '--output', sim + '.dot')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "run('oracle', '--preset', 'chain5', '--output', sim + '.oracle')\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"
    with open(sim, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) > 2 * cli._READ_BLOCK
