"""End-to-end command-line behavior: parsing, commands, exit codes, determinism."""

import csv
import io
import itertools
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import warnings

import numpy as np
import pytest

from liangflow import (
    EmptyFileError,
    MalformedError,
    ValidationError,
    all_pairs,
    flow_matrix_from_json,
    validate_series_set,
)
from liangflow.cli import _run_bench, load_preset, main, parse_csv, write_csv
import liangflow.cli as cli


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

    def spy(path, names, reader, line, n_lines):
        calls.append((path, n_lines))
        return rows(path, names, reader, line, n_lines)

    monkeypatch.setattr(cli, "_parse_rows", spy)
    return calls


def test_parse_csv_plain_numbers_take_the_bulk_reader(tmp_path, row_loop_calls):
    path = _write(tmp_path, "t.csv", '\n" x ", y \r\n1 , 2.5\r\n\r\n-inf,5e-324\r\n')
    names, values = parse_csv(path)
    assert row_loop_calls == []
    assert names == ["x", "y"]
    np.testing.assert_array_equal(values, [[1.0, -np.inf], [2.5, 5e-324]])


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
        assert caught == []  # the bulk reader's "input contained no data" stays inside


def test_parse_csv_gaps_alone_take_the_row_loop(tmp_path, row_loop_calls):
    rows = ["%d,%d,%d" % (i, -i, i) for i in range(10000)]
    rows[50], rows[9000], rows[9001] = ",-50,50", "9000,,", "9001,-9001,"
    path = _write(tmp_path, "t.csv", "a,b,c\n" + "\n".join(rows) + "\n")
    _, values = parse_csv(path)
    assert [n for _, n in row_loop_calls] == [1, 2]  # the gappy lines, not the file or a block
    want = np.array([np.arange(10000.0), -np.arange(10000.0), np.arange(10000.0)])
    want[0, 50] = want[1, 9000] = want[2, 9000] = want[2, 9001] = np.nan
    np.testing.assert_array_equal(values, want)


def test_parse_csv_blocks_keep_physical_lines_and_quoted_records(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_READ_BLOCK", 2)
    # the quoted cell "4\n" is one record over lines 3-4, across a block boundary
    text = 'a,b\n1,2\n3,"4\n"\n5,6\n\n7,\n'
    _, values = parse_csv(_write(tmp_path, "t.csv", text))
    np.testing.assert_array_equal(values, [[1, 3, 5, 7], [2, 4, 6, np.nan]])
    with pytest.raises(MalformedError, match="line 9: non-numeric value 'x'"):
        parse_csv(_write(tmp_path, "u.csv", text + "\n8,x\n"))
    with pytest.raises(MalformedError, match="line 9: expected 2 cells, got 1"):
        parse_csv(_write(tmp_path, "v.csv", text + "\n8\n"))


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
    monkeypatch.setattr(cli, "_READ_BLOCK", 5)
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


def test_parse_csv_reads_a_malformed_file_to_its_end_once(tmp_path, monkeypatch, two_cpus):
    # the pooled pass stops a few blocks in; only the one-pass re-read, whose error is
    # raised, reads on to the end of the file
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


def test_csv_io_without_sched_getaffinity(tmp_path, monkeypatch):
    # os.sched_getaffinity exists on Linux only; elsewhere the CPU count stands in for it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 5)
    monkeypatch.setattr(cli, "_READ_BLOCK", 5)
    assert cli._usable_cpus() == (os.cpu_count() or 1)
    values = np.random.default_rng(4).standard_normal((2, 23))
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(("a", "b"), values, fh)
    assert parse_csv(str(path))[1].tobytes() == values.tobytes()
    assert multiprocessing.active_children() == []


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
    monkeypatch.setattr(cli, "_READ_BLOCK", 3)
    lines = [bad.get(i, text) for i, text in enumerate(MIXED_LINES)]
    path = _write(tmp_path, "t.csv", "a,b\n" + "\n".join(lines) + "\n")
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        outcomes.append(_outcome(path))
    assert outcomes[0] == outcomes[1]
    if message is None:
        want = [[1, 3, 5, 7, 9, 11, 13, np.nan, 15, 17, 19, 21, 23, 25, 27, 29],
                [2, 4, 6, 8, 10, 12, np.nan, 14, 16, 18, 20, 22, 24, 26, 28, 30]]
        np.testing.assert_array_equal(parse_csv(path)[1], want)
    else:
        assert outcomes[1][0] is MalformedError and message in outcomes[1][1]


def test_parse_csv_pool_reports_undecodable_text_as_one_pass(tmp_path, monkeypatch):
    # a bad cell in the first block, which ends in the text reader's second 8192-byte read
    # and cuts a 3-byte character there, and a bad byte after the blocks read ahead: the
    # position in the message counts from where one pass would have gone on reading
    monkeypatch.setattr(cli, "_READ_BLOCK", 2000)
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,x\n1,234\n" + "\uff13,4\n".encode() * 20000 + b"3,\xff\n")
    with open(path, newline="", encoding="utf-8") as fh:  # one pass: stop after the block
        for _ in range(1 + 2000):
            next(fh)
        with pytest.raises(UnicodeDecodeError) as one_pass:
            fh.read()
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert _outcome(str(path)) == (MalformedError, f"{path} is not UTF-8 text: {one_pass.value}")


@needs_fork_pool
def test_parse_csv_pool_parses_quoted_blocks_in_the_workers(tmp_path, monkeypatch, two_cpus):
    monkeypatch.setattr(cli, "_READ_BLOCK", 3)
    path = _write(tmp_path, "t.csv", "a,b\n" + "\n".join(MIXED_LINES) + "\n")
    with open(path, newline="", encoding="utf-8") as fh:  # the whole-file row loop
        reader = csv.reader(fh)
        next(reader)
        want = cli._parse_rows(path, ["a", "b"], reader, 0, float("inf")).T
    calls = []
    rows = cli._parse_rows

    def spy(path, names, reader, line, n_lines):
        calls.append(line)  # in a worker, to the worker's copy of the list
        return rows(path, names, reader, line, n_lines)

    monkeypatch.setattr(cli, "_parse_rows", spy)
    np.testing.assert_array_equal(parse_csv(path)[1], want)
    assert calls == []
    assert multiprocessing.active_children() == []


# an unterminated quote on line 2 opens a field that runs on through the 4-character lines
# after it, until csv gives up at 131072 characters, on line 32770
LONG_FIELD = 'a,b\n1,"2\n' + "3,4\n" * 40000


@pytest.mark.parametrize(
    "text, message",
    [
        (LONG_FIELD, "line 32770: field larger than field limit (131072)"),
        # a bad record before it in the same block comes first
        (LONG_FIELD.replace("\n", "\n1x,2\n", 1), "line 2: non-numeric value '1x' in column 'a'"),
        ('a,"b\n' + "3,4\n" * 40000, "line 32769: field larger than field limit (131072)"),
    ],
    ids=["record", "bad record first", "header"],
)
def test_parse_csv_csv_error_is_malformed(tmp_path, monkeypatch, text, message):
    # in blocks of 5 lines, so the quoted block runs on far into the file and the pool has
    # blocks after it
    monkeypatch.setattr(cli, "_READ_BLOCK", 5)
    path = _write(tmp_path, "t.csv", text)
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        for starmap in (cli._in_order, itertools.starmap):  # the pooled and the one-pass read
            with pytest.raises(MalformedError) as caught:
                cli._read_csv(path, starmap)
            assert str(caught.value) == f"{path}: {message}"
    assert main(["analyze", "--input", path]) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_analyze_reads_a_pipe(tmp_path):
    # in a child interpreter with a deadline, in blocks of 500 lines on two CPUs, so the pipe
    # goes through the pool on any host
    code = (
        "import sys\n"
        "import liangflow.cli as cli\n"
        "cli._READ_BLOCK = 500\n"
        "cli._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    def analyze(path, text=""):
        return subprocess.run([sys.executable, "-c", code, "analyze", "--input", path],
                              input=text, capture_output=True, text=True, timeout=60)

    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--preset", "chain5", "--n", "3000", "--seed", "8",
                 "--output", str(sim)]) == 0
    lines = sim.read_text(encoding="utf-8").splitlines()
    lines[700] = '"%s",%s' % tuple(lines[700].split(",", 1))  # a quoted cell in block 2
    sim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from_file = analyze(str(sim))
    from_pipe = analyze("/dev/stdin", sim.read_text(encoding="utf-8"))
    assert from_file.returncode == from_pipe.returncode == 0, from_pipe.stderr
    assert from_pipe.stdout == from_file.stdout
    lines[1500] += ",0"
    lines[2600] = "x," + lines[2600]
    bad = analyze("/dev/stdin", "\n".join(lines) + "\n")
    assert bad.returncode == 2
    assert bad.stderr == "liangflow: error: /dev/stdin: line 1501: expected 5 cells, got 6\n"


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


def test_simulate_require_stationary(tmp_path):
    out = str(tmp_path / "x.csv")
    rc = main(["simulate", "--A", "0", "--B", "1", "--n", "50",
               "--require-stationary", "--output", out])
    assert rc == 3


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


def test_bench_smallest_case(capsys):
    assert main(["bench", "--d", "2", "--n", "100", "--reps", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relations"] == 2
    assert len(payload["times_sec"]) == 2
    assert payload["median_sec"] > 0.0


def test_bench_time_scales_with_n():
    # the sizes alternate and each round gives one ratio, so drift in the host's speed cancels
    ratios = []
    for _ in range(5):
        small, big = (_run_bench(12, n, reps=3)["median_sec"] for n in (150_000, 300_000))
        ratios.append(big / small)
    ratio = statistics.median(ratios)
    assert 1.5 <= ratio <= 2.5, f"doubling N scaled time by {ratio:.2f}"


# --------------------------------------------------------------- exit codes


def test_exit_code_validation(tmp_path):
    gap = _write(tmp_path, "gap.csv", "a,b\n1,2\n,3\n4,5\n6,7\n8,9\n10,11\n")
    assert main(["analyze", "--input", gap, "--dt", "1"]) == 2
    assert main(["analyze", "--input", gap, "--dt", "1", "--nan-policy",
                 "interpolate"]) == 0
    # bench's n >= d + 3 is the library's rule, not a flag's
    assert main(["bench", "--d", "2", "--n", "4"]) == 2


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

    monkeypatch.setitem(cli._DISPATCH, "bench", boom)
    assert main(["bench", "--d", "2", "--n", "100"]) == 1


def test_unexpected_failure_prints_its_traceback(monkeypatch, tmp_path, capsys):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._DISPATCH, "bench", boom)
    assert main(["bench"]) == 1
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
        ["bench", "--d", "1", "--n", "100"],
        ["graph", "--input", "x.csv", "--min-tau", "nan"],
        ["analyze", "--input", "x.csv", "--dt", "inf"],
        ["analyze", "--input", "x.csv", "--dt", "nan"],
        ["analyze", "--input", "x.csv", "--alpha", "nan"],
        ["simulate", "--preset", "ou2", "--n", "0"],
        ["bench", "--reps", "0"],
        ["graph", "--input", "x.csv", "--min-tau", "inf", "--format", "json"],
        ["simulate", "--preset", "ou2", "--n", "10", "--seed", "-1"],
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
    for command in ("analyze", "graph", "simulate", "oracle", "bench"):
        assert command in out


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
    # in one child interpreter: simulate, analyze of a CSV of three blocks, graph and bench
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
        "run('bench', '--d', '5', '--n', '500', '--reps', '1', '--output', sim + '.bench')\n"
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
