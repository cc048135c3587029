"""End-to-end command-line behavior: parsing, commands, exit codes, determinism."""

import csv
import io
import json
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
from liangflow.cli import RunConfig, _run_bench, load_preset, main, parse_csv, write_csv
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
def row_loop_calls(monkeypatch):
    """(path, lines) of each piece parse_csv handed to the row-by-row reader."""
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
    small = _run_bench(RunConfig(command="bench", bench_d=12, bench_n=150_000, reps=9))
    big = _run_bench(RunConfig(command="bench", bench_d=12, bench_n=300_000, reps=9))
    ratio = big["median_sec"] / small["median_sec"]
    assert 1.5 <= ratio <= 2.5, f"doubling N scaled time by {ratio:.2f}"


# --------------------------------------------------------------- exit codes


def test_exit_code_validation(tmp_path):
    gap = _write(tmp_path, "gap.csv", "a,b\n1,2\n,3\n4,5\n6,7\n8,9\n10,11\n")
    assert main(["analyze", "--input", gap, "--dt", "1"]) == 2
    assert main(["analyze", "--input", gap, "--dt", "1", "--nan-policy",
                 "interpolate"]) == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "x.csv", "--dt", "-1"],
        ["analyze", "--input", "x.csv", "--k", "0"],
        ["analyze", "--input", "x.csv", "--alpha", "1.5"],
        ["graph", "--input", "x.csv", "--min-tau", "-0.2"],
        ["bench", "--d", "1", "--n", "100"],
    ],
)
def test_exit_code_bad_config(argv):
    # configuration is rejected before any file access
    assert main(argv) == 2


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
