"""Invariants of all_pairs and of CSV parsing as properties over generated inputs.

Datasets are small sparse VAR(1) systems drawn from a seed, so the rates
are not all null. Tolerances are fixed beforehand from double precision:
a reordered or rescaled regression changes the rounding of every
quantity, never more than 1e-9 of a standard error here. CSV parsing
has no tolerance: the range reader must return the bits of the row loop
run over the whole file, or raise its error.
"""

import csv
import io
import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liangflow import MalformedError, TimeSeriesSet, all_pairs
import liangflow.cli as cli
from liangflow.cli import _parse_rows, parse_csv

TOL = 1e-9

examples = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _var_set(seed, d, n, dt=1.0):
    rng = np.random.default_rng(seed)
    drift = 0.5 * np.eye(d) + 0.3 * rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.3)
    drift *= 0.9 / max(1.0, np.abs(np.linalg.eigvals(drift)).max())
    x = np.empty((d, n))
    x[:, 0] = rng.standard_normal(d)
    noise = rng.standard_normal((d, n))
    for t in range(1, n):
        x[:, t] = drift @ x[:, t - 1] + noise[:, t]
    return TimeSeriesSet(tuple(f"v{i}" for i in range(d)), x, dt)


@st.composite
def datasets(draw):
    d = draw(st.integers(2, 6))
    n = draw(st.integers(3 * d + 20, 300))
    return _var_set(draw(st.integers(0, 2**32 - 1)), d, n), draw(st.integers(1, 3))


@examples
@given(datasets(), st.data(), st.sampled_from(("multivariate", "bivariate")))
def test_permuting_variables_permutes_every_matrix(case, data, mode):
    tss, k = case
    perm = np.array(data.draw(st.permutations(range(tss.d))))
    base = all_pairs(tss, k=k, mode=mode)
    moved = all_pairs(
        TimeSeriesSet(tuple(tss.names[p] for p in perm), tss.values[perm], tss.dt), k=k, mode=mode
    )
    assert moved.names == tuple(tss.names[p] for p in perm)
    se = base.SE[np.ix_(perm, perm)]
    assert np.all(np.abs(moved.T - base.T[np.ix_(perm, perm)]) <= TOL * se)
    assert np.all(np.abs(moved.SE - se) <= TOL * se)
    assert np.all(np.abs(moved.P - base.P[np.ix_(perm, perm)]) <= TOL)
    assert np.all(np.abs(moved.TAU - base.TAU[np.ix_(perm, perm)]) <= TOL)
    assert np.all(np.abs(moved.noise_share - base.noise_share[perm]) <= TOL)


@examples
@given(datasets(), st.floats(1e-3, 1e3), st.sampled_from(("multivariate", "bivariate")))
def test_rates_scale_as_one_over_dt(case, dt, mode):
    tss, k = case
    base = all_pairs(tss, k=k, mode=mode)
    scaled = all_pairs(TimeSeriesSet(tss.names, tss.values, dt), k=k, mode=mode)
    # T and SE are rates (1 / time); P, TAU and noise_share are unitless
    assert np.all(np.abs(scaled.T * dt - base.T) <= TOL * base.SE)
    assert np.all(np.abs(scaled.SE * dt - base.SE) <= TOL * base.SE)
    assert np.all(np.abs(scaled.P - base.P) <= TOL)
    assert np.all(np.abs(scaled.TAU - base.TAU) <= TOL)
    assert np.all(np.abs(scaled.noise_share - base.noise_share) <= TOL)


@examples
@given(datasets(), st.data(), st.sampled_from(("multivariate", "bivariate")))
def test_affine_maps_of_components_leave_rates_unchanged(case, data, mode):
    tss, k = case
    scales = st.floats(0.1, 10).flatmap(lambda a: st.sampled_from((a, -a)))
    a = np.array(data.draw(st.lists(scales, min_size=tss.d, max_size=tss.d)))[:, None]
    b = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=tss.d, max_size=tss.d)))[:, None]
    base = all_pairs(tss, k=k, mode=mode)
    moved = all_pairs(TimeSeriesSet(tss.names, a * tss.values + b, tss.dt), k=k, mode=mode)
    # relative, except T, which may lie near 0: to 1e-9 of its standard error
    assert np.all(np.abs(moved.T - base.T) <= TOL * base.SE)
    assert np.all(np.abs(moved.SE - base.SE) <= TOL * base.SE)
    assert np.all(np.abs(moved.P - base.P) <= TOL * base.P)


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf,
               1e308, -1e308, 1.7976931348623157e308)
values64 = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, width=64))
# bytes per range: the default and sizes small enough that ranges, runs between gaps and
# quoted records cross each other
RANGE_SIZES = (1 << 21, 1, 2, 3, 7)
# bytes per orjson piece: the default and sizes that end inside lines, and between a CR and
# its LF, so that a range takes several pieces
PIECE_SIZES = (1 << 16, 1, 2, 3)
# a bad cell, a ragged row, a stray or unterminated quote, and lone surrogates, written as
# the bytes 0xff, an invalid start byte, and 0xe2 0x82, a character cut short
FAULTS = ("x", ",0", '"', "unterminated", "\udcff", "\udce2\udc82")


@st.composite
def csv_texts(draw, faulty=False):
    """(data, n_rows, d): a float64 matrix, with gaps and NaN, in one of the layouts parse_csv
    reads, as UTF-8 bytes. The formats are ``repr``'s, ``%.17g`` and ``%.18e``,
    ``numpy.savetxt``'s default, which write NaN as ``nan``.

    ``faulty`` draws up to two faults in data lines, each of a different kind: a bad cell, a
    ragged row, a stray or unterminated quote, or bytes that are not UTF-8.
    """
    d = draw(st.integers(1, 4))
    # None is an empty cell; with d = 1 it could be a blank line, which is no row
    cells = st.one_of(values64, st.just(np.nan))
    if d > 1:
        cells |= st.none()
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=12))
    fmt = draw(st.sampled_from((repr, lambda v: "%.17g" % v, lambda v: "%.18e" % v)))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    pad = " " * draw(st.integers(0, 2))
    # none, quoted, or quoted with the line end inside the quotes
    quote, tail = draw(st.sampled_from((("", ""), ('"', ""), ('"', end))))
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(rows) + 1, max_size=len(rows) + 1))
    lines = [end * draw(st.integers(0, 2)) + ",".join(f" v{i} " for i in range(d))]
    for row, blank in zip(rows, blanks):
        lines.append(end * blank + ",".join(
            quote + pad + ("" if v is None else fmt(v)) + pad + tail + quote for v in row
        ))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2, unique=True)) if faulty else []
    for fault in faults:
        k = draw(st.integers(1, len(rows)))  # each item of lines starts a record
        if fault == "unterminated":  # a quote that no quote after it closes
            lines[k:] = ['"' + line.replace('"', "") if i == k else line.replace('"', "")
                         for i, line in enumerate(lines[k:], k)]
        else:  # a bad cell, a ragged row, a stray quote, or undecodable bytes
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + fault + lines[k][at:]
    text = end.join(lines) + end * (1 + blanks[-1])
    return text.encode("utf-8", "surrogateescape"), len(rows), d


@examples
@given(csv_texts(), st.sampled_from(RANGE_SIZES), st.sampled_from(PIECE_SIZES))
def test_block_reader_returns_the_whole_file_row_loop_bits(tmp_path_factory, case, size, piece):
    data, n, d = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(data)
    path = str(path)
    with mock.patch.object(cli, "_RANGE", size), mock.patch.object(cli, "_PIECE", piece):
        names, values = parse_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        want_names = [cell.strip() for cell in next(filter(None, reader))]
        want = _parse_rows(path, want_names, reader, lambda: 0).T
    assert names == want_names == [f"v{i}" for i in range(d)]
    assert values.shape == want.shape == (d, n)
    assert values.tobytes() == want.tobytes()


@examples
@given(csv_texts(faulty=True), st.sampled_from(RANGE_SIZES), st.sampled_from(PIECE_SIZES))
def test_block_reads_end_at_line_ends(tmp_path_factory, case, size, piece):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    data = case[0]
    path.write_bytes(data)
    with mock.patch.object(cli, "_RANGE", size), mock.patch.object(cli, "_PIECE", piece):
        with open(path, "rb") as fh:
            ranges = list(cli._cuts(fh.fileno(), 0, len(data)))
            pieces = list(cli._pieces(fh.fileno(), 0, len(data)))
    for cut in ([data[lo:hi] for lo, hi in ranges], pieces):
        assert b"".join(cut) == data
        assert all(text.endswith((b"\n", b"\r")) for text in cut[:-1])
        assert not any(a.endswith(b"\r") and b.startswith(b"\n") for a, b in zip(cut, cut[1:]))


def _outcome(path, parse):
    try:
        names, values = parse()
    except MalformedError as e:
        return str(e)
    except UnicodeDecodeError as e:  # the row loop's, in parse_csv's words
        return f"{path} is not UTF-8 text: can't decode {e.object[e.start:e.end]!r}: {e.reason}"
    return names, values.shape, values.tobytes()


@examples
@given(csv_texts(faulty=True))
def test_block_reader_gives_the_whole_file_row_loop_outcome(tmp_path_factory, case):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(case[0])
    path = str(path)

    def row_loop():  # one pass in file order, each line decoded before csv reads it
        lines = (line.decode() for line in case[0].splitlines(keepends=True))
        reader = csv.reader(lines)
        names = [cell.strip() for cell in next(filter(None, reader))]
        return names, _parse_rows(path, names, reader, lambda: 0).T

    want = _outcome(path, row_loop)
    # one CPU reads the ranges one by one, two take the pool, as a pipe does too
    for cpus, size, piece in itertools.product((1, 2), RANGE_SIZES, PIECE_SIZES):
        with mock.patch.object(cli, "_usable_cpus", lambda: cpus), \
                mock.patch.object(cli, "_RANGE", size), \
                mock.patch.object(cli, "_PIECE", piece):
            assert _outcome(path, lambda: parse_csv(path)) == want


# write_csv writes every NaN as "nan", which reads back as np.nan: only that NaN keeps its bits
round_trip_values = st.one_of(values64, st.just(np.nan))


@examples
@given(st.integers(1, 4).flatmap(
           lambda d: st.lists(st.lists(round_trip_values, min_size=d, max_size=d), min_size=1,
                              max_size=12)),
       st.sampled_from((1, 2)), st.sampled_from((4096, 1, 2, 3, 7)), st.sampled_from(RANGE_SIZES))
def test_write_then_parse_returns_the_bits(tmp_path_factory, rows, cpus, write_block, read_range):
    values = np.array(rows, dtype=float).T
    names = [f"v{i}" for i in range(values.shape[0])]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([[repr(v) for v in row] for row in rows])
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    # one CPU takes the builtin map, two the process pool
    with mock.patch.object(cli, "_usable_cpus", lambda: cpus), \
            mock.patch.object(cli, "_WRITE_BLOCK", write_block), \
            mock.patch.object(cli, "_RANGE", read_range):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            cli.write_csv(names, values, fh)
        got_names, got = parse_csv(str(path))
    assert path.read_text(encoding="utf-8") == want.getvalue()
    assert got_names == names
    assert got.shape == values.shape
    assert got.tobytes() == values.tobytes()
