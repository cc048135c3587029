"""Invariants of all_pairs and of CSV parsing as properties over generated inputs.

Datasets are small sparse VAR(1) systems drawn from a seed, so the rates
are not all null. Tolerances are fixed beforehand from double precision:
a reordered or rescaled regression changes the rounding of every
quantity, never more than 1e-9 of a standard error here. CSV parsing
has no tolerance: the block reader must return the bits of the row loop
run over the whole file.
"""

import csv
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liangflow import TimeSeriesSet, all_pairs
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


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf,
               1e308, -1e308, 1.7976931348623157e308)
values64 = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, width=64))
# lines per bulk read: the default and sizes small enough that blocks,
# runs between gaps and quoted records cross each other
BLOCK_SIZES = (4096, 1, 2, 3, 7)


@st.composite
def csv_texts(draw):
    """(text, n_rows, d): a float64 matrix, with gaps, in one of the layouts parse_csv reads."""
    d = draw(st.integers(1, 4))
    # None is an empty cell; with d = 1 it could be a blank line, which is no row
    cells = st.one_of(values64, st.none()) if d > 1 else values64
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=12))
    fmt = draw(st.sampled_from((repr, lambda v: "%.17g" % v)))
    end = draw(st.sampled_from(("\n", "\r\n")))
    pad = " " * draw(st.integers(0, 2))
    # none, quoted, or quoted with the line end inside the quotes
    quote, tail = draw(st.sampled_from((("", ""), ('"', ""), ('"', end))))
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(rows) + 1, max_size=len(rows) + 1))
    lines = [end * draw(st.integers(0, 2)) + ",".join(f" v{i} " for i in range(d))]
    for row, blank in zip(rows, blanks):
        lines.append(end * blank + ",".join(
            quote + pad + ("" if v is None else fmt(v)) + pad + tail + quote for v in row
        ))
    return end.join(lines) + end * (1 + blanks[-1]), len(rows), d


@examples
@given(csv_texts(), st.sampled_from(BLOCK_SIZES))
def test_block_reader_returns_the_whole_file_row_loop_bits(tmp_path_factory, case, block):
    text, n, d = case
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with mock.patch.object(cli, "_READ_BLOCK", block):
        names, values = parse_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        want_names = [cell.strip() for cell in next(filter(None, reader))]
        want = _parse_rows(path, want_names, reader, 0, math.inf).T
    assert names == want_names == [f"v{i}" for i in range(d)]
    assert values.shape == want.shape == (d, n)
    assert values.tobytes() == want.tobytes()
