"""Command-line surface: analyze CSVs, build graphs, simulate, print oracles, benchmark.

Every command is a thin wrapper over the library with deterministic
output: identical configuration and seed produce identical bytes. Matrix
outputs use the T[target][source] orientation (row = receiving variable)
and stamp it into the JSON. Exit codes: 0 success, 2 invalid input or
configuration, 3 numerical degeneracy, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import statistics
import sys
import time
import traceback
import warnings
from importlib import resources
from typing import Optional

import numpy as np

from .core import TimeSeriesSet, validate_series_set
from .dynamics import (
    LinearSDE,
    _budget_from_sigma,
    simulate,
    stationary_covariance,
)
from .errors import (
    BadMatrixSpecError,
    EmptyFileError,
    MalformedError,
    NotHurwitzError,
    NumericalError,
    ValidationError,
)
from .estimator import budget_shares
from .graph import all_pairs, build_graph, emit_dot, emit_json

_EPILOG = """\
conventions:
  orientation   all matrices are T[target][source]: row = receiving variable,
                column = driving variable (stamped in JSON as "orientation")
  time units    --dt defaults to 1, so rates are nats per sample step; rates
                scale as 1/dt, so pass the true sampling interval for rates
                per physical time unit
  exit codes    0 success | 2 invalid input/configuration | 3 numerical
                degeneracy (collinear/unstable) | 1 unexpected failure
"""


class _Fmt(argparse.ArgumentDefaultsHelpFormatter, argparse.RawDescriptionHelpFormatter):
    pass


_READ_BLOCK = 4096  # data lines per bulk read: a fault costs one block, not the file


def parse_csv(path: str):
    """Read a CSV (header row = variable names, one time step per data row).

    Empty cells become NaN, to be resolved by the NaN policy downstream.
    Returns (names, values) with values shaped d x N (column-per-variable
    input transposed to row-per-variable).

    The data rows are cut into blocks of whole records, which are parsed
    on every usable CPU (``_in_order``). The result is the row loop's over
    the whole file, bit for bit. A malformed regular file is read again in
    one pass, so it raises the error of the row loop's first bad line; a
    pipe, which cannot be read again, raises the pooled pass's error.
    """
    regular = os.path.isfile(path)
    try:
        return _read_csv(path, _in_order, final=not regular)
    except MalformedError:
        if not regular:
            raise
    return _read_csv(path, itertools.starmap)


def _read_csv(path: str, starmap, final: bool = True):
    """``parse_csv`` with its blocks parsed by ``starmap(fn, tasks)``, in order.

    After a malformed block a ``final`` pass, whose error is the one
    raised, reads on to the end of the file, as one pass would.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(filter(None, _records(path, reader, 0)), None)
            if header is None:
                raise EmptyFileError(f"{path}: no content")
            names = [cell.strip() for cell in header]
            parse = functools.partial(_parse_lines, path, names)
            tasks = _blocks(fh, reader.line_num)
            try:
                blocks = [values for rows in starmap(parse, tasks) for values in rows]
            except MalformedError:
                if final:  # undecodable text after the bad line outranks it
                    fh.read()
                raise
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise MalformedError(f"{path} is not UTF-8 text: {e}") from None
    if not any(len(block) for block in blocks):
        raise EmptyFileError(f"{path}: header only, no data rows")
    return names, np.concatenate(blocks).T


def _blocks(fh, line: int):
    """The lines of ``fh`` after physical line ``line`` as (lines, line) blocks of whole records.

    A block is ``_READ_BLOCK`` lines and, if one holds a quote, the lines
    its last record runs on into, as ``_parse_rows`` would read them.
    """
    while lines := list(itertools.islice(fh, _READ_BLOCK)):
        if any('"' in text for text in lines):
            more = []
            reader = csv.reader(itertools.chain(lines, _kept(fh, more)))
            try:
                for _ in reader:
                    if reader.line_num >= len(lines):
                        break
            except csv.Error:
                pass  # the block's own parse raises it, unless a record before it fails first
            lines += more
        yield lines, line
        line += len(lines)


def _kept(lines, kept: list):
    """The items of ``lines``, each appended to ``kept`` as it is taken."""
    for text in lines:
        kept.append(text)
        yield text


def _parse_lines(path: str, names, lines, line: int):
    """Data lines of whole records as a list of row blocks.

    If the C reader rejects the lines, a block with a quote goes to the
    row loop whole, since a quoted cell may span lines. Otherwise each
    line is one record: those with an empty cell (the usual reason) go to
    the row loop and the runs between them to the C reader again, so a
    file with gaps is still read once in C. A run rejected again goes to
    the row loop whole.
    """
    values = _parse_bulk(lines, len(names))
    if values is not None:
        return [values]
    if any('"' in text for text in lines):
        return [_parse_rows(path, names, csv.reader(lines), line, len(lines))]
    blocks = []
    for gappy, run in itertools.groupby(lines, _has_empty_cell):
        run = list(run)
        values = None if gappy or len(run) == len(lines) else _parse_bulk(run, len(names))
        if values is None:
            values = _parse_rows(path, names, csv.reader(run), line, len(run))
        blocks.append(values)
        line += len(run)
    return blocks


def _has_empty_cell(text: str) -> bool:
    cells = text.rstrip("\r\n")
    return ",," in cells or cells.startswith(",") or cells.endswith(",")


def _parse_bulk(lines, width: int):
    """The lines as an N x width array by numpy's C reader, or None if it rejects them.

    ``comments=None`` keeps a leading '#' data, not a comment. Empty
    cells, Python-only float syntax (``1_0``, non-ASCII digits), ragged
    rows and lines without data all end here as None.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == width else None


def _parse_rows(path: str, names, reader, line: int, n_lines):
    """Row-by-row reader of ``parse_csv``'s format, as an N x d array.

    Reads the records that start in the reader's first ``n_lines`` lines
    (a quoted record may run past them). ``line`` is the physical line
    before the reader's first, so errors name physical lines.
    """
    width = len(names)
    rows = []
    for row in _records(path, reader, line):
        if row:
            ln = line + reader.line_num
            if len(row) != width:
                raise MalformedError(f"{path}: line {ln}: expected {width} cells, got {len(row)}")
            values = []
            for name, cell in zip(names, row):
                cell = cell.strip()
                if cell == "":
                    values.append(np.nan)
                else:
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise MalformedError(
                            f"{path}: line {ln}: non-numeric value {cell!r} in column {name!r}"
                        ) from None
            rows.append(values)
        if reader.line_num >= n_lines:
            break
    return np.array(rows, dtype=float).reshape(-1, width)


def _records(path: str, reader, line: int):
    """The rows of ``reader``; a csv error becomes a ``MalformedError`` naming its physical line."""
    try:
        yield from reader
    except csv.Error as e:
        raise MalformedError(f"{path}: line {line + reader.line_num}: {e}") from None


_WRITE_BLOCK = 4096  # samples per tolist() block: bounds the Python floats alive at once


def write_csv(names, values: np.ndarray, fh):
    """Write the parse_csv format; floats via repr so bytes are reproducible.

    Blocks of samples are formatted on every usable CPU (``_in_order``) and
    written in order.
    """
    csv.writer(fh, lineterminator="\n").writerow(names)
    values = np.asarray(values, dtype=float)
    starts = ((start,) for start in range(0, values.shape[1], _WRITE_BLOCK))
    with contextlib.closing(_in_order(_format_block, starts, values)) as texts:
        for text in texts:
            fh.write(text)


def _format_block(values: np.ndarray, start: int) -> str:
    block = values[:, start:start + _WRITE_BLOCK].T.tolist()
    return "".join([",".join(map(repr, row)) + "\n" for row in block])


# The one interpreter the fork pool was run on. Python 3.12 and later warn
# when a process with threads (numpy's BLAS starts some) forks, and 3.10's
# pool may fork after its manager thread has started (cpython gh-90622).
_FORK_POOL = sys.version_info[:2] == (3, 11)

_shared = ()  # a pool worker's leading arguments, set once as it starts


def _share(*args):
    global _shared
    _shared = args


def _call(fn, task):
    return fn(*_shared, *task)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(fn, tasks, *shared):
    """``fn(*shared, *task)`` for each argument tuple in ``tasks``, yielded in task order.

    With more than one usable CPU and more than one task, the calls run in
    a pool of forked processes, one per CPU but no more than there are
    tasks. At most one task more than there are workers waits for its
    result, so tasks read from a stream stay bounded. ``shared`` reaches
    each worker once, through fork, not pickled per task; tasks and
    results are pickled. The first exception in task order is raised, and
    a worker that dies raises ``BrokenProcessPool``. Otherwise, where fork
    is missing, or on an interpreter other than ``_FORK_POOL``'s, the
    calls run here, one by one.

    Fork rather than spawn: a spawned worker imports numpy again
    and receives ``shared`` by pickle, and a pool of two took 0.7-1.2 s to
    start on a 2-core VM, against 0.02 s forked. Fork is safe here because
    the workers only convert between numbers and text: they call no BLAS
    and take no lock that another thread of this process may hold.
    """
    cpus = _usable_cpus()
    tasks = iter(tasks)
    head = list(itertools.islice(tasks, cpus + 1))
    tasks = itertools.chain(head, tasks)
    workers = min(cpus, len(head))
    if _FORK_POOL and workers > 1:
        import multiprocessing  # here, not at the top: it would add to every CLI start

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_share, initargs=shared)
            try:
                pending = collections.deque()
                for task in tasks:
                    pending.append(pool.submit(_call, fn, task))
                    if len(pending) > workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from (fn(*shared, *task) for task in tasks)


def load_preset(name: str):
    """Load a bundled system preset; returns (LinearSDE, dt)."""
    try:
        text = (
            resources.files("liangflow")
            .joinpath("presets", f"{name}.json")
            .read_text(encoding="utf-8")
        )
    except FileNotFoundError:
        raise ValidationError(f"unknown preset {name!r} (available: ou2, chain5)") from None
    spec = json.loads(text)
    sde = LinearSDE(
        A=spec["A"], B=spec["B"], f=spec.get("f"), names=tuple(spec.get("names", ()))
    )
    return sde, float(spec.get("dt", 1.0))


def _parse_matrix(text: str, what: str) -> np.ndarray:
    rows = []
    for chunk in text.strip().split(";"):
        if not chunk.strip():
            continue
        try:
            rows.append([float(c) for c in chunk.split(",")])
        except ValueError:
            raise BadMatrixSpecError(f"--{what}: cannot parse row {chunk!r}") from None
    if not rows:
        raise BadMatrixSpecError(f"--{what}: empty matrix")
    if len({len(r) for r in rows}) != 1:
        raise BadMatrixSpecError(f"--{what}: ragged rows")
    return np.array(rows)


def _parse_vector(text: str, d: int, what: str) -> np.ndarray:
    try:
        vec = np.array([float(c) for c in text.strip().split(",")])
    except ValueError:
        raise BadMatrixSpecError(f"--{what}: cannot parse {text!r}") from None
    if vec.shape != (d,):
        raise BadMatrixSpecError(f"--{what}: expected {d} entries, got {vec.size}")
    return vec


def _resolve_sde(args: argparse.Namespace):
    """SDE from --preset or inline --A/--B/--f/--names; returns (sde, preset_dt)."""
    if args.preset:
        if args.A or args.B or args.f or args.names:
            raise ValidationError("give either --preset or inline --A/--B/--f/--names, not both")
        return load_preset(args.preset)
    if args.A is None or args.B is None:
        raise ValidationError("need --preset, or both --A and --B")
    a = _parse_matrix(args.A, "A")
    b = _parse_matrix(args.B, "B")
    d = a.shape[0]
    f = _parse_vector(args.f, d, "f") if args.f else None
    names = tuple(n.strip() for n in args.names.split(",")) if args.names else ()
    return LinearSDE(A=a, B=b, f=f, names=names), None


@contextlib.contextmanager
def _open_output(path: Optional[str]):
    """The output file (replaced), or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_text(text: str, path: Optional[str]):
    with _open_output(path) as fh:
        fh.write(text)


def _load_series(args: argparse.Namespace) -> TimeSeriesSet:
    names, values = parse_csv(args.input)
    return validate_series_set(values, names, args.dt, nan_policy=args.nan_policy)


def _num_cell(x: float) -> str:
    return "" if np.isnan(x) else repr(float(x))


def _flow_matrix_csv(fm) -> str:
    """Long-format table: one row per directed relation (self rows have
    source == target); per-target noise shares follow with an empty source."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["target", "source", "T", "se", "p", "tau"])
    for i, tgt in enumerate(fm.names):
        for j, src in enumerate(fm.names):
            writer.writerow(
                [tgt, src, repr(float(fm.T[i, j])), repr(float(fm.SE[i, j])),
                 repr(float(fm.P[i, j])), _num_cell(fm.TAU[i, j])]
            )
    for i, tgt in enumerate(fm.names):
        writer.writerow([tgt, "", "", "", "", _num_cell(fm.noise_share[i])])
    return out.getvalue()


def cmd_analyze(args: argparse.Namespace) -> int:
    """All-pairs rates with significance (and shares unless --no-normalize)."""
    tss = _load_series(args)
    fm = all_pairs(tss, k=args.k, alpha=args.alpha, normalize=args.normalize, mode=args.mode)
    text = emit_json(fm) if args.format == "json" else _flow_matrix_csv(fm)
    _write_text(text, args.output)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    """Analyze, filter by significance, emit the directed graph."""
    tss = _load_series(args)
    fm = all_pairs(tss, k=args.k, alpha=args.alpha, normalize=args.normalize, mode=args.mode)
    g = build_graph(fm, alpha=args.alpha, min_tau=args.min_tau, bonferroni=args.bonferroni)
    text = emit_dot(g) if args.format == "dot" else emit_json(g)
    _write_text(text, args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write one seeded trajectory as CSV (consumable by analyze)."""
    sde, preset_dt = _resolve_sde(args)
    dt = args.dt if args.dt is not None else (preset_dt if preset_dt is not None else 1.0)
    if args.require_stationary and not sde.is_hurwitz():
        raise NotHurwitzError(
            "--require-stationary: drift matrix has an eigenvalue with non-negative real part"
        )
    x0 = _parse_vector(args.x0, sde.d, "x0") if args.x0 else np.zeros(sde.d)
    tss = simulate(sde, x0, args.n, dt, args.seed, burn_in=args.burn_in)
    with _open_output(args.output) as fh:
        write_csv(tss.names, tss.values, fh)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    """Exact rates and entropy budget for a linear system (no estimation)."""
    sde, _ = _resolve_sde(args)
    sc = stationary_covariance(sde)
    budgets = [_budget_from_sigma(sde, sc.Sigma, i) for i in range(sde.d)]
    rates = np.array([b.flows for b in budgets])
    np.fill_diagonal(rates, [b.self_rate for b in budgets])
    tau, noise_share, _ = budget_shares(rates, np.array([b.noise_rate for b in budgets]))
    payload = {
        "orientation": "T[target][source]",
        "names": list(sde.names),
        "T": rates.tolist(),
        "TAU": tau.tolist(),
        "noise_share": noise_share.tolist(),
        "noise_rate": [b.noise_rate for b in budgets],
        "budget_residual": [b.residual for b in budgets],
        "lyapunov_residual": sc.residual,
    }
    _write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
    return 0


def _run_bench(d: int, n: int, reps: int, k: int = 1, mode: str = "multivariate",
               seed: int = 0) -> dict:
    """Time all_pairs on seeded synthetic data; excludes I/O and one warm-up run."""
    rng = np.random.default_rng(seed)
    names = tuple(f"x{i + 1}" for i in range(d))
    tss = TimeSeriesSet(names=names, values=rng.standard_normal((d, n)), dt=1.0)

    def once() -> float:
        start = time.perf_counter()
        all_pairs(tss, k=k, mode=mode)
        return time.perf_counter() - start

    once()
    times = [once() for _ in range(reps)]
    return {
        "d": d,
        "n": n,
        "relations": d * (d - 1),
        "mode": mode,
        "repetitions": reps,
        "times_sec": times,
        "median_sec": statistics.median(times),
        "min_sec": min(times),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    report = _run_bench(args.d, args.n, args.reps, k=args.k, mode=args.mode, seed=args.seed)
    _write_text(json.dumps(report, indent=2) + "\n", args.output)
    return 0


_DISPATCH = {
    "analyze": cmd_analyze,
    "graph": cmd_graph,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
    "bench": cmd_bench,
}


def _checked(kind, ok, rule: str):
    """An argparse ``type=``: ``kind(text)``, accepted only if ``ok`` holds for it.

    Every rule is a comparison, so NaN fails each one.
    """
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")

    return convert


_STEP = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _burn_in_arg(text: str):
    return None if text == "auto" else _NON_NEGATIVE(text)


def _add_series_options(sp):
    sp.add_argument("--input", required=True, help="input CSV (header row, one time step per row)")
    sp.add_argument("--dt", type=_STEP, default=1.0,
                    help="sampling interval; rates scale as 1/dt")
    sp.add_argument("--k", type=_COUNT, default=1, help="difference stride in steps")
    sp.add_argument("--alpha", type=_checked(float, lambda v: 0 < v < 1, "a number in (0, 1)"),
                    default=0.05, help="significance level")
    sp.add_argument("--mode", choices=("multivariate", "bivariate"), default="multivariate",
                    help="condition pairwise rates on all components, or on the pair only")
    sp.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                    help="attach relative-importance shares (tau)")
    sp.add_argument("--nan-policy", choices=("reject", "interpolate"), default="reject",
                    help="reject NaNs, or interpolate interior gaps and trim edges")
    sp.add_argument("--output", help="output path (default: stdout)")


def _add_system_options(sp):
    sp.add_argument("--preset", choices=("ou2", "chain5"), help="bundled example system")
    sp.add_argument("--A", help='drift matrix, rows separated by ";" '
                                '(values starting with "-" need the = form: --A="-1,0.5;0,-1")')
    sp.add_argument("--B", help='noise amplitude matrix, same syntax as --A')
    sp.add_argument("--f", help="constant offset vector, comma-separated")
    sp.add_argument("--names", help="comma-separated variable names")
    sp.add_argument("--output", help="output path (default: stdout)")



def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liangflow",
        description="Directed information-flow rates (nats per unit time) between "
                    "time-series components, with significance tests, normalized "
                    "shares, causal graphs, and an exact linear-system oracle.",
        epilog=_EPILOG,
        formatter_class=_Fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("analyze", formatter_class=_Fmt, epilog=_EPILOG,
                        help="all-pairs rate matrix (T[target][source]) from a CSV",
                        description="Estimate every directed rate, with standard errors, "
                                    "p-values, and (by default) normalized shares.")
    _add_series_options(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="matrix JSON, or a long-format CSV table")

    sp = sub.add_parser("graph", formatter_class=_Fmt, epilog=_EPILOG,
                        help="significance-filtered causal graph (DOT or JSON)",
                        description="Estimate all rates, keep relations with p < alpha "
                                    "(optionally also |tau| >= --min-tau), emit the graph.")
    _add_series_options(sp)
    sp.add_argument("--min-tau", default=None,
                    type=_checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
                    help="minimum |normalized share| for an edge (needs --normalize)")
    sp.add_argument("--bonferroni", action="store_true",
                    help="divide alpha by d^2 (number of tested relations)")
    sp.add_argument("--format", choices=("dot", "json"), default="dot",
                    help="Graphviz DOT, or JSON edge list")

    sp = sub.add_parser("simulate", formatter_class=_Fmt, epilog=_EPILOG,
                        help="seeded linear-SDE trajectory as CSV",
                        description="Euler–Maruyama trajectory of dX = (f + A X) dt + B dW; "
                                    "identical seed and parameters give identical bytes.")
    _add_system_options(sp)
    sp.add_argument("--n", type=_COUNT, required=True,
                    help="number of recorded samples (after burn-in)")
    sp.add_argument("--dt", type=_STEP, default=None,
                    help="integration/sampling step (default: preset's dt, else 1)")
    sp.add_argument("--x0", help="initial state, comma-separated (default: zeros)")
    sp.add_argument("--seed", type=_NON_NEGATIVE, default=0, help="random generator seed")
    sp.add_argument("--burn-in", type=_burn_in_arg, default="auto",
                    help="steps to discard first; 'auto' = ten slowest decay times "
                         "(0 when the drift is not stable)")
    sp.add_argument("--require-stationary", action="store_true",
                    help="fail (exit 3) unless all drift eigenvalues have negative real part")

    sp = sub.add_parser("oracle", formatter_class=_Fmt, epilog=_EPILOG,
                        help="exact rates and entropy budget for a linear system",
                        description="No estimation: solves the stationary covariance and "
                                    "reports exact rates, shares, and the per-target "
                                    "budget residual (zero in the stationary state).")
    _add_system_options(sp)

    sp = sub.add_parser("bench", formatter_class=_Fmt, epilog=_EPILOG,
                        help="time the all-pairs computation on synthetic data",
                        description="Times all_pairs (excluding I/O and one warm-up run) "
                                    "on seeded synthetic data; reports per-repetition, "
                                    "median, and min wall times as JSON.")
    sp.add_argument("--d", type=_checked(int, lambda v: v >= 2, "an integer >= 2"), default=30,
                    help="number of variables")
    sp.add_argument("--n", type=_COUNT, default=10000, help="samples per variable")
    sp.add_argument("--reps", type=_COUNT, default=5, help="timed repetitions")
    sp.add_argument("--k", type=_COUNT, default=1, help="difference stride in steps")
    sp.add_argument("--mode", choices=("multivariate", "bivariate"), default="multivariate")
    sp.add_argument("--seed", type=_NON_NEGATIVE, default=0, help="seed for the synthetic data")
    sp.add_argument("--output", help="output path (default: stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValidationError as e:
        print(f"liangflow: error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"liangflow: numerical error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # safety net: a defect, or a failure no library error names
        traceback.print_exc()
        print(f"liangflow: unexpected error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
