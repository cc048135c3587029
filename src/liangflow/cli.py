"""Command-line surface: analyze CSVs, build graphs, simulate, print oracles.

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
import re
import sys
import traceback
from importlib import resources
from typing import Optional

import numpy as np

from . import floattext
from .core import validate_series_set
from .dynamics import (
    LinearSDE,
    _exact_rates,
    _require_hurwitz,
    simulate,
    stationary_covariance,
)
from .errors import EmptyFileError, MalformedError, NumericalError, ValidationError
from .estimator import budget_shares
from .graph import FlowMatrix, _oriented_json, all_pairs, build_graph, emit_dot, emit_json

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


_RANGE = 1 << 21  # bytes of input per task, then the rest of the line: ranges are cut once
_PIECE = 1 << 16  # bytes per orjson call, likewise
_HEAD = 1 << 12  # bytes of the first read for the header, likewise
_LINE_END = re.compile(rb"\r\n?|\n")


def parse_csv(path: str):
    """Read a CSV (header row = variable names, one time step per data row).

    Empty cells become NaN, to be resolved by the NaN policy downstream.
    Returns (names, values) with values shaped d x N (column-per-variable
    input transposed to row-per-variable), in C order.

    The input is read as bytes, at offsets: a pipe is first copied to an
    unnamed temporary file. The data rows are cut into ranges of about
    ``_RANGE`` bytes that end at line ends (``_cuts``), and each range is
    read and parsed where it runs, on every usable CPU (``_in_order``,
    ``_parse_range``). A range that turns out to start inside a quoted
    record of the range before it is parsed again here, from that
    record's end. The result is the row loop's over the whole input, bit
    for bit, and so is the error: the input's first fault in file order, a
    bad record, a csv error or an undecodable line, after which nothing
    more is read.
    """
    try:
        with _opened(path) as fh:
            fd = fh.fileno()
            size = os.fstat(fd).st_size
            names, at = _header(path, fd, size)
            blocks = _parse_ranges(path, fd, names, at, size)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:  # no position: it names the same bytes however cut
        raise MalformedError(f"{path} is not UTF-8 text: "
                             f"can't decode {e.object[e.start:e.end]!r}: {e.reason}") from None
    if not any(block.shape[1] for block in blocks):
        raise EmptyFileError(f"{path}: header only, no data rows")
    return names, np.concatenate(blocks, axis=1)


def _opened(path: str):
    """``path`` opened to read bytes at any offset. A pipe is copied first to an
    unnamed temporary file in ``TMPDIR``, which must have room for all of it
    (a tmpfs holds it in memory)."""
    fh = open(path, "rb")
    if fh.seekable():
        return fh
    import shutil  # here, not at the top: they would add to every CLI start
    import tempfile

    with fh:
        spool = tempfile.TemporaryFile()
        try:
            shutil.copyfileobj(fh, spool)
            spool.flush()  # to the descriptor, where it is read
        except BaseException:
            spool.close()
            raise
    return spool


def _header(path: str, fd: int, size: int):
    """The names in the first record of ``fd`` that is not empty, and the offset
    just after it. A byte order mark, as Excel writes one, is not in them."""
    lines = _Lines(_pieces(fd, 0, size, min(_PIECE, _HEAD)), 0)
    text = iter(lines)
    first = next(text, "").removeprefix("\ufeff")
    reader = csv.reader(itertools.chain(filter(None, [first]), text))
    header = next(filter(None, _records(path, reader, lambda: 0)), None)
    if header is None:
        raise EmptyFileError(f"{path}: no content")
    return [cell.strip() for cell in header], lines.end


def _parse_ranges(path: str, fd: int, names, at: int, size: int) -> list:
    """The records of ``fd`` from byte ``at``, a line end, to ``size``, as d x N
    blocks in order, parsed a range at a time; the first fault in file order raises."""
    cuts = list(_cuts(fd, at, size))
    blocks = []
    # closed as the error leaves it: the workers' results in flight are dropped
    with contextlib.closing(_in_order(_parse_range, cuts, fd, path, names)) as results:
        for (lo, hi), result in zip(cuts, results):
            if lo < at:  # it began inside the record before it: parse what is left
                if hi <= at:
                    continue
                result = _parse_range(fd, path, names, at, hi)
            values, at = result
            if isinstance(values, Exception):
                raise values
            blocks.append(values)
    return blocks


def _cuts(fd: int, lo: int, size: int):
    """(lo, hi) byte ranges from ``lo`` to ``size``: each of ``_RANGE`` bytes or
    more, up to the line end after them (``_cut``)."""
    while lo < size:
        hi = min(_cut(fd, lo + _RANGE), size)
        yield lo, hi
        lo = hi


def _cut(fd: int, at: int) -> int:
    """The offset just after the first line end of ``fd`` that ends at or after
    ``at`` > 0: after an LF, a CRLF or a lone CR, never between a CR and its
    LF; the end of ``fd`` if no line end follows."""
    data, end = b"", False
    while not end:
        size = max(len(data), 1 << 12)
        more = os.pread(fd, size, at - 1 + len(data))
        data, end = data + more, len(more) < size
        found = _LINE_END.search(data)
        # a CR that ends the bytes read may have its LF after them
        if found and (end or found.end() < len(data) or data.endswith(b"\n")):
            return at - 1 + found.end()
    return at - 1 + max(len(data), 1)  # not before ``at``, even past the end


def _pieces(fd: int, lo: int, hi: int, step: Optional[int] = None):
    """The bytes of ``fd`` from ``lo`` to ``hi`` (line ends, or its end) in pieces of
    ``step`` (``_PIECE``) bytes or more that end at line ends."""
    step = step or _PIECE
    while lo < hi:
        end = min(_cut(fd, lo + step), hi) if lo + step < hi else hi
        piece = os.pread(fd, end - lo, lo)
        if not piece:
            return
        yield piece
        lo += len(piece)


class _Lines:
    """The lines of ``pieces``, bytes that start at byte ``end`` and end at line
    ends, decoded and split as a text reader with ``newline=""`` splits them
    (``bytes.splitlines`` splits at LF, CRLF and CR only). As they are given,
    ``end`` moves past each, once it is decoded."""

    def __init__(self, pieces, end: int):
        self.pieces, self.end = pieces, end

    def __iter__(self):
        for piece in self.pieces:
            for line in piece.splitlines(keepends=True):
                text = line.decode()
                self.end += len(line)
                yield text


def _lines_before(fd: int, at: int) -> int:
    """The physical lines of ``fd`` before byte ``at``, a line end."""
    return sum(text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n")
               for text in _pieces(fd, 0, at))


def _parse_range(fd: int, path: str, names, lo: int, hi: int):
    """The records of ``fd`` from byte ``lo``, a line end, through the one that
    holds byte ``hi - 1``, as (values, end): a d x N C-ordered array, and the
    offset where the last record ends, past ``hi`` if a quote holds it open.
    In place of the values, the ``MalformedError`` of the range's first bad
    record or the ``UnicodeDecodeError`` of its first undecodable line is
    returned, so that a range found to begin inside a record raises nothing.

    Each piece is read by orjson (``floattext.read_rows``) or, where that
    gives up, by the row loop, which defines every value and every error.
    The row loop runs through the record that holds the piece's last byte,
    and the next piece starts where that record ends. Lines are counted only
    for an error's message.
    """
    size = os.fstat(fd).st_size
    blocks = [np.empty((0, len(names)))]
    try:
        while lo < hi:
            piece = next(_pieces(fd, lo, hi))
            end = lo + len(piece)
            rows = floattext.read_rows(piece, len(names))
            if rows is None:  # this piece, then on to the end of a record a quote holds open
                lines = _Lines(itertools.chain([piece], _pieces(fd, end, size)), lo)
                rows = _parse_rows(path, names, csv.reader(lines),
                                   functools.partial(_lines_before, fd, lo),
                                   lambda: lines.end >= end)
                end = lines.end
            blocks.append(rows)
            lo = end
    except (MalformedError, UnicodeDecodeError) as e:
        return e, None
    return np.ascontiguousarray(np.concatenate(blocks).T), lo


def _parse_rows(path: str, names, reader, before, done=None):
    """Row-by-row reader of ``parse_csv``'s format, as an N x d array.

    ``before()`` is the number of physical lines before the reader's
    first, asked only for an error's message, so errors name physical
    lines. With ``done``, it stops after the first record after which
    ``done()`` holds.
    """
    width = len(names)
    rows = []
    for row in _records(path, reader, before):
        if row:
            if len(row) != width:
                raise MalformedError(f"{path}: line {before() + reader.line_num}: "
                                     f"expected {width} cells, got {len(row)}")
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
                            f"{path}: line {before() + reader.line_num}: "
                            f"non-numeric value {cell!r} in column {name!r}"
                        ) from None
            rows.append(values)
        if done is not None and done():
            break
    return np.array(rows, dtype=float).reshape(-1, width)


def _records(path: str, reader, before):
    """The rows of ``reader``; a csv error becomes a ``MalformedError``.

    The error names the physical line its record starts on, ``before()``
    lines after the reader's first, not the one where ``csv.reader`` gave
    up (a quoted cell may run on for many lines).
    """
    start = reader.line_num + 1
    try:
        for row in reader:
            yield row
            start = reader.line_num + 1
    except csv.Error as e:
        raise MalformedError(f"{path}: line {before() + start}: {e}") from None


_WRITE_BLOCK = 4096  # samples per task of the pool: bounds the text in flight


def write_csv(names, values: np.ndarray, fh):
    """Write the parse_csv format; each float as ``repr`` writes it, so the bytes
    are reproducible and read back as the same bits.

    Blocks of samples are formatted on every usable CPU and written to
    ``fh`` in order (``_in_order``), each by the process that formatted it.
    """
    csv.writer(fh, lineterminator="\n").writerow(names)
    values = np.asarray(values, dtype=float)
    starts = [(start,) for start in range(0, values.shape[1], _WRITE_BLOCK)]
    for _ in _in_order(_format_block, starts, values, out=fh):
        pass


def _format_block(values: np.ndarray, start: int) -> str:
    return floattext.join(values[:, start:start + _WRITE_BLOCK].T, ",", "\n")


# The one interpreter the fork pool was run on, where it can fork. Python 3.12
# and later warn when a process with threads (numpy's BLAS starts some) forks,
# and 3.10's pool may fork after its manager thread has started (cpython gh-90622).
_FORK_POOL = sys.version_info[:2] == (3, 11) and hasattr(os, "fork")

_shared = ()  # a pool worker's leading arguments, set once as it starts
_out = None  # and (fd, turn, condition): with no output, fd and condition are None
_STOPPED = -1  # the turn once a task has failed, or the caller has stopped: no later task writes


def _share(out, *args):
    global _out, _shared
    _out, _shared = out, args


def _call(fn, task, index: int):
    """In a pool worker: ``fn(*_shared, *task)``, returned unless the caller has
    stopped taking results, or with ``_out`` written through its descriptor
    once the turn reaches ``index``. A failure of ``fn`` or of the write,
    here or in an earlier task, stops the turn: every later task returns
    unwritten, and the caller sees the first error in task order."""
    fd, turn, ready = _out
    if fd is None:
        result = fn(*_shared, *task)
        return None if turn.value == _STOPPED else result  # not sent back for nothing
    text = None
    try:
        text = fn(*_shared, *task)
    finally:
        with ready:
            ready.wait_for(lambda: turn.value in (index, _STOPPED))
            if turn.value == index:
                turn.value = _STOPPED  # unless the text is written whole
                try:
                    if text is not None:
                        data = memoryview(text.encode("ascii"))
                        while data:
                            data = data[os.write(fd, data):]
                        turn.value = index + 1
                finally:
                    ready.notify_all()


def _descriptor(fh) -> Optional[int]:
    """The file descriptor under ``fh``, or None for ``io.StringIO`` and the like."""
    try:
        return fh.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(fn, tasks: list, *shared, out=None):
    """``fn(*shared, *task)`` for each argument tuple in ``tasks``, yielded in task order.

    With ``out``, a text file, each result (ASCII text) is written to ``out``
    in task order instead, and None is yielded in its place.

    With more than one usable CPU and more than one task, the calls run in
    a pool of forked processes, one per CPU but no more than there are
    tasks. At most one task more than there are workers waits for its
    result, so the results in flight stay bounded. ``shared`` reaches
    each worker once, through fork, not pickled per task; tasks and
    results are pickled, and once the caller stops taking results (the
    generator is closed), a task still running sends none back. With
    ``out``, the pool runs only if ``out`` has a file descriptor (a file or
    a pipe): ``out`` is flushed before the fork, and each worker writes its
    own result through it once every earlier one is written (``_call``),
    so no result comes back. The first
    exception in task order is raised; a worker that dies, or a pool that
    cannot start (an ``OSError`` of fork), raises ``BrokenProcessPool``.
    Otherwise, without ``_FORK_POOL``, the calls run here, one by one, and
    ``out.write`` writes their results.

    Fork rather than spawn: a spawned worker imports numpy again
    and receives ``shared`` by pickle, and a pool of two took 0.7-1.2 s to
    start on a 2-core VM, against 0.02 s forked. Fork is safe here because
    the workers only read, write and convert between numbers and text: they
    call no BLAS, and the one lock they take, the turn condition's (with its
    semaphores), is made for them before the fork and never held by a
    thread of this process.
    """
    workers = min(_usable_cpus(), len(tasks))
    fd = None if out is None else _descriptor(out)
    if _FORK_POOL and workers > 1 and (out is None or fd is not None):
        import multiprocessing  # here, not at the top: it would add to every CLI start
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if out is not None:
            out.flush()  # what is written so far comes first, and no worker inherits it
        context = multiprocessing.get_context("fork")
        try:  # an OSError until the first task has forked the workers is the pool's, not out's
            turn = context.RawValue("q", 0)
            turns = (fd, turn, None if out is None else context.Condition())
            pool = ProcessPoolExecutor(workers, mp_context=context,
                                       initializer=_share, initargs=(turns, *shared))
            pending = collections.deque([pool.submit(_call, fn, tasks[0], 0)])
        except OSError as e:
            # no shutdown reaches a worker forked before the failure, and exit would wait for it
            for worker in multiprocessing.active_children():
                worker.kill()
                worker.join()
            raise BrokenProcessPool(f"cannot start the pool: {e}") from e
        try:
            for index, task in enumerate(tasks[1:], 1):
                pending.append(pool.submit(_call, fn, task, index))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            turn.value = _STOPPED  # a result still in flight is dropped in its worker
            pool.shutdown(cancel_futures=True)
        return
    for task in tasks:
        result = fn(*shared, *task)
        if out is not None:
            out.write(result)
            result = None
        yield result


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


def _resolve_sde(args: argparse.Namespace):
    """SDE from --preset or inline --A/--B/--f/--names; returns (sde, preset dt, else 1)."""
    if args.preset:
        if any(v is not None for v in (args.A, args.B, args.f, args.names)):
            raise ValidationError("give either --preset or inline --A/--B/--f/--names, not both")
        return load_preset(args.preset)
    if args.A is None or args.B is None:
        raise ValidationError("need --preset, or both --A and --B")
    return LinearSDE(A=args.A, B=args.B, f=args.f, names=args.names), 1.0


@contextlib.contextmanager
def _open_output(path: Optional[str]):
    """The output file (replaced), or stdout when no path is given. A failure to
    open or write it raises ``ValidationError``, except ``BrokenPipeError``:
    a reader that closed early."""
    try:
        with (open(path, "w", encoding="utf-8", newline="") if path
              else contextlib.nullcontext(sys.stdout)) as fh:
            yield fh
            fh.flush()  # here, where a failure is caught, not at exit
    except OSError as e:
        if not path:  # so the flush at exit does not fail again (the signal module's recipe)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(e, BrokenPipeError):
            raise
        raise ValidationError(f"cannot write {path or 'stdout'}: {e}") from None


def _write_text(text: str, path: Optional[str]):
    with _open_output(path) as fh:
        fh.write(text)


def _flow_matrix(args: argparse.Namespace) -> FlowMatrix:
    """``all_pairs`` of the ``--input`` CSV under the series options."""
    names, values = parse_csv(args.input)  # a fresh array, handed over without a copy
    tss = validate_series_set(values, names, args.dt, nan_policy=args.nan_policy, _owned=True)
    return all_pairs(tss, k=args.k, alpha=args.alpha, normalize=args.normalize, mode=args.mode)


def _cells(values: np.ndarray, nan: str = "nan") -> list:
    """The text of each value, row-major, as ``repr`` writes it; a NaN as ``nan``."""
    return floattext.join(values.reshape(-1, 1), "", "\n", nan).split("\n")[:-1]


def _flow_matrix_csv(fm) -> str:
    """Long-format table: one row per directed relation (self rows have
    source == target); per-target noise shares follow with an empty source.
    Empty tau cells mean no shares (``--no-normalize``)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["target", "source", "T", "se", "p", "tau"])
    targets = [tgt for tgt in fm.names for _ in fm.names]
    writer.writerows(zip(targets, fm.names * fm.d, _cells(fm.T), _cells(fm.SE), _cells(fm.P),
                         _cells(fm.TAU, nan="")))
    writer.writerows([tgt, "", "", "", "", tau]
                     for tgt, tau in zip(fm.names, _cells(fm.noise_share, nan="")))
    return out.getvalue()


def cmd_analyze(args: argparse.Namespace) -> int:
    """All-pairs rates with significance (and shares unless --no-normalize)."""
    fm = _flow_matrix(args)
    text = emit_json(fm) if args.format == "json" else _flow_matrix_csv(fm)
    _write_text(text, args.output)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    """Analyze, filter by significance, emit the directed graph."""
    g = build_graph(_flow_matrix(args), alpha=args.alpha, min_tau=args.min_tau,
                    bonferroni=args.bonferroni)
    text = emit_dot(g) if args.format == "dot" else emit_json(g)
    _write_text(text, args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write one seeded trajectory as CSV (consumable by analyze)."""
    sde, default_dt = _resolve_sde(args)
    if args.require_stationary:
        _require_hurwitz(sde)
    x0 = np.zeros(sde.d) if args.x0 is None else args.x0
    tss = simulate(sde, x0, args.n, args.dt or default_dt, args.seed, burn_in=args.burn_in)
    with _open_output(args.output) as fh:
        write_csv(tss.names, tss.values, fh)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    """Exact rates and entropy budget for a linear system (no estimation)."""
    sde, _ = _resolve_sde(args)
    sc = stationary_covariance(sde)
    rates, noise, residual = _exact_rates(sde, sc.Sigma)
    tau, noise_share, _ = budget_shares(rates, noise)
    _write_text(_oriented_json({
        "names": list(sde.names),
        "T": rates.tolist(),
        "TAU": tau.tolist(),
        "noise_share": noise_share.tolist(),
        "noise_rate": noise.tolist(),
        "budget_residual": residual.tolist(),
        "lyapunov_residual": sc.residual,
    }), args.output)
    return 0


_DISPATCH = {
    "analyze": cmd_analyze,
    "graph": cmd_graph,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
}


def _checked(kind, ok, rule: str):
    """An argparse ``type=``: ``kind(text)``, accepted only if ``ok`` holds for it.

    Every rule on a number is a comparison, so a NaN number fails each one.
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


def _row(text: str) -> list:
    return [float(cell) for cell in text.split(",")]


# Not empty (np.size); shape against d, and finiteness, are LinearSDE's and simulate's checks.
_MATRIX = _checked(lambda text: np.array([_row(row) for row in text.split(";") if row.strip()]),
                   np.size, "rows of equally many numbers, split by ';' and ','")
_VECTOR = _checked(lambda text: np.array(_row(text)), np.size, "numbers split by ','")


def _names_arg(text: str) -> tuple:
    return tuple(name.strip() for name in text.split(","))


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
    sp.add_argument("--A", type=_MATRIX,
                    help='drift matrix, rows separated by ";" '
                         '(values starting with "-" need the = form: --A="-1,0.5;0,-1")')
    sp.add_argument("--B", type=_MATRIX, help='noise amplitude matrix, same syntax as --A')
    sp.add_argument("--f", type=_VECTOR, help="constant offset vector, comma-separated")
    sp.add_argument("--names", type=_names_arg, help="comma-separated variable names")
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
    sp.add_argument("--x0", type=_VECTOR, help="initial state, comma-separated (default: zeros)")
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
    except BrokenPipeError:  # the reader closed early, as `| head` does: end quietly
        return 1
    except Exception as e:  # safety net: a defect, or a failure no library error names
        traceback.print_exc()
        print(f"liangflow: unexpected error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
