"""Command-line surface: analyze CSVs, build graphs, simulate, print oracles, benchmark.

Every command is a thin wrapper over the library with deterministic
output: identical configuration and seed produce identical bytes. Matrix
outputs use the T[target][source] orientation (row = receiving variable)
and stamp it into the JSON. Exit codes: 0 success, 2 invalid input or
configuration, 3 numerical degeneracy, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, fields
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


@dataclass
class RunConfig:
    """Validated bag of options for one command invocation."""

    command: str
    input: Optional[str] = None
    output: Optional[str] = None
    dt: Optional[float] = None
    k: int = 1
    alpha: float = 0.05
    normalize: bool = True
    mode: str = "multivariate"
    nan_policy: str = "reject"
    seed: int = 0
    fmt: str = "json"
    preset: Optional[str] = None
    A: Optional[str] = None
    B: Optional[str] = None
    f: Optional[str] = None
    x0: Optional[str] = None
    names: Optional[str] = None
    n_steps: Optional[int] = None
    burn_in: Optional[int] = None
    require_stationary: bool = False
    min_tau: Optional[float] = None
    bonferroni: bool = False
    bench_d: int = 30
    bench_n: int = 10000
    reps: int = 5

    def validate(self):
        if self.dt is not None and not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be strictly between 0 and 1, got {self.alpha}")
        if self.mode not in ("multivariate", "bivariate"):
            raise ValidationError(f"mode must be multivariate or bivariate, got {self.mode!r}")
        if self.nan_policy not in ("reject", "interpolate"):
            raise ValidationError(f"nan-policy must be reject or interpolate, got {self.nan_policy!r}")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValidationError(f"n must be >= 1, got {self.n_steps}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValidationError(f"burn-in must be >= 0, got {self.burn_in}")
        if self.min_tau is not None and self.min_tau < 0:
            raise ValidationError(f"min-tau must be >= 0, got {self.min_tau}")
        if self.command == "bench":
            if self.bench_d < 2:
                raise ValidationError(f"bench needs d >= 2, got {self.bench_d}")
            if self.bench_n < self.bench_d + 3:
                raise ValidationError(
                    f"bench needs n >= d + 3 = {self.bench_d + 3}, got {self.bench_n}"
                )
            if self.reps < 1:
                raise ValidationError(f"reps must be >= 1, got {self.reps}")


def parse_csv(path: str):
    """Read a CSV (header row = variable names, one time step per data row).

    Empty cells become NaN, to be resolved by the NaN policy downstream.
    Returns (names, values) with values shaped d x N (column-per-variable
    input transposed to row-per-variable).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise MalformedError(f"{path} is not UTF-8 text: {e}") from None
    if not rows:
        raise EmptyFileError(f"{path}: no content")
    names = [cell.strip() for cell in rows[0]]
    if len(rows) == 1:
        raise EmptyFileError(f"{path}: header only, no data rows")
    width = len(names)
    values = np.empty((len(rows) - 1, width))
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise MalformedError(f"{path}: line {ln}: expected {width} cells, got {len(row)}")
        for col, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                values[ln - 2, col] = np.nan
            else:
                try:
                    values[ln - 2, col] = float(cell)
                except ValueError:
                    raise MalformedError(
                        f"{path}: line {ln}: non-numeric value {cell!r} in column "
                        f"{names[col]!r}"
                    ) from None
    return names, values.T


def write_csv(names, values: np.ndarray, fh):
    """Write the parse_csv format; floats via repr so bytes are reproducible."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for col in values.T:
        writer.writerow([repr(float(v)) for v in col])


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


def _resolve_sde(cfg: RunConfig):
    """SDE from --preset or inline --A/--B/--f/--names; returns (sde, preset_dt)."""
    if cfg.preset:
        if cfg.A or cfg.B or cfg.f or cfg.names:
            raise ValidationError("give either --preset or inline --A/--B/--f/--names, not both")
        return load_preset(cfg.preset)
    if cfg.A is None or cfg.B is None:
        raise ValidationError("need --preset, or both --A and --B")
    a = _parse_matrix(cfg.A, "A")
    b = _parse_matrix(cfg.B, "B")
    d = a.shape[0]
    f = _parse_vector(cfg.f, d, "f") if cfg.f else None
    names = tuple(n.strip() for n in cfg.names.split(",")) if cfg.names else ()
    return LinearSDE(A=a, B=b, f=f, names=names), None


def _write_text(text: str, path: Optional[str]):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_series(cfg: RunConfig) -> TimeSeriesSet:
    if not cfg.input:
        raise ValidationError("--input is required")
    names, values = parse_csv(cfg.input)
    return validate_series_set(values, names, cfg.dt if cfg.dt is not None else 1.0,
                               nan_policy=cfg.nan_policy)


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


def cmd_analyze(cfg: RunConfig) -> int:
    """All-pairs rates with significance (and shares unless --no-normalize)."""
    tss = _load_series(cfg)
    fm = all_pairs(tss, k=cfg.k, alpha=cfg.alpha, normalize=cfg.normalize, mode=cfg.mode)
    text = emit_json(fm) if cfg.fmt == "json" else _flow_matrix_csv(fm)
    _write_text(text, cfg.output)
    return 0


def cmd_graph(cfg: RunConfig) -> int:
    """Analyze, filter by significance, emit the directed graph."""
    tss = _load_series(cfg)
    fm = all_pairs(tss, k=cfg.k, alpha=cfg.alpha, normalize=cfg.normalize, mode=cfg.mode)
    g = build_graph(fm, alpha=cfg.alpha, min_tau=cfg.min_tau, bonferroni=cfg.bonferroni)
    text = emit_dot(g) if cfg.fmt == "dot" else emit_json(g)
    _write_text(text, cfg.output)
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    """Write one seeded trajectory as CSV (consumable by analyze)."""
    sde, preset_dt = _resolve_sde(cfg)
    dt = cfg.dt if cfg.dt is not None else (preset_dt if preset_dt is not None else 1.0)
    if cfg.require_stationary and not sde.is_hurwitz():
        raise NotHurwitzError(
            "--require-stationary: drift matrix has an eigenvalue with non-negative real part"
        )
    x0 = _parse_vector(cfg.x0, sde.d, "x0") if cfg.x0 else np.zeros(sde.d)
    if cfg.n_steps is None:
        raise ValidationError("--n (number of recorded samples) is required")
    tss = simulate(sde, x0, cfg.n_steps, dt, cfg.seed, burn_in=cfg.burn_in)
    buf = io.StringIO()
    write_csv(tss.names, tss.values, buf)
    _write_text(buf.getvalue(), cfg.output)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    """Exact rates and entropy budget for a linear system (no estimation)."""
    sde, _ = _resolve_sde(cfg)
    sc = stationary_covariance(sde)
    d = sde.d
    t = np.zeros((d, d))
    tau = np.zeros((d, d))
    noise = np.zeros(d)
    noise_share = np.zeros(d)
    residual = np.zeros(d)
    for i in range(d):
        budget = _budget_from_sigma(sde, sc.Sigma, i)
        t[i] = budget.flows
        t[i, i] = budget.self_rate
        noise[i] = budget.noise_rate
        residual[i] = budget.residual
        z = float(np.abs(t[i]).sum() + abs(budget.noise_rate))
        tau[i] = t[i] / z
        noise_share[i] = abs(budget.noise_rate) / z
    payload = {
        "orientation": "T[target][source]",
        "names": list(sde.names),
        "T": [[float(v) for v in row] for row in t],
        "TAU": [[float(v) for v in row] for row in tau],
        "noise_share": [float(v) for v in noise_share],
        "noise_rate": [float(v) for v in noise],
        "budget_residual": [float(v) for v in residual],
        "lyapunov_residual": sc.residual,
    }
    _write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", cfg.output)
    return 0


def _run_bench(cfg: RunConfig) -> dict:
    """Time all_pairs on seeded synthetic data; excludes I/O and one warm-up run."""
    rng = np.random.default_rng(cfg.seed)
    names = tuple(f"x{i + 1}" for i in range(cfg.bench_d))
    tss = TimeSeriesSet(names=names, values=rng.standard_normal((cfg.bench_d, cfg.bench_n)),
                        dt=1.0)

    def once() -> float:
        start = time.perf_counter()
        all_pairs(tss, k=cfg.k, alpha=cfg.alpha, normalize=cfg.normalize, mode=cfg.mode)
        return time.perf_counter() - start

    once()
    times = [once() for _ in range(cfg.reps)]
    return {
        "d": cfg.bench_d,
        "n": cfg.bench_n,
        "relations": cfg.bench_d * (cfg.bench_d - 1),
        "mode": cfg.mode,
        "repetitions": cfg.reps,
        "times_sec": times,
        "median_sec": statistics.median(times),
        "min_sec": min(times),
    }


def cmd_bench(cfg: RunConfig) -> int:
    report = _run_bench(cfg)
    _write_text(json.dumps(report, indent=2) + "\n", cfg.output)
    return 0


_DISPATCH = {
    "analyze": cmd_analyze,
    "graph": cmd_graph,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
    "bench": cmd_bench,
}


def _add_series_options(sp):
    sp.add_argument("--input", required=True, help="input CSV (header row, one time step per row)")
    sp.add_argument("--dt", type=float, default=1.0,
                    help="sampling interval; rates scale as 1/dt")
    sp.add_argument("--k", type=int, default=1, help="difference stride in steps")
    sp.add_argument("--alpha", type=float, default=0.05, help="significance level")
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


def _burn_in_arg(text: str):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("burn-in must be >= 0")
    return value


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
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                    help="matrix JSON, or a long-format CSV table")

    sp = sub.add_parser("graph", formatter_class=_Fmt, epilog=_EPILOG,
                        help="significance-filtered causal graph (DOT or JSON)",
                        description="Estimate all rates, keep relations with p < alpha "
                                    "(optionally also |tau| >= --min-tau), emit the graph.")
    _add_series_options(sp)
    sp.add_argument("--min-tau", type=float, default=None,
                    help="minimum |normalized share| for an edge (needs --normalize)")
    sp.add_argument("--bonferroni", action="store_true",
                    help="divide alpha by d^2 (number of tested relations)")
    sp.add_argument("--format", dest="fmt", choices=("dot", "json"), default="dot",
                    help="Graphviz DOT, or JSON edge list")

    sp = sub.add_parser("simulate", formatter_class=_Fmt, epilog=_EPILOG,
                        help="seeded linear-SDE trajectory as CSV",
                        description="Euler–Maruyama trajectory of dX = (f + A X) dt + B dW; "
                                    "identical seed and parameters give identical bytes.")
    _add_system_options(sp)
    sp.add_argument("--n", dest="n_steps", type=int, required=True,
                    help="number of recorded samples (after burn-in)")
    sp.add_argument("--dt", type=float, default=None,
                    help="integration/sampling step (default: preset's dt, else 1)")
    sp.add_argument("--x0", help="initial state, comma-separated (default: zeros)")
    sp.add_argument("--seed", type=int, default=0, help="random generator seed")
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
    sp.add_argument("--d", dest="bench_d", type=int, default=30, help="number of variables")
    sp.add_argument("--n", dest="bench_n", type=int, default=10000, help="samples per variable")
    sp.add_argument("--reps", type=int, default=5, help="timed repetitions")
    sp.add_argument("--k", type=int, default=1, help="difference stride in steps")
    sp.add_argument("--mode", choices=("multivariate", "bivariate"), default="multivariate")
    sp.add_argument("--seed", type=int, default=0, help="seed for the synthetic data")
    sp.add_argument("--output", help="output path (default: stdout)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = {}
    for f in fields(RunConfig):
        if hasattr(args, f.name):
            kwargs[f.name] = getattr(args, f.name)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        return _DISPATCH[cfg.command](cfg)
    except ValidationError as e:
        print(f"liangflow: error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"liangflow: numerical error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - safety net
        print(f"liangflow: unexpected error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
