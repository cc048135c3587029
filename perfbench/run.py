"""perfbench: the liangflow benchmark.

    python3 perfbench/run.py --workload {wide,ingest,synth,all} --seed N
                             [--seconds S] [--trace 0|1]

Workloads (inputs generated from the seed by the benchmark's own numpy code):

* ``wide``   library pipeline validate -> all_pairs(k=1, multivariate) ->
             build_graph(alpha=0.01) -> emit_json + emit_dot; d=100, N=1e4 VAR(1)
             with a planted sparse graph. Per-pair bookkeeping dominates.
* ``ingest`` ``liangflow analyze`` on a d=30, N=1e5 CSV (``%.17g``, ~60 MB),
             called in process through ``liangflow.cli.main``. CSV parsing dominates.
* ``synth``  ``liangflow simulate`` of a d=30 stable sparse drift, N=1e5,
             dt=0.01, called in process; writing the ~59 MB CSV dominates.

Each workload runs in fresh worker processes (``worker.py``). The report
gives, per workload: ``wall_s`` (median wall time of one operation),
``values_per_s`` (d*N per second at that median), ``peak_rss_mb``
(``ru_maxrss`` of the worker), ``setup_raw_s`` (median over SETUP_SPAWNS
process starts of the time from spawn until liangflow is imported and the
cached inputs are loaded) and ``fail_frac``.

The machine this was written on changes speed by up to 2x within
minutes, so the gated timing metrics are drift-corrected:
``wall_ref`` is the mean time of an operation over the mean time of a
fixed reference task that runs before every timed operation and after the
last (``worker.reference_task``; ``ref_task_s`` is that task's median time),
and ``values_per_ref`` is d*N / ``wall_ref``. ``setup_s`` is the median
over process starts of the set-up time over the time of
``import_reference`` run just before it, scaled back to seconds by that
reference's calibrated time ``IMPORT_REF_NOMINAL_S``. With ``--trace 0``
the last stdout line carries ``wall_ref``, ``values_per_ref``,
``peak_rss_mb`` and ``setup_s``, and ``fail_frac`` as ``failed`` /
``attempted``. With ``--trace 1`` an untraced and a traced worker run back
to back, each for half of ``--seconds`` and at least ``TRACE_MIN_OPS``
timed operations, and the last line carries the per-layer metrics.
Every operation's output is checked against a reference that the
benchmark computes itself (see ``inputs.py``). A per-layer metric that a
workload does not reach reads 0 and the report gives the reason.

Inputs, references, reports and traces live under ``.bench_cache/`` in
the checkout. BLAS threads are capped at the number of usable cores.
"""

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
# timed operations at least, per half of a traced run: per-layer metrics have no bound,
# and a traced run should not take much longer than an untraced one
TRACE_MIN_OPS = 2
SETUP_SPAWNS = 3  # process starts timed per untraced run; the last one also measures
# median time of import_reference on the 2-core machine setup_s was calibrated on
IMPORT_REF_NOMINAL_S = 0.6
RUN_LIMIT_S = 170.0  # one workload's run, including set-up and checks
COND_WELL = 1e3  # probe systems below this condition number are well conditioned

# the end-to-end metrics BENCHMARK.json gates; the report adds raw wall_s, values_per_s,
# setup_raw_s, ref_task_s, import_ref_s and fail_frac
END_TO_END = (("wall_ref", "ref"), ("values_per_ref", "1/ref"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER = (
    ("setup.import_s", "s"),
    ("core.validate_series_set.self_s", "s"),
    ("graph.all_pairs.self_s", "s"),
    ("graph.all_pairs.blas_frac", "ratio"),
    ("graph.all_pairs.peak_alloc_mb", "MB"),
    ("graph.build_graph.self_s", "s"),
    ("graph.emit_json.self_s", "s"),
    ("graph.emit_dot.self_s", "s"),
    ("graph.edges_kept", "count"),
    ("graph.planted_recall", "ratio"),
    ("estimator.fits", "count"),
    ("estimator.pair_estimates", "count"),
    ("estimator.gram_gflop", "GFLOP"),
    ("estimator.false_singular", "count"),
    ("cli.main.s", "s"),
    ("cli.parse_csv.self_s", "s"),
    ("cli.parse_csv.MBps", "MB/s"),
    ("cli.parse_csv.peak_alloc_mb", "MB"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.MBps", "MB/s"),
    ("dynamics.simulate.self_s", "s"),
    ("dynamics.simulate.peak_alloc_mb", "MB"),
    ("trace.overhead_frac", "ratio"),
)

# per-layer metrics whose layer is reached through another function
REACHED_THROUGH = {
    "graph.edges_kept": "graph.build_graph",
    "graph.planted_recall": "graph.build_graph",
    "estimator.fits": "graph.all_pairs",
    "estimator.pair_estimates": "graph.all_pairs",
    "estimator.gram_gflop": "graph.all_pairs",
}


class BenchError(RuntimeError):
    pass


def spawn(workload, case, seed, seconds, deadline, *flags):
    """Run worker.py once; returns its result with ``setup_s`` (spawn to READY) added."""
    out = inputs.CACHE / "out" / workload
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--case", str(case),
           "--out", str(out), "--seconds", str(seconds), "--seed", str(seed), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        rc = proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or rc != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit code {rc})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def blas_info():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def commit():
    if not (inputs.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=inputs.ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return done.stdout.strip()


def environment(seed, blas_threads):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads,
        "blas_thread_cap": NPROC,
        "nproc": NPROC,
        "commit": commit(),
        "seed": seed,
    }


def spread(values, what):
    return (f"median of {len(values)} {what} (min {min(values):.4g}, max {max(values):.4g})",
            len(values))


def wall_ref_of(measured):
    """Mean operation time over the mean time of the reference task interleaved with them.

    The host's speed also changes within one operation, faster than a
    reference task can follow, so per-operation ratios are noisy; means
    over the whole run average that out and keep the slower drift, which
    both sides share. On the 2-core machine this was written on, its
    IQR/median over ten seeds averaged 0.11 (at most 0.18) in six sets of
    runs of each workload, against 0.13 (at most 0.22) for the median of
    per-operation ratios computed from the same runs.
    """
    return statistics.fmean(measured["times"]) / statistics.fmean(measured["ref_times"])


def import_reference(deadline):
    """Seconds a fresh Python process takes to import numpy and scipy.linalg.

    The set-up counterpart of ``worker.reference_task``: fixed work that
    never touches liangflow and, like set-up, is mostly process start and
    module import.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return time.perf_counter() - start


def end_to_end(meta, setups, import_refs, measured):
    times, refs = measured["times"], measured["ref_times"]
    attempted, failed = measured["attempted"], measured["failed"]
    values = meta["d"] * meta["n"]
    wall = statistics.median(times)
    wall_ref = wall_ref_of(measured)
    setup_ratio = statistics.median([s / r for s, r in zip(setups, import_refs)])
    return {
        "wall_ref": (wall_ref, "ref", "mean op time / mean time of the reference task "
                                      "run between ops", len(times)),
        "values_per_ref": (values / wall_ref, "1/ref", f"{values} values per op / wall_ref",
                           len(times)),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB", "ru_maxrss of the worker", 1),
        "setup_s": (setup_ratio * IMPORT_REF_NOMINAL_S, "s",
                    f"median over process starts of set-up time / import reference just "
                    f"before it, times {IMPORT_REF_NOMINAL_S} s", len(setups)),
        "setup_raw_s": (statistics.median(setups), "s", *spread(setups, "process starts")),
        "import_ref_s": (statistics.median(import_refs), "s",
                         *spread(import_refs, "import references")),
        "wall_s": (wall, "s", *spread(times, "ops after one warm-up")),
        "values_per_s": (values / wall, "1/s", f"{values} values per op / wall_s", len(times)),
        "ref_task_s": (statistics.median(refs), "s", *spread(refs, "reference tasks")),
        "fail_frac": (failed / attempted, "ratio", f"{failed} of {attempted} ops failed",
                      attempted),
    }


def per_layer(workload, meta, plain, traced):
    """{name: (value or None, unit, note, samples)}; None: the workload does not reach the layer."""
    selfs = {name: statistics.median(v) for name, v in traced["self_s"].items()}
    spans = {name: statistics.median(v) for name, v in traced["span_s"].items() if any(v)}
    alloc = traced["alloc_peak_mb"]
    d = meta["d"]
    runs_pairs = "graph.all_pairs" in spans
    n_eff = traced.get("n_eff")
    probe = traced["probe"]
    false_singular = sum(r["rejected"] and r["cond_R"] < COND_WELL for r in probe)
    values = {
        "setup.import_s": (statistics.median([plain["import_s"], traced["import_s"]]), "measured"),
        "graph.all_pairs.blas_frac": (
            traced["gram_s"] / spans["graph.all_pairs"] if runs_pairs else None,
            "computed: bare W @ W.T time in the same run / all_pairs time"),
        "graph.edges_kept": (traced.get("edges_kept"), "count"),
        "graph.planted_recall": (traced.get("planted_recall"), "planted edges kept / planted"),
        "estimator.fits": (d if runs_pairs else None, "computed from the inputs: d per op"),
        "estimator.pair_estimates": (d * (d - 1) if runs_pairs else None,
                                     "computed from the inputs: d(d-1) per op"),
        "estimator.gram_gflop": (2 * d * d * n_eff * 1e-9 if runs_pairs else None,
                                 "computed from the inputs: 2 d^2 n_eff per op"),
        "estimator.false_singular": (false_singular,
                                     f"probe systems rejected as collinear with cond(R) < {COND_WELL:g}"),
        "cli.main.s": (spans.get("cli.main"), "median span duration"),
        "cli.parse_csv.MBps": (
            meta["input_bytes"] / 1e6 / selfs["cli.parse_csv"] if "cli.parse_csv" in selfs else None,
            "computed bytes read / parse_csv self time"),
        "cli.write_csv.MBps": (
            traced["output_bytes"] / 1e6 / selfs["cli.write_csv"] if "cli.write_csv" in selfs else None,
            "computed bytes written / write_csv self time"),
        "trace.overhead_frac": (
            wall_ref_of(traced) / wall_ref_of(plain) - 1.0,
            "traced wall_ref / untraced wall_ref - 1, same run"),
    }
    for name in ("core.validate_series_set", "graph.all_pairs", "graph.build_graph",
                 "graph.emit_json", "graph.emit_dot", "cli.parse_csv", "cli.write_csv",
                 "dynamics.simulate"):
        values[f"{name}.self_s"] = (selfs.get(name), "median self time per op")
    for name in ("graph.all_pairs", "cli.parse_csv", "dynamics.simulate"):
        values[f"{name}.peak_alloc_mb"] = (alloc.get(name), "tracemalloc peak, one extra op")
    out = {}
    for name, unit in PER_LAYER:
        value, note = values[name]
        if value is None:
            layer = REACHED_THROUGH.get(name, name.rsplit(".", 1)[0])
            note = f"absent: {workload} does not call {layer}"
        out[name] = (value, unit, note, len(traced["times"]))
    return out


def run_workload(workload, scale, seed, seconds, trace):
    """Returns (report, contract metrics, attempted, failed) for one workload."""
    deadline = time.monotonic() + RUN_LIMIT_S
    case = inputs.prepare(workload, scale, seed)
    meta = json.loads((case / "meta.json").read_text(encoding="utf-8"))
    try:
        if trace:  # half the time untraced, half traced, for trace.overhead_frac
            fewer = ("--min-ops", str(TRACE_MIN_OPS))
            plain = spawn(workload, case, seed, seconds / 2, deadline, *fewer)
            traced = spawn(workload, case, seed, seconds / 2, deadline, *fewer, "--trace")
            metrics = per_layer(workload, meta, plain, traced)
            runs = (plain, traced)
            trace_path = inputs.CACHE / "traces" / f"{workload}-seed{seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "op"], "spans": traced["spans"]}))
            extra = {"probe": traced["probe"], "trace_file": str(trace_path.relative_to(inputs.ROOT))}
        else:
            # every process start follows an import reference; the last one measures
            setups, import_refs = [], []
            for _ in range(SETUP_SPAWNS - 1):
                import_refs.append(import_reference(deadline))
                setups.append(spawn(workload, case, seed, seconds, deadline,
                                    "--setup-only")["setup_s"])
            import_refs.append(import_reference(deadline))
            plain = spawn(workload, case, seed, seconds, deadline)
            setups.append(plain["setup_s"])
            metrics = end_to_end(meta, setups, import_refs, plain)
            runs = (plain,)
            extra = {}
    finally:
        shutil.rmtree(inputs.CACHE / "out" / workload, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = {
        "workload": workload, "scale": scale, "trace": int(trace), "d": meta["d"], "n": meta["n"],
        "environment": environment(seed, plain.get("blas_threads")),
        "metrics": {name: {"value": v, "unit": u, "samples": n, "note": note}
                    for name, (v, u, note, n) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "times_s": {"untraced": {k: plain[k] for k in ("times", "ref_times")},
                    **({"traced": {k: traced[k] for k in ("times", "ref_times")}} if trace else {})},
        "errors": [e for r in runs for e in r["errors"]],
        **extra,
    }
    names = PER_LAYER if trace else END_TO_END
    contract = {name: {"value": float(metrics[name][0] or 0.0), "unit": unit} for name, unit in names}
    return report, contract, attempted, failed


def print_report(report):
    env = report["environment"]
    print(f"== {report['workload']} (d={report['d']}, N={report['n']}, scale={report['scale']}, "
          f"trace={report['trace']}) seed={env['seed']} commit={env['commit']}")
    print(f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} "
          f"with {env['blas_threads']} threads (cap {env['blas_thread_cap']}), nproc {env['nproc']}")
    for name, m in report["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:34s} {value:>12s} {m['unit']:6s} n={m['samples']:<3d} {m['note']}")
    for error in report["errors"]:
        print(f"   error: {error}")


def main(argv=None):
    p = argparse.ArgumentParser(description="Run the liangflow benchmark.")
    p.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18.0, help="measuring time per worker")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    # on SIGTERM unwind normally, so a running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    if not (inputs.ROOT / "src" / "liangflow" / "__init__.py").is_file():
        sys.exit("perfbench: no liangflow sources under src/ in this checkout")
    if args.seed < 0:
        sys.exit("perfbench: --seed must be >= 0")

    scale = "tiny" if args.tiny else "full"
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    reports_dir = inputs.CACHE / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            report, contract, n_ops, n_failed = run_workload(
                workload, scale, args.seed, args.seconds, bool(args.trace))
            path = reports_dir / f"{workload}-{scale}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print_report(report)
            print(f"   report: {path.relative_to(inputs.ROOT)}")
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + name: m for name, m in contract.items()})
            attempted += n_ops
            failed += n_failed
    except BenchError as e:
        sys.exit(f"perfbench: {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
