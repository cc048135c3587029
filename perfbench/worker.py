"""Run one workload in a fresh process: import liangflow, load inputs, time operations.

Started by ``run.py``; not meant to be run by hand. It prints ``READY``
once ``import liangflow`` and the cached inputs are loaded, so the parent
can time set-up from spawn to ready. Unless ``--setup-only`` is given it
then runs operations back to back for ``--seconds`` (at least
``--min-ops``), times ``reference_task`` between them, checks every output
against the reference, and prints one JSON result line. With ``--trace``
it also wraps the program's public names (see ``spans.py``) and reports
spans and the per-layer extras.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 4
FLOW_FIELDS = ("T", "SE", "P", "TAU", "noise_share")  # tolerances: see inputs.py
DOT_EDGE = re.compile(r'^\s*"([^"]*)" -> "([^"]*)"', re.MULTILINE)
VARIANCE_RTOL = 0.5  # simulated variance vs the Lyapunov one; sampling error is ~0.1
ALLOC_SPANS = ("graph.all_pairs", "cli.parse_csv", "dynamics.simulate")


def flows_match(doc, names, ref) -> bool:
    """Every field of an emitted flow matrix is within its tolerance of the reference."""
    import numpy as np

    if doc.get("orientation") != "T[target][source]" or doc.get("names") != names:
        return False
    for field in FLOW_FIELDS:
        got = np.array(doc[field], dtype=float)  # null (NaN) never matches
        if got.shape != ref[field].shape or not np.all(
            np.abs(got - ref[field]) <= ref[field + "_tol"]
        ):
            return False
    return True


def edges_match(kept, ref, alpha) -> bool:
    """Kept (target, source) pairs, self loops on the diagonal, are {P_ref < alpha}.

    A pair whose reference p-value is within its tolerance of alpha may
    go either way; each pair may be kept once.
    """
    import numpy as np

    sure = np.abs(ref["P"] - alpha) > ref["P_tol"]
    expected = set(zip(*np.nonzero(sure & (ref["P"] < alpha))))
    return len(set(kept)) == len(kept) and {e for e in kept if sure[e]} == expected


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Pipeline:
    """wide: validate -> all_pairs -> build_graph -> emit_json + emit_dot."""

    def __init__(self, lf, case: Path, meta):
        import numpy as np

        self.lf = lf
        self.meta = meta
        self.values = np.load(case / "values.npy")
        self.ref = dict(np.load(case / "ref.npz"))
        self.index = {name: i for i, name in enumerate(meta["names"])}
        self.planted = {tuple(e) for e in np.load(case / "planted.npy").tolist()}
        self.graph = None

    def op(self):
        lf, m = self.lf, self.meta
        tss = lf.validate_series_set(self.values, m["names"], m["dt"])
        fm = lf.all_pairs(tss, k=m["k"], alpha=m["alpha"], normalize=True, mode=m["mode"])
        g = lf.build_graph(fm, alpha=m["alpha"])
        return lf.emit_json(fm), lf.emit_dot(g), g

    def check(self, out) -> bool:
        text, dot, g = out
        self.graph = g
        m, at = self.meta, self.index
        kept = [(at[e.target], at[e.source]) for e in g.edges]
        kept += [(at[s.node], at[s.node]) for s in g.self_loops]
        dotted = [(at[target], at[source]) for source, target in DOT_EDGE.findall(dot)]
        return (
            flows_match(json.loads(text), m["names"], self.ref)
            and edges_match(kept, self.ref, m["alpha"])
            and edges_match(dotted, self.ref, m["alpha"])
        )

    def window(self):
        return self.values[:, : self.values.shape[1] - self.meta["k"]]


class Analyze:
    """ingest: ``liangflow analyze`` on a CSV, called in process through cli.main."""

    def __init__(self, lf, case: Path, meta, out: Path):
        import numpy as np

        self.cli = lf.cli
        self.case = case
        self.meta = meta
        self.output = out / "analyze.json"
        self.ref = dict(np.load(case / "ref.npz"))
        self.argv = ["analyze", "--input", str(case / "input.csv"), "--output", str(self.output)]

    def op(self):
        return self.cli.main(self.argv)

    def check(self, rc) -> bool:
        doc = json.loads(self.output.read_text(encoding="utf-8"))
        self.output.unlink()  # the next operation must write its own
        return rc == 0 and flows_match(doc, self.meta["names"], self.ref)

    def window(self):
        import numpy as np

        values = np.load(self.case / "values.npy")
        return values[:, : values.shape[1] - self.meta["k"]]


class Simulate:
    """synth: ``liangflow simulate`` of an inline drift, called in process through cli.main."""

    def __init__(self, lf, case: Path, meta, out: Path):
        import numpy as np

        self.cli = lf.cli
        self.meta = meta
        self.output = out / "simulate.csv"
        self.checked = out / "simulate.checked.csv"
        self.variance = np.load(case / "ref.npz")["variance"]
        self.argv = [
            "simulate", f"--A={meta['A']}", f"--B={meta['B']}", "--n", str(meta["n"]),
            "--dt", repr(meta["dt"]), "--seed", str(meta["sim_seed"]),
            "--output", str(self.output),
        ]
        self.digest = None

    def op(self):
        return self.cli.main(self.argv)

    def check(self, rc) -> bool:
        digest = sha256(self.output)
        self.output.replace(self.checked)  # the next operation must write its own
        self.digest = self.digest or digest
        return rc == 0 and digest == self.digest

    def final_check(self) -> bool:
        """Sample variances of the (byte-identical) output against the Lyapunov solution."""
        import numpy as np

        with open(self.checked, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            x = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != self.meta["names"] or x.shape != (self.meta["n"], self.meta["d"]):
            return False
        ratio = x.var(axis=0, ddof=1) / self.variance
        return bool(np.all(np.abs(ratio - 1.0) <= VARIANCE_RTOL))


def load_case(lf, workload, case: Path, out: Path):
    meta = json.loads((case / "meta.json").read_text(encoding="utf-8"))
    if workload == "wide":
        return Pipeline(lf, case, meta)
    if workload == "ingest":
        return Analyze(lf, case, meta, out)
    return Simulate(lf, case, meta, out)


def reference_task() -> float:
    """Time fixed work that never touches liangflow; it runs between operations.

    The machine this benchmark was written on changes speed by up to 2x
    over seconds to minutes, most for memory-heavy work. Dividing the mean
    operation time by this task's mean time over the same run cancels the
    part of that drift that lasts longer than an operation. The task
    mimics the workloads' mix: it formats a fixed table as CSV text and
    parses it back (repr, split, float), streams over a freshly allocated
    numpy array, and runs a plain interpreter loop. Everything is built from a fixed seed and freed
    inside the call, so every run does the same work and the worker's peak
    memory stays that of the program.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(20240213)
    for _block in range(3):
        text = "\n".join(",".join(map(repr, row))
                         for row in rng.standard_normal((4000, 30)).tolist())
        np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])
        a = rng.standard_normal(1 << 19)
        for _ in range(8):
            float((a - a.mean()) @ a)
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - start


def run_ops(run, case, seconds, reference, min_ops):
    """Operations back to back for ``seconds``: one warm-up, then at least ``min_ops`` timed.

    Every operation, the warm-up too, is checked and counted; only the
    ones after the warm-up are timed. The reference task runs before
    each timed operation and once after the last, so ``ref_times[k]``
    and ``ref_times[k + 1]`` bracket ``times[k]``.
    """
    r = {"times": [], "ref_times": [], "attempted": 0, "failed": 0, "errors": []}
    start = time.perf_counter()
    last = 0.0
    # stop before an operation that would likely end past the measuring time
    while r["attempted"] <= min_ops or time.perf_counter() - start + last <= seconds:
        r["attempted"] += 1
        if r["attempted"] > 1:
            r["ref_times"].append(reference())
        t0 = time.perf_counter()
        try:
            out = run()
            ok = None
        except Exception as e:  # an operation that raises is a failed operation
            ok = False
            r["errors"].append(f"op raised {e!r}")
        last = time.perf_counter() - t0
        if r["attempted"] > 1:
            r["times"].append(last)
        if ok is None:
            try:
                ok = case.check(out)
            except Exception as e:  # an unreadable output fails the oracle
                ok = False
                r["errors"].append(f"check raised {e!r}")
        r["failed"] += not ok
    r["ref_times"].append(reference())
    r["errors"] = r["errors"][:5]
    return r


def trace_targets(lf):
    """(module, attribute, span name) for every public name a workload reaches."""
    cli = lf.cli
    return [
        (lf, "validate_series_set", "core.validate_series_set"),
        (lf, "all_pairs", "graph.all_pairs"),
        (lf, "build_graph", "graph.build_graph"),
        (lf, "emit_json", "graph.emit_json"),
        (lf, "emit_dot", "graph.emit_dot"),
        (cli, "main", "cli.main"),
        (cli, "parse_csv", "cli.parse_csv"),
        (cli, "write_csv", "cli.write_csv"),
        (cli, "validate_series_set", "core.validate_series_set"),
        (cli, "all_pairs", "graph.all_pairs"),
        (cli, "emit_json", "graph.emit_json"),
        (cli, "simulate", "dynamics.simulate"),
    ]


def traced_run(lf, case, seconds, seed, reference, min_ops):
    import itertools

    import spans

    tracer = spans.Tracer(alloc_names=ALLOC_SPANS)
    with spans.installed(tracer, trace_targets(lf)):
        run = tracer.wrap("op", case.op)
        op_ids = itertools.count()

        def numbered():
            tracer.op = next(op_ids)
            return run()

        result = run_ops(numbered, case, seconds, reference, min_ops)
        # one extra operation under tracemalloc, for allocation peaks only
        tracer.op = -1
        tracer.measure_alloc = True
        try:
            run()
        except Exception as e:  # already counted among the timed operations
            result["errors"].append(f"allocation op raised {e!r}")
        tracer.measure_alloc = False
    ops = range(1, len(result["times"]) + 1)  # op 0 is the warm-up
    result.update({
        "self_s": tracer.self_times(ops),
        "span_s": {name: tracer.durations(name, ops) for name in ("cli.main", "graph.all_pairs")},
        "alloc_peak_mb": tracer.alloc_peak_mb,
        "spans": [list(s) for s in tracer.spans],
    })
    if hasattr(case, "window"):
        w = case.window()
        gram = []
        for _ in range(5):
            t0 = time.perf_counter()
            w @ w.T
            gram.append(time.perf_counter() - t0)
        result["gram_s"] = statistics.median(gram)
        result["n_eff"] = w.shape[1]
    if isinstance(case, Pipeline) and case.graph is not None:
        found = {(case.index[e.target], case.index[e.source]) for e in case.graph.edges}
        result["edges_kept"] = len(case.graph.edges)
        result["planted_recall"] = len(found & case.planted) / len(case.planted)
    if isinstance(case, Simulate):
        result["output_bytes"] = case.checked.stat().st_size
    result["probe"] = probe_false_singular(lf, seed)
    return result


def probe_false_singular(lf, seed):
    """Which coupled, well-conditioned systems the program rejects as collinear.

    ``fit_linear_model`` applies the same singularity rule as ``all_pairs``
    at the cost of one fit; cond(R) comes from the benchmark's own eigvalsh.
    """
    import numpy as np

    import inputs

    rows = []
    for kind, d in inputs.PROBE_SYSTEMS:
        x = inputs.probe_system(seed, kind, d)
        ev = np.linalg.eigvalsh(np.corrcoef(x[:, :-1]))
        tss = lf.TimeSeriesSet(names=[f"x{i + 1}" for i in range(d)], values=x, dt=0.01)
        try:
            lf.fit_linear_model(tss, 0)
            rejected = False
        except lf.SingularCovarianceError:
            rejected = True
        rows.append({"kind": kind, "d": d, "cond_R": float(ev[-1] / ev[0]),
                     "logdet_R": float(np.log(ev).sum()), "rejected": rejected})
    return rows


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--case", required=True, type=Path, help="cache directory of the inputs")
    p.add_argument("--out", required=True, type=Path, help="directory for program outputs")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-ops", type=int, default=MIN_OPS, help="timed operations at least")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import liangflow
    import liangflow.cli

    import_s = time.perf_counter() - t0
    if Path(liangflow.__file__).resolve().parent != (ROOT / "src" / "liangflow").resolve():
        sys.exit(f"perfbench: imported liangflow from {liangflow.__file__}, not from this checkout")
    t1 = time.perf_counter()
    case = load_case(liangflow, args.workload, args.case, args.out)
    load_s = time.perf_counter() - t1
    print("READY", flush=True)

    result = {"import_s": import_s, "load_s": load_s}
    if args.setup_only:
        pass
    elif args.trace:
        result.update(traced_run(liangflow, case, args.seconds, args.seed, reference_task,
                                  args.min_ops))
    else:
        result.update(run_ops(case.op, case, args.seconds, reference_task, args.min_ops))
        # ru_maxrss is in KiB on Linux; read before any check that loads outputs
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if hasattr(case, "final_check") and not case.final_check():
            result["failed"] = result["attempted"]
            result["errors"].append("simulated variances disagree with the Lyapunov covariance")
        result["blas_threads"] = blas_threads()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
