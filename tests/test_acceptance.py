"""Acceptance gate: twelve criteria covering identity, consistency, calibration,
invariance, recovery, performance, and determinism.

Each test asserts its criterion and also registers a one-line PASS/FAIL
verdict that the session summary prints after the run (see conftest).
"""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from liangflow import (
    LinearSDE,
    TimeSeriesSet,
    all_pairs,
    build_graph,
    cofactor,
    emit_dot,
    emit_json,
    fit_linear_model,
    flow_bivariate,
    flow_multivariate,
    normalize_flows,
    sample_covariance_matrix,
    self_contribution,
    simulate,
    theoretical_budget,
)
from liangflow.cli import main

from conftest import ACCEPTANCE_RESULTS, all_pairs_seconds, record_criterion

TRUE_RATE = 1.0 / 9.0  # exact rate into the driven variable of the ou2 pair

LABELS = {
    1: "dual-formula estimator identity",
    2: "two-variable closed-form reduction",
    3: "oracle consistency on the coupled pair",
    4: "null false-positive rate",
    5: "error shrinks with sample size",
    6: "per-component affine invariance",
    7: "normalized budget sums to one",
    8: "stationary entropy budget balances",
    9: "chain graph recovery",
    10: "all-pairs benchmark wall time",
    11: "determinism and one arithmetic (engine = scalar route, simulation, emitters)",
    12: "null p-value uniformity",
}


@pytest.fixture(autouse=True)
def _register_on_entry(request):
    """Pre-register a FAIL verdict so an aborted test still prints a line."""
    m = re.match(r"test_c(\d+)", request.node.name)
    if m:
        num = int(m.group(1))
        if num not in ACCEPTANCE_RESULTS:
            record_criterion(num, LABELS[num], False, "test raised before completing")
    yield


def _finish(num, ok, detail):
    record_criterion(num, LABELS[num], ok, detail)
    assert ok, f"criterion {num:02d} ({LABELS[num]}): {detail}"


def _cofactor_coeffs(c, cd):
    d = c.shape[0]
    det = float(np.linalg.det(c))
    return np.array(
        [sum(cofactor(c, m, j) * cd[m] for m in range(d)) for j in range(d)]
    ) / det


def test_c01_dual_formula_identity():
    """Cofactor-expansion route equals the regression route, 1e-9 relative."""
    rng = np.random.default_rng(101)
    worst = 0.0
    pairs_checked = 0
    start = time.perf_counter()
    for _ in range(100):
        d = int(rng.integers(2, 11))
        tss = TimeSeriesSet(
            tuple(f"v{i}" for i in range(d)), rng.standard_normal((d, 1000)), 1.0
        )
        target = int(rng.integers(d))
        sc = sample_covariance_matrix(tss, k=1, target=target)
        a_cof = _cofactor_coeffs(sc.C, sc.cd)
        fit = fit_linear_model(tss, target=target, k=1)
        rel_self = abs(fit.coeffs[target] - a_cof[target]) / max(abs(a_cof[target]), 1e-12)
        worst = max(worst, rel_self)
        for j in range(d):
            if j == target:
                continue
            expect = a_cof[j] * sc.C[target, j] / sc.C[target, target]
            got = flow_multivariate(tss, source=j, target=target, k=1).value
            worst = max(worst, abs(got - expect) / max(abs(expect), 1e-12))
            pairs_checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _finish(1, ok, f"max rel dev {worst:.2e} over 100 datasets "
                   f"({pairs_checked} pairwise + 100 self), {elapsed:.1f}s (< 10s)")


def test_c02_two_variable_reduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        values = rng.standard_normal((2, 400))
        tss = TimeSeriesSet(("a", "b"), values, 1.0)
        multi = flow_multivariate(tss, source=1, target=0, k=1).value
        closed = flow_bivariate(values[0], values[1]).value
        worst = max(worst, abs(multi - closed) / max(abs(closed), 1e-12))
    ok = worst < 1e-12
    _finish(2, ok, f"max rel dev {worst:.2e} over 100 two-variable datasets")


def test_c03_oracle_consistency(ou2):
    sde, dt = ou2
    driven, null_z = [], []
    start = time.perf_counter()
    for s in range(20):
        tss = simulate(sde, [0.0, 0.0], 1_000_000, dt, seed=100 + s, burn_in=10_000)
        est = flow_multivariate(tss, source=1, target=0, k=1)
        back = flow_multivariate(tss, source=0, target=1, k=1)
        driven.append(est.value)
        null_z.append(abs(back.value) / back.std_err)
    elapsed = time.perf_counter() - start
    median_rate = float(np.median(driven))
    rel_dev = abs(median_rate - TRUE_RATE) / TRUE_RATE
    median_null = float(np.median(null_z))
    ok = rel_dev < 0.10 and median_null <= 3.0 and elapsed < 120.0
    _finish(3, ok, f"median rate {median_rate:.5f} (dev {100 * rel_dev:.2f}% of "
                   f"{TRUE_RATE:.5f}, < 10%), median null |z| {median_null:.2f} "
                   f"(<= 3), {elapsed:.0f}s (< 120s)")


def test_c04_false_positive_rate(ou2_null_trials):
    _, _, p_values = ou2_null_trials
    rate = float(np.mean(p_values < 0.05))
    ok = rate <= 0.08
    _finish(4, ok, f"null flagged at alpha=0.05 in {100 * rate:.1f}% of 1000 trials (<= 8%)")


def test_c05_error_shrinks_with_n(ou2):
    sde, dt = ou2
    err_small, err_big = [], []
    for s in range(100):
        tss = simulate(sde, [0.0, 0.0], 400_000, dt, seed=40_000 + s, burn_in=2000)
        sub = TimeSeriesSet(tss.names, tss.values[:, :100_000], dt)
        err_small.append(abs(flow_multivariate(sub, 1, 0).value - TRUE_RATE))
        err_big.append(abs(flow_multivariate(tss, 1, 0).value - TRUE_RATE))
    ratio = float(np.median(err_big) / np.median(err_small))
    ok = ratio <= 0.65
    _finish(5, ok, f"median |err| ratio (N=4e5 vs 1e5) {ratio:.3f} over 100 seeds (<= 0.65)")


def test_c06_affine_invariance():
    sde = LinearSDE(
        A=[[-1.0, 0.5, 0.0], [0.0, -1.0, 0.3], [0.2, 0.0, -1.0]], B=np.eye(3)
    )
    tss = simulate(sde, np.zeros(3), 20_000, 0.02, seed=77, burn_in=1000)
    base = all_pairs(tss, k=1)
    worst = 0.0
    transforms = [
        ((1e-3, 1.0, 1e3), (0.0, -5.0, 17.0)),
        ((1e3, 1e-3, 1.0), (3.5, 0.0, -2.0)),
        ((1.0, 1e3, 1e-3), (-1.0, 4.0, 0.25)),
    ]
    for scales, shifts in transforms:
        mapped = TimeSeriesSet(
            tss.names,
            np.asarray(scales)[:, None] * tss.values + np.asarray(shifts)[:, None],
            tss.dt,
        )
        fm = all_pairs(mapped, k=1)
        for field in ("T", "TAU"):
            a = getattr(base, field)
            b = getattr(fm, field)
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(a))))
        worst = max(
            worst,
            float(np.max(np.abs(base.noise_share - fm.noise_share) / base.noise_share)),
        )
    ok = worst < 1e-10
    _finish(6, ok, f"max rel change {worst:.2e} across 3 scale/shift maps (< 1e-10)")


def test_c07_normalized_budget(ou2):
    sde, dt = ou2
    datasets = [
        TimeSeriesSet(
            tuple(f"v{i}" for i in range(4)),
            np.random.default_rng(7).standard_normal((4, 800)),
            1.0,
        ),
        simulate(sde, [0.0, 0.0], 50_000, dt, seed=70, burn_in=1000),
    ]
    worst_sum = 0.0
    worst_tau = 0.0
    for tss in datasets:
        fm = all_pairs(tss, normalize=True)
        sums = np.abs(fm.TAU).sum(axis=1) + fm.noise_share
        worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))
        worst_tau = max(worst_tau, float(np.abs(fm.TAU).max()))
    ok = worst_sum <= 1e-12 and worst_tau <= 1.0 + 1e-12
    _finish(7, ok, f"max |sum - 1| {worst_sum:.2e} (<= 1e-12), max |share| {worst_tau:.6f} (<= 1)")


def test_c08_stationary_budget_balance():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d))
        a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 2.0)) * np.eye(d)
        sde = LinearSDE(A=a, B=rng.standard_normal((d, d)))
        for target in range(d):
            worst = max(worst, abs(theoretical_budget(sde, target).residual))
    ok = worst <= 1e-10
    _finish(8, ok, f"max |budget residual| {worst:.2e} over 100 random stable systems (<= 1e-10)")


def test_c09_chain_recovery(chain5):
    sde, dt = chain5
    truth = {("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")}
    reversed_truth = {(t, s) for s, t in truth}
    precisions, recalls = [], []
    reversed_found = 0
    for s in range(20):
        tss = simulate(sde, np.zeros(5), 100_000, dt, seed=500 + s, burn_in=1000)
        graph = build_graph(all_pairs(tss, k=1, alpha=0.01), alpha=0.01)
        found = {(e.source, e.target) for e in graph.edges}
        true_pos = len(found & truth)
        precisions.append(true_pos / len(found) if found else 1.0)
        recalls.append(true_pos / len(truth))
        reversed_found += len(found & reversed_truth)
    precision = float(np.median(precisions))
    recall = float(np.median(recalls))
    reversed_rate = reversed_found / (len(truth) * 20.0)
    ok = precision >= 0.9 and recall >= 0.9 and reversed_rate <= 0.04
    _finish(9, ok, f"median precision {precision:.2f} (>= 0.9), recall {recall:.2f} "
                   f"(>= 0.9), reversed-edge rate {reversed_rate:.3f} (<= 0.04), 20 seeds")


def test_c10_benchmark_wall_time():
    median = all_pairs_seconds(30, 10_000, reps=5)
    if median < 1.0:
        ok, note = True, "within the 1s target"
    elif median < 2.0:
        ok, note = True, "above the 1s target but within the 2s warning band"
    else:
        ok, note = False, "exceeded the 2s hard limit"
    _finish(10, ok, f"median {median * 1000:.0f} ms for 870 relations (d=30, N=1e4); {note}")


ENGINE_TOL = 1e-12


ENGINE_STRIDES = (1, 5, 20)


def _engine_vs_scalar(tss, k):
    """Worst deviation of all_pairs from the scalar route over every (target, source), at stride k.

    The scalar route is flow_multivariate and self_contribution for T, SE
    and P, normalize_flows for TAU and noise_share, and, off the diagonal
    in bivariate mode, flow_bivariate(x_i, x_j). Both modes, normalize on
    and off. T is measured in standard errors, SE and noise_share
    relative, P absolute, and TAU times the budget in units of SE + |T|.
    """
    worst = dict.fromkeys(("T", "SE", "P", "TAU", "noise_share"), 0.0)

    def dev(field, got, want, unit):
        worst[field] = max(worst[field], abs(got - want) / unit)

    d = tss.d
    for mode in ("multivariate", "bivariate"):
        for normalize in (True, False):
            fm = all_pairs(tss, k=k, normalize=normalize, mode=mode)
            for i in range(d):
                flows = []
                for j in range(d):
                    if j == i:
                        continue
                    if mode == "multivariate":
                        flows.append(flow_multivariate(tss, source=j, target=i, k=k))
                    else:
                        est = flow_bivariate(tss.values[i], tss.values[j], dt=tss.dt, k=k)
                        flows.append(replace(est, source=j, target=i))
                self_est = self_contribution(tss, target=i, k=k)
                for j, est in [(fl.source, fl) for fl in flows] + [(i, self_est)]:
                    dev("T", fm.T[i, j], est.value, est.std_err)
                    dev("SE", fm.SE[i, j], est.std_err, est.std_err)
                    dev("P", fm.P[i, j], est.p_value, 1.0)
                if not normalize:
                    if not (np.isnan(fm.TAU[i]).all() and np.isnan(fm.noise_share[i])):
                        worst["TAU"] = worst["noise_share"] = np.inf
                    continue
                budget = normalize_flows(flows, self_est, fit_linear_model(tss, target=i, k=k))
                z = budget.z_total
                for j, est in [(fl.source, fl) for fl in budget.flows] + [(i, budget.self_flow)]:
                    dev("TAU", fm.TAU[i, j] * z, est.normalized * z, est.std_err + abs(est.value))
                dev("noise_share", fm.noise_share[i], budget.noise_share, budget.noise_share)
    return worst


def test_c11_determinism(ou2, tmp_path):
    sde, dt = ou2
    checks = []

    tss = TimeSeriesSet(
        tuple(f"v{i}" for i in range(6)),
        np.random.default_rng(11).standard_normal((6, 2000)),
        1.0,
    )
    per_k = [_engine_vs_scalar(tss, k) for k in ENGINE_STRIDES]
    worst = {field: max(w[field] for w in per_k) for field in per_k[0]}
    checks.append(("engine-vs-scalar", max(worst.values()) <= ENGINE_TOL))

    paths = []
    for run in range(2):
        out = tmp_path / f"sim{run}.csv"
        assert main(["simulate", "--preset", "ou2", "--n", "1000", "--seed", "13",
                     "--output", str(out)]) == 0
        paths.append(out.read_bytes())
    checks.append(("simulate-bytes", paths[0] == paths[1]))

    fm1 = all_pairs(tss)
    fm2 = all_pairs(tss)
    g1 = build_graph(fm1, alpha=0.5)
    g2 = build_graph(fm2, alpha=0.5)
    checks.append(("emit-json", emit_json(fm1) == emit_json(fm2)))
    checks.append(("emit-dot", emit_dot(g1) == emit_dot(g2)))

    failed = [name for name, passed in checks if not passed]
    ok = not failed
    deviations = ", ".join(f"{name} {value:.1e}" for name, value in worst.items())
    detail = (
        f"all_pairs = scalar route at k in {ENGINE_STRIDES} (max dev {deviations}; "
        f"<= {ENGINE_TOL:g}), "
        f"simulate/emitters byte-identical"
        if ok
        else f"failed: {failed} (all_pairs vs scalar route: {deviations})"
    )
    _finish(11, ok, detail)


def test_c12_null_pvalue_uniformity(ou2_null_trials):
    _, _, p_values = ou2_null_trials
    ks = float(stats.kstest(p_values, "uniform").statistic)
    ok = ks < 0.06
    _finish(12, ok, f"KS statistic vs uniform {ks:.4f} over 1000 null trials (< 0.06)")
