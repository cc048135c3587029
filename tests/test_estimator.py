"""Closed-form flow estimation, inference, and normalization."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import signal, stats

from liangflow import (
    DegenerateBudgetError,
    FlowEstimate,
    LinearModelFit,
    LinearSDE,
    NaNsPresentError,
    NonFiniteMomentsError,
    NonRectangularError,
    NumericalError,
    PanelPairs,
    SameIndexError,
    SingularCovarianceError,
    TimeSeriesSet,
    ValidationError,
    ZeroVarianceWarning,
    all_pairs,
    cofactor,
    fit_linear_model,
    flow_bivariate,
    flow_multivariate,
    flow_panel,
    normalize_flows,
    sample_covariance_matrix,
    self_contribution,
    significance,
    simulate,
)
from liangflow import estimator


def _random_set(d, n, seed, dt=1.0):
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i}" for i in range(d))
    return TimeSeriesSet(names=names, values=rng.standard_normal((d, n)), dt=dt)


def _hand_fit(coeff_var, cov_row, target=0, g_hat=0.0):
    """Minimal fit object with a prescribed coefficient variance."""
    d = len(cov_row)
    cc = np.zeros((d + 1, d + 1))
    for j, v in enumerate(coeff_var):
        cc[j + 1, j + 1] = v
    return LinearModelFit(
        target=target,
        coeffs=np.zeros(d),
        intercept=0.0,
        resid_var=0.0,
        coeff_cov=cc,
        g_hat=g_hat,
        n_eff=100,
        dof=100 - d - 1,
        k=1,
        dt=1.0,
        cov_row=np.asarray(cov_row, dtype=float),
    )


# ----------------------------------------------------------------- fitting


def test_noiseless_decay_recovers_coefficient():
    sde = LinearSDE(A=[[-1.0]], B=[[0.0]])
    tss = simulate(sde, [1.0], 200, 0.01, seed=0, burn_in=0)
    fit = fit_linear_model(tss, target=0, k=1)
    # the difference series of the discrete recursion is exactly -x
    assert abs(fit.coeffs[0] + 1.0) < 1e-9
    assert fit.resid_var < 1e-20
    assert fit.dof == 199 - 2
    assert fit.n_eff == 199


def test_collinear_inputs_rejected():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 100))
    values = np.vstack([x, x[1]])  # third series duplicates the second
    tss = TimeSeriesSet(("a", "b", "c"), values, 1.0)
    with pytest.raises(SingularCovarianceError):
        fit_linear_model(tss, target=0, k=1)


_SINGULAR = "covariance matrix is numerically singular"


def test_exact_linear_combination_rejected():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 200))
    duplicate = np.vstack([x, x[1]])
    combination = np.vstack([x, 2.0 * x[0] - 0.5 * x[2] + 3.0])
    for values in (duplicate, combination):
        tss = TimeSeriesSet(("a", "b", "c", "d"), values, 1.0)
        with pytest.raises(SingularCovarianceError, match=_SINGULAR):
            fit_linear_model(tss, target=1, k=1)


def _euler_chain(rng, d, n, coupling=0.5, dt=0.01, burn=3000):
    """Euler steps of dx_i = (-x_i + coupling x_{i-1}) dt + dW_i."""
    x = np.empty((d, n + burn))
    for i in range(d):
        u = np.sqrt(dt) * rng.standard_normal(n + burn)
        if i:
            u += coupling * dt * x[i - 1]
        x[i] = signal.lfilter([0.0, 1.0], [1.0, -(1.0 - dt)], u)
    return x[:, burn:]


def _sparse_var(rng, d, n, burn=500):
    """VAR(1) with own coefficient 0.5 and two random earlier parents of weight 0.15-0.3."""
    x = np.empty((d, n + burn))
    for i in range(d):
        u = rng.standard_normal(n + burn)
        for p in rng.choice(i, size=min(2, i), replace=False):
            u += rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 0.3) * x[p]
        x[i] = signal.lfilter([0.0, 1.0], [1.0, -0.5], u)
    return x[:, burn:]


@pytest.mark.parametrize("make", [_euler_chain, _sparse_var])
def test_large_well_conditioned_systems_accepted(make):
    # at d = 300 the correlation determinant of these systems is far below
    # d * eps although every component keeps a large share of its variance
    x = make(np.random.default_rng(3), 300, 4000)
    ev = np.linalg.eigvalsh(np.corrcoef(x[:, :-1]))
    assert ev[-1] / ev[0] < 1e4
    assert np.log(ev).sum() < np.log(300 * np.finfo(float).eps)
    tss = TimeSeriesSet(tuple(f"x{i}" for i in range(300)), x, 0.01)
    fit = fit_linear_model(tss, target=0, k=1)
    assert np.isfinite(fit.coeffs).all()


def test_overflowing_moments_are_not_called_collinear():
    tss = _random_set(3, 200, seed=14)
    huge = TimeSeriesSet(tss.names, tss.values * 1e200, tss.dt)
    with pytest.raises(NonFiniteMomentsError, match="not finite") as exc:
        fit_linear_model(huge, target=0, k=1)
    assert isinstance(exc.value, NumericalError)
    assert not isinstance(exc.value, SingularCovarianceError)
    assert "collinear" not in str(exc.value)
    # a collinear pair whose only huge value is the last sample: the window
    # and so C stay finite, the squared differences overflow
    x = np.random.default_rng(15).standard_normal(200)
    x[-1] = 1e200
    pair = TimeSeriesSet(("a", "b"), np.vstack([x, 2.0 * x]), 1.0)
    with pytest.raises(NonFiniteMomentsError, match="not finite") as exc:
        fit_linear_model(pair, target=0, k=1)
    assert "collinear" not in str(exc.value)


def test_fit_recovers_drift_row(ou2):
    """Coefficients land within 3 standard errors of the generating drift row."""
    sde, dt = ou2
    tss = simulate(sde, [0.0, 0.0], 1_000_000, dt, seed=12, burn_in=10_000)
    fit = fit_linear_model(tss, target=0, k=1)
    truth = np.array([-1.0, 0.5])
    se = np.sqrt(np.diag(fit.coeff_cov)[1:])
    assert np.all(np.abs(fit.coeffs - truth) < 3.0 * se)
    assert fit.g_hat == fit.resid_var * dt
    # coefficient covariance is symmetric PSD
    np.testing.assert_allclose(fit.coeff_cov, fit.coeff_cov.T, atol=1e-18)
    assert np.linalg.eigvalsh(fit.coeff_cov).min() > -1e-12


def test_fit_matches_cofactor_route():
    tss = _random_set(5, 400, seed=2)
    target = 3
    fit = fit_linear_model(tss, target, k=1)
    sc = sample_covariance_matrix(tss, k=1, target=target)
    det = float(np.linalg.det(sc.C))
    a_cof = np.array(
        [sum(cofactor(sc.C, m, j) * sc.cd[m] for m in range(5)) for j in range(5)]
    ) / det
    np.testing.assert_allclose(fit.coeffs, a_cof, rtol=1e-9)


# ------------------------------------------------------------- flow values


def test_flow_index_checks():
    tss = _random_set(3, 50, seed=3)
    with pytest.raises(SameIndexError):
        flow_multivariate(tss, source=1, target=1)
    with pytest.raises(IndexError):
        flow_multivariate(tss, source=5, target=0)
    with pytest.raises(IndexError):
        self_contribution(tss, target=3)


def test_exact_zero_covariance_annihilates_flow():
    # period-2 and period-4 square waves over a whole number of periods:
    # the sample covariance of the aligned window is exactly zero
    n = 401
    x1 = np.resize([1.0, -1.0], n)
    x2 = np.resize([1.0, 1.0, -1.0, -1.0], n)
    tss = TimeSeriesSet(("a", "b"), np.vstack([x1, x2]), 1.0)
    sc = sample_covariance_matrix(tss, k=1, target=0)
    assert sc.C[0, 1] == 0.0
    est = flow_multivariate(tss, source=1, target=0, k=1)
    assert est.value == 0.0
    assert est.std_err == 0.0
    assert est.p_value == 1.0
    assert not est.zero_variance


def test_two_variable_reduction():
    tss = _random_set(2, 500, seed=4)
    multi = flow_multivariate(tss, source=1, target=0, k=1)
    bi = flow_bivariate(tss.values[0], tss.values[1], dt=1.0, k=1)
    assert abs(multi.value - bi.value) <= 1e-12 * abs(bi.value)
    assert abs(multi.std_err - bi.std_err) <= 1e-9 * bi.std_err
    assert abs(multi.p_value - bi.p_value) <= 1e-9


def test_self_contribution_is_own_coefficient():
    tss = _random_set(4, 300, seed=5)
    fit = fit_linear_model(tss, target=2, k=1)
    est = self_contribution(tss, target=2, k=1)
    assert est.kind == "self" and est.source is None
    assert est.value == fit.coeffs[2]
    assert est.std_err == float(np.sqrt(fit.coeff_cov[3, 3]))


def test_bivariate_perfectly_correlated_pair():
    x = np.random.default_rng(6).standard_normal(200)
    with pytest.raises(SingularCovarianceError):
        flow_bivariate(x, x + 5.0)


def test_bivariate_input_checks():
    x = np.arange(20.0)
    with pytest.raises(NonRectangularError):
        flow_bivariate(x, x[:10])
    y = x.copy()
    y[3] = np.nan
    with pytest.raises(NaNsPresentError):
        flow_bivariate(x, y)
    y = np.random.default_rng(0).standard_normal(20)
    for dt in (0.0, np.nan, -1.0, np.inf):
        with pytest.raises(ValidationError, match="dt must be finite and positive"):
            flow_bivariate(x, y, dt=dt)


def test_non_integer_stride_is_a_value_error():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3, 60))
    tss = TimeSeriesSet(("a", "b", "c"), values, 1.0)
    calls = [
        lambda: all_pairs(tss, k=1.5),
        lambda: all_pairs(tss, k=1.5, mode="bivariate"),
        lambda: flow_multivariate(tss, 0, 1, k=1.5),
        lambda: fit_linear_model(tss, 0, k=1.5),
        lambda: flow_bivariate(values[0], values[1], k=1.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="k must be an integer >= 1, got 1.5"):
            call()
    # a numpy integer is an integer
    assert all_pairs(tss, k=np.int64(2)) == all_pairs(tss, k=2)


def test_white_noise_pair_mostly_not_significant():
    """Independent pairs are flagged at 5% in well under 12% of trials."""
    hits = 0
    for s in range(1000):
        rng = np.random.default_rng(20_000 + s)
        est = flow_bivariate(rng.standard_normal(10_000), rng.standard_normal(10_000))
        hits += est.p_value < 0.05
    assert hits / 1000.0 <= 0.12


def test_self_rate_of_undriven_random_walk():
    """A target with a zero drift row has self rate ~0 (|z| <= 3 typically)."""
    sde = LinearSDE(A=[[-1.0, 0.0], [0.0, 0.0]], B=np.eye(2))
    zs = np.empty(1000)
    for s in range(1000):
        tss = simulate(sde, [0.0, 0.0], 2000, 0.05, seed=7000 + s, burn_in=0)
        est = self_contribution(tss, target=1, k=1)
        zs[s] = abs(est.value) / est.std_err
    assert np.median(zs) <= 3.0


# -------------------------------------------------------------------- panel


def test_panel_matches_series_estimator(ou2):
    sde, dt = ou2
    tss = simulate(sde, [0.0, 0.0], 5000, dt, seed=9, burn_in=1000)
    pairs = PanelPairs(tss.names, tss.values[:, :-1], tss.values[:, 1:], dt)
    from_panel = flow_panel(pairs, source=1, target=0)
    from_series = flow_multivariate(tss, source=1, target=0, k=1)
    assert abs(from_panel.value - from_series.value) <= 1e-12 * abs(from_series.value)
    assert abs(from_panel.std_err - from_series.std_err) <= 1e-12 * from_series.std_err


def test_panel_zero_differences():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal((2, 50))
    pairs = PanelPairs(("a", "b"), x0, x0, 1.0)
    est = flow_panel(pairs, source=1, target=0)
    assert est.value == 0.0
    assert est.p_value == 1.0


def test_panel_order_invariance():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((3, 120))
    x1 = x0 + 0.1 * rng.standard_normal((3, 120))
    pairs = PanelPairs(("a", "b", "c"), x0, x1, 0.1)
    base = flow_panel(pairs, source=2, target=0)
    perm = rng.permutation(120)
    shuffled = PanelPairs(("a", "b", "c"), x0[:, perm], x1[:, perm], 0.1)
    again = flow_panel(shuffled, source=2, target=0)
    assert abs(again.value - base.value) <= 1e-12 * abs(base.value)


def test_panel_same_index():
    rng = np.random.default_rng(12)
    pairs = PanelPairs(("a", "b"), rng.standard_normal((2, 30)), rng.standard_normal((2, 30)), 1.0)
    with pytest.raises(SameIndexError):
        flow_panel(pairs, source=0, target=0)


# ------------------------------------------------------- residual variances


def _var1(d, n, seed):
    """A stable VAR(1) with unit noise and sparse couplings, like the wide benchmark."""
    rng = np.random.default_rng(seed)
    a = 0.5 * np.eye(d) + np.tril(rng.uniform(-0.3, 0.3, (d, d)) * (rng.random((d, d)) < 0.1), -1)
    x = rng.standard_normal((d, n))
    for t in range(1, n):
        x[:, t] += a @ x[:, t - 1]
    return x


def _double_walks(d, n, seed):
    """Doubly integrated random walks: so smooth that the fit explains nearly
    all of each difference series' variance on an ill-conditioned design."""
    steps = np.random.default_rng(seed).standard_normal((d, n))
    return np.cumsum(np.cumsum(steps, axis=1), axis=1)


def _lstsq_resid_var(x, k):
    """Residual variance of each row's k-step difference quotient regressed on
    [1, x] by numpy's SVD least squares, independent of the moment engine."""
    d, n = x.shape
    n_eff = n - k
    design = np.vstack([np.ones(n_eff), x[:, :n_eff]]).T
    y = ((x[:, k:] - x[:, :n_eff]) / k).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return ((y - design @ coef) ** 2).sum(axis=0) / (n_eff - d - 1)


@pytest.fixture
def explicit_passes(monkeypatch):
    """Counts the engine's explicit residual passes; zero means the moment route."""
    calls = []
    real = estimator._residual_variance

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(estimator, "_residual_variance", spy)
    return calls


@pytest.mark.parametrize("k", [1, 4])
def test_resid_var_on_smooth_data_matches_lstsq(k):
    # moments alone lose ~1e-9 here; the engine must form the residuals instead
    x = _double_walks(20, 20_000, seed=4)
    tss = TimeSeriesSet(tuple(f"v{i}" for i in range(20)), x, 1.0)
    ref = _lstsq_resid_var(x, k)
    got = np.array([fit_linear_model(tss, t, k).resid_var for t in range(20)])
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    c_ii = np.var(x[:, : x.shape[1] - k], axis=1, ddof=1)
    for mode in ("multivariate", "bivariate"):
        fm = all_pairs(tss, k=k, mode=mode)
        noise = ref * k / (2.0 * c_ii)
        np.testing.assert_allclose(
            fm.noise_share, noise / (np.abs(fm.T).sum(axis=1) + noise), rtol=1e-12
        )


def test_panel_resid_var_on_smooth_data_matches_lstsq():
    x = _double_walks(20, 20_001, seed=4)
    pairs = PanelPairs(tuple(f"v{i}" for i in range(20)), x[:, :-1], x[:, 1:], 1.0)
    ref = _lstsq_resid_var(x, 1)
    # std_err / |coef_scale| is sqrt(resid_var[t] * s[j, j]); across targets at
    # one source the common s[j, j] cancels in a ratio
    g = np.array([(e.std_err / e.coef_scale) ** 2
                  for e in (flow_panel(pairs, 0, t) for t in range(1, 20))])
    np.testing.assert_allclose(g / g[0], ref[1:] / ref[1], rtol=1e-12)


@pytest.mark.parametrize("k", [1, 4])
def test_noisy_var1_takes_the_moment_route(explicit_passes, k):
    x = _var1(20, 5000, seed=8)
    tss = TimeSeriesSet(tuple(f"v{i}" for i in range(20)), x, 1.0)
    fit = fit_linear_model(tss, 3, k)
    for mode in ("multivariate", "bivariate"):
        all_pairs(tss, k=k, mode=mode)
    pairs = PanelPairs(tss.names, x[:, :-1], x[:, 1:], 1.0)
    flow_panel(pairs, 0, 3)
    assert explicit_passes == []
    np.testing.assert_allclose(fit.resid_var, _lstsq_resid_var(x, k)[3], rtol=1e-12)


@pytest.mark.parametrize("k", [1, 4])
def test_noiseless_decay_takes_the_explicit_route(explicit_passes, k):
    sde = LinearSDE(A=[[-1.0, 0.5], [0.0, -2.0]], B=np.zeros((2, 2)))
    tss = simulate(sde, [1.0, 1.0], 200, 0.01, seed=0, burn_in=0)
    assert fit_linear_model(tss, 0, k).resid_var < 1e-20
    assert len(explicit_passes) == 1
    x0 = np.random.default_rng(13).standard_normal((2, 50))
    with warnings.catch_warnings():  # exact fits may pin p-values to 0
        warnings.simplefilter("ignore", ZeroVarianceWarning)
        for mode in ("multivariate", "bivariate"):
            all_pairs(tss, k=k, mode=mode, normalize=False)
        flow_panel(PanelPairs(("a", "b"), x0, 0.9 * x0, 1.0), 1, 0)
    assert len(explicit_passes) == 4


# ------------------------------------------------------------ moment buffer


@pytest.mark.parametrize("threads", ["1", "2"])
def test_engine_covariance_is_exactly_symmetric(threads):
    # C and Cd come from one general product over [W - mu; ydot - ymean], not from a
    # symmetric update, so C's two triangles are checked bit for bit at each thread count
    code = (
        "import numpy as np\n"
        "from liangflow import TimeSeriesSet, estimator\n"
        "for d, n, k in ((3, 50, 1), (30, 10_000, 2), (101, 3_001, 4)):\n"
        "    x = np.random.default_rng(d).standard_normal((d, n))\n"
        "    x *= np.arange(1.0, d + 1)[:, None]\n"
        "    names = tuple(map(str, range(d)))\n"
        "    for eng in (estimator._design_for(TimeSeriesSet(names, x, 0.5), k),\n"
        "                estimator._Design(x[:, :-1], x[:, 1:], names, 0.5, 1)):\n"
        "        assert np.array_equal(eng.C, eng.C.T), (d, n, k)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("walks, passes", [(False, 0), (True, 1)])
def test_all_pairs_peak_memory_is_bounded(explicit_passes, walks, passes):
    # the stacked buffer is two d x N arrays; a third d x N temporary (a stacked
    # copy, a separate difference series) would cross the bound on either route
    d, n = 30, 100_000
    x = np.random.default_rng(16).standard_normal((d, n))
    names = tuple(f"v{i}" for i in range(d))
    tss = TimeSeriesSet(names, np.cumsum(x, axis=1) if walks else x, 1.0)
    del x
    all_pairs(_random_set(3, 50, seed=16))  # warm lazy imports
    tracemalloc.start()
    try:
        all_pairs(tss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(explicit_passes) == passes
    arrays = peak / (d * n * 8)
    assert arrays <= 2.2, f"all_pairs peaked at {arrays:.2f} d x N float64 arrays"


# ---------------------------------------------------------------- inference


def test_significance_hand_values():
    fit = _hand_fit(coeff_var=[0.01, 0.01], cov_row=[1.0, 0.5])
    zero = FlowEstimate(kind="self", source=None, target=0, value=0.0,
                        coef_index=0, coef_scale=1.0)
    out = significance(zero, fit)
    assert out.std_err == 0.1
    assert out.p_value == 1.0
    np.testing.assert_allclose(out.ci95, (-0.196, 0.196), atol=5e-4)

    three_sigma = FlowEstimate(kind="self", source=None, target=0, value=0.3,
                               coef_index=0, coef_scale=1.0)
    out = significance(three_sigma, fit)
    assert abs(out.p_value - 0.0027) < 1e-4
    assert abs(out.p_value - 2.0 * stats.norm.sf(3.0)) < 1e-15


def test_confidence_intervals_nested():
    fit = _hand_fit(coeff_var=[0.04], cov_row=[1.0])
    est = significance(
        FlowEstimate(kind="self", source=None, target=0, value=0.5,
                     coef_index=0, coef_scale=1.0),
        fit,
    )
    assert est.ci99[0] < est.ci95[0] < est.ci90[0] < est.value
    assert est.value < est.ci90[1] < est.ci95[1] < est.ci99[1]


def test_interval_quantiles_equal_scipy_stats():
    from liangflow import estimator

    for z, q in ((estimator._Z90, 0.05), (estimator._Z95, 0.025), (estimator._Z99, 0.005)):
        assert z == float(stats.norm.isf(q))


def test_p_values_equal_scipy_stats():
    from liangflow import estimator

    z = np.array([0.0, 1e-300, 0.5, 1.0, 3.0, 8.0, 20.0, 37.5, 38.5, np.inf])
    value = np.concatenate([z, -z, z * 0.25, [np.nan, 1.0]])
    std_err = np.concatenate([np.ones(2 * z.size), np.full(z.size, 0.25), [1.0, np.nan]])
    p, pinned = estimator._p_values(value, std_err)
    ref = 2.0 * stats.norm.sf(np.abs(value) / std_err)
    assert not pinned.any()
    assert np.array_equal(np.isnan(p), np.isnan(ref)) and np.isnan(ref[-2:]).all()
    known = ~np.isnan(ref)
    assert np.abs(p - ref)[known].max() <= 1e-15
    above = ref > 1e-300
    assert np.abs(p[above] / ref[above] - 1.0).max() <= 1e-12
    # and exactly the C library's erfc of |z| / sqrt 2
    erfc = [math.erfc(abs(v) / s * math.sqrt(0.5)) for v, s in zip(value, std_err)]
    assert np.array_equal(p, erfc, equal_nan=True)
    # a zero standard error pins p to 1 for a zero estimate and to 0 otherwise
    with pytest.warns(ZeroVarianceWarning):
        p, pinned = estimator._p_values([0.0, 2.0, -np.inf], [0.0, 0.0, 0.0])
    assert p.tolist() == [1.0, 0.0, 0.0]
    assert pinned.tolist() == [False, True, True]


def test_significance_target_mismatch():
    fit = _hand_fit(coeff_var=[0.01], cov_row=[1.0], target=0)
    est = FlowEstimate(kind="self", source=None, target=1, value=0.1,
                       coef_index=0, coef_scale=1.0)
    with pytest.raises(ValueError):
        significance(est, fit)


def test_zero_variance_warning():
    fit = _hand_fit(coeff_var=[0.0, 0.0], cov_row=[2.0, 0.3])
    est = FlowEstimate(kind="self", source=None, target=0, value=0.5,
                       coef_index=0, coef_scale=1.0)
    with pytest.warns(ZeroVarianceWarning):
        out = significance(est, fit)
    assert out.p_value == 0.0
    assert out.zero_variance

    # zero estimate with zero spread is inconclusive, not impossible
    none = FlowEstimate(kind="self", source=None, target=0, value=0.0,
                        coef_index=0, coef_scale=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = significance(none, fit)
    assert out.p_value == 1.0
    assert not out.zero_variance


def test_zero_variance_warning_names_the_callers_line():
    # x1 integrates x2 exactly (small integers): the pair's closed form leaves no residual,
    # so its nonzero rate's p-value is pinned to 0 with a warning
    x2 = np.random.default_rng(0).integers(-3, 4, 60).astype(float)
    x1 = np.concatenate([[0.0], np.cumsum(x2[:-1])])
    tss = TimeSeriesSet(("a", "b"), np.vstack([x1, x2]), 1.0)
    fit = _hand_fit(coeff_var=[0.0, 0.0], cov_row=[2.0, 0.3])
    est = FlowEstimate(kind="self", source=None, target=0, value=0.5,
                       coef_index=0, coef_scale=1.0)
    routes = {
        "all_pairs": lambda: all_pairs(tss, mode="bivariate", normalize=False),
        "flow_bivariate": lambda: flow_bivariate(x1, x2),
        "significance": lambda: significance(est, fit),
        "_estimate": lambda: estimator._estimate(0, 1, 2.0, 1.0, 0.0),  # the engine routes' record
    }
    for name, call in routes.items():
        with pytest.warns(ZeroVarianceWarning) as records:
            call()
        assert [r.filename for r in records] == [__file__] * len(records), name


def test_ci_coverage_on_null_direction(ou2_null_trials):
    values, std_errs, _ = ou2_null_trials
    z95 = stats.norm.isf(0.025)
    coverage = float(np.mean(np.abs(values) <= z95 * std_errs))
    assert 0.93 <= coverage <= 0.97, f"95% CI covered 0 in {coverage:.1%} of trials"


# ------------------------------------------------------------ normalization


def test_normalized_shares_sum_to_one():
    tss = _random_set(4, 500, seed=13)
    fit = fit_linear_model(tss, target=1, k=1)
    flows = [flow_multivariate(tss, source=j, target=1, k=1) for j in (0, 2, 3)]
    self_est = self_contribution(tss, target=1, k=1)
    budget = normalize_flows(flows, self_est, fit)
    total = sum(abs(f.normalized) for f in budget.flows)
    total += abs(budget.self_flow.normalized) + budget.noise_share
    assert abs(total - 1.0) <= 1e-12
    assert all(abs(f.normalized) <= 1.0 for f in budget.flows)
    assert budget.z_total > 0.0


def test_normalization_single_term_budget():
    fit = _hand_fit(coeff_var=[0.0, 0.0], cov_row=[2.0, 0.3], g_hat=0.0)
    lone = FlowEstimate(kind="pairwise", source=1, target=0, value=0.7,
                        coef_index=1, coef_scale=1.0)
    none = FlowEstimate(kind="self", source=None, target=0, value=0.0,
                        coef_index=0, coef_scale=1.0)
    budget = normalize_flows([lone], none, fit)
    assert budget.flows[0].normalized == 1.0
    assert budget.noise_share == 0.0
    assert budget.z_total == 0.7


def test_normalization_degenerate_budget():
    fit = _hand_fit(coeff_var=[0.0, 0.0], cov_row=[2.0, 0.3], g_hat=0.0)
    zero_pair = FlowEstimate(kind="pairwise", source=1, target=0, value=0.0,
                             coef_index=1, coef_scale=0.0)
    zero_self = FlowEstimate(kind="self", source=None, target=0, value=0.0,
                             coef_index=0, coef_scale=1.0)
    with pytest.raises(DegenerateBudgetError,
                       match="^entropy budget for target 0 is zero; nothing to normalize$"):
        normalize_flows([zero_pair], zero_self, fit)


def test_normalization_input_checks():
    fit = _hand_fit(coeff_var=[0.0, 0.0], cov_row=[2.0, 0.3])
    pair = FlowEstimate(kind="pairwise", source=1, target=0, value=0.7,
                        coef_index=1, coef_scale=1.0)
    other_target = FlowEstimate(kind="pairwise", source=0, target=1, value=0.1,
                                coef_index=0, coef_scale=1.0)
    self_est = FlowEstimate(kind="self", source=None, target=0, value=-1.0,
                            coef_index=0, coef_scale=1.0)
    with pytest.raises(ValueError):
        normalize_flows([other_target], self_est, fit)
    with pytest.raises(ValueError):
        normalize_flows([pair], pair, fit)
