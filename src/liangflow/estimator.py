"""Closed-form causal-rate estimation under a linear stochastic model.

The quantity estimated here is the information-flow rate from one series
to another, in nats per unit time: how fast the source component feeds
entropy into (positive) or drains it from (negative) the target's marginal
distribution. Under a linear model with additive independent noise the
maximum-likelihood estimate has a closed form built from three pieces:

1. a least-squares regression of the target's forward-difference series
   on all components (``fit_linear_model``),
2. sample covariances over the aligned window, and
3. normal-approximation inference on the fitted coefficients
   (``significance``).

The pairwise rate is ``a_hat[source] * C[target, source] / C[target,
target]``; the self rate is simply ``a_hat[target]``. One moment engine
(``_Design``) fits every target at once on the correlation matrix, which
keeps the estimates invariant under per-component affine rescaling of the
data to near machine precision; all reported quantities are mapped back
to original units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import PanelPairs, TimeSeriesSet, check_k, forward_difference
from .errors import (
    DegenerateBudgetError,
    NaNsPresentError,
    NonFiniteMomentsError,
    NonRectangularError,
    SameIndexError,
    SingularCovarianceError,
    TooShortError,
    ZeroVarianceWarning,
)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_BLOCK = 4096  # columns per residual product
# two-sided standard-normal quantiles for the 90/95/99% intervals
_Z90 = 1.6448536269514729
_Z95 = 1.9599639845400545
_Z99 = 2.575829303548901
# numpy has no erfc; the two-sided normal tail 2 Phi(-|z|) is erfc(|z| / sqrt 2)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class LinearModelFit:
    """Least-squares fit of a target's difference series on all components.

    ``coeffs[j]`` multiplies component j, ``intercept`` is the constant
    term, and ``coeff_cov`` is the sampling covariance of the stacked
    parameter vector ``[intercept, coeffs]`` (so ``coeff_cov[j + 1, j + 1]``
    is the variance of ``coeffs[j]``). ``resid_var`` is the dof-corrected
    mean squared residual in per-step units and ``g_hat = resid_var * k *
    dt`` the implied noise intensity per unit time. ``cov_row`` holds the
    sample covariance of the target with every component over the aligned
    window — the flow formulas need exactly that row.
    """

    target: int
    coeffs: np.ndarray
    intercept: float
    resid_var: float
    coeff_cov: np.ndarray
    g_hat: float
    n_eff: int
    dof: int
    k: int
    dt: float
    cov_row: np.ndarray

    def __post_init__(self):
        for name in ("coeffs", "coeff_cov", "cov_row"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class FlowEstimate:
    """One causal rate — pairwise (source into target) or the target's self rate.

    ``value`` is in nats per unit time. ``normalized`` (the relative-
    importance share, in [-1, 1]) is filled in by ``normalize_flows``.
    ``coef_index`` and ``coef_scale`` record which fitted coefficient
    produced the value and the covariance ratio multiplying it, which is
    all ``significance`` needs to attach errors: value = coeffs[coef_index]
    * coef_scale.
    """

    kind: str
    source: Optional[int]
    target: int
    value: float
    coef_index: int
    coef_scale: float
    std_err: float = float("nan")
    ci90: tuple = ()
    ci95: tuple = ()
    ci99: tuple = ()
    p_value: float = float("nan")
    normalized: Optional[float] = None
    zero_variance: bool = False


@dataclass(frozen=True)
class NormalizedBudget:
    """Relative-importance decomposition of one target's entropy budget.

    ``z_total`` is the sum of absolute contributions (incoming flows, the
    self rate, and the noise term); every ``normalized`` field and
    ``noise_share`` is the corresponding term divided by ``z_total``, so
    the absolute shares sum to 1.
    """

    target: int
    flows: tuple
    self_flow: FlowEstimate
    noise_term: float
    noise_share: float
    z_total: float


class _Design:
    """The moment engine: every target of one window regressed on all components at once.

    ``window`` is the d x n_eff matrix of regressors and ``ydot`` the
    difference series, one row per target; ``ydot`` is centred and then
    overwritten by the residuals, so pass a fresh array. Construction
    computes, once for all targets, ``C = cov(W)``, ``Cd = cov(W, ydot)``
    (column t is target t), the Cholesky factor of the correlation matrix,
    the coefficients ``A`` (column t is target t's fit), the residual
    variances, and ``s``, the coefficient covariance per unit residual
    variance. The scalar estimators also fit every target and keep one: a
    one-column product rounds differently, and this keeps each of them
    bit-identical to its ``all_pairs`` entry.
    """

    def __init__(self, window: np.ndarray, ydot: np.ndarray, names, dt: float, k: int):
        window = np.asarray(window, dtype=float)
        d, n_eff = window.shape
        if n_eff < d + 2:
            raise TooShortError(f"{n_eff} aligned samples cannot fit {d + 1} parameters")
        self.names = tuple(names)
        self.dt = float(dt)
        self.k = int(k)
        self.d = d
        self.n_eff = n_eff
        self.dof = n_eff - (d + 1)
        den = n_eff - 1
        self.mu = window.mean(axis=1)
        self.ymean = ydot.mean(axis=1)
        xc = window - self.mu[:, None]
        ydot -= self.ymean[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            self.C = (xc @ xc.T) / den
            self.Cd = (xc @ ydot.T) / den
            self.cdd = np.einsum("ij,ij->i", ydot, ydot) / den
        if not all(np.isfinite(m).all() for m in (self.C, self.Cd, self.cdd)):
            raise NonFiniteMomentsError(
                "sample covariances are not finite (the values overflow when multiplied); "
                "rescale the data"
            )
        sd = np.sqrt(np.diag(self.C))
        if np.any(sd == 0.0):
            flat = [self.names[i] for i in np.flatnonzero(sd == 0.0)]
            raise SingularCovarianceError(f"zero-variance series make C singular: {flat}")
        self.sd = sd
        try:
            low = np.linalg.cholesky(self.C / np.outer(sd, sd))
        except np.linalg.LinAlgError:
            raise SingularCovarianceError(
                "covariance matrix is numerically singular (correlation matrix is not "
                "positive definite); inputs are collinear"
            ) from None
        linv = np.linalg.inv(low)
        rinv = linv.T @ linv
        # 1 / diag(R^-1) is 1 - R^2 of each component regressed on the others:
        # scale-free, independent of the variable order, and equal to the
        # correlation determinant at d = 2; tolerance machine epsilon x d
        unexplained = 1.0 / np.diag(rinv)
        worst = int(np.argmin(unexplained))
        tol = _EPS * d
        if not unexplained[worst] > tol:
            raise SingularCovarianceError(
                f"covariance matrix is numerically singular ({self.names[worst]!r} keeps a "
                f"share {unexplained[worst]:.3e} <= tolerance {tol:.3e} of its variance "
                f"given the other series); inputs are collinear"
            )
        self.s = (rinv / np.outer(sd, sd)) / den
        self.A = rinv @ (self.Cd / sd[:, None]) / sd[:, None]
        for lo in range(0, n_eff, _BLOCK):  # a d x _BLOCK temporary, not a third d x n_eff
            ydot[:, lo : lo + _BLOCK] -= self.A.T @ xc[:, lo : lo + _BLOCK]
        self.resid_var = np.einsum("ij,ij->i", ydot, ydot) / self.dof

    def fit(self, target: int) -> LinearModelFit:
        """The fit of one target, with the full covariance of [intercept, coeffs]."""
        coeffs = self.A[:, target]
        resid_var = float(self.resid_var[target])
        # sampling covariance of [intercept, coeffs]: resid_var times the
        # inverse Gram matrix of the regressors, assembled from C^{-1} via the
        # partitioned-inverse identities to stay well-conditioned
        d, n_eff = self.d, self.n_eff
        smu = self.s @ self.mu
        cc = np.empty((d + 1, d + 1))
        cc[0, 0] = 1.0 / n_eff + float(self.mu @ smu)
        cc[0, 1:] = -smu
        cc[1:, 0] = -smu
        cc[1:, 1:] = self.s
        return LinearModelFit(
            target=int(target),
            coeffs=coeffs,
            intercept=float(self.ymean[target]) - float(coeffs @ self.mu),
            resid_var=resid_var,
            coeff_cov=resid_var * cc,
            g_hat=resid_var * self.dt * self.k,
            n_eff=n_eff,
            dof=self.dof,
            k=self.k,
            dt=self.dt,
            cov_row=self.C[target],
        )


def _design_for(tss: TimeSeriesSet, k: int) -> _Design:
    check_k(tss.n_samples, tss.d, k)
    ydot = forward_difference(tss.values, k, tss.dt)
    return _Design(tss.values[:, : tss.n_samples - k], ydot, tss.names, tss.dt, k)


def fit_linear_model(tss: TimeSeriesSet, target: int, k: int = 1) -> LinearModelFit:
    """Regress the target's forward-difference series on all components.

    The difference series is ``(x[n + k] - x[n]) / (k * dt)``; the
    regressors are the first ``N - k`` samples of every component plus a
    constant. Raises SingularCovarianceError for collinear inputs.
    """
    if not 0 <= target < tss.d:
        raise IndexError(f"target {target} out of range for d = {tss.d}")
    return _design_for(tss, k).fit(target)


def _p_values(value, std_err):
    """Two-sided normal p-values of value / std_err, elementwise.

    A zero standard error pins p to 1 for a zero estimate and to 0
    otherwise, with a ZeroVarianceWarning. Returns (p, pinned), where
    ``pinned`` marks the entries forced to 0.
    """
    value = np.asarray(value, dtype=float)
    std_err = np.asarray(std_err, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(value) / std_err
    p = np.asarray(_ERFC(z * math.sqrt(0.5)), dtype=float)
    zero = std_err == 0.0
    pinned = zero & (value != 0.0)
    if pinned.any():
        warnings.warn(
            "zero standard error with a nonzero estimate; p-value pinned to 0",
            ZeroVarianceWarning,
            stacklevel=3,
        )
    return np.where(zero, np.where(pinned, 0.0, 1.0), p), pinned


def _normal_inference(value: float, std_err: float):
    """Two-sided p-value and central normal CIs for value/std_err."""
    p, pinned = _p_values(value, std_err)
    cis = tuple((value - z * std_err, value + z * std_err) for z in (_Z90, _Z95, _Z99))
    return float(p), cis[0], cis[1], cis[2], bool(pinned)


def significance(flow: FlowEstimate, fit: LinearModelFit) -> FlowEstimate:
    """Attach delta-method standard error, p-value, and 90/95/99% CIs.

    The flow is linear in one fitted coefficient (``value = coeffs
    [coef_index] * coef_scale``), so its standard error is |coef_scale|
    times the coefficient's standard error from ``fit.coeff_cov``.
    """
    if flow.target != fit.target:
        raise ValueError(
            f"flow targets index {flow.target} but the fit is for index {fit.target}"
        )
    var = float(fit.coeff_cov[flow.coef_index + 1, flow.coef_index + 1])
    std_err = abs(flow.coef_scale) * float(np.sqrt(max(var, 0.0)))
    p, ci90, ci95, ci99, zv = _normal_inference(flow.value, std_err)
    return replace(
        flow, std_err=std_err, p_value=p, ci90=ci90, ci95=ci95, ci99=ci99, zero_variance=zv
    )


def _pair_estimate(fit: LinearModelFit, source: int) -> FlowEstimate:
    # scale = C[target, source] / C[target, target]; an exactly-zero sample
    # covariance therefore annihilates the flow exactly
    scale = float(fit.cov_row[source] / fit.cov_row[fit.target])
    est = FlowEstimate(
        kind="pairwise",
        source=int(source),
        target=fit.target,
        value=float(fit.coeffs[source] * scale),
        coef_index=int(source),
        coef_scale=scale,
    )
    return significance(est, fit)


def _self_estimate(fit: LinearModelFit) -> FlowEstimate:
    est = FlowEstimate(
        kind="self",
        source=None,
        target=fit.target,
        value=float(fit.coeffs[fit.target]),
        coef_index=fit.target,
        coef_scale=1.0,
    )
    return significance(est, fit)


def flow_multivariate(
    tss: TimeSeriesSet, source: int, target: int, k: int = 1
) -> FlowEstimate:
    """Rate of information flow from ``source`` into ``target``, conditioned on all components.

    Value: ``a_hat[source] * C[target, source] / C[target, target]`` with
    ``a_hat`` from ``fit_linear_model(tss, target, k)``. Standard error,
    p-value, and confidence intervals are attached.
    """
    d = tss.d
    if not (0 <= source < d and 0 <= target < d):
        raise IndexError(f"source {source} / target {target} out of range for d = {d}")
    if source == target:
        raise SameIndexError("source and target must differ; use self_contribution")
    return _pair_estimate(fit_linear_model(tss, target, k), source)


def self_contribution(tss: TimeSeriesSet, target: int, k: int = 1) -> FlowEstimate:
    """The target's own contribution to its marginal entropy change (nats per unit time).

    Equals the target's own fitted coefficient; the standard error is that
    coefficient's standard error.
    """
    return _self_estimate(fit_linear_model(tss, target, k))


def flow_bivariate(x1, x2, dt: float = 1.0, k: int = 1) -> FlowEstimate:
    """Closed-form rate from the second series into the first, ignoring all others.

    An independent arithmetic path from :func:`flow_multivariate`, written
    directly in the five sample moments of the pair:

        T = (C11*C12*C2d - C12^2*C1d) / (C11^2*C22 - C11*C12^2)

    where Cab are the pair covariances and C1d/C2d the covariances with the
    first series' forward-difference. Agrees with the two-variable
    regression route to rounding error; kept separate for cross-validation.
    """
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x1.shape != x2.shape:
        raise NonRectangularError(f"series lengths differ: {x1.size} vs {x2.size}")
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise NaNsPresentError("non-finite values in input series")
    n = x1.size
    check_k(n, 2, k)
    n_eff = n - k
    ydot = forward_difference(x1, k, dt)
    w1 = x1[:n_eff] - x1[:n_eff].mean()
    w2 = x2[:n_eff] - x2[:n_eff].mean()
    yc = ydot - ydot.mean()
    den = n_eff - 1
    value, std_err, scale, ok = _bivariate_from_moments(
        (w1 @ w1) / den, (w2 @ w2) / den, (w1 @ w2) / den,
        (w1 @ yc) / den, (w2 @ yc) / den, (yc @ yc) / den, n_eff,
    )
    if not ok:
        raise SingularCovarianceError(_PAIR_SINGULAR)
    value, std_err = float(value), float(std_err)
    p, ci90, ci95, ci99, zv = _normal_inference(value, std_err)
    return FlowEstimate(
        kind="pairwise",
        source=1,
        target=0,
        value=value,
        coef_index=1,
        coef_scale=float(scale),
        std_err=std_err,
        ci90=ci90,
        ci95=ci95,
        ci99=ci99,
        p_value=p,
        zero_variance=zv,
    )


_PAIR_SINGULAR = "pair covariance matrix is numerically singular (perfectly correlated series)"


def _bivariate_from_moments(c11, c22, c12, c1d, c2d, cdd, n_eff):
    """Pairwise flow from the five moments of (target, source, d(target)).

    Broadcasts over arrays of moments. Returns (value, std_err, scale, ok):
    the rate from source into target, its standard error, the covariance
    ratio c12 / c11, and ``ok``, false where the pair is numerically
    singular (the other outputs are meaningless there). The singularity
    rule is the multivariate one at d = 2: the 2x2 correlation determinant
    against machine epsilon x d.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        det_c = c11 * c22 - c12 * c12
        ok = (c11 > 0.0) & (c22 > 0.0) & (det_c / (c11 * c22) > _EPS * 2)
        value = (c11 * c12 * c2d - c12 * c12 * c1d) / (c11 * c11 * c22 - c11 * c12 * c12)
        a1 = (c22 * c1d - c12 * c2d) / det_c
        a2 = (c11 * c2d - c12 * c1d) / det_c
        rss = np.maximum((n_eff - 1) * (cdd - a1 * c1d - a2 * c2d), 0.0)
        resid_var = rss / (n_eff - 3)
        var_a2 = resid_var * c11 / ((n_eff - 1) * det_c)
        scale = c12 / c11
        std_err = np.abs(scale) * np.sqrt(np.maximum(var_a2, 0.0))
    return value, std_err, scale, ok


def flow_panel(pairs: PanelPairs, source: int, target: int) -> FlowEstimate:
    """Pairwise flow from i.i.d. replicate (state, next-state) pairs.

    The per-replicate difference ``(x1 - x0) / dt_gap`` plays the role of
    the difference series and covariances run over the replicate index;
    the arithmetic is otherwise identical to :func:`flow_multivariate`.
    Replicate order is immaterial.
    """
    d = pairs.d
    if not (0 <= source < d and 0 <= target < d):
        raise IndexError(f"source {source} / target {target} out of range for d = {d}")
    if source == target:
        raise SameIndexError("source and target must differ for a pairwise flow")
    design = _Design(pairs.x0, (pairs.x1 - pairs.x0) / pairs.dt_gap, pairs.names, pairs.dt_gap, 1)
    return _pair_estimate(design.fit(target), source)


def budget_shares(rates: np.ndarray, noise):
    """Each target's entropy budget and its shares: (tau, noise_share, Z).

    ``rates`` holds a target's incoming flows and its self rate along the
    last axis and ``noise`` its noise term. Z = sum |rates| + |noise|,
    tau = rates / Z and noise_share = |noise| / Z; a zero Z gives inf or
    NaN, which callers check. ``normalize_flows``, ``all_pairs`` and the
    exact oracle's shares all use this one definition.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(rates).sum(axis=-1) + np.abs(noise)
        return rates / z[..., None], np.abs(noise) / z, z


def normalize_flows(
    flows: Sequence[FlowEstimate], self_flow: FlowEstimate, fit: LinearModelFit
) -> NormalizedBudget:
    """Convert raw rates into relative-importance shares for one target.

    The budget is Z = sum of |incoming flows| + |self rate| + |noise term|
    with noise term g_hat / (2 * C[target, target]); each share is its raw
    value divided by Z, so absolute shares sum to exactly 1 and every
    share lies in [-1, 1].
    """
    flows = tuple(flows)
    for fl in flows:
        if fl.kind != "pairwise" or fl.target != fit.target:
            raise ValueError("normalize_flows needs the pairwise flows into the fit's target")
    if self_flow.kind != "self" or self_flow.target != fit.target:
        raise ValueError("self_flow must be the self contribution of the fit's target")
    c_ii = float(fit.cov_row[fit.target])
    noise_term = fit.g_hat / (2.0 * c_ii)
    tau, noise_share, z = budget_shares(
        np.array([fl.value for fl in flows] + [self_flow.value]), noise_term
    )
    z = float(z)
    if not z > _TINY:
        raise DegenerateBudgetError(
            f"entropy budget for target {fit.target} is zero; nothing to normalize"
        )
    out_flows = tuple(replace(fl, normalized=float(t)) for fl, t in zip(flows, tau))
    out_self = replace(self_flow, normalized=float(tau[-1]))
    return NormalizedBudget(
        target=fit.target,
        flows=out_flows,
        self_flow=out_self,
        noise_term=noise_term,
        noise_share=float(noise_share),
        z_total=z,
    )
