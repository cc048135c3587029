"""Linear SDE ground truth: simulation, stationary covariance, exact rates.

For dX = (f + A X) dt + B dW the stationary covariance solves the Lyapunov
equation A S + S A' + B B' = 0, and the exact information-flow rate from
component j into component i is A[i, j] * S[i, j] / S[i, i]. Together with
the self rate A[i, i] and the noise term (BB')[i, i] / (2 S[i, i]) these
balance to zero in the stationary state, which makes the module a complete
oracle for the estimators.

The simulator is an Euler–Maruyama scheme, reorganized into a blocked
scan (precomputed powers of the one-step matrix plus per-block partial
sums) so that million-step trajectories cost milliseconds while realizing
the same recursion as the naive step-by-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeSeriesSet
from .errors import (
    BadMatrixSpecError,
    LyapunovResidualError,
    NonFiniteStateError,
    NotHurwitzError,
    NumericalError,
    SameIndexError,
)


def _frozen(a, shape=None, what="array"):
    out = np.asarray(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise BadMatrixSpecError(f"{what} has shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise BadMatrixSpecError(f"{what} contains non-finite entries")
    out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LinearSDE:
    """Drift matrix A, constant offset f, noise amplitude B (so Q = B B')."""

    A: np.ndarray
    B: np.ndarray
    f: np.ndarray = None
    names: tuple = ()

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise BadMatrixSpecError(f"drift matrix must be square, got shape {a.shape}")
        d = a.shape[0]
        object.__setattr__(self, "A", _frozen(a, (d, d), "drift matrix"))
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        if b.ndim != 2 or b.shape[0] != d:
            raise BadMatrixSpecError(
                f"noise amplitude must have {d} rows to match the drift, got shape {b.shape}"
            )
        object.__setattr__(self, "B", _frozen(b, None, "noise amplitude"))
        f = np.zeros(d) if self.f is None else np.asarray(self.f, dtype=float).ravel()
        object.__setattr__(self, "f", _frozen(f, (d,), "offset"))
        names = tuple(self.names) if self.names else tuple(f"x{i + 1}" for i in range(d))
        if len(names) != d or len(set(names)) != d:
            raise BadMatrixSpecError(f"need {d} unique names, got {names}")
        object.__setattr__(self, "names", tuple(str(n) for n in names))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def noise_cov(self) -> np.ndarray:
        return self.B @ self.B.T

    def max_real_eigenvalue(self) -> float:
        return float(np.linalg.eigvals(self.A).real.max())

    def is_hurwitz(self) -> bool:
        return self.max_real_eigenvalue() < 0.0


@dataclass(frozen=True)
class StationaryCovariance:
    """Symmetric stationary covariance S with its Lyapunov residual ||AS + SA' + Q||_max."""

    Sigma: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "Sigma", _frozen(self.Sigma, None, "covariance"))


def _require_hurwitz(sde: LinearSDE):
    rate = sde.max_real_eigenvalue()
    if not rate < 0.0:
        raise NotHurwitzError(
            f"drift matrix has an eigenvalue with real part {rate:.6g} >= 0; "
            "no stationary state exists"
        )


def default_burn_in(sde: LinearSDE, dt: float) -> int:
    """Steps to discard before sampling: ten times the slowest decay time.

    max(1000, ceil(10 / (|slowest eigenvalue real part| * dt))) for a
    stable drift; 0 when no stationary state exists (nothing to converge
    to).
    """
    rate = -sde.max_real_eigenvalue()
    if not rate > 0.0:
        return 0
    return max(1000, int(math.ceil(10.0 / (rate * dt))))


def simulate(
    sde: LinearSDE,
    x0,
    n_steps: int,
    dt: float,
    seed: int,
    burn_in: int = None,
) -> TimeSeriesSet:
    """Euler–Maruyama trajectory: x[n+1] = x[n] + (f + A x[n]) dt + B sqrt(dt) xi[n].

    Noise comes from ``numpy.random.default_rng(seed)``, so identical
    (sde, x0, n_steps, dt, seed, burn_in) produce bit-identical output.
    ``burn_in`` steps are simulated and discarded before the ``n_steps``
    recorded samples; the default (None) applies :func:`default_burn_in`.
    With ``burn_in=0`` the first recorded sample is exactly ``x0``.
    """
    d = sde.d
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (d,):
        raise BadMatrixSpecError(f"x0 has shape {x0.shape}, expected ({d},)")
    if not np.isfinite(x0).all():
        raise BadMatrixSpecError("x0 contains non-finite entries")
    if burn_in is None:
        burn_in = default_burn_in(sde, dt)
    burn_in = int(burn_in)
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")

    total = burn_in + n_steps  # states to realize, including the start
    steps = total - 1
    rng = np.random.default_rng(seed)
    n_noise = sde.B.shape[1]
    step_mat = np.eye(d) + dt * sde.A

    if steps == 0:
        out = x0[None, :].T.copy()
        return TimeSeriesSet(names=sde.names, values=out, dt=dt)

    with np.errstate(over="ignore", invalid="ignore"):
        # per-step additive term: f dt + B sqrt(dt) xi
        w = (sde.B @ rng.standard_normal((n_noise, steps))) * math.sqrt(dt)
        w += (sde.f * dt)[:, None]

        # blocked scan over x[t+1] = M x[t] + w[t]: split the t axis into
        # blocks of length L; within a block, x[t0 + l] = M^l x[t0] + s[l]
        # with s[l+1] = M s[l] + w[t0 + l]. The s recursions for all blocks
        # advance in lockstep (vectorized over the block index), block
        # start states chain sequentially, and samples are recovered with
        # one batched multiply. Algebraically identical to the naive loop
        # (floating-point reassociation only).
        block = max(1, math.isqrt(steps))
        n_blocks = steps // block + 1  # always covers state index `steps`

        powers = np.empty((block + 1, d, d))
        powers[0] = np.eye(d)
        for j in range(block):
            powers[j + 1] = step_mat @ powers[j]

        states = np.empty((n_blocks, block, d))  # s[l] of each block, then x[t0 + l]
        s = np.zeros((n_blocks, d))
        for l in range(block):
            states[:, l] = s
            s = s @ step_mat.T
            lockstep = w[:, l::block].T  # the last block may stop short: its tail is cut
            s[: len(lockstep)] += lockstep
        del w, lockstep  # free the noise before the batched multiply and the output copy

        starts = np.empty((n_blocks, d))
        starts[0] = x0
        for b in range(n_blocks - 1):
            starts[b + 1] = powers[block] @ starts[b] + s[b]

        states += np.einsum("lij,bj->bli", powers[:block], starts)

    out = states.reshape(-1, d)[burn_in:total].T
    if not np.isfinite(out).all():
        raise NonFiniteStateError(
            "trajectory left the finite range (unstable drift or too-large dt)"
        )
    return TimeSeriesSet(names=sde.names, values=out, dt=dt)


def stationary_covariance(sde: LinearSDE) -> StationaryCovariance:
    """Solve A S + S A' + B B' = 0 for the stationary covariance S.

    Requires a stable drift. The symmetrized solution must satisfy the
    residual bound ||A S + S A' + Q||_max <= 1e-12 ||Q||_max, otherwise a
    LyapunovResidualError reports the achieved residual.
    """
    from scipy import linalg  # here, not at the top: only the oracle needs scipy

    _require_hurwitz(sde)
    q = sde.noise_cov
    sigma = linalg.solve_continuous_lyapunov(sde.A, -q)
    sigma = (sigma + sigma.T) / 2.0
    resid = float(np.abs(sde.A @ sigma + sigma @ sde.A.T + q).max())
    bound = 1e-12 * float(np.abs(q).max())
    if resid > bound:
        raise LyapunovResidualError(
            f"stationary covariance residual {resid:.3e} exceeds {bound:.3e}"
        )
    return StationaryCovariance(Sigma=sigma, residual=resid)


def theoretical_flow(sde: LinearSDE, source: int, target: int) -> float:
    """Exact rate A[target, source] * S[target, source] / S[target, target].

    Exactly zero whenever the drift entry is zero (no dependence implies
    no flow), and zero whenever the stationary covariance vanishes
    (causation implies correlation).
    """
    d = sde.d
    if not (0 <= source < d and 0 <= target < d):
        raise IndexError(f"source {source} / target {target} out of range for d = {d}")
    if source == target:
        raise SameIndexError("source and target must differ; the self rate is A[i, i]")
    a = float(sde.A[target, source])
    if a == 0.0:
        return 0.0
    sigma = stationary_covariance(sde).Sigma
    return a * _ratio(sigma, target, source)


def _ratio(sigma: np.ndarray, i: int, j: int) -> float:
    sii = float(sigma[i, i])
    if not sii > 0.0:
        raise NumericalError(f"stationary variance of component {i} is not positive")
    return float(sigma[i, j]) / sii


@dataclass(frozen=True)
class TheoreticalBudget:
    """Exact entropy budget of one target: incoming flows, self rate, noise rate.

    ``flows[j]`` is the rate from component j (the target's own slot holds
    0; its contribution is ``self_rate``). ``residual`` is the budget sum,
    which vanishes in the stationary state.
    """

    target: int
    flows: np.ndarray
    self_rate: float
    noise_rate: float
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "flows", _frozen(self.flows, None, "flows"))


def _budget_from_sigma(sde: LinearSDE, sigma: np.ndarray, target: int) -> TheoreticalBudget:
    d = sde.d
    flows = np.zeros(d)
    for j in range(d):
        if j == target:
            continue
        a = float(sde.A[target, j])
        flows[j] = 0.0 if a == 0.0 else a * _ratio(sigma, target, j)
    self_rate = float(sde.A[target, target])
    noise_rate = float(sde.noise_cov[target, target]) / (2.0 * float(sigma[target, target]))
    residual = float(flows.sum() + self_rate + noise_rate)
    return TheoreticalBudget(
        target=int(target),
        flows=flows,
        self_rate=self_rate,
        noise_rate=noise_rate,
        residual=residual,
    )


def theoretical_budget(sde: LinearSDE, target: int) -> TheoreticalBudget:
    """Exact budget triple (incoming flows, self rate, noise rate) for one target.

    Stationarity of the marginal variance forces the three parts to cancel:
    d(S[i,i])/dt = 2 sum_j A[i,j] S[i,j] + Q[i,i] = 0, and dividing by
    2 S[i,i] is exactly flows + self + noise. ``residual`` reports the sum.
    """
    d = sde.d
    if not 0 <= target < d:
        raise IndexError(f"target {target} out of range for d = {d}")
    sigma = stationary_covariance(sde).Sigma
    return _budget_from_sigma(sde, sigma, target)
