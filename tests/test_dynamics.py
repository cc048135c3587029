"""Simulator, stationary covariance, and exact-rate oracles."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from liangflow import (
    BadMatrixSpecError,
    LinearSDE,
    NonFiniteStateError,
    NotHurwitzError,
    SameIndexError,
    default_burn_in,
    simulate,
    stationary_covariance,
    theoretical_budget,
    theoretical_flow,
)
from liangflow.cli import main
from liangflow.dynamics import _lift_piece

OU2_SIGMA = np.array([[0.5625, 0.125], [0.125, 0.5]])


def _random_sde(d, n_noise, seed):
    rng = np.random.default_rng(seed)
    a = -1.5 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
    return LinearSDE(A=a, B=rng.standard_normal((d, n_noise)), f=rng.standard_normal(d))


def _random_hurwitz(rng, d, margin=(0.2, 2.0)):
    a = rng.standard_normal((d, d))
    a -= (np.linalg.eigvals(a).real.max() + rng.uniform(*margin)) * np.eye(d)
    return a


# ------------------------------------------------------------- construction


def test_linear_sde_shapes_and_defaults():
    sde = LinearSDE(A=[[-1.0, 0.5], [0.0, -1.0]], B=np.eye(2))
    assert sde.d == 2
    assert sde.names == ("x1", "x2")
    np.testing.assert_array_equal(sde.f, [0.0, 0.0])
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(LinearSDE(A=-np.eye(2), B=b).noise_cov,
                                  [[1.0, 1.0], [1.0, 2.0]])


def test_linear_sde_validation():
    with pytest.raises(BadMatrixSpecError):
        LinearSDE(A=np.ones((2, 3)), B=np.eye(2))
    with pytest.raises(BadMatrixSpecError):
        LinearSDE(A=-np.eye(2), B=np.eye(3))  # row count mismatch
    with pytest.raises(BadMatrixSpecError):
        LinearSDE(A=-np.eye(2), B=np.eye(2), f=[1.0])
    # compared as the strings they become; none may be empty or blank
    for names in (("a", "a"), (1, "1"), ("a", ""), (" ", "b")):
        with pytest.raises(BadMatrixSpecError):
            LinearSDE(A=-np.eye(2), B=np.eye(2), names=names)
    with pytest.raises(BadMatrixSpecError):
        LinearSDE(A=[[np.nan]], B=[[1.0]])


def test_hurwitz_predicate():
    assert LinearSDE(A=-np.eye(2), B=np.eye(2)).is_hurwitz()
    assert not LinearSDE(A=np.zeros((2, 2)), B=np.eye(2)).is_hurwitz()


# --------------------------------------------------------------- simulation


def test_constant_trajectory():
    sde = LinearSDE(A=[[0.0]], B=[[0.0]])
    tss = simulate(sde, [1.0], 50, 0.1, seed=0, burn_in=0)
    np.testing.assert_array_equal(tss.values, np.ones((1, 50)))
    assert tss.dt == 0.1


def test_deterministic_decay_matches_power_law():
    sde = LinearSDE(A=[[-1.0]], B=[[0.0]])
    dt = 0.01
    tss = simulate(sde, [1.0], 100, dt, seed=0, burn_in=0)
    expected = (1.0 - dt) ** np.arange(100)
    np.testing.assert_allclose(tss.values[0], expected, rtol=1e-12)
    assert tss.values[0, 0] == 1.0


def _naive_recursion(sde, x0, n, dt, seed):
    """The plain step-by-step loop x[t + 1] = M x[t] + w[t] on simulate's noise stream."""
    rng = np.random.default_rng(seed)
    w = (sde.B @ rng.standard_normal((sde.B.shape[1], n - 1))) * math.sqrt(dt)
    w += (sde.f * dt)[:, None]
    m = np.eye(sde.d) + dt * sde.A
    x = np.empty((sde.d, n))
    x[:, 0] = x0
    for t in range(n - 1):
        x[:, t + 1] = m @ x[:, t] + w[:, t]
    return x


def test_simulate_matches_naive_recursion(ou2):
    """The blocked scan realizes the plain step-by-step recursion."""
    sde, dt = ou2
    n = 300
    tss = simulate(sde, [0.3, -0.2], n, dt, seed=5, burn_in=0)
    x = _naive_recursion(sde, [0.3, -0.2], n, dt, seed=5)
    np.testing.assert_allclose(tss.values, x, rtol=0, atol=1e-12)


def test_simulate_matches_naive_recursion_at_d30():
    """Many blocks and lifts: d = 30, 32 noise columns, offset and start away from 0."""
    d, n, dt = 30, 20_000, 0.01
    sde = _random_sde(d, d + 2, seed=12)
    x0 = np.linspace(-2.0, 3.0, d)
    got = simulate(sde, x0, n, dt, seed=13, burn_in=0).values
    want = _naive_recursion(sde, x0, n, dt, seed=13)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_simulate_seed_contract(ou2):
    sde, dt = ou2
    a = simulate(sde, [0.0, 0.0], 1000, dt, seed=7)
    b = simulate(sde, [0.0, 0.0], 1000, dt, seed=7)
    c = simulate(sde, [0.0, 0.0], 1000, dt, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_burn_in_is_a_prefix_of_the_same_stream(ou2):
    sde, dt = ou2
    burned = simulate(sde, [1.0, 1.0], 200, dt, seed=3, burn_in=70)
    full = simulate(sde, [1.0, 1.0], 270, dt, seed=3, burn_in=0)
    np.testing.assert_array_equal(burned.values, full.values[:, 70:])


def test_single_sample():
    sde = LinearSDE(A=[[-1.0]], B=[[1.0]])
    tss = simulate(sde, [2.5], 1, 0.1, seed=0, burn_in=0)
    np.testing.assert_array_equal(tss.values, [[2.5]])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_first_sample_keeps_the_bits_of_x0(ou2, n, tmp_path):
    sde, dt = ou2
    x0 = np.array([-0.0, 0.0])
    tss = simulate(sde, x0, n, dt, seed=4, burn_in=0)
    assert tss.values[:, 0].tobytes() == x0.tobytes()
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--preset", "ou2", "--x0=-0.0,0", "--burn-in", "0",
                 "--n", str(n), "--output", str(path)]) == 0
    assert path.read_text().splitlines()[1] == "-0.0,0.0"


def test_divergent_trajectory():
    sde = LinearSDE(A=[[1.0]], B=[[0.0]])
    with pytest.raises(NonFiniteStateError):
        simulate(sde, [1.0], 3000, 0.5, seed=0, burn_in=0)


def test_simulate_argument_checks(ou2):
    sde, dt = ou2
    for dt_bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            simulate(sde, [0.0, 0.0], 10, dt_bad, seed=0)
    with pytest.raises(ValueError):
        simulate(sde, [0.0, 0.0], 0, dt, seed=0)
    with pytest.raises(ValueError):
        simulate(sde, [0.0, 0.0], 10, dt, seed=0, burn_in=-1)
    with pytest.raises(BadMatrixSpecError, match=r"^x0 has shape \(1,\), expected \(2,\)$"):
        simulate(sde, [0.0], 10, dt, seed=0)
    for x0 in ([0.0, np.nan], [[np.inf], [0.0]]):
        with pytest.raises(BadMatrixSpecError, match="^x0 contains non-finite entries$"):
            simulate(sde, x0, 10, dt, seed=0)


def _reference_scan(sde, x0, n_steps, dt, seed, burn_in):
    """The blocked scan as first written: padded noise copy, (block + 1) partial sums.

    Its last product, the lift of the start states, is simulate's piecewise
    GEMM with simulate's piece size: one unpieced product can round differently.
    """
    d = sde.d
    total = burn_in + n_steps
    steps = total - 1
    rng = np.random.default_rng(seed)
    step_mat = np.eye(d) + dt * sde.A
    if steps == 0:
        return np.asarray(x0, dtype=float)[:, None]
    w = (sde.B @ rng.standard_normal((sde.B.shape[1], steps))) * math.sqrt(dt)
    w += (sde.f * dt)[:, None]
    block = max(1, math.isqrt(steps))
    n_blocks = steps // block + 1
    pad = n_blocks * block - steps
    wb = np.concatenate([w, np.zeros((d, pad))], axis=1).T.reshape(n_blocks, block, d)
    powers = np.empty((block + 1, d, d))
    powers[0] = np.eye(d)
    for j in range(block):
        powers[j + 1] = step_mat @ powers[j]
    partial = np.zeros((n_blocks, block + 1, d))
    s = np.zeros((n_blocks, d))
    for l in range(block):
        s = s @ step_mat.T + wb[:, l]
        partial[:, l + 1] = s
    starts = np.empty((n_blocks, d))
    starts[0] = x0
    for b in range(n_blocks - 1):
        starts[b + 1] = powers[block] @ starts[b] + partial[b, block]
    lifts = powers[:block].reshape(block * d, d).T
    states = partial[:, :block].reshape(n_blocks, block * d)
    piece = _lift_piece(block, d)
    for lo in range(0, n_blocks, piece):
        states[lo:lo + piece] += starts[lo:lo + piece] @ lifts
    return states.reshape(n_blocks * block, d)[:total][burn_in:].T


@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_simulate_bits_equal_the_reference_scan(d):
    dt = 0.01
    for n_noise in (d, d + 2):
        sde = _random_sde(d, n_noise, seed=d)
        x0 = np.linspace(-1.0, 1.0, d)
        for n in (1, 2, 5, 999, 20_000):
            for burn_in in (0, 1, None):
                seed = 31 * d + n
                got = simulate(sde, x0, n, dt, seed=seed, burn_in=burn_in).values
                burn = default_burn_in(sde, dt) if burn_in is None else burn_in
                want = _reference_scan(sde, x0, n, dt, seed, burn)
                assert got.shape == want.shape == (d, n)
                assert got.tobytes() == want.tobytes(), (n_noise, n, burn_in)


def test_simulate_across_blas_thread_counts(tmp_path):
    # the bits may change with the BLAS thread count (README, Determinism), the
    # values agree to 1e-12 of the largest; d = 30 is large enough for OpenBLAS
    # to split simulate's products over two threads
    sde = _random_sde(30, 32, seed=14)
    system = tmp_path / "system.npz"
    np.savez(system, A=sde.A, B=sde.B, f=sde.f, x0=np.linspace(-2.0, 3.0, 30))
    script = (
        "import sys, numpy as np\n"
        "from liangflow import LinearSDE, simulate\n"
        "s = np.load(sys.argv[1])\n"
        "sde = LinearSDE(A=s['A'], B=s['B'], f=s['f'])\n"
        "np.save(sys.argv[2], simulate(sde, s['x0'], 20_000, 0.01, seed=15).values)\n"
    )
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"x{threads}.npy"
        proc = subprocess.run([sys.executable, "-c", script, str(system), str(path)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(np.load(path))
    one, two = runs
    assert one.shape == two.shape == (30, 20_000)
    assert np.abs(two - one).max() <= 1e-12 * np.abs(one).max()


def test_simulate_peak_memory_is_bounded():
    d, n = 30, 100_000
    rng = np.random.default_rng(3)
    sde = LinearSDE(A=-1.5 * np.eye(d) + 0.1 * rng.standard_normal((d, d)), B=np.eye(d))
    simulate(sde, np.zeros(d), 100, 0.01, seed=1, burn_in=0)  # warm lazy imports
    tracemalloc.start()
    try:
        simulate(sde, np.zeros(d), n, 0.01, seed=1, burn_in=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (d * n * 8)
    assert arrays <= 2.5, f"simulate peaked at {arrays:.2f} d x N float64 arrays"


def test_default_burn_in_values(ou2):
    sde, dt = ou2
    assert default_burn_in(sde, dt) == 1000
    slow = LinearSDE(A=-0.1 * np.eye(2), B=np.eye(2))
    assert default_burn_in(slow, 0.01) == 10_000
    unstable = LinearSDE(A=np.zeros((2, 2)), B=np.eye(2))
    assert default_burn_in(unstable, 0.01) == 0


def test_long_run_covariance_near_stationary(ou2):
    # a single 10^4-time-unit trajectory estimates the small off-diagonal
    # with ~3% relative noise, so average a few seeds to test the 5% band
    sde, dt = ou2
    sample = np.zeros((2, 2))
    for seed in range(42, 46):
        tss = simulate(sde, [0.0, 0.0], 1_000_000, dt, seed=seed, burn_in=10_000)
        sample += np.cov(tss.values)
    np.testing.assert_allclose(sample / 4.0, OU2_SIGMA, rtol=0.05)


def test_weak_convergence_in_dt(ou2):
    """Long-run covariance error shrinks linearly with the step size.

    The one-step map x -> (I + dt A) x + noise has an exact fixed-point
    covariance (a discrete Lyapunov solution); its deviation from the
    continuous-time covariance halves when dt halves, and ensemble sample
    covariances track the fixed point of their own dt.
    """
    sde, _ = ou2
    a, q = np.asarray(sde.A), sde.noise_cov
    sigma = stationary_covariance(sde).Sigma

    def step_cov(h):
        return solve_discrete_lyapunov(np.eye(2) + h * a, h * q)

    dev = {h: np.abs(step_cov(h) - sigma).max() for h in (0.02, 0.01)}
    ratio = dev[0.02] / dev[0.01]
    assert 1.7 <= ratio <= 2.3

    mean_cov = np.zeros((2, 2))
    for s in range(30):
        tss = simulate(sde, [0.0, 0.0], 30_000, 0.02, seed=3000 + s, burn_in=2000)
        mean_cov += np.cov(tss.values)
    mean_cov /= 30.0
    target = step_cov(0.02)
    assert np.abs(mean_cov - target).max() <= 0.08 * np.abs(target).max()


# ------------------------------------------------------ stationary solution


def test_stationary_covariance_isotropic():
    sc = stationary_covariance(LinearSDE(A=-np.eye(3), B=np.eye(3)))
    np.testing.assert_allclose(sc.Sigma, 0.5 * np.eye(3), atol=1e-14)
    assert sc.residual <= 1e-12


def test_stationary_covariance_decoupled_rates():
    sde = LinearSDE(A=np.diag([-1.0, -2.0]), B=np.eye(2))
    sc = stationary_covariance(sde)
    np.testing.assert_allclose(sc.Sigma, np.diag([0.5, 0.25]), atol=1e-14)


def test_stationary_covariance_coupled_pair(ou2):
    sde, _ = ou2
    sc = stationary_covariance(sde)
    np.testing.assert_allclose(sc.Sigma, OU2_SIGMA, rtol=1e-12)
    np.testing.assert_allclose(sc.Sigma, sc.Sigma.T, atol=1e-14)


def test_stationary_covariance_requires_stability():
    with pytest.raises(NotHurwitzError):
        stationary_covariance(LinearSDE(A=[[0.0]], B=[[1.0]]))
    with pytest.raises(NotHurwitzError):
        stationary_covariance(LinearSDE(A=[[0.1]], B=[[1.0]]))


def test_stationary_covariance_against_kronecker_solve():
    """Dual-route check: direct solve of the vectorized linear system."""
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = _random_hurwitz(rng, d)
        b = rng.standard_normal((d, d))
        sde = LinearSDE(A=a, B=b)
        sigma = stationary_covariance(sde).Sigma
        q = sde.noise_cov
        eye = np.eye(d)
        lhs = np.kron(a, eye) + np.kron(eye, a)
        vec = np.linalg.solve(lhs, -q.reshape(-1))
        other = vec.reshape(d, d)
        scale = np.abs(other).max()
        assert np.abs(sigma - other).max() <= 1e-11 * max(scale, 1.0)


# ------------------------------------------------------------ exact rates


def test_theoretical_flow_coupled_pair(ou2):
    sde, _ = ou2
    assert abs(theoretical_flow(sde, source=1, target=0) - 1.0 / 9.0) < 1e-12
    assert theoretical_flow(sde, source=0, target=1) == 0.0


def test_theoretical_flow_zero_drift_entry_is_exact_zero():
    rng = np.random.default_rng(15)
    a = _random_hurwitz(rng, 4)
    a[2, 0] = 0.0
    sde = LinearSDE(A=a, B=rng.standard_normal((4, 4)))
    assert theoretical_flow(sde, source=0, target=2) == 0.0


def test_theoretical_flow_index_checks(ou2):
    sde, _ = ou2
    with pytest.raises(SameIndexError):
        theoretical_flow(sde, source=0, target=0)
    with pytest.raises(IndexError):
        theoretical_flow(sde, source=0, target=2)


def test_budget_scalar_balance():
    budget = theoretical_budget(LinearSDE(A=[[-1.0]], B=[[1.0]]), target=0)
    assert budget.self_rate == -1.0
    assert abs(budget.noise_rate - 1.0) < 1e-12
    assert abs(budget.residual) < 1e-12


def test_budget_coupled_pair(ou2):
    sde, _ = ou2
    budget = theoretical_budget(sde, target=0)
    assert abs(budget.flows[1] - 1.0 / 9.0) < 1e-12
    assert budget.flows[0] == 0.0  # the target's own slot
    assert budget.self_rate == -1.0
    assert abs(budget.noise_rate - 8.0 / 9.0) < 1e-12
    assert abs(budget.residual) < 1e-12


def test_budget_index_check(ou2):
    sde, _ = ou2
    with pytest.raises(IndexError):
        theoretical_budget(sde, target=5)
