"""Shared fixtures and the acceptance-criteria summary printed after the run."""

import statistics
import time

import numpy as np
import pytest

from liangflow import TimeSeriesSet, all_pairs, flow_multivariate, simulate
from liangflow.cli import load_preset

# Filled by tests/test_acceptance.py: criterion number -> (label, ok, detail).
ACCEPTANCE_RESULTS = {}


def record_criterion(num, label, ok, detail):
    ACCEPTANCE_RESULTS[num] = (str(label), bool(ok), str(detail))


def all_pairs_seconds(d, n, reps):
    """Median wall time of ``all_pairs`` over ``reps`` calls on seeded d x n white
    noise, after one untimed warm-up call."""
    rng = np.random.default_rng(0)
    tss = TimeSeriesSet(names=tuple(f"x{i + 1}" for i in range(d)),
                        values=rng.standard_normal((d, n)), dt=1.0)
    all_pairs(tss)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        all_pairs(tss)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@pytest.fixture(scope="session")
def ou2():
    """(LinearSDE, dt) for the bundled coupled two-variable system."""
    return load_preset("ou2")


@pytest.fixture(scope="session")
def chain5():
    """(LinearSDE, dt) for the bundled five-variable driving chain."""
    return load_preset("chain5")


@pytest.fixture(scope="session")
def ou2_null_trials(ou2):
    """1000 independent estimates of a direction that is exactly zero.

    In the bundled two-variable system the second component drives the
    first but receives nothing back, so the flow from the first into the
    second is identically zero in the generating model. Each trial
    simulates 2500 samples (dt = 0.05, 400 burn-in steps) and estimates
    that null direction. Returns (values, std_errs, p_values), each of
    length 1000. Shared by the false-positive-rate, p-value-uniformity,
    and confidence-interval-coverage tests.
    """
    sde, _ = ou2
    values = np.empty(1000)
    std_errs = np.empty(1000)
    p_values = np.empty(1000)
    for s in range(1000):
        tss = simulate(sde, [0.0, 0.0], 2500, 0.05, seed=1000 + s, burn_in=400)
        est = flow_multivariate(tss, source=0, target=1, k=1)
        values[s] = est.value
        std_errs[s] = est.std_err
        p_values[s] = est.p_value
    return values, std_errs, p_values


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, ok, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {num:02d}] {status} — {label}: {detail}")
