"""Invariants of all_pairs as properties over generated datasets.

Datasets are small sparse VAR(1) systems drawn from a seed, so the rates
are not all null. Tolerances are fixed beforehand from double precision:
a reordered or rescaled regression changes the rounding of every
quantity, never more than 1e-9 of a standard error here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liangflow import TimeSeriesSet, all_pairs

TOL = 1e-9

examples = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _var_set(seed, d, n, dt=1.0):
    rng = np.random.default_rng(seed)
    drift = 0.5 * np.eye(d) + 0.3 * rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.3)
    drift *= 0.9 / max(1.0, np.abs(np.linalg.eigvals(drift)).max())
    x = np.empty((d, n))
    x[:, 0] = rng.standard_normal(d)
    noise = rng.standard_normal((d, n))
    for t in range(1, n):
        x[:, t] = drift @ x[:, t - 1] + noise[:, t]
    return TimeSeriesSet(tuple(f"v{i}" for i in range(d)), x, dt)


@st.composite
def datasets(draw):
    d = draw(st.integers(2, 6))
    n = draw(st.integers(3 * d + 20, 300))
    return _var_set(draw(st.integers(0, 2**32 - 1)), d, n), draw(st.integers(1, 3))


@examples
@given(datasets(), st.data(), st.sampled_from(("multivariate", "bivariate")))
def test_permuting_variables_permutes_every_matrix(case, data, mode):
    tss, k = case
    perm = np.array(data.draw(st.permutations(range(tss.d))))
    base = all_pairs(tss, k=k, mode=mode)
    moved = all_pairs(
        TimeSeriesSet(tuple(tss.names[p] for p in perm), tss.values[perm], tss.dt), k=k, mode=mode
    )
    assert moved.names == tuple(tss.names[p] for p in perm)
    se = base.SE[np.ix_(perm, perm)]
    assert np.all(np.abs(moved.T - base.T[np.ix_(perm, perm)]) <= TOL * se)
    assert np.all(np.abs(moved.SE - se) <= TOL * se)
    assert np.all(np.abs(moved.P - base.P[np.ix_(perm, perm)]) <= TOL)
    assert np.all(np.abs(moved.TAU - base.TAU[np.ix_(perm, perm)]) <= TOL)
    assert np.all(np.abs(moved.noise_share - base.noise_share[perm]) <= TOL)


@examples
@given(datasets(), st.floats(1e-3, 1e3), st.sampled_from(("multivariate", "bivariate")))
def test_rates_scale_as_one_over_dt(case, dt, mode):
    tss, k = case
    base = all_pairs(tss, k=k, mode=mode)
    scaled = all_pairs(TimeSeriesSet(tss.names, tss.values, dt), k=k, mode=mode)
    # T and SE are rates (1 / time); P, TAU and noise_share are unitless
    assert np.all(np.abs(scaled.T * dt - base.T) <= TOL * base.SE)
    assert np.all(np.abs(scaled.SE * dt - base.SE) <= TOL * base.SE)
    assert np.all(np.abs(scaled.P - base.P) <= TOL)
    assert np.all(np.abs(scaled.TAU - base.TAU) <= TOL)
    assert np.all(np.abs(scaled.noise_share - base.noise_share) <= TOL)
