"""Data validation, covariance conventions, and cofactor arithmetic."""

import json

import numpy as np
import pytest

from liangflow import (
    BadMatrixSpecError,
    ConstantSeriesError,
    DuplicateNamesError,
    KTooLargeError,
    LinearSDE,
    MalformedError,
    NaNsPresentError,
    NonRectangularError,
    PanelPairs,
    SameIndexError,
    TimeSeriesSet,
    TooShortError,
    ValidationError,
    all_pairs,
    cofactor,
    emit_json,
    fit_linear_model,
    flow_bivariate,
    flow_matrix_from_json,
    flow_multivariate,
    flow_panel,
    forward_difference,
    sample_covariance_matrix,
    self_contribution,
    simulate,
    theoretical_budget,
    theoretical_flow,
    validate_series_set,
)
from liangflow.core import _readonly, check_k


def _random_set(d, n, seed, dt=1.0):
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i}" for i in range(d))
    return TimeSeriesSet(names=names, values=rng.standard_normal((d, n)), dt=dt)


# ---------------------------------------------------------------- validation


def test_validate_passthrough():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((2, 100))
    tss = validate_series_set(raw, ["a", "b"], dt=1.0)
    assert tss.d == 2
    assert tss.n_samples == 100
    assert tss.names == ("a", "b")
    assert tss.dt == 1.0
    np.testing.assert_array_equal(tss.values, raw)
    assert not tss.values.flags.writeable


def test_validate_copies_a_callers_array():
    raw = np.random.default_rng(1).standard_normal((2, 50))
    want = raw.copy()
    tss = validate_series_set(raw, ["a", "b"], dt=1.0)
    raw[:] = 0.0
    assert raw.flags.writeable
    assert tss.values.tobytes() == want.tobytes()


def test_validate_rejects_nan_by_default():
    raw = np.ones((2, 50)) + np.arange(50)
    raw[0, 7] = np.nan
    with pytest.raises(NaNsPresentError):
        validate_series_set(raw, ["a", "b"], dt=1.0)
    with pytest.raises(NaNsPresentError):
        validate_series_set(raw, ["a", "b"], dt=1.0, nan_policy="reject")
    # the non-finite values outrank a bad dt, and the message counts them
    raw[1, 3] = np.inf
    with pytest.raises(NaNsPresentError, match="^2 non-finite values"):
        validate_series_set(raw, ["a", "b"], dt=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_one_non_finite_value_is_found_from_the_row_extremes(bad, row):
    # a NaN reaches its row's max and min, +inf only the max, -inf only the min
    raw = np.vstack([np.arange(8.0), np.arange(8.0) ** 2])
    raw[row, 3] = bad
    with pytest.raises(NaNsPresentError, match="^1 non-finite values present"):
        validate_series_set(raw, ["a", "b"], 1.0)
    tss = validate_series_set(raw, ["a", "b"], 1.0, nan_policy="interpolate")
    assert tss.values[row, 3] == (3.0, 10.0)[row]  # linear between its neighbours
    assert np.isfinite(tss.values).all() and tss.n_samples == 8


def test_validate_bad_policy():
    with pytest.raises(ValueError):
        validate_series_set(np.ones((2, 10)), ["a", "b"], 1.0, nan_policy="drop")


def test_interpolate_fills_interior_gap():
    raw = np.vstack([np.arange(8.0), np.arange(8.0) ** 2])
    raw[0, 3] = np.nan
    tss = validate_series_set(raw, ["a", "b"], 1.0, nan_policy="interpolate")
    assert tss.n_samples == 8
    assert tss.values[0, 3] == 3.0  # linear between 2.0 and 4.0
    np.testing.assert_array_equal(tss.values[1], raw[1])
    with pytest.raises(ValidationError, match="dt must be"):
        validate_series_set(raw, ["a", "b"], 0.0, nan_policy="interpolate")


def test_interpolation_that_overflows_is_rejected():
    raw = np.vstack([np.arange(8.0), np.arange(8.0) ** 2])
    raw[0, 2:5] = -1.7e308, np.nan, 1.7e308  # the line between them overflows to inf
    with pytest.raises(NaNsPresentError, match="non-finite values in series set"):
        validate_series_set(raw, ["a", "b"], 1.0, nan_policy="interpolate")


def test_interpolate_trims_edges_consistently():
    # one leading NaN in the first row, one trailing in the second: both
    # columns must be dropped from every row
    raw = np.vstack([np.arange(10.0), 2.0 * np.arange(10.0)])
    raw[0, 0] = np.nan
    raw[1, 9] = np.nan
    tss = validate_series_set(raw, ["a", "b"], 1.0, nan_policy="interpolate")
    assert tss.n_samples == 8
    np.testing.assert_array_equal(tss.values[0], np.arange(1.0, 9.0))
    np.testing.assert_array_equal(tss.values[1], 2.0 * np.arange(1.0, 9.0))


def test_interpolate_with_no_overlap():
    raw = np.vstack([np.arange(6.0), np.arange(6.0)])
    raw[0, :5] = np.nan  # finite only at the end
    raw[1, 1:] = np.nan  # finite only at the start
    with pytest.raises(NaNsPresentError):
        validate_series_set(raw, ["a", "b"], 1.0, nan_policy="interpolate")


def test_constant_series_rejected():
    raw = np.vstack([np.full(50, 5.0), np.arange(50.0)])
    with pytest.raises(ConstantSeriesError, match="a"):
        validate_series_set(raw, ["a", "b"], 1.0)


def test_too_short():
    with pytest.raises(TooShortError):
        validate_series_set(np.random.default_rng(1).standard_normal((2, 4)), ["a", "b"], 1.0)


def test_ragged_input():
    with pytest.raises(NonRectangularError):
        validate_series_set([[1.0, 2.0, 3.0], [1.0, 2.0]], ["a", "b"], 1.0)


def test_duplicate_names():
    raw = np.random.default_rng(2).standard_normal((2, 30))
    with pytest.raises(DuplicateNamesError):
        validate_series_set(raw, ["a", "a"], 1.0)


@pytest.mark.parametrize("names, position", [(["a", ""], 2), (["a", " "], 2), (["\t", "b"], 1)])
def test_empty_or_blank_names(names, position):
    raw = np.random.default_rng(5).standard_normal((2, 30))
    message = f"variable name {position} of 2 is empty or blank"
    with pytest.raises(ValidationError, match=message):
        validate_series_set(raw, names, 1.0)
    with pytest.raises(ValidationError, match=message):
        TimeSeriesSet(names=names, values=raw, dt=1.0)
    with pytest.raises(ValidationError, match=message):
        PanelPairs(names, raw, raw, 0.5)


def test_name_count_mismatch():
    raw = np.random.default_rng(3).standard_normal((2, 30))
    with pytest.raises(NonRectangularError):
        validate_series_set(raw, ["a", "b", "c"], 1.0)


def test_bad_dt():
    raw = np.random.default_rng(4).standard_normal((2, 30))
    for dt in (0.0, -1.0, np.inf):
        with pytest.raises(ValidationError):
            validate_series_set(raw, ["a", "b"], dt)


def test_index_of():
    tss = _random_set(3, 20, seed=5)
    assert tss.index_of("v2") == 2
    with pytest.raises(KeyError):
        tss.index_of("nope")


# ------------------------------------------------------------- differencing


def test_forward_difference_hand_values():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(forward_difference(x, 1, 1.0), [1.0, 1.0])
    # the two aligned samples of x are [0, 1]; the difference series is
    # constant, so their sample covariance vanishes
    w = x[:2] - x[:2].mean()
    xdot = forward_difference(x, 1, 1.0)
    assert float(w @ (xdot - xdot.mean())) == 0.0


def test_forward_difference_stride_and_dt():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(forward_difference(x, 2, 0.5), [2.0, 2.0])


def test_forward_difference_bad_k():
    x = np.arange(5.0)
    with pytest.raises(ValueError):
        forward_difference(x, 0, 1.0)
    with pytest.raises(ValueError, match="k must be an integer"):
        forward_difference(x, 1.5, 1.0)
    with pytest.raises(KTooLargeError):
        forward_difference(x, 5, 1.0)
    np.testing.assert_array_equal(forward_difference(x, np.int64(2), 1.0), [1.0, 1.0, 1.0])


def test_check_k_bounds():
    check_k(10, 2, 1)
    check_k(10, 2, 6)  # largest admissible: N - d - 2
    with pytest.raises(KTooLargeError):
        check_k(10, 2, 7)
    with pytest.raises(ValueError):
        check_k(10, 2, 0)
    with pytest.raises(ValueError, match="k must be an integer"):
        check_k(10, 2, 1.0)
    check_k(10, 2, np.int32(6))


# -------------------------------------------------------------- covariances


def test_covariance_matches_numpy_on_window():
    tss = _random_set(3, 200, seed=6)
    sc = sample_covariance_matrix(tss, k=1, target=0)
    assert sc.n_eff == 199
    window = tss.values[:, :199]
    np.testing.assert_allclose(sc.C, np.cov(window), rtol=0, atol=1e-14)
    xdot = forward_difference(tss.values[0], 1, tss.dt)
    xc = window - window.mean(axis=1, keepdims=True)
    dc = xdot - xdot.mean()
    np.testing.assert_allclose(sc.cd, xc @ dc / 198.0, rtol=0, atol=1e-14)


def test_covariance_identical_series():
    x = np.random.default_rng(7).standard_normal(100)
    tss = TimeSeriesSet(("a", "b"), np.vstack([x, x]), 1.0)
    sc = sample_covariance_matrix(tss, k=1, target=0)
    assert sc.C[0, 1] == sc.C[0, 0] == sc.C[1, 1]


def test_covariance_shift_invariance():
    tss = _random_set(3, 150, seed=8)
    shifted = TimeSeriesSet(tss.names, tss.values + np.array([[3.0], [-7.0], [100.0]]), 1.0)
    a = sample_covariance_matrix(tss, k=1, target=1)
    b = sample_covariance_matrix(shifted, k=1, target=1)
    np.testing.assert_allclose(b.C, a.C, rtol=1e-12)
    np.testing.assert_allclose(b.cd, a.cd, rtol=1e-10, atol=1e-12)


def test_covariance_k_too_large():
    tss = _random_set(2, 10, seed=9)
    with pytest.raises(KTooLargeError):
        sample_covariance_matrix(tss, k=7, target=0)


def test_divisor_cancellation():
    """Scaling C and cd by a common positive constant leaves the flow value alone."""
    tss = _random_set(4, 300, seed=10)
    sc = sample_covariance_matrix(tss, k=1, target=2)

    def flow_from(c, cd):
        d = c.shape[0]
        det = float(np.linalg.det(c))
        a = np.array(
            [sum(cofactor(c, m, j) * cd[m] for m in range(d)) for j in range(d)]
        ) / det
        return a[0] * c[2, 0] / c[2, 2]

    base = flow_from(sc.C, sc.cd)
    for gamma in (sc.n_eff / (sc.n_eff - 1.0), 0.25, 1e6):
        scaled = flow_from(gamma * sc.C, gamma * sc.cd)
        assert abs(scaled - base) <= 1e-12 * abs(base)


# ----------------------------------------------------------------- cofactor


def test_cofactor_2x2():
    a, b, c = 3.0, 5.0, 11.0
    m = np.array([[a, b], [b, c]])
    assert cofactor(m, 1, 0) == -b
    assert cofactor(m, 1, 1) == a
    assert cofactor(m, 0, 0) == c
    assert cofactor(m, 0, 1) == -b


def test_cofactor_identity_matrix():
    eye = np.eye(4)
    for i in range(4):
        for j in range(4):
            assert cofactor(eye, i, j) == (1.0 if i == j else 0.0)


def test_cofactor_expansion_identity():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 7, 10):
        m = rng.standard_normal((d, d))
        det = float(np.linalg.det(m))
        for i in range(d):
            for k in range(d):
                s = sum(cofactor(m, i, j) * m[k, j] for j in range(d))
                expect = det if k == i else 0.0
                assert abs(s - expect) <= 1e-10 * max(abs(det), 1.0)


def test_cofactor_trivial_and_errors():
    assert cofactor(np.array([[42.0]]), 0, 0) == 1.0
    with pytest.raises(ValueError):
        cofactor(np.ones((2, 3)), 0, 0)
    with pytest.raises(IndexError):
        cofactor(np.eye(3), 3, 0)


# -------------------------------------------------------------------- panel


def test_panel_pairs_validation():
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((2, 20))
    x1 = rng.standard_normal((2, 20))
    pp = PanelPairs(("a", "b"), x0, x1, 0.5)
    assert pp.d == 2 and pp.n_pairs == 20 and pp.dt_gap == 0.5

    with pytest.raises(NonRectangularError):
        PanelPairs(("a", "b"), x0, x1[:, :10], 0.5)
    with pytest.raises(TooShortError):
        PanelPairs(("a", "b"), x0[:, :4], x1[:, :4], 0.5)
    for dt_gap in (0.0, np.inf):
        with pytest.raises(ValidationError):
            PanelPairs(("a", "b"), x0, x1, dt_gap)
    bad = x1.copy()
    bad[0, 0] = np.inf
    with pytest.raises(NaNsPresentError):
        PanelPairs(("a", "b"), x0, bad, 0.5)


# ------------------------------------------------ one rule for each kind of input

_RAW = np.random.default_rng(5).standard_normal((2, 30))
_PAYLOAD = json.loads(emit_json(all_pairs(TimeSeriesSet(("p", "q"), _RAW, 1.0))))
# each caller of the name rule, with the one class it raises for every fault, if it has one
_NAME_CALLERS = {
    "TimeSeriesSet": (lambda names: TimeSeriesSet(names, _RAW, 1.0), None),
    "PanelPairs": (lambda names: PanelPairs(names, _RAW, _RAW, 0.5), None),
    "validate_series_set": (lambda names: validate_series_set(_RAW, names, 1.0), None),
    "LinearSDE": (lambda names: LinearSDE(A=-np.eye(2), B=np.eye(2), names=names),
                  BadMatrixSpecError),
    "flow_matrix_from_json": (
        lambda names: flow_matrix_from_json(json.dumps(dict(_PAYLOAD, names=names))),
        MalformedError),
}


@pytest.mark.parametrize("caller", list(_NAME_CALLERS))
@pytest.mark.parametrize("names, error", [
    (["a"], NonRectangularError),
    (["a", ""], ValidationError),
    (["  ", "b"], ValidationError),
    (["a", "a"], DuplicateNamesError),
], ids=["count", "empty", "blank", "twice"])
def test_every_caller_checks_names_by_one_rule(caller, names, error):
    build, own_error = _NAME_CALLERS[caller]
    with pytest.raises(ValidationError) as exc:
        build(names)
    assert type(exc.value) is (own_error or error)
    build(["a", "b"])


_IN_RANGE = 1  # an index every entry point below accepts, d = 3
_TSS = TimeSeriesSet(("a", "b", "c"), np.random.default_rng(6).standard_normal((3, 50)), 1.0)
_PAIRS = PanelPairs(("a", "b", "c"), _TSS.values[:, :-1], _TSS.values[:, 1:], 1.0)
_SDE = LinearSDE(A=-np.eye(3) + np.diag([0.5, 0.5], -1), B=np.eye(3))
# (source, target) -> result; the entry points that take a target only ignore the source
_INDEX_CALLERS = {
    "sample_covariance_matrix": (lambda s, t: sample_covariance_matrix(_TSS, 1, t), False),
    "theoretical_budget": (lambda s, t: theoretical_budget(_SDE, t), False),
    "fit_linear_model": (lambda s, t: fit_linear_model(_TSS, t), False),
    "self_contribution": (lambda s, t: self_contribution(_TSS, t), False),
    "theoretical_flow": (lambda s, t: theoretical_flow(_SDE, s, t), True),
    "flow_multivariate": (lambda s, t: flow_multivariate(_TSS, s, t), True),
    "flow_panel": (lambda s, t: flow_panel(_PAIRS, s, t), True),
}


@pytest.mark.parametrize("caller", list(_INDEX_CALLERS))
def test_every_entry_point_checks_indices_by_one_rule(caller):
    call, pairwise = _INDEX_CALLERS[caller]
    for bad in (-1, 3):
        with pytest.raises(IndexError, match=f"^target {bad} out of range for d = 3$"):
            call(0 if pairwise else _IN_RANGE, bad)
        if pairwise:
            with pytest.raises(IndexError, match=f"^source {bad} out of range for d = 3$"):
                call(bad, 0)
    if pairwise:
        with pytest.raises(SameIndexError):
            call(_IN_RANGE, _IN_RANGE)
    call(0, _IN_RANGE)


# each entry point that takes a step size, with the name and exception class it reports
_STEP_CALLERS = {
    "TimeSeriesSet": (lambda dt: TimeSeriesSet(("a",), np.arange(5.0), dt), "dt", ValidationError),
    "PanelPairs": (lambda dt: PanelPairs(("a",), np.arange(5.0), np.arange(5.0), dt), "dt_gap",
                   ValidationError),
    "flow_bivariate": (lambda dt: flow_bivariate(np.arange(9.0), np.arange(9.0) ** 2, dt), "dt",
                       ValidationError),
    "simulate": (lambda dt: simulate(_SDE, np.zeros(3), 5, dt, seed=0), "dt", ValueError),
}


@pytest.mark.parametrize("caller", list(_STEP_CALLERS))
def test_every_entry_point_checks_its_step_by_one_rule(caller):
    call, name, error = _STEP_CALLERS[caller]
    for bad, text in ((0.0, "0.0"), (-1, "-1"), (np.nan, "nan"), (np.inf, "inf")):
        with pytest.raises(error, match=f"^{name} must be finite and positive, got {text}$"):
            call(bad)
    call(0.5)


def test_readonly_keeps_the_shape_and_copies_only_what_the_caller_still_holds():
    held = np.arange(3.0)
    for a in (held, [0.0, 1.0, 2.0], np.arange(3), np.float64(2.0), np.array(2.0)):
        out = _readonly(a)
        assert out.shape == np.shape(a) and out.flags.c_contiguous and not out.flags.writeable
    assert _readonly(held) is not held and held.flags.writeable
    assert _readonly(held, owned=True) is held and not held.flags.writeable
