"""Data model and shared numeric primitives.

A :class:`TimeSeriesSet` holds d uniformly sampled, aligned series as a
d x N matrix (row = variable, column = time index) plus the sampling step
``dt``. Everything downstream — covariances, regression fits, flow
estimates — is a pure function of this container, so instances are frozen
and their arrays are made read-only.

Covariance conventions used throughout the package:

* the difference series of variable i is the forward finite difference
  ``(x[n + k] - x[n]) / (k * dt)``,
* covariances pair the first ``N - k`` samples of every variable with the
  ``N - k`` difference samples of the target,
* every covariance uses the same divisor ``n_eff - 1``; the flow formulas
  are homogeneous of degree zero in that constant, so the choice only
  affects reported covariances, never flows.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

from .errors import (
    ConstantSeriesError,
    DuplicateNamesError,
    KTooLargeError,
    NaNsPresentError,
    NonRectangularError,
    TooShortError,
    ValidationError,
)

logger = logging.getLogger(__name__)


def _readonly(a, owned: bool = False) -> np.ndarray:
    """``a`` as a read-only C-ordered float array; a copy unless ``owned`` or converted."""
    out = np.asarray(a, dtype=float, order="C")
    if out is a and not owned:
        out = out.copy()
    out.setflags(write=False)
    return out


def _check_names(names, d: int, error=None) -> tuple[str, ...]:
    """``names`` as a tuple of str: ``d`` of them, none empty or blank, none twice.
    A fault raises ``error``, or by default the ``ValidationError`` subclass that names it."""
    names = tuple(str(n) for n in names)
    if len(names) != d:
        raise (error or NonRectangularError)(f"{len(names)} names for {d} series")
    for i, name in enumerate(names):
        if not name.strip():
            raise (error or ValidationError)(
                f"variable name {i + 1} of {d} is empty or blank: {name!r}")
    if len(set(names)) != d:
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise (error or DuplicateNamesError)(f"duplicate variable names: {dupes}")
    return names


_MODES = ("multivariate", "bivariate")
_NAN_POLICIES = ("reject", "interpolate")
# Each scalar argument's rule: the type its text converts to, a predicate, a phrase. Every
# check reads it: ``_check`` here, ``graph.flow_matrix_from_json`` and the CLI's ``type=``
# converters. Each number rule is a comparison, so NaN fails it.
_RULES = {
    "step": (float, lambda v: 0 < v < math.inf, "a finite number > 0"),
    "count": (int, lambda v: v >= 1, "an integer >= 1"),
    "non_negative": (int, lambda v: v >= 0, "an integer >= 0"),
    "level": (float, lambda v: 0 < v < 1, "a number in (0, 1)"),
    "threshold": (float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "cut": (float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    "mode": (str, lambda v: v in _MODES, f"one of {_MODES}"),
    "nan_policy": (str, lambda v: v in _NAN_POLICIES, f"one of {_NAN_POLICIES}"),
}
_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}  # numpy scalars are numbers too


def _check(rule: str, value, name: str, error=ValidationError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is of ``_RULES[rule]``'s kind, not a
    bool, and passes its predicate once converted to that kind (an int beyond the float
    range, which ``float`` cannot convert, fails a number rule)."""
    kind, ok, phrase = _RULES[rule]
    try:
        valid = not isinstance(value, bool) and isinstance(value, _KINDS[kind]) and ok(kind(value))
    except OverflowError:
        valid = False
    if not valid:
        raise error(f"{name} must be {phrase}, got {value!r}")


def _check_index(d: int, **indices) -> None:
    """Raise ``IndexError`` at the first of the named ``indices`` outside ``[0, d)``."""
    for name, i in indices.items():
        if not 0 <= i < d:
            raise IndexError(f"{name} {i} out of range for d = {d}")


@dataclass(frozen=True)
class TimeSeriesSet:
    """d aligned series sampled every ``dt`` time units.

    ``values[i, n]`` is variable i at time index n. All entries must be
    finite; use :func:`validate_series_set` to ingest raw data with a NaN
    policy and the minimum-length check applied.
    """

    names: tuple[str, ...]
    values: np.ndarray
    dt: float
    _: KW_ONLY
    _finite: InitVar[bool] = False  # the caller has already found every value finite
    _owned: InitVar[bool] = False  # the caller hands ``values`` over, so it is not copied

    def __post_init__(self, _finite, _owned):
        values = _readonly(np.atleast_2d(self.values), _owned)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise NonRectangularError(f"expected a 2-D matrix, got ndim={values.ndim}")
        d, n = values.shape
        if d < 1 or n < 1:
            raise TooShortError(f"empty series set of shape {values.shape}")
        object.__setattr__(self, "names", _check_names(self.names, d))
        _check("step", self.dt, "dt")
        object.__setattr__(self, "dt", float(self.dt))
        if not (_finite or np.isfinite(values).all()):
            raise NaNsPresentError("non-finite values in series set")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable named {name!r}") from None


@dataclass(frozen=True)
class SampleCovariances:
    """Covariances entering the flow estimator for one target variable.

    ``C[i, j]`` is the sample covariance of variables i and j over the
    aligned window, ``cd[j]`` the covariance of variable j with the
    difference series of ``target``. Both use divisor ``n_eff - 1``.
    """

    C: np.ndarray
    cd: np.ndarray
    n_eff: int
    target: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "C", _readonly(self.C))
        object.__setattr__(self, "cd", _readonly(self.cd))


@dataclass(frozen=True)
class PanelPairs:
    """i.i.d. replicate (state, next-state) pairs separated by ``dt_gap``.

    Column m of ``x0`` and ``x1`` is one replicate; the panel estimator
    treats columns as exchangeable, so their order carries no meaning.
    """

    names: tuple[str, ...]
    x0: np.ndarray
    x1: np.ndarray
    dt_gap: float

    def __post_init__(self):
        x0 = _readonly(np.atleast_2d(self.x0))
        x1 = _readonly(np.atleast_2d(self.x1))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        if x0.shape != x1.shape:
            raise NonRectangularError(f"x0 {x0.shape} and x1 {x1.shape} differ in shape")
        d, m = x0.shape
        object.__setattr__(self, "names", _check_names(self.names, d))
        if m < d + 3:
            raise TooShortError(f"{m} panel pairs < d + 3 = {d + 3}")
        _check("step", self.dt_gap, "dt_gap")
        object.__setattr__(self, "dt_gap", float(self.dt_gap))
        if not (np.isfinite(x0).all() and np.isfinite(x1).all()):
            raise NaNsPresentError("non-finite values in panel data")

    @property
    def d(self) -> int:
        return self.x0.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.x0.shape[1]


def validate_series_set(
    raw, names, dt: float, nan_policy: str = "reject", *, _owned: bool = False
) -> TimeSeriesSet:
    """Validate raw data and build a :class:`TimeSeriesSet`.

    Parameters
    ----------
    raw : array-like, shape (d, N)
        One row per variable. Ragged input raises NonRectangularError.
    names : sequence of str
        Unique identifier per variable.
    dt : float
        Time units per sample step.
    nan_policy : {"reject", "interpolate"}
        Under "interpolate", interior non-finite runs are linearly
        interpolated per variable and non-finite edges are trimmed
        consistently across all variables.
    """
    _check("nan_policy", nan_policy, "nan_policy", ValueError)
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise NonRectangularError(f"input is not a rectangular numeric matrix: {e}") from None
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2:
        raise NonRectangularError(f"expected a 2-D matrix, got ndim={values.ndim}")
    names = _check_names(names, values.shape[0])  # before the NaN policy, whose errors name them

    # NaN and +-inf reach each row's max or min, so finite data need no other pass
    extremes = (values.max(axis=1), values.min(axis=1)) if values.size else None
    all_finite = extremes is None or bool(np.isfinite(extremes).all())
    if not all_finite:
        finite = np.isfinite(values)
        if nan_policy == "reject":
            bad = int((~finite).sum())
            raise NaNsPresentError(f"{bad} non-finite values present (nan_policy='reject')")
        values = _interpolate_gaps(values, finite, names)

    # interpolation can overflow to inf, so only untouched data skip the second
    # scan; it also returns a fresh array, which needs no copy
    tss = TimeSeriesSet(names=names, values=values, dt=dt, _finite=all_finite,
                        _owned=_owned or not all_finite)
    if tss.n_samples < tss.d + 3:
        raise TooShortError(f"N = {tss.n_samples} samples < d + 3 = {tss.d + 3}")
    if not all_finite:  # interpolated: other values
        extremes = (tss.values.max(axis=1), tss.values.min(axis=1))
    spans = extremes[0] - extremes[1]
    flat = np.flatnonzero(spans == 0.0)
    if flat.size:
        raise ConstantSeriesError(
            f"constant series (zero variance): {[tss.names[i] for i in flat]}"
        )
    return tss


def _interpolate_gaps(values: np.ndarray, finite: np.ndarray, names):
    """Fill interior gaps linearly, trim non-finite edges across all rows."""
    d, n = values.shape
    starts, stops = [], []
    for i in range(d):
        idx = np.flatnonzero(finite[i])
        if idx.size == 0:
            raise NaNsPresentError(f"series {names[i]!r} has no finite values to interpolate from")
        starts.append(idx[0])
        stops.append(idx[-1] + 1)
    lo, hi = max(starts), min(stops)
    if hi <= lo:
        raise NaNsPresentError("no time window where every series has finite support")
    trimmed = lo + (n - hi)
    values = values[:, lo:hi].copy()
    finite = finite[:, lo:hi]
    filled = 0
    t = np.arange(values.shape[1])
    for i in range(d):
        gaps = ~finite[i]
        if gaps.any():
            values[i, gaps] = np.interp(t[gaps], t[finite[i]], values[i, finite[i]])
            filled += int(gaps.sum())
    if trimmed or filled:
        logger.info(
            "nan_policy='interpolate': trimmed %d edge samples, interpolated %d interior values",
            trimmed,
            filled,
        )
    return values


def forward_difference(x: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Forward difference quotient ``(x[n + k] - x[n]) / (k * dt)`` along the last axis."""
    x = np.asarray(x, dtype=float)
    _check("count", k, "k", ValueError)
    if k >= x.shape[-1]:
        raise KTooLargeError(f"k = {k} leaves no aligned samples (N = {x.shape[-1]})")
    out = x[..., k:] - x[..., :-k]
    if k * dt != 1.0:  # dividing by 1.0 is exact, so skipping it changes no bits
        out /= k * dt
    return out


def check_k(n: int, d: int, k: int) -> None:
    """Require an integer 1 <= k <= N - d - 2 so the fit keeps residual degrees of freedom."""
    _check("count", k, "k", ValueError)
    if k > n - d - 2:
        raise KTooLargeError(f"k = {k} exceeds N - d - 2 = {n - d - 2} (N = {n}, d = {d})")


def sample_covariance_matrix(tss: TimeSeriesSet, k: int, target: int) -> SampleCovariances:
    """Sample covariances C and cd for ``target``'s difference series.

    C is taken over the first ``N - k`` samples of every variable; cd pairs
    those samples with the target's forward difference series. Means are
    removed and both use the divisor ``n_eff - 1``.
    """
    d, n = tss.values.shape
    check_k(n, d, k)
    _check_index(d, target=target)
    n_eff = n - k
    window = tss.values[:, :n_eff]
    xc = window - window.mean(axis=1, keepdims=True)
    xdot = forward_difference(tss.values[target], k, tss.dt)
    xdot_c = xdot - xdot.mean()
    c = (xc @ xc.T) / (n_eff - 1)
    cd = (xc @ xdot_c) / (n_eff - 1)
    return SampleCovariances(C=c, cd=cd, n_eff=n_eff, target=target, k=k)


def cofactor(C: np.ndarray, i: int, j: int) -> float:
    """Cofactor ``(-1)**(i + j)`` times the (i, j) minor of a square matrix.

    The sign convention makes ``sum_j cofactor(C, i, j) * C[k, j]`` equal
    ``det(C)`` when k == i and 0 otherwise. Minors of order > 3 go through
    an LU-based determinant rather than recursive expansion.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    d = C.shape[0]
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError(f"({i}, {j}) out of range for a {d} x {d} matrix")
    if d == 1:
        return 1.0
    rows = [r for r in range(d) if r != i]
    cols = [c for c in range(d) if c != j]
    minor = C[np.ix_(rows, cols)]
    sign = -1.0 if (i + j) % 2 else 1.0
    if d == 2:
        det = minor[0, 0]
    elif d == 3:
        det = minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
    else:
        det = float(np.linalg.det(minor))
    return sign * float(det)
