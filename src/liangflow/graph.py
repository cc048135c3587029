"""All-pairs causal analysis, significance filtering, and serialization.

``all_pairs`` evaluates every directed rate in one pass — the matrix
orientation is T[target][source] ("flow into row"), stamped into every
serialized output — and ``build_graph`` keeps the relations that survive
the significance test. DOT and JSON emitters are byte-deterministic so
outputs can be diffed and cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import estimator as _est
from . import floattext
from .core import TimeSeriesSet, _check, _check_names, _readonly
from .errors import (
    DegenerateBudgetError,
    MalformedError,
    NumericalError,
    SingularCovarianceError,
    ValidationError,
)

_ORIENTATION = "T[target][source]"  # stamped into every JSON output: row = receiving variable
_ARRAYS = ("T", "P", "TAU", "SE", "noise_share")  # FlowMatrix fields, in JSON key order
# the FlowMatrix scalars, each with the core._RULES entry its value meets as all_pairs writes it
_SCALARS = {"dt": "step", "k": "count", "alpha": "level", "mode": "mode"}


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """All directed rates for one dataset, T[target][source] orientation.

    Diagonals hold the self rates. P/SE are the matching p-values and
    standard errors; TAU and noise_share hold the normalized shares (all
    NaN when normalization was off). Equality is exact and field-wise,
    treating NaNs in the same slot as equal.
    """

    names: tuple
    dt: float
    k: int
    alpha: float
    mode: str
    T: np.ndarray
    P: np.ndarray
    TAU: np.ndarray
    SE: np.ndarray
    noise_share: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        for name in _ARRAYS:
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def d(self) -> int:
        return self.T.shape[0]

    def __eq__(self, other):
        if not isinstance(other, FlowMatrix):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in ("names", *_SCALARS)) and all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True) for f in _ARRAYS
        )


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    value: float
    tau: float
    p: float


@dataclass(frozen=True)
class SelfLoop:
    node: str
    value: float
    tau: float
    p: float


@dataclass(frozen=True)
class CausalGraph:
    """Significance-filtered directed graph; edge order is (target, source) index order."""

    nodes: tuple
    edges: tuple
    self_loops: tuple
    alpha: float
    min_tau: Optional[float] = None


def _into(name: str, err: NumericalError) -> NumericalError:
    return type(err)(f"while computing flows into {name!r}: {err}")


def all_pairs(
    tss: TimeSeriesSet,
    k: int = 1,
    alpha: float = 0.05,
    normalize: bool = True,
    mode: str = "multivariate",
) -> FlowMatrix:
    """Every directed rate (plus self rates on the diagonal) in one pass.

    One moment engine fits every target at once and holds T and SE (see
    ``estimator._Design``); P and the shares then follow by
    broadcasting. ``mode="bivariate"`` computes off-diagonal entries from
    pair moments only (no conditioning on the remaining components); the
    diagonal and the noise share always come from the full fit. A
    numerical failure names the first target whose flows cannot be
    computed; a failure of the whole design names the first target.
    """
    _check("mode", mode, "mode", ValueError)
    _check("level", alpha, "alpha")
    if tss.d < 2:
        raise ValidationError("all-pairs analysis needs at least two variables")
    try:
        eng = _est._design_for(tss, k)
    except NumericalError as e:
        raise _into(tss.names[0], e) from e

    d = tss.d
    c_ii = np.diag(eng.C)
    t, se = eng.T, eng.SE
    pair_bad = np.zeros(d, dtype=bool)
    if mode == "bivariate":
        cd_own = np.diag(eng.Cd)
        value, std_err, _, ok = _est._bivariate_from_moments(
            c_ii[:, None], c_ii[None, :], eng.C, cd_own[:, None], eng.Cd.T, eng.cdd[:, None],
            eng.n_eff,
        )
        off = ~np.eye(d, dtype=bool)
        pair_bad = (off & ~ok).any(axis=1)
        t = np.where(off, value, t)
        se = np.where(off, std_err, se)

    tau = np.full((d, d), np.nan)
    noise_share = np.full(d, np.nan)
    budget_bad = np.zeros(d, dtype=bool)
    if normalize:
        noise = eng.resid_var * eng.dt * eng.k / (2.0 * c_ii)
        tau, noise_share, z = _est.budget_shares(t, noise)
        budget_bad = ~(z > _est._TINY)

    failing = np.flatnonzero(pair_bad | budget_bad)
    if failing.size:
        i = int(failing[0])
        if pair_bad[i]:
            err = SingularCovarianceError(_est._PAIR_SINGULAR)
        else:
            err = DegenerateBudgetError(_est._ZERO_BUDGET.format(i))
        raise _into(tss.names[i], err)

    p, _ = _est._p_values(t, se)
    return FlowMatrix(
        names=tss.names,
        dt=tss.dt,
        k=int(k),
        alpha=float(alpha),
        mode=mode,
        T=t,
        P=p,
        TAU=tau,
        SE=se,
        noise_share=noise_share,
    )


def build_graph(
    fm: FlowMatrix,
    alpha: Optional[float] = None,
    min_tau: Optional[float] = None,
    bonferroni: bool = False,
) -> CausalGraph:
    """Keep relations with p < alpha (strict), optionally also |tau| >= min_tau.

    ``alpha`` defaults to the level recorded in the matrix. With
    ``bonferroni=True`` the threshold becomes alpha / d^2 (d^2 tests:
    d(d-1) pairs plus d self rates). Self loops are filtered by the same
    rule. Edges are emitted in (target index, source index) order. An
    ``alpha`` that is not a number in [0, 1] or a ``min_tau`` that is not a
    finite number >= 0 raises ``ValidationError``.
    """
    alpha = fm.alpha if alpha is None else alpha
    _check("threshold", alpha, "alpha")
    alpha = float(alpha)
    if min_tau is not None:
        _check("cut", min_tau, "min_tau")
        min_tau = float(min_tau)  # as alpha: a numpy scalar or an int is written as a float
    d = fm.d
    if min_tau is not None and np.isnan(fm.TAU).all():
        raise ValidationError("min_tau filtering needs a matrix computed with normalize=True")
    threshold = alpha / (d * d) if bonferroni else alpha
    keep = fm.P < threshold  # NaN p-values and NaN taus compare False: dropped
    if min_tau is not None:
        keep &= np.abs(fm.TAU) >= min_tau
    eye = np.eye(d, dtype=bool)

    def kept(mask):  # ((i, j), T, tau, p) of each slot in mask, row-major
        return zip(np.argwhere(mask).tolist(), *(a[mask].tolist() for a in (fm.T, fm.TAU, fm.P)))

    edges = tuple(
        Edge(source=fm.names[j], target=fm.names[i], value=value, tau=tau, p=p)
        for (i, j), value, tau, p in kept(keep & ~eye)
    )
    loops = tuple(
        SelfLoop(node=fm.names[i], value=value, tau=tau, p=p)
        for (i, _), value, tau, p in kept(keep & eye)
    )
    return CausalGraph(
        nodes=fm.names, edges=edges, self_loops=loops, alpha=alpha, min_tau=min_tau
    )


def _dot_name(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_label(value, tau, p) -> str:
    return f'[label="T={value:.4g} tau={tau:.4g} p={p:.4g}"]'


def emit_dot(g: CausalGraph) -> str:
    """Graphviz DOT text; identical graphs serialize to identical bytes."""
    lines = ["digraph G {"]
    for n in g.nodes:
        lines.append(f"  {_dot_name(n)};")
    for e in g.edges:
        lines.append(
            f"  {_dot_name(e.source)} -> {_dot_name(e.target)} {_dot_label(e.value, e.tau, e.p)};"
        )
    for s in g.self_loops:
        lines.append(
            f"  {_dot_name(s.node)} -> {_dot_name(s.node)} {_dot_label(s.value, s.tau, s.p)};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _null_nan(x: float):
    x = float(x)
    return None if np.isnan(x) else x


_C_JSON = json.JSONEncoder(allow_nan=False)  # indent None selects json's C encoder


def _indented(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` at nesting ``level``, NaN as null; a non-empty
    float array is laid out by ``floattext.join`` in one call."""
    if isinstance(value, np.ndarray):
        if value.size:
            return _float_array(value, level)
        value = value.tolist()
    if not isinstance(value, list):
        return _C_JSON.encode(value)
    if not value:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    body = ("," + pad).join(_indented(v, level + 1) for v in value)
    return "[" + pad + body + "\n" + "  " * level + "]"


def _float_array(a: np.ndarray, level: int) -> str:
    """``_indented`` of a non-empty 1-D or 2-D float array: its rows' values at
    the innermost level, NaN as null; infinities raise as in json."""
    if np.isinf(a).any():
        raise ValueError("Out of range float values are not JSON compliant")
    row_level = level + a.ndim - 1
    pad = "\n" + "  " * (row_level + 1)
    close = "\n" + "  " * row_level + "]"
    if a.ndim == 1:
        return "[" + pad + floattext.join(a[None], "," + pad, close, nan="null")
    outer = "\n" + "  " * (level + 1)
    following = "," + outer + "[" + pad  # after a row's close, the next row's opening
    text = floattext.join(a, "," + pad, close + following, nan="null")
    return "[" + outer + "[" + pad + text[:-len(following)] + "\n" + "  " * level + "]"


def emit_json(obj) -> str:
    """Serialize a FlowMatrix or CausalGraph to JSON (NaN becomes null).

    Numbers round-trip exactly: parsing the text recovers every float
    bit-for-bit (see :func:`flow_matrix_from_json`). The orientation field
    documents the T[target][source] convention in the output itself.
    """
    if isinstance(obj, FlowMatrix):
        payload = {
            "orientation": _ORIENTATION,
            "names": list(obj.names),
            "dt": obj.dt,
            "k": obj.k,
            "alpha": obj.alpha,
            "mode": obj.mode,
            **{f: getattr(obj, f) for f in _ARRAYS},
        }
        fields = (f"  {_C_JSON.encode(key)}: {_indented(v, 1)}" for key, v in payload.items())
        return "{\n" + ",\n".join(fields) + "\n}\n"
    if isinstance(obj, CausalGraph):
        return _oriented_json({
            "nodes": list(obj.nodes),
            "alpha": obj.alpha,
            "min_tau": obj.min_tau,
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "T": e.value,
                    "tau": _null_nan(e.tau),
                    "p": e.p,
                }
                for e in obj.edges
            ],
            "self_loops": [
                {"node": s.node, "value": s.value, "tau": _null_nan(s.tau), "p": s.p}
                for s in obj.self_loops
            ],
        })
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _oriented_json(payload: dict) -> str:
    """``payload`` as indented JSON, after an ``orientation`` field stamped first."""
    return json.dumps({"orientation": _ORIENTATION, **payload}, indent=2, allow_nan=False) + "\n"


def flow_matrix_from_json(text: str) -> FlowMatrix:
    """Inverse of ``emit_json`` for flow matrices (null becomes NaN). Text that is
    not such a payload raises ``MalformedError``, naming the field at fault."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedError(f"not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise MalformedError(f"flow-matrix JSON is a {type(raw).__name__}, not an object")
    required = ("orientation", "names", "dt", "k", "alpha") + _ARRAYS
    missing = [key for key in required if key not in raw]
    if missing:
        raise MalformedError(f"flow-matrix JSON is missing keys: {missing}")
    if raw["orientation"] != _ORIENTATION:
        raise MalformedError(f"unsupported orientation {raw['orientation']!r}")
    names = raw["names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise MalformedError("flow-matrix JSON field 'names' is not a list of strings")
    try:
        _check_names(names, len(names))
    except ValidationError as e:
        raise MalformedError(f"flow-matrix JSON field 'names': {e}") from None
    raw.setdefault("mode", "multivariate")  # as all_pairs' default
    fields = {}
    for key, rule in _SCALARS.items():
        _check(rule, raw[key], f"flow-matrix JSON field {key!r}", MalformedError)
        fields[key] = float(raw[key]) if key == "dt" else raw[key]
    for key in _ARRAYS:
        try:  # d x d, or d for noise_share, with d from the names
            shape = (len(names),) * (1 if key == "noise_share" else 2)
            value = np.array(raw[key], dtype=float)  # null (None) becomes NaN
            value = value if value.size else value.reshape(shape)  # emit_json writes []
            if value.shape != shape:
                raise ValueError(f"shape {value.shape}, not {shape} as 'names' gives")
        except (TypeError, ValueError) as e:
            raise MalformedError(f"flow-matrix JSON field {key!r}: {e}") from None
        fields[key] = value
    return FlowMatrix(names=tuple(names), **fields)
