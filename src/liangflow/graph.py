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
from .core import TimeSeriesSet
from .errors import (
    DegenerateBudgetError,
    MalformedError,
    NumericalError,
    SingularCovarianceError,
    ValidationError,
)

_MODES = ("multivariate", "bivariate")


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
        for name in ("T", "P", "TAU", "SE", "noise_share"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def d(self) -> int:
        return self.T.shape[0]

    def __eq__(self, other):
        if not isinstance(other, FlowMatrix):
            return NotImplemented
        scalars = (
            self.names == other.names
            and self.dt == other.dt
            and self.k == other.k
            and self.alpha == other.alpha
            and self.mode == other.mode
        )
        return scalars and all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
            for f in ("T", "P", "TAU", "SE", "noise_share")
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

    One moment engine fits every target at once (see
    ``estimator._Design``); T, SE, P and the shares then follow by
    broadcasting. ``mode="bivariate"`` computes off-diagonal entries from
    pair moments only (no conditioning on the remaining components); the
    diagonal and the noise share always come from the full fit. A
    numerical failure names the first target whose flows cannot be
    computed; a failure of the whole design names the first target.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if tss.d < 2:
        raise ValidationError("all-pairs analysis needs at least two variables")
    try:
        eng = _est._design_for(tss, k)
    except NumericalError as e:
        raise _into(tss.names[0], e) from e

    d = tss.d
    c_ii = np.diag(eng.C)
    scale = eng.C / c_ii[:, None]  # C[target, source] / C[target, target]; 1 on the diagonal
    t = eng.A.T * scale
    se = np.abs(scale) * np.sqrt(np.maximum(eng.resid_var[:, None] * np.diag(eng.s), 0.0))
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
            err = DegenerateBudgetError(
                f"entropy budget for target {i} is zero; nothing to normalize"
            )
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
    rule. Edges are emitted in (target index, source index) order.
    """
    alpha = fm.alpha if alpha is None else float(alpha)
    d = fm.d
    if min_tau is not None and np.isnan(fm.TAU).all():
        raise ValidationError("min_tau filtering needs a matrix computed with normalize=True")
    threshold = alpha / (d * d) if bonferroni else alpha

    def keep(i, j):
        if not fm.P[i, j] < threshold:
            return False
        return min_tau is None or abs(fm.TAU[i, j]) >= min_tau

    edges = tuple(
        Edge(
            source=fm.names[j],
            target=fm.names[i],
            value=float(fm.T[i, j]),
            tau=float(fm.TAU[i, j]),
            p=float(fm.P[i, j]),
        )
        for i in range(d)
        for j in range(d)
        if i != j and keep(i, j)
    )
    loops = tuple(
        SelfLoop(
            node=fm.names[i],
            value=float(fm.T[i, i]),
            tau=float(fm.TAU[i, i]),
            p=float(fm.P[i, i]),
        )
        for i in range(d)
        if keep(i, i)
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


def _array_out(a: np.ndarray):
    """Nested lists of floats with NaN as None; the floats are those of ``a.tolist()``."""
    return np.where(np.isnan(a), None, a).tolist()


def emit_json(obj) -> str:
    """Serialize a FlowMatrix or CausalGraph to JSON (NaN becomes null).

    Numbers round-trip exactly: parsing the text recovers every float
    bit-for-bit (see :func:`flow_matrix_from_json`). The orientation field
    documents the T[target][source] convention in the output itself.
    """
    if isinstance(obj, FlowMatrix):
        payload = {
            "orientation": "T[target][source]",
            "names": list(obj.names),
            "dt": obj.dt,
            "k": obj.k,
            "alpha": obj.alpha,
            "mode": obj.mode,
            "T": _array_out(obj.T),
            "P": _array_out(obj.P),
            "TAU": _array_out(obj.TAU),
            "SE": _array_out(obj.SE),
            "noise_share": _array_out(obj.noise_share),
        }
    elif isinstance(obj, CausalGraph):
        payload = {
            "orientation": "T[target][source]",
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
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def flow_matrix_from_json(text: str) -> FlowMatrix:
    """Inverse of ``emit_json`` for flow matrices (null becomes NaN)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedError(f"not valid JSON: {e}") from None
    required = ("orientation", "names", "dt", "k", "alpha", "T", "P", "TAU", "SE", "noise_share")
    missing = [key for key in required if key not in raw]
    if missing:
        raise MalformedError(f"flow-matrix JSON is missing keys: {missing}")
    if raw["orientation"] != "T[target][source]":
        raise MalformedError(f"unsupported orientation {raw['orientation']!r}")

    def arr(key):
        return np.array(raw[key], dtype=float)  # null (None) becomes NaN

    return FlowMatrix(
        names=tuple(raw["names"]),
        dt=float(raw["dt"]),
        k=int(raw["k"]),
        alpha=float(raw["alpha"]),
        mode=raw.get("mode", "multivariate"),
        T=arr("T"),
        P=arr("P"),
        TAU=arr("TAU"),
        SE=arr("SE"),
        noise_share=arr("noise_share"),
    )
