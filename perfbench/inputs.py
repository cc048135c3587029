"""Seeded workload inputs and independent reference results.

Only numpy and scipy are used here; nothing imports liangflow, so every
reference is computed by arithmetic of the benchmark's own:

* multivariate rates: ``numpy.linalg.lstsq`` on ``X = [1, W]`` with every
  target's difference series as a right-hand side, standard errors from
  ``diag(inv(X'X))``, the noise term from the residual sum of squares;
* p-values, normalized shares (TAU) and noise shares from those, by the
  formulas of the model (``reference_outputs``);
* simulation: the stationary covariance from
  ``scipy.linalg.solve_continuous_lyapunov``.

Every reference value is stored with the tolerance it is checked at.
Inputs and references are cached per (scale, workload, seed) under
``.bench_cache/`` in the checkout, so generating them is never timed.
The cache directory is named after a hash of this file, so a changed
generator never reuses old inputs. Only the newest seed of each workload
is kept.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
from scipy import linalg, signal, stats

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_cache"
VERSION = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]

WORKLOADS = ("wide", "ingest", "synth")

# d and N per workload; "tiny" is for the smoke test only.
SIZES = {
    "full": {
        "wide": (100, 10_000),
        "ingest": (30, 100_000),
        "synth": (30, 100_000),
    },
    "tiny": {
        "wide": (8, 2_000),
        "ingest": (5, 3_000),
        "synth": (5, 5_000),
    },
}

# Estimation settings of the two workloads that run all_pairs.
PIPELINES = {
    "wide": {"k": 1, "mode": "multivariate", "alpha": 0.01, "dt": 1.0},
    "ingest": {"k": 1, "mode": "multivariate", "alpha": 0.05, "dt": 1.0},
}
SYNTH_DT = 0.01

# How far an emitted value may be from the reference: T by this many reference
# standard errors, SE and the noise term by these relative amounts. P, TAU and
# noise_share get the widest deviation that these allow.
T_TOL_SE = 1e-3
SE_RTOL = 1e-6
NOISE_RTOL = 1e-6

# Probe systems for the false "collinear" rejection: (kind, d), N = 1e4.
PROBE_SYSTEMS = (("chain", 50), ("chain", 100), ("chain", 300),
                 ("var", 50), ("var", 100), ("var", 300))
PROBE_N = 10_000


def planted_var(rng, d, n, parents=2, self_coef=0.5, burn=500):
    """VAR(1) x[t] = 0.5 x[t-1] + sum_p w x_p[t-1] + e[t] on a random DAG.

    Node i draws ``min(parents, i)`` parents among nodes < i with weights
    of random sign and magnitude in [0.15, 0.3]. Returns the d x n series
    and the planted (target, source) edges.
    """
    x = np.empty((d, n + burn))
    edges = []
    for i in range(d):
        u = rng.standard_normal(n + burn)
        for p in rng.choice(i, size=min(parents, i), replace=False):
            u += rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 0.3) * x[p]
            edges.append((i, int(p)))
        x[i] = signal.lfilter([0.0, 1.0], [1.0, -self_coef], u)
    return x[:, burn:], np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def euler_chain(rng, d, n, coupling=0.5, dt=0.01, burn=3000):
    """Euler steps of dx_i = (-x_i + coupling x_{i-1}) dt + dW_i (a driving chain)."""
    x = np.empty((d, n + burn))
    for i in range(d):
        u = np.sqrt(dt) * rng.standard_normal(n + burn)
        if i:
            u += coupling * dt * x[i - 1]
        x[i] = signal.lfilter([0.0, 1.0], [1.0, -(1.0 - dt)], u)
    return x[:, burn:]


def probe_system(seed, kind, d, n=PROBE_N):
    rng = np.random.default_rng([seed, d, 0 if kind == "chain" else 1])
    if kind == "chain":
        return euler_chain(rng, d, n)
    return planted_var(rng, d, n)[0]


def synth_drift(rng, d, parents=2):
    """Stable lower-triangular drift: diagonal -(1 + U[0, 0.5]), sparse couplings."""
    a = -np.diag(1.0 + 0.5 * rng.random(d))
    for i in range(1, d):
        for p in rng.choice(i, size=min(parents, i), replace=False):
            a[i, p] = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6)
    return a


def _differences(values, k, dt):
    n_eff = values.shape[1] - k
    return values[:, :n_eff], (values[:, k:] - values[:, :n_eff]) / (k * dt)


def multivariate_reference(values, k, dt):
    """T[target][source] and SE of the regression route, from lstsq and inv(X'X).

    Also returns each target's noise term resid_var * k * dt / (2 C_ii),
    the budget term that normalization divides by.
    """
    d, n = values.shape
    n_eff = n - k
    w, ydot = _differences(values, k, dt)
    x = np.empty((n_eff, d + 1))
    x[:, 0] = 1.0
    x[:, 1:] = w.T
    coef, rss, rank, _ = np.linalg.lstsq(x, ydot.T, rcond=None)
    del ydot
    if rank != d + 1:
        raise ValueError(f"reference design is rank deficient ({rank} < {d + 1})")
    inv_diag = np.diag(np.linalg.inv(x.T @ x))[1:]
    del x
    resid_var = rss / (n_eff - d - 1)
    wc = w - w.mean(axis=1, keepdims=True)
    c = wc @ wc.T
    scale = c / np.diag(c)[:, None]  # scale[i, j] = C_ij / C_ii
    t = coef[1:].T * scale
    se = np.abs(scale) * np.sqrt(resid_var[:, None] * inv_diag[None, :])
    noise = resid_var * k * dt / (2.0 * np.diag(c) / (n_eff - 1))
    return t, se, noise


def reference_outputs(t, se, noise):
    """Every flow-matrix field the program emits, each with its tolerance ``<field>_tol``.

    P = 2 sf(|T| / SE). TAU[i, j] = T[i, j] / Z_i and noise_share_i =
    |noise_i| / Z_i with the budget Z_i = sum_j |T[i, j]| + |noise_i|.
    """
    z = np.abs(t) / se
    dz = (T_TOL_SE + SE_RTOL * z) / (1.0 - SE_RTOL)  # widest |z - z_ref|
    # |P - P_ref| <= max pdf over [z - dz, z + dz] times 2 dz; 1e-12 absorbs rounding in sf
    p_tol = 2.0 * stats.norm.pdf(np.maximum(z - dz, 0.0)) * dz + 1e-12
    t_tol = T_TOL_SE * se
    noise_tol = NOISE_RTOL * np.abs(noise)
    budget = np.abs(t).sum(axis=1) + np.abs(noise)
    budget_tol = t_tol.sum(axis=1) + noise_tol
    tau = t / budget[:, None]
    share = np.abs(noise) / budget
    # |a' / Z' - a / Z| <= (|a' - a| + |a / Z| |Z' - Z|) / (Z - |Z' - Z|)
    return {
        "T": t, "T_tol": t_tol,
        "SE": se, "SE_tol": SE_RTOL * se,
        "P": 2.0 * stats.norm.sf(z), "P_tol": p_tol,
        "TAU": tau,
        "TAU_tol": (t_tol + np.abs(tau) * budget_tol[:, None]) / (budget - budget_tol)[:, None],
        "noise_share": share,
        "noise_share_tol": (noise_tol + share * budget_tol) / (budget - budget_tol),
    }


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _generate(workload, scale, seed, out: Path):
    d, n = SIZES[scale][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    names = [f"x{i + 1}" for i in range(d)]
    meta = {"workload": workload, "scale": scale, "seed": seed, "d": d, "n": n, "names": names}
    if workload == "synth":
        a = synth_drift(rng, d)
        b = np.eye(d)
        sigma = linalg.solve_continuous_lyapunov(a, -b @ b.T)
        meta.update(dt=SYNTH_DT, sim_seed=int(rng.integers(2**31)),
                    A=";".join(",".join(repr(float(v)) for v in row) for row in a),
                    B=";".join(",".join(repr(float(v)) for v in row) for row in b))
        np.savez(out / "ref.npz", variance=np.diag(sigma).copy())
        _write_json(out / "meta.json", meta)
        return
    cfg = PIPELINES[workload]
    meta.update(cfg)
    values, edges = planted_var(rng, d, n)
    values = np.ascontiguousarray(values)
    np.save(out / "values.npy", values)
    np.save(out / "planted.npy", edges)
    if workload == "ingest":
        np.savetxt(out / "input.csv", values.T, fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")
        meta["input_bytes"] = (out / "input.csv").stat().st_size
    t, se, noise = multivariate_reference(values, cfg["k"], cfg["dt"])
    np.savez(out / "ref.npz", **reference_outputs(t, se, noise))
    _write_json(out / "meta.json", meta)


def prepare(workload, scale, seed) -> Path:
    """Directory holding the inputs and reference for one seed, made if missing."""
    base = CACHE / scale / workload
    final = base / f"seed{seed}-{VERSION}"
    if (final / "meta.json").exists():
        return final
    if base.exists():
        shutil.rmtree(base)
    tmp = base / f"{final.name}.tmp"
    tmp.mkdir(parents=True)
    _generate(workload, scale, seed, tmp)
    tmp.rename(final)
    return final
