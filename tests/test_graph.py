"""All-pairs matrices, graph filtering, and DOT/JSON serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liangflow import (
    CausalGraph,
    DegenerateBudgetError,
    Edge,
    FlowMatrix,
    MalformedError,
    PanelPairs,
    SelfLoop,
    SingularCovarianceError,
    TimeSeriesSet,
    ValidationError,
    all_pairs,
    build_graph,
    emit_dot,
    emit_json,
    flow_bivariate,
    flow_matrix_from_json,
    flow_multivariate,
    flow_panel,
    self_contribution,
)
from liangflow import estimator


examples = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _random_set(d, n, seed, dt=1.0):
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i}" for i in range(d))
    return TimeSeriesSet(names=names, values=rng.standard_normal((d, n)), dt=dt)


# ------------------------------------------------------------- flow matrix


def test_two_variable_offdiagonals_match_bivariate():
    tss = _random_set(2, 400, seed=0)
    fm = all_pairs(tss, k=1, normalize=False)
    into_first = flow_bivariate(tss.values[0], tss.values[1])
    into_second = flow_bivariate(tss.values[1], tss.values[0])
    assert abs(fm.T[0, 1] - into_first.value) <= 1e-12 * abs(into_first.value)
    assert abs(fm.T[1, 0] - into_second.value) <= 1e-12 * abs(into_second.value)
    assert abs(fm.P[0, 1] - into_first.p_value) <= 1e-9


def test_bivariate_mode_agrees_at_d2():
    tss = _random_set(2, 300, seed=1)
    multi = all_pairs(tss, mode="multivariate")
    bi = all_pairs(tss, mode="bivariate")
    np.testing.assert_allclose(bi.T, multi.T, rtol=1e-12)
    np.testing.assert_allclose(bi.TAU, multi.TAU, rtol=1e-9)
    np.testing.assert_allclose(bi.SE, multi.SE, rtol=1e-9)


def test_diagonal_holds_self_rates():
    tss = _random_set(3, 250, seed=2)
    fm = all_pairs(tss)
    for i in range(3):
        est = self_contribution(tss, target=i, k=1)
        assert fm.T[i, i] == est.value
        assert fm.SE[i, i] == est.std_err


@pytest.mark.parametrize("k", [1, 4])
def test_scalar_routes_are_the_engine_entries(k):
    rng = np.random.default_rng(20 + k)
    values = rng.standard_normal((4, 600))
    values[1, 1:] += 0.6 * values[0, :-1]  # one coupled pair, so some P are tiny
    tss = TimeSeriesSet(tuple("abcd"), values, 0.5)
    fm = all_pairs(tss, k=k)
    for i in range(4):
        for j in range(4):
            est = self_contribution(tss, i, k) if i == j else flow_multivariate(tss, j, i, k)
            assert (est.value, est.std_err, est.p_value) == (fm.T[i, j], fm.SE[i, j], fm.P[i, j])


def test_panel_route_is_the_engine_entry():
    rng = np.random.default_rng(24)
    x0 = rng.standard_normal((3, 200))
    x1 = x0 + 0.1 * rng.standard_normal((3, 200))
    x1[0] += 0.05 * x0[2]
    pairs = PanelPairs(("a", "b", "c"), x0, x1, 0.1)
    eng = estimator._Design(x0, x1, pairs.names, 0.1, 1)
    p, _ = estimator._p_values(eng.T, eng.SE)
    for i in range(3):
        for j in range(3):
            if i != j:
                est = flow_panel(pairs, j, i)
                assert (est.value, est.std_err, est.p_value) == (eng.T[i, j], eng.SE[i, j], p[i, j])


def test_variable_permutation_symmetry():
    tss = _random_set(4, 300, seed=3)
    fm = all_pairs(tss, normalize=True)
    perm = [2, 0, 3, 1]
    permuted = TimeSeriesSet(
        tuple(tss.names[p] for p in perm), tss.values[perm], tss.dt
    )
    fm_p = all_pairs(permuted, normalize=True)
    for a, i in enumerate(perm):
        for b, j in enumerate(perm):
            assert abs(fm_p.T[a, b] - fm.T[i, j]) <= 1e-12 * max(abs(fm.T[i, j]), 1e-300)
            assert abs(fm_p.TAU[a, b] - fm.TAU[i, j]) <= 1e-10 * max(abs(fm.TAU[i, j]), 1e-300)
        assert abs(fm_p.noise_share[a] - fm.noise_share[i]) <= 1e-12


def test_normalized_rows_budget():
    tss = _random_set(5, 600, seed=4)
    fm = all_pairs(tss, normalize=True)
    row_sums = np.abs(fm.TAU).sum(axis=1) + fm.noise_share
    np.testing.assert_allclose(row_sums, 1.0, rtol=0, atol=1e-12)
    assert np.abs(fm.TAU).max() <= 1.0 + 1e-12


def test_normalize_off_leaves_nan_shares():
    tss = _random_set(2, 100, seed=5)
    fm = all_pairs(tss, normalize=False)
    assert np.isnan(fm.TAU).all()
    assert np.isnan(fm.noise_share).all()
    assert np.isfinite(fm.T).all()


def test_all_pairs_input_checks():
    tss = _random_set(2, 100, seed=7)
    with pytest.raises(ValueError):
        all_pairs(tss, mode="pairwise")
    single = TimeSeriesSet(("a",), np.random.default_rng(8).standard_normal((1, 50)), 1.0)
    with pytest.raises(ValidationError):
        all_pairs(single)


def test_singular_failure_names_the_target():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 80))
    tss = TimeSeriesSet(("a", "b", "c"), np.vstack([x, x[1]]), 1.0)
    with pytest.raises(SingularCovarianceError, match="while computing flows into"):
        all_pairs(tss)


def test_degenerate_budget_names_the_target():
    # with k = 2 a period-2 series has an exactly zero difference series,
    # so its whole budget (rates and noise) is zero
    rng = np.random.default_rng(22)
    values = np.vstack([rng.standard_normal(120), np.resize([1.0, -1.0], 120),
                        rng.standard_normal(120)])
    tss = TimeSeriesSet(("a", "b", "c"), values, 1.0)
    with pytest.raises(DegenerateBudgetError, match="^while computing flows into 'b': entropy "
                       "budget for target 1 is zero; nothing to normalize$"):
        all_pairs(tss, k=2)
    fm = all_pairs(tss, k=2, normalize=False)
    assert np.all(fm.T[1] == 0.0) and np.all(fm.P[1] == 1.0)


def test_flow_matrix_equality_semantics():
    tss = _random_set(2, 120, seed=10)
    fm = all_pairs(tss)
    same = all_pairs(tss)
    assert fm == same
    other = all_pairs(tss, alpha=0.01)
    assert fm != other
    assert (fm == "not a matrix") is False or (fm == "not a matrix") is NotImplemented


# ------------------------------------------------------------------- graph


def test_build_graph_extremes():
    tss = _random_set(3, 200, seed=11)
    fm = all_pairs(tss)
    nothing = build_graph(fm, alpha=0.0)
    assert nothing.edges == () and nothing.self_loops == ()
    everything = build_graph(fm, alpha=1.0)
    assert len(everything.edges) == 6
    assert len(everything.self_loops) == 3
    assert everything.nodes == fm.names


def test_graph_edges_agree_with_matrix():
    tss = _random_set(4, 400, seed=12)
    fm = all_pairs(tss)
    g = build_graph(fm, alpha=1.0)
    index = {name: i for i, name in enumerate(fm.names)}
    for e in g.edges:
        i, j = index[e.target], index[e.source]
        assert e.value == fm.T[i, j]
        assert e.tau == fm.TAU[i, j]
        assert e.p == fm.P[i, j]
    # deterministic ordering: by target index, then source index
    order = [(index[e.target], index[e.source]) for e in g.edges]
    assert order == sorted(order)


def test_build_graph_min_tau_filter():
    tss = _random_set(3, 300, seed=13)
    fm = all_pairs(tss)
    cutoff = float(np.median(np.abs(fm.TAU)))
    g = build_graph(fm, alpha=1.0, min_tau=cutoff)
    index = {name: i for i, name in enumerate(fm.names)}
    expected = {
        (i, j)
        for i in range(3)
        for j in range(3)
        if i != j and abs(fm.TAU[i, j]) >= cutoff
    }
    got = {(index[e.target], index[e.source]) for e in g.edges}
    assert got == expected
    kept_loops = {index[s.node] for s in g.self_loops}
    assert kept_loops == {i for i in range(3) if abs(fm.TAU[i, i]) >= cutoff}


def test_build_graph_stores_min_tau_as_a_float():
    # as alpha: a numpy integer is written to JSON, and an int as the CLI writes it
    fm = all_pairs(_random_set(3, 300, seed=13))
    for given, written in ((np.int64(0), "0.0"), (1, "1.0"), (np.float32(0.5), "0.5")):
        g = build_graph(fm, alpha=1.0, min_tau=given)
        assert type(g.min_tau) is float and g.min_tau == given
        assert f'"min_tau": {written}' in emit_json(g)


def test_min_tau_requires_normalization():
    tss = _random_set(2, 100, seed=14)
    fm = all_pairs(tss, normalize=False)
    with pytest.raises(ValidationError):
        build_graph(fm, min_tau=0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": math.nan},
        {"alpha": -0.1},
        {"alpha": 1.5},
        {"min_tau": math.nan},
        {"min_tau": math.inf},
        {"min_tau": -0.2},
    ],
)
def test_build_graph_rejects_bad_thresholds(kwargs):
    # each would give a graph that emit_json cannot write, or that keeps nothing by accident
    fm = all_pairs(_random_set(2, 100, seed=14))
    with pytest.raises(ValidationError, match=f"{next(iter(kwargs))} must be"):
        build_graph(fm, **kwargs)


def test_bonferroni_tightens_threshold():
    tss = _random_set(4, 500, seed=15)
    fm = all_pairs(tss)
    plain = build_graph(fm, alpha=0.5)
    corrected = build_graph(fm, alpha=0.5, bonferroni=True)
    plain_set = {(e.source, e.target) for e in plain.edges}
    corr_set = {(e.source, e.target) for e in corrected.edges}
    assert corr_set <= plain_set
    index = {name: i for i, name in enumerate(fm.names)}
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            kept = (fm.names[j], fm.names[i]) in corr_set
            assert kept == (fm.P[i, j] < 0.5 / 16.0)


def _reference_graph(fm, alpha=None, min_tau=None, bonferroni=False):
    """build_graph as a per-pair loop, one keep(i, j) call per slot."""
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
        Edge(source=fm.names[j], target=fm.names[i], value=float(fm.T[i, j]),
             tau=float(fm.TAU[i, j]), p=float(fm.P[i, j]))
        for i in range(d)
        for j in range(d)
        if i != j and keep(i, j)
    )
    loops = tuple(
        SelfLoop(node=fm.names[i], value=float(fm.T[i, i]), tau=float(fm.TAU[i, i]),
                 p=float(fm.P[i, i]))
        for i in range(d)
        if keep(i, i)
    )
    return CausalGraph(nodes=fm.names, edges=edges, self_loops=loops, alpha=alpha,
                       min_tau=min_tau)


def _graph_or_error(build, fm, **kw):
    try:
        return repr(build(fm, **kw))  # repr keeps NaN, -0.0 and the float type visible
    except ValidationError as e:
        return f"ValidationError: {e}"


@st.composite
def _filter_cases(draw):
    d = draw(st.integers(1, 6))
    alpha = draw(st.sampled_from([0.01, 0.05, 0.5, 1.0]))
    bonferroni = draw(st.booleans())
    cut = draw(st.sampled_from([0.0, 0.1, 0.25]))
    threshold = alpha / (d * d) if bonferroni else alpha
    # P on the threshold is dropped (strict <), |TAU| on the cut is kept (>=)
    p = st.one_of(st.sampled_from([threshold, 0.0, 1.0, math.nan]), st.floats(0.0, 1.0))
    tau = st.one_of(st.sampled_from([cut, -cut, 0.0, -0.0, math.nan]), st.floats(-1.0, 1.0))
    grid = lambda values: np.array(draw(st.lists(values, min_size=d * d, max_size=d * d)))
    tau_grid = grid(tau).reshape(d, d)
    for row in draw(st.sets(st.integers(0, d - 1))):
        tau_grid[row] = math.nan
    fm = FlowMatrix(
        names=tuple(f"n{i}" for i in range(d)), dt=1.0, k=1, alpha=alpha, mode="multivariate",
        T=grid(st.floats(-1e3, 1e3)).reshape(d, d), P=grid(p).reshape(d, d), TAU=tau_grid,
        SE=np.ones((d, d)), noise_share=np.ones(d),
    )
    kw = {"alpha": draw(st.sampled_from([None, alpha])), "bonferroni": bonferroni,
          "min_tau": draw(st.sampled_from([None, cut]))}
    return fm, kw


@examples
@given(_filter_cases())
def test_build_graph_equals_the_per_pair_loop(case):
    fm, kw = case
    assert _graph_or_error(build_graph, fm, **kw) == _graph_or_error(_reference_graph, fm, **kw)


def test_build_graph_boundaries():
    nan = math.nan
    fm = FlowMatrix(
        names=("a", "b"), dt=1.0, k=1, alpha=0.05, mode="multivariate",
        T=[[1.0, 2.0], [3.0, 4.0]],
        P=[[0.05, 0.01], [0.01, 0.0125]],
        TAU=[[0.2, -0.2], [nan, nan]],
        SE=np.ones((2, 2)), noise_share=[0.1, 0.1],
    )
    g = build_graph(fm, min_tau=0.2)
    assert [(e.source, e.target) for e in g.edges] == [("b", "a")]  # tau -0.2 sits on the cut
    assert g.self_loops == ()  # P[0, 0] sits on alpha; row 1 has NaN taus
    g = build_graph(fm, bonferroni=True)  # threshold 0.0125: P[1, 1] sits on it
    assert [(e.source, e.target) for e in g.edges] == [("b", "a"), ("a", "b")]
    assert g.self_loops == ()
    assert [s.node for s in build_graph(fm).self_loops] == ["b"]
    unnormalized = FlowMatrix(fm.names, 1.0, 1, 0.05, "multivariate", fm.T, fm.P,
                              np.full((2, 2), nan), fm.SE, [nan, nan])
    with pytest.raises(ValidationError, match="normalize=True"):
        build_graph(unnormalized, min_tau=0.0)


def test_default_alpha_comes_from_matrix():
    tss = _random_set(2, 150, seed=16)
    fm = all_pairs(tss, alpha=0.2)
    g = build_graph(fm)
    assert g.alpha == 0.2


# ----------------------------------------------------------------- emitters


def test_emit_dot_single_edge():
    g = CausalGraph(
        nodes=("a", "b"),
        edges=(Edge(source="a", target="b", value=0.12345678, tau=0.3, p=0.001),),
        self_loops=(),
        alpha=0.05,
    )
    assert emit_dot(g) == (
        'digraph G {\n'
        '  "a";\n'
        '  "b";\n'
        '  "a" -> "b" [label="T=0.1235 tau=0.3 p=0.001"];\n'
        '}\n'
    )


def test_emit_dot_empty_graph():
    assert emit_dot(CausalGraph((), (), (), 0.05)) == "digraph G {\n}\n"


def test_emit_dot_self_loop_and_quoting():
    g = CausalGraph(
        nodes=('say "hi"',),
        edges=(),
        self_loops=(SelfLoop(node='say "hi"', value=-1.0, tau=-0.5, p=1e-8),),
        alpha=0.05,
    )
    text = emit_dot(g)
    assert '"say \\"hi\\"" -> "say \\"hi\\""' in text
    assert "label=\"T=-1 tau=-0.5 p=1e-08\"" in text


def test_emit_dot_byte_stable():
    tss = _random_set(3, 200, seed=17)
    g1 = build_graph(all_pairs(tss), alpha=1.0)
    g2 = build_graph(all_pairs(tss), alpha=1.0)
    assert emit_dot(g1) == emit_dot(g2)


def test_json_round_trip_full_precision():
    tss = _random_set(3, 300, seed=18)
    for normalize in (True, False):
        fm = all_pairs(tss, normalize=normalize)
        back = flow_matrix_from_json(emit_json(fm))
        assert back == fm
    # what all_pairs accepts at the edges of each setting, flow_matrix_from_json reads back
    tss = _random_set(3, 300, seed=23, dt=1e-3)
    for k, mode, alpha in [(1, "bivariate", 5e-324), (3, "multivariate", 1 - 2 ** -53),
                           (7, "bivariate", 0.5)]:
        fm = all_pairs(tss, k=k, alpha=alpha, mode=mode)
        assert flow_matrix_from_json(emit_json(fm)) == fm


@pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, math.nan, -0.5])
def test_all_pairs_rejects_alpha_outside_the_open_unit_interval(alpha):
    with pytest.raises(ValidationError, match="alpha"):
        all_pairs(_random_set(2, 100, seed=22), alpha=alpha)


@pytest.mark.parametrize("key, value", [
    ("k", 1.5), ("k", "3"), ("k", True), ("k", 0),
    ("dt", -1), ("dt", 0), ("dt", True), ("dt", "1"),
    ("alpha", 7), ("alpha", 0), ("alpha", True),
    ("mode", "x"),
    ("names", ["a", "a"]),
])
def test_flow_matrix_from_json_rejects_what_all_pairs_never_writes(key, value):
    payload = json.loads(emit_json(all_pairs(_random_set(2, 100, seed=24))))
    with pytest.raises(MalformedError, match=f"field '{key}'"):
        flow_matrix_from_json(json.dumps(dict(payload, **{key: value})))


def test_json_schema_fields():
    tss = _random_set(2, 100, seed=19)
    fm = all_pairs(tss, normalize=False)
    payload = json.loads(emit_json(fm))
    assert payload["orientation"] == "T[target][source]"
    for key in ("names", "dt", "k", "alpha", "mode", "T", "P", "TAU", "SE", "noise_share"):
        assert key in payload
    assert len(payload["T"]) == 2 and len(payload["T"][0]) == 2
    assert payload["TAU"][0][0] is None  # NaN serialized as null
    assert payload["noise_share"] == [None, None]


def test_graph_json_payload():
    tss = _random_set(2, 200, seed=20)
    fm = all_pairs(tss)
    g = build_graph(fm, alpha=1.0)
    payload = json.loads(emit_json(g))
    assert payload["orientation"] == "T[target][source]"
    assert payload["nodes"] == list(fm.names)
    assert len(payload["edges"]) == len(g.edges)
    assert len(payload["self_loops"]) == 2
    assert payload["edges"][0]["source"] == g.edges[0].source


def test_emit_json_pins_special_values():
    nan = float("nan")
    fm = FlowMatrix(
        names=("a", "b"), dt=0.5, k=1, alpha=0.05, mode="multivariate",
        T=[[nan, -0.0], [5e-324, 1e308]],
        P=[[1.0, 0.25], [2.2250738585072014e-308, 0.1]],
        TAU=[[nan, nan], [nan, nan]],
        SE=[[0.1, 1e-300], [3.0, 1.7976931348623157e308]],
        noise_share=[nan, -0.0],
    )
    matrix = '[\n    [\n      {}\n    ],\n    [\n      {}\n    ]\n  ]'.format
    assert emit_json(fm) == (
        '{\n  "orientation": "T[target][source]",\n'
        '  "names": [\n    "a",\n    "b"\n  ],\n'
        '  "dt": 0.5,\n  "k": 1,\n  "alpha": 0.05,\n  "mode": "multivariate",\n'
        '  "T": ' + matrix("null,\n      -0.0", "5e-324,\n      1e+308") + ',\n'
        '  "P": ' + matrix("1.0,\n      0.25", "2.2250738585072014e-308,\n      0.1") + ',\n'
        '  "TAU": ' + matrix("null,\n      null", "null,\n      null") + ',\n'
        '  "SE": ' + matrix("0.1,\n      1e-300", "3.0,\n      1.7976931348623157e+308") + ',\n'
        '  "noise_share": [\n    null,\n    -0.0\n  ]\n}\n'
    )


_SPECIAL = [math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1]
_NAME = st.text(st.sampled_from(['"', "\\", "/", "\n", "\x00", "\x1f", "\x7f", "é", "λ",
                                 "\u2028", "😀", "a", " ", ","]), max_size=6)


@st.composite
def _flow_matrices(draw):
    d = draw(st.integers(0, 7))
    number = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_infinity=False))
    grid = lambda n: draw(st.lists(number, min_size=n, max_size=n))
    return FlowMatrix(
        names=draw(st.lists(_NAME, min_size=d, max_size=d, unique=True)),
        dt=draw(st.floats(1e-300, 1e300)), k=draw(st.integers(1, 50)),
        alpha=draw(st.floats(0.0, 1.0)), mode=draw(st.sampled_from(["multivariate", "bivariate"])),
        **{f: np.reshape(grid(d * d), (d, d)) for f in ("T", "P", "TAU", "SE")},
        noise_share=grid(draw(st.sampled_from([d, 0]))),
    )


def _dumps_payload(fm):
    """The text emit_json gives a flow matrix, built by the pure-Python json encoder."""
    def out(a):
        return [out(x) for x in a] if isinstance(a, list) else (None if math.isnan(a) else a)

    payload = {"orientation": "T[target][source]", "names": list(fm.names), "dt": fm.dt,
               "k": fm.k, "alpha": fm.alpha, "mode": fm.mode}
    for f in ("T", "P", "TAU", "SE", "noise_share"):
        payload[f] = out(getattr(fm, f).tolist())
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


@examples
@given(_flow_matrices())
def test_emit_json_is_byte_identical_to_indented_dumps(fm):
    assert emit_json(fm) == _dumps_payload(fm)


@pytest.mark.parametrize("field", ["T", "P", "TAU", "SE", "noise_share"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_emit_json_rejects_infinity(field, value):
    fm = all_pairs(_random_set(3, 100, seed=22))
    arrays = {f: np.array(getattr(fm, f)) for f in ("T", "P", "TAU", "SE", "noise_share")}
    arrays[field].flat[-1] = value
    bad = FlowMatrix(fm.names, fm.dt, fm.k, fm.alpha, fm.mode, **arrays)
    with pytest.raises(ValueError, match="Out of range float"):
        emit_json(bad)


def test_emit_json_flow_matrix_skips_the_python_encoder(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("pure-Python json encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", spy)
    fm = all_pairs(_random_set(4, 200, seed=23))
    assert json.loads(emit_json(fm))["names"] == list(fm.names)
    with pytest.raises(AssertionError, match="pure-Python"):
        emit_json(build_graph(fm, alpha=1.0))  # the graph keeps json.dumps: the spy is live


def test_emit_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        emit_json({"not": "supported"})


def test_flow_matrix_from_json_rejects_an_empty_name():
    payload = json.loads(emit_json(all_pairs(_random_set(2, 100, seed=24))))
    for names in (["a", ""], [" ", "b"]):
        with pytest.raises(MalformedError, match="is empty or blank"):
            flow_matrix_from_json(json.dumps(dict(payload, names=names)))


def test_flow_matrix_from_json_malformed():
    with pytest.raises(MalformedError):
        flow_matrix_from_json("{ not json")
    with pytest.raises(MalformedError, match="missing keys"):
        flow_matrix_from_json(json.dumps({"orientation": "T[target][source]"}))
    tss = _random_set(2, 100, seed=21)
    payload = json.loads(emit_json(all_pairs(tss)))
    payload["orientation"] = "T[source][target]"
    with pytest.raises(MalformedError, match=r"^unsupported orientation 'T\[source\]\[target\]'$"):
        flow_matrix_from_json(json.dumps(payload))
    payload["orientation"] = "T[target][source]"
    with pytest.raises(MalformedError, match="not an object"):
        flow_matrix_from_json("5")
    # each outside value that is not a field of the payload names its field
    for key, value in [("T", [[1.0, 2.0], [3.0]]), ("SE", [[1.0, "x"], [3.0, 4.0]]),
                       ("P", [[1.0, 2.0, 3.0]]), ("noise_share", [[0.5, 0.5]]), ("TAU", None),
                       ("T", []), ("k", "z"), ("dt", None), ("alpha", [0.05]), ("k", 1e400),
                       ("names", ["x0"]), ("names", "ab"), ("names", [0, 1])]:
        bad = dict(payload, **{key: value})
        with pytest.raises(MalformedError, match=f"'{key}'"):
            flow_matrix_from_json(json.dumps(bad))
    # an empty matrix keeps its shape
    empty = FlowMatrix((), 1.0, 1, 0.05, "multivariate", np.empty((0, 0)), np.empty((0, 0)),
                       np.empty((0, 0)), np.empty((0, 0)), np.empty(0))
    back = flow_matrix_from_json(emit_json(empty))
    assert back == empty and back.T.shape == (0, 0) and back.noise_share.shape == (0,)
