"""Span arithmetic of the benchmark's tracer, on synthetic span lists.

Run with `python3 -m pytest bench/test_spans.py`.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as sp  # noqa: E402

ZERO = dict.fromkeys(sp.COUNTERS, 0)


def test_self_time_subtracts_repeated_children():
    # run_bs_exactness [0, 10] -> quantize_quadratic [1, 4], spectrum [4, 6],
    # bs_predict [6, 9] -> eta_of_z called three times, 0.5 s each
    spans = [
        ["experiments.run_bs_exactness", 0.0, 10.0, -1],
        ["quantize.quantize_quadratic", 1.0, 4.0, 0],
        ["quantize.spectrum", 4.0, 6.0, 0],
        ["quantize.bs_predict", 6.0, 9.0, 0],
        ["density.ActionMap.eta_of_z", 6.5, 7.0, 3],
        ["density.ActionMap.eta_of_z", 7.0, 7.5, 3],
        ["density.ActionMap.eta_of_z", 8.0, 8.5, 3],
    ]
    assert sp.self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 1.5, 0.5, 0.5, 0.5])
    m = sp.layer_metrics(spans, ZERO)
    assert m["experiments.self_s"] == pytest.approx(2.0)
    assert m["experiments.bs_exactness_s"] == pytest.approx(10.0)
    assert m["quantize.assemble_s"] == pytest.approx(3.0)
    assert m["quantize.eig_s"] == pytest.approx(2.0)
    assert m["quantize.eig_calls"] == 1
    assert m["quantize.bs_predict_s"] == pytest.approx(3.0)
    assert m["density.omega_s"] == pytest.approx(1.5)


def test_same_layer_recursion_is_counted_once():
    # DeformedSymbol.evaluate [0, 10] -> flow_points [1, 8]
    #   -> SymbolExpr.evaluate (from Deformation.velocity) x3, 1 s each
    # then the base SymbolExpr.evaluate [8, 9.5]
    spans = [
        ["flow.DeformedSymbol.evaluate", 0.0, 10.0, -1],
        ["flow.flow_points", 1.0, 8.0, 0],
        ["symbols.SymbolExpr.evaluate", 2.0, 3.0, 1],
        ["symbols.SymbolExpr.evaluate", 4.0, 5.0, 1],
        ["symbols.SymbolExpr.evaluate", 6.0, 7.0, 1],
        ["symbols.SymbolExpr.evaluate", 8.0, 9.5, 0],
    ]
    own = sp.self_times(spans)
    assert own == pytest.approx([1.5, 4.0, 1.0, 1.0, 1.0, 1.5])
    counters = dict(ZERO, **{"symbols.evaluate_points": 9_000_000})
    m = sp.layer_metrics(spans, counters)
    assert m["flow.self_s"] == pytest.approx(5.5)
    assert m["symbols.evaluate_s"] == pytest.approx(4.5)
    assert m["symbols.evaluate_calls"] == 4
    assert m["symbols.evaluate_mpts_per_s"] == pytest.approx(2.0)
    # self time over every span adds up to the outermost span's duration
    assert sum(own) == pytest.approx(10.0)
    # the flow layer's total counts the nested flow_points span once
    assert sp.group_total(spans, sp.FLOW) == pytest.approx(10.0)


def test_group_total_skips_nested_members_only():
    # moment -> tensor_quadrature, and a second top-level tensor_quadrature
    spans = [
        ["variation.moment", 0.0, 4.0, -1],
        ["variation.tensor_quadrature", 0.5, 3.5, 0],
        ["symbols.SymbolExpr.evaluate", 1.0, 2.0, 1],
        ["variation.tensor_quadrature", 5.0, 6.0, -1],
    ]
    counters = dict(ZERO, **{"variation.nodes": 10})
    m = sp.layer_metrics(spans, counters)
    assert sp.group_total(spans, sp.QUADRATURE) == pytest.approx(5.0)
    assert m["variation.quadrature_s"] == pytest.approx(4.0)
    assert m["variation.nodes_per_s"] == pytest.approx(2.0)
    assert m["symbols.evaluate_s"] == pytest.approx(1.0)


def test_empty_trace_reports_zero_not_nan():
    m = sp.layer_metrics([], ZERO)
    assert all(v == 0 for v in m.values())


def test_metric_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(sp.layer_metrics([], ZERO))
    extra = {"density.weyl_rms_rel_err", "trace.overhead_frac"}  # set by worker and run.py
    assert produced | extra == declared


def test_tracer_wraps_every_lookup_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import bsweyl
    from bsweyl import density, experiments, symbols

    orig = density.preimage_volume
    with sp.Tracer() as tr:
        assert experiments.preimage_volume is density.preimage_volume is not orig
        assert bsweyl.preimage_volume is density.preimage_volume
        p = symbols.cho(1.0, 0.0)
        win = density.ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (4, 4))
        vol, _ = experiments.preimage_volume(p, win, box_radius=2.0, samples=4096, seed=1)
    assert density.preimage_volume is orig and experiments.preimage_volume is orig
    assert [s[0] for s in tr.spans] == ["density.preimage_volume",
                                        "symbols.SymbolExpr.evaluate"]
    assert tr.spans[1][3] == 0
    c = tr.counters
    assert c["density.samples"] == 4096 and c["symbols.evaluate_points"] == 4096
    assert c["density.landed"] == round(vol / 4.0 ** 4 * 4096)
