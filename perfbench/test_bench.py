"""Tests of the benchmark's own arithmetic and correctness gate.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_checks import CheckLog  # noqa: E402
from bench_stats import covered_length, median, min_samples_for, percentile, self_times  # noqa: E402
from bench_trace import LAYERS, layer_metrics  # noqa: E402
from bench_workloads import (  # noqa: E402
    Op,
    check_cli,
    check_oracle,
    check_pairing,
    clifford_willmore_hessian,
    geodesic_sphere_willmore_hessian,
    sphere_index,
    torus_helfrich,
)
import run  # noqa: E402
from run import RoundStats, measure, run_op  # noqa: E402

# -- percentiles ----------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_p90_needs_a_hundred_samples():
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20


# -- self-time arithmetic ---------------------------------------------------------


def test_covered_length_merges_overlaps():
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered_length([]) == 0.0


def test_self_time_subtracts_children():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 3.0, 0),  # child
        (4.0, 8.0, 0),  # child
        (5.0, 6.0, 2),  # grandchild
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def _span(name, layer, start, end, parent, tags=None):
    return [name, layer, start, end, parent, "op", tags or {}]


def test_layer_self_times_and_remainder_add_up_to_wall():
    spans = [
        _span("variations.el_residual", "variations", 1.0, 5.0, None),
        _span("calculus.ScalarField.partial", "calculus", 1.5, 3.5, 0, {"cached": False, "provider": "analytic"}),
        _span("gridops.ChartDerivatives.partial", "gridops", 2.0, 2.5, 1, {"bytes": 64}),
        _span("variations.second_variation", "variations", 6.0, 9.0, None),
        _span("variations.el_residual", "variations", 6.5, 7.0, 3),
    ]
    m = layer_metrics(spans, {}, wall_s=10.0)
    assert m["variations.self_s"][0] == pytest.approx(2.0 + 2.5 + 0.5)
    assert m["calculus.self_s"][0] == pytest.approx(1.5)
    assert m["gridops.self_s"][0] == pytest.approx(0.5)
    assert m["calculus.analytic_partial_s"][0] == pytest.approx(1.5)
    assert m["variations.el_residual.calls"][0] == 2
    assert m["variations.criticality_s"][0] == pytest.approx(0.5)
    assert m["gridops.bytes_computed"] == (64, "B")
    total = sum(m[f"{layer}.self_s"][0] for layer in LAYERS) + m["trace.remainder_s"][0]
    assert total == pytest.approx(m["trace.wall_s"][0])
    assert m["trace.remainder_s"][0] == pytest.approx(3.0)


# -- the correctness gate -----------------------------------------------------------


def test_known_answers():
    assert sphere_index(3.0, 1.0, 2) == pytest.approx(26.0)
    assert sphere_index(3.0, 1.0, 1) == pytest.approx(-2.0)
    assert sphere_index(2.0, 1.0, 2) == pytest.approx(12.0)
    assert clifford_willmore_hessian(1, 1) == 0.0  # cos u cos v is a Jacobi field
    assert geodesic_sphere_willmore_hessian(2, math.pi / 2) == pytest.approx(12.0)  # sin a = 1: unit-sphere value
    assert geodesic_sphere_willmore_hessian(2, math.pi / 4) == pytest.approx(48.0)
    assert torus_helfrich(2.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(4.0 * math.pi**2 * 4.0 / math.sqrt(3.0))


def _spectrum(lam):
    return json.dumps({"k": 2, "lambda": lam, "multiplicity": 6, "r": 1.0, "schema": "curvevar/1"})


def test_exact_cli_output_passes_and_perturbed_output_fails():
    good = CheckLog()
    check_cli("spectrum", 0, _spectrum(6.0), good)
    assert good.ok
    bad = CheckLog()
    check_cli("spectrum", 0, _spectrum(6.0 * (1.0 + 1e-9)), bad)
    assert not bad.ok
    assert [c.name for c in bad.failures] == ["lambda"]


def test_cli_energy_perturbed_beyond_criterion_tolerance_fails():
    value = 4.0 * math.pi * (1.0 + 2e-8)  # criterion 1 allows 1e-8
    log = CheckLog()
    check_cli("energy_sphere", 0, json.dumps({"schema": "curvevar/1", "value": value}), log)
    assert not log.ok


def test_nonzero_exit_and_wrong_schema_fail():
    log = CheckLog()
    check_cli("spectrum", 1, "", log)
    assert not log.ok
    log = CheckLog()
    check_cli("spectrum", 0, _spectrum(6.0).replace("curvevar/1", "curvevar/2"), log)
    assert not log.ok


def test_oracle_reports_are_held_to_criterion_tolerances():
    ok = SimpleNamespace(rel_error=9e-6, convergence_order=1.95)
    log = CheckLog()
    check_oracle(log, "o1", ok, 1)
    assert log.ok
    for rep, order in (
        (SimpleNamespace(rel_error=1.1e-5, convergence_order=2.0), 1),
        (SimpleNamespace(rel_error=1e-6, convergence_order=1.89), 1),
        (SimpleNamespace(rel_error=1.1e-4, convergence_order=2.0), 2),
        (SimpleNamespace(rel_error=float("nan"), convergence_order=2.0), 2),
    ):
        log = CheckLog()
        check_oracle(log, "o", rep, order)
        assert not log.ok


def test_pairing_tolerance_depends_on_jet_provenance():
    out = {"pair": 1.0 + 1e-8, "fv": 1.0}
    log = CheckLog()
    check_pairing(log, out, "numeric_jets")
    assert log.ok
    log = CheckLog()
    check_pairing(log, out, "analytic")
    assert not log.ok


def test_failed_and_raising_ops_count_against_attempted():
    def good_check(out, log):
        log.rel("x", out["x"], 2.0, 1e-12)

    def boom():
        raise RuntimeError("op failed")

    ops = [
        Op("good", lambda: {"x": 2.0}, good_check),
        Op("perturbed", lambda: {"x": 2.0 * (1.0 + 1e-9)}, good_check),
        Op("raises", boom, good_check),
        Op("no_checks", lambda: {}, lambda out, log: None),
    ]
    stats = RoundStats()
    for op in ops:
        run_op(op, stats)
    assert stats.attempted == 4
    assert stats.failed == 3
    assert [o["ok"] for o in stats.ops] == [True, False, False, False]


def test_measure_always_runs_one_whole_pass():
    calls = []
    ops = [Op(f"op{i}", lambda i=i: calls.append(i) or {}, lambda out, log: log.equal("ran", True, True)) for i in range(3)]
    stats = measure(ops, 0.0)
    assert calls == [0, 1, 2]
    assert stats.positions == [0, 1, 2]
    assert stats.attempted == 3 and stats.failed == 0


def test_measure_cycles_until_the_budget_and_may_stop_mid_pass(monkeypatch):
    # a full heap collection per op can outlast the whole budget in a large test session
    monkeypatch.setattr(run.gc, "collect", lambda: 0)
    calls = []
    ops = [Op(f"op{i}", lambda i=i: calls.append(i) or {}, lambda out, log: None) for i in range(3)]
    stats = measure(ops, 0.05)
    assert len(calls) > 3
    assert calls == [i % 3 for i in range(len(calls))]
    assert stats.elapsed > 0.04


def test_per_op_medians_are_not_biased_by_a_part_pass():
    stats = RoundStats()
    stats.positions = [0, 1, 2, 0]
    assert stats.per_op([1.0, 5.0, 2.0, 3.0]) == [2.0, 5.0, 2.0]


def test_every_layer_metric_has_a_target():
    here = Path(__file__).resolve().parent
    with open(here.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(here / "targets.json") as fh:
        targets = json.load(fh)["layer_targets"]
    assert [m["name"] for m in spec["per_layer"]] == list(targets)
