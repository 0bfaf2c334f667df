"""The summary arithmetic of ``tools/pair.py`` on canned run dicts; no benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("pair_tool", Path(__file__).resolve().parents[1] / "tools" / "pair.py")
pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pair)

BETTER = {"eval_ms": "lower", "best_fidelity": "higher"}


def run(workload, seed, side, eval_ms, best, correct=True):
    metrics = {"eval_ms": {"value": eval_ms, "unit": "ms"}, "best_fidelity": {"value": best, "unit": "1"}}
    return {"workload": workload, "seed": seed, "side": side, "first": "parent", "result": {
        "correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}}


def test_medians_quartiles_and_wins_over_complete_pairs():
    runs = [
        run("scan", 1, "parent", 0.50, 0.99), run("scan", 1, "change", 0.40, 0.99),
        run("scan", 2, "change", 0.45, 0.98), run("scan", 2, "parent", 0.60, 0.97),
        run("scan", 3, "parent", 0.55, 0.96), run("scan", 3, "change", 0.56, 0.96),
        run("scan", 4, "parent", 0.58, 0.95), run("scan", 4, "change", 0.41, 0.95),
        run("scan", 5, "parent", 0.10, 0.10),  # no change run: not a pair
    ]
    entry = pair.summarize(runs, BETTER)["scan"]
    ms = entry["eval_ms"]
    assert ms["pairs"] == 4
    assert ms["parent_median"] == pytest.approx(0.565)
    assert ms["change_median"] == pytest.approx(0.43)
    assert ms["parent_quartiles"] == pytest.approx([0.5375, 0.585])  # numpy.percentile(..., [25, 75])
    assert ms["change_quartiles"] == pytest.approx([0.4075, 0.4775])
    assert ms["change_wins"] == 3  # lower is better; seed 3 is a loss
    fidelity = entry["best_fidelity"]
    assert fidelity["change_wins"] == 1  # higher is better; equal values are no win
    assert fidelity["identical_pairs"] == 3
    assert entry["all_correct"] is True


def test_workloads_are_summarized_apart_and_a_failed_run_shows():
    runs = [
        run("scan", 1, "parent", 0.5, 0.9), run("scan", 1, "change", 0.4, 0.9),
        run("gate-fine", 1, "parent", 0.9, 0.8), run("gate-fine", 1, "change", 1.0, 0.8, correct=False),
        run("invert-noisy", 7, "parent", 0.3, 0.7),
    ]
    summary = pair.summarize(runs, BETTER)
    assert summary["scan"]["eval_ms"]["change_wins"] == 1 and summary["scan"]["all_correct"]
    assert summary["gate-fine"]["eval_ms"]["change_wins"] == 0 and not summary["gate-fine"]["all_correct"]
    assert summary["scan"]["eval_ms"]["parent_quartiles"] == [0.5, 0.5]
    assert summary["invert-noisy"] == {"all_correct": True}  # no complete pair


def test_seed_lists_and_ranges():
    assert pair.parse_seeds("101-103,110") == [101, 102, 103, 110]
    assert pair.parse_seeds("7") == [7]


def test_directions_come_from_benchmark_json():
    directions = pair.declared_directions()
    assert directions["eval_ms"] == "lower" and directions["best_fidelity"] == "higher"
