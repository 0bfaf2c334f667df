"""The compare step of ``tools/outputs.py`` on small trees; no CLI run is started."""

import importlib.util
import math
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("outputs_tool", Path(__file__).resolve().parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(outputs)


def make_tree(root, files):
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_identical_trees_have_no_differences(tmp_path):
    files = {"01-invert/summary.json": b'{"best_fidelity": 0.99}\n', "01-invert.exit": b"0\n"}
    a, b = make_tree(tmp_path / "a", files), make_tree(tmp_path / "b", files)
    assert outputs.compare_trees(a, b) == (2, [])
    assert outputs.report("REV", 2, []) == 0


def test_differences_in_path_order_with_their_numeric_gaps(tmp_path, capsys):
    a = make_tree(
        tmp_path / "a",
        {
            "02-gate/chi.json": b'{"chi": [0.25, 0.5]}\n',
            "01-invert/trace.jsonl": b'{"fom": 0.1}\n{"fom": 0.9, "sigma": 0.0}\n',
            "01-invert.exit": b"0\n",
            "01-invert.stderr": b"",
            "03-qpt.stdout": b"chi matrix written to 03-qpt.json\n",
        },
    )
    b = make_tree(
        tmp_path / "b",
        {
            "02-gate/chi.json": b'{"chi": [0.25, 0.5, 1.0]}\n',
            "01-invert/trace.jsonl": b'{"fom": 0.1}\n{"fom": 0.9000000000000001, "sigma": 0.0}\n',
            "01-invert.exit": b"3\n",
            "01-invert.stderr": b"runtime failure: x\n",
            "04-extra.json": b"{}\n",
        },
    )
    compared, differences = outputs.compare_trees(a, b)
    assert compared == 6
    assert [d.path for d in differences] == [
        "01-invert.exit",
        "01-invert.stderr",
        "01-invert/trace.jsonl",
        "02-gate/chi.json",
        "03-qpt.stdout",
        "04-extra.json",
    ]
    by_path = {d.path: d for d in differences}
    assert by_path["01-invert.exit"].numeric_gap == 3.0
    assert by_path["01-invert.stderr"].detail == "0 lines vs 1"
    trace = by_path["01-invert/trace.jsonl"]
    assert trace.detail.startswith("line 2: ")
    assert trace.numeric_gap == pytest.approx(1.1e-16, rel=0.01)
    assert by_path["02-gate/chi.json"].numeric_gap is None  # three numbers against two
    assert by_path["03-qpt.stdout"].detail == "missing on side B"
    assert by_path["04-extra.json"].detail == "missing on side A"

    assert outputs.report("REV", compared, differences) == 1
    printed = capsys.readouterr().out
    assert "6 of 6 paths differ" in printed
    assert "02-gate/chi.json: numbers not aligned" in printed
    assert printed.rstrip().endswith("first difference: 01-invert.exit: line 1: b'0' vs b'3'")


def test_numeric_gap_reads_signs_exponents_and_nan():
    assert outputs.numeric_gap(b"x -1.5e-3 y", b"x -1.4e-3 y") == pytest.approx(1e-4)
    assert outputs.numeric_gap(b"[1, 2]", b"[1, 2]") == 0.0
    assert outputs.numeric_gap(b"NaN", b"0.5") == math.inf
