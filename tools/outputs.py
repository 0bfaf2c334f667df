"""Byte-identity check: the CLI's outputs at a git revision against the working tree.

    python tools/outputs.py REV

Extracts REV's committed tree with ``git archive`` into a temporary
directory, then runs the fixed command matrix ``MATRIX`` once against REV's
``src/`` and once against the working tree's ``src/``.  Each side runs in a
temporary directory of its own with the same relative ``--out`` paths, so
messages that name an output path read the same.  Every output file and every
command's stdout, stderr and exit code (stored beside the outputs as
``NN-name.stdout``, ``.stderr`` and ``.exit``) are compared byte for byte.
The report lists each differing path with its largest numeric difference and
names the first differing line.  Exit status: 0 when both sides match, 1 when
any byte differs, 2 when REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

SCAN_CONFIG = """[dcrab]
superiterations = 2
max_evals_per_superiteration = 12
n_t = 200
[scan]
t_rels = 1.0, 1.5
det_rels = 0.0, 0.5
runs = 2
"""

# (name, CLI arguments; run_side appends --out), run in this order: a later command may read an earlier one's outputs
MATRIX = [
    # detuned, so that a run takes tens of evaluations before it reaches its target
    ("invert", ["invert", "--detuning-rel", "1.0", "--seed", "1"]),
    ("invert-noisy", ["invert", "--detuning-rel", "1.0", "--noise", "--shots", "1000", "--seed", "1"]),
    ("gate-500", ["gate", "--detuning-rel", "0.5", "--samples", "500", "--seed", "1"]),
    ("gate-500-noisy", ["gate", "--detuning-rel", "0.5", "--samples", "500", "--noise", "--seed", "2"]),
    ("gate-5000", ["gate", "--detuning-rel", "0.5", "--samples", "5000", "--seed", "3"]),
    ("gate-5000-noisy", ["gate", "--detuning-rel", "0.5", "--samples", "5000", "--noise", "--seed", "4"]),
    ("scan", ["scan", "--config", "scan.cfg", "--seed", "5"]),
    ("compare", ["compare-openloop", "--scan", "07-scan", "--runs", "2", "--superiterations", "2", "--max-evals", "20"]),
    ("qpt", ["qpt", "--pulse", "03-gate-500/best_pulse.csv"]),
    ("qpt-noisy", ["qpt", "--pulse", "03-gate-500/best_pulse.csv", "--noise", "--shots", "1000", "--seed", "6"]),
    ("config-error", ["invert", "--shots", "0"]),
    ("runtime-failure", ["invert", "--noise", "--shots", "2", "--detuning-rel", "1.0", "--max-evals", "5"]),
]
FILE_OUTPUTS = {"compare": ".csv", "qpt": ".json", "qpt-noisy": ".json"}  # verbs that write one file

NUMBER = re.compile(rb"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)(?:inity)?", re.IGNORECASE)


def run_side(src: Path, workdir: Path) -> None:
    """Run ``MATRIX`` in ``workdir`` against the package in ``src``; store each command's streams and exit code."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    (workdir / "scan.cfg").write_text(SCAN_CONFIG)
    for index, (name, args) in enumerate(MATRIX, start=1):
        stem = f"{index:02d}-{name}"
        out = stem + FILE_OUTPUTS.get(name, "")
        proc = subprocess.run(
            [sys.executable, "-m", "autocal.cli", *args, "--out", out], cwd=workdir, env=env, capture_output=True
        )
        (workdir / f"{stem}.stdout").write_bytes(proc.stdout)
        (workdir / f"{stem}.stderr").write_bytes(proc.stderr)
        (workdir / f"{stem}.exit").write_text(f"{proc.returncode}\n")
        print(f"  {stem}: exit {proc.returncode}", flush=True)


class Difference(NamedTuple):
    path: str
    detail: str  # "missing on ..." or the first differing line of both sides
    numeric_gap: float | None  # largest |a - b| over the numbers of both files, when they hold as many


def numeric_gap(a: bytes, b: bytes) -> float | None:
    """Largest absolute difference between the i-th numbers of ``a`` and ``b``; None if their counts differ."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    gaps = [abs(float(x) - float(y)) for x, y in zip(xs, ys) if x != y]
    return max((g if not math.isnan(g) else math.inf for g in gaps), default=0.0)


def first_line_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x[:120]!r} vs {y[:120]!r}"
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines vs {len(lines_b)}"
    return "line endings differ"


def compare_trees(a: Path, b: Path) -> tuple[int, list[Difference]]:
    """Number of files compared, and the differences between trees ``a`` and ``b`` in path order."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    differences = []
    for path in sorted(files_a | files_b):
        if path not in files_b or path not in files_a:
            differences.append(Difference(path, f"missing on side {'B' if path in files_a else 'A'}", None))
            continue
        x, y = (a / path).read_bytes(), (b / path).read_bytes()
        if x != y:
            differences.append(Difference(path, first_line_difference(x, y), numeric_gap(x, y)))
    return len(files_a | files_b), differences


def report(rev: str, compared: int, differences: list[Difference]) -> int:
    if not differences:
        print(f"all {compared} files, streams and exit codes identical ({rev} vs working tree)")
        return 0
    print(f"{len(differences)} of {compared} paths differ ({rev} = A, working tree = B):")
    for d in differences:
        gap = "numbers not aligned" if d.numeric_gap is None else f"largest numeric difference {d.numeric_gap:.3g}"
        print(f"  {d.path}: {gap}")
    print(f"first difference: {differences[0].path}: {differences[0].detail}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="autocal-outputs-") as tmp:
        tmp = Path(tmp)
        checkout, side_a, side_b = tmp / "rev", tmp / "a", tmp / "b"
        for directory in (checkout, side_a, side_b):
            directory.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
        if archive.returncode != 0:
            print(f"cannot extract {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive.stdout, check=True)
        print(f"side A: {rev}")
        run_side(checkout / "src", side_a)
        print("side B: working tree")
        run_side(ROOT / "src", side_b)
        return report(rev, *compare_trees(side_a, side_b))


if __name__ == "__main__":
    sys.exit(main())
