"""Paired benchmark runs: a git revision's ``perfbench/run.py`` against the working tree's.

    python tools/pair.py REV --workload scan --seeds 101-110 --out BENCH_new.json --what "..."

Extracts REV's committed tree with ``tools/outputs.py``'s ``git archive`` step
into a temporary directory.  For each workload and seed it runs one pair: REV's
``perfbench/run.py`` on REV's ``src/`` (side "parent") and the working tree's on
the working tree's ``src/`` (side "change"), with the same arguments.  The
parent goes first in even pairs and the change in odd ones, so that a slow
spell of the machine falls on both sides alike.  Each run's last line, the
JSON result, is kept.

After the pairs it times ``COLD_STARTS`` alternating cold starts of each side's
``perfbench/setup_probe.py`` on that side's ``src/``, each as the probe times
itself inside its fresh interpreter, because the five cold starts inside one
benchmark run spread more than the effects they should show.

The output file holds what, command, parent, machine, summary, setup_s and
runs, and is rewritten after every pair, so an interrupted session keeps the
pairs it ran.  The summary gives, per workload and metric, each side's median
and quartiles and the pairs the change wins (by the direction BENCHMARK.json
declares), and for best_fidelity the pairs whose values are identical.
setup_s gives the same for the cold starts (lower is better), with their
seconds.  Exit status: 0 when every run read correct, 1 when one did not or a
run or cold start failed, 2 when REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds}"
COLD_STARTS = 40  # per side, alternating which side starts first


def parse_seeds(spec: str) -> list[int]:
    """Seeds from a comma-separated list of numbers and inclusive ranges: '101-103,110' -> [101, 102, 103, 110]."""
    seeds = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, interpolated between order statistics as numpy's default percentile does."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric of ``runs``: medians, quartiles and wins of the change over complete pairs.

    ``better`` maps each metric to "lower" or "higher".  A pair is the parent and change run of one
    workload and seed; a pair with a side missing is left out.
    """
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run["result"]
    summary = {}
    for workload, by_seed in pairs.items():
        complete = [sides for sides in by_seed.values() if all(side in sides for side in SIDES)]
        entry = {}
        for metric, direction in better.items() if complete else ():
            values = {side: [sides[side]["metrics"][metric]["value"] for sides in complete] for side in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
            entry[metric] = {
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "parent_quartiles": quartiles(values["parent"]),
                "change_quartiles": quartiles(values["change"]),
                "change_wins": wins,
                "pairs": len(complete),
            }
            if metric == "best_fidelity":
                entry[metric]["identical_pairs"] = sum(p == c for p, c in zip(values["parent"], values["change"]))
        entry["all_correct"] = all(sides[side]["correct"] for sides in by_seed.values() for side in sides)
        summary[workload] = entry
    return summary


def declared_directions() -> dict[str, str]:
    """BENCHMARK.json's end-to-end metrics and whether lower or higher is better."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """One ``perfbench/run.py`` run of the tree at ``root``: its JSON result and its machine line."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run([*argv, "--seconds", str(seconds)], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def cold_start(root: Path) -> float:
    """Seconds of one cold start of the tree at ``root``, as its ``perfbench/setup_probe.py`` times it."""
    argv = [sys.executable, str(root / "perfbench" / "setup_probe.py"), str(root / "src")]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} cold start: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(lines[-1])


def time_cold_starts(roots: dict[str, Path]) -> dict[str, list[float]]:
    """``COLD_STARTS`` cold starts per side, in pairs; the parent starts first in even pairs, the change in odd ones."""
    seconds: dict[str, list[float]] = {side: [] for side in SIDES}
    for index in range(COLD_STARTS):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            seconds[side].append(cold_start(roots[side]))
    return seconds


def summarize_cold_starts(seconds: dict[str, list[float]]) -> dict:
    """Each side's median and quartiles of its cold starts, and the pairs the change wins (lower is better)."""
    block = {}
    for side in SIDES:
        block[f"{side}_median"] = statistics.median(seconds[side])
        block[f"{side}_quartiles"] = quartiles(seconds[side])
    block["change_wins"] = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    block["pairs"] = len(seconds["parent"])
    block["seconds"] = seconds
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("101-110"), help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="End-to-end benchmark runs, parent vs change, alternating which runs first.")
    args = parser.parse_args(argv)
    from outputs import extract  # the same git archive step as the byte-identity check

    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev], capture_output=True, text=True)
    document = {
        "what": args.what,
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "parent": parent.stdout.strip() or args.rev,
        "machine": None,
        "summary": {},
        "setup_s": None,
        "runs": [],
    }
    directions = declared_directions()
    with tempfile.TemporaryDirectory(prefix="autocal-pair-") as tmp:
        checkout = Path(tmp)
        if not extract(args.rev, checkout):
            return 2
        roots = {"parent": checkout, "change": ROOT}
        for workload in args.workload:
            for index, seed in enumerate(args.seeds):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                for side in order:
                    try:
                        result, machine = run_side(roots[side], workload, seed, args.seconds)
                    except RuntimeError as err:
                        print(f"run failed: {err}", file=sys.stderr)
                        return 1
                    document["machine"] = document["machine"] or machine
                    document["runs"].append(
                        {"workload": workload, "seed": seed, "side": side, "first": order[0], "result": result}
                    )
                    ms = result["metrics"]["eval_ms"]["value"]
                    print(f"{workload} seed {seed} {side}: eval_ms {ms:.4f}, correct {result['correct']}", flush=True)
                document["summary"] = summarize(document["runs"], directions)
                args.out.write_text(json.dumps(document, indent=1) + "\n")
        try:
            document["setup_s"] = summarize_cold_starts(time_cold_starts(roots))
        except RuntimeError as err:
            print(f"run failed: {err}", file=sys.stderr)
            return 1
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    correct = all(entry["all_correct"] for entry in document["summary"].values())
    for workload, entry in document["summary"].items():
        ms = entry["eval_ms"]
        print(f"{workload}: eval_ms {ms['parent_median']:.4f} -> {ms['change_median']:.4f} ms, "
              f"change wins {ms['change_wins']} of {ms['pairs']}; best_fidelity identical in "
              f"{entry['best_fidelity']['identical_pairs']} of {ms['pairs']}")
    setup = document["setup_s"]
    print(f"setup_s: {setup['parent_median']:.4f} -> {setup['change_median']:.4f} s, "
          f"change wins {setup['change_wins']} of {setup['pairs']} cold starts")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
