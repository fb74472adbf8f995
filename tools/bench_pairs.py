"""Run perfbench in two checkouts in alternating pairs and summarise each end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

Each pair runs `perfbench/run.py --workload W --seed K --seconds S --trace 0`
once in each checkout, from that checkout's root, so that each imports its
own `src/`; the parent runs first in even pairs and the change first in odd
ones.  The last line of each run's output is its JSON result.

For each end-to-end metric of CHANGE/BENCHMARK.json it prints both medians,
both sides' quartiles, the change's wins out of the pairs (ties count for
neither) and a verdict:
- "gain" when the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile spread, read
  as "short of pairs" when fewer than MIN_PAIRS (ten) pairs ran;
- "worse" when its median is worse than the parent's by more than the
  metric's bound;
- "within bound" otherwise.
Then, per side, the operations attempted and failed and the runs whose
checks failed.  Last, per metric, the median over pairs of the change/parent
ratio, with the parent median as its base.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

# the fewest pairs that can back a gain
MIN_PAIRS = 10


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a perfbench run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr}")
    return last_json(proc.stdout)


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """Report lines for (parent, change) result pairs, one per metric, then one per side."""
    n = len(pairs)
    lines = [f"{'metric':<12} {'unit':<4} {'parent median [q1, q3]':<38} "
             f"{'change median [q1, q3]':<38} {'wins':<6} verdict"]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = np.array([p["metrics"][name]["value"] for p, _ in pairs])
        change = np.array([c["metrics"][name]["value"] for _, c in pairs])
        p25, p50, p75 = np.percentile(parent, [25, 50, 75])
        c25, c50, c75 = np.percentile(change, [25, 50, 75])
        wins = int(np.sum(sign * (parent - change) > 0))
        if wins >= 0.9 * n and sign * (p50 - c50) > p75 - p25:
            verdict = "gain" if n >= MIN_PAIRS else f"short of pairs ({n} < {MIN_PAIRS})"
        elif sign * (c50 - p50) > metric["bound"] * abs(p50):
            verdict = "worse"
        else:
            verdict = "within bound"
        lines.append(f"{name:<12} {metric['unit']:<4} {f'{p50:.5g} [{p25:.5g}, {p75:.5g}]':<38} "
                     f"{f'{c50:.5g} [{c25:.5g}, {c75:.5g}]':<38} {f'{wins}/{n}':<6} {verdict}")
    for side, results in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        lines.append(f"{side}: {sum(r['attempted'] for r in results)} operations attempted, "
                     f"{sum(r['failed'] for r in results)} failed; "
                     f"{sum(not r['correct'] for r in results)} of {n} runs failed a check")
    return lines


def ratios(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric: the median per-pair change/parent ratio and its base, the parent median."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        parent = np.array([p["metrics"][name]["value"] for p, _ in pairs])
        change = np.array([c["metrics"][name]["value"] for _, c in pairs])
        ratio = float(np.median(change / parent))
        lines.append(f"{name:<12} change/parent {ratio:.4f} ({ratio - 1:+.1%}) "
                     f"of parent median {np.median(parent):.5g} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        sides = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        first, second = (run_once(side, args.workload, args.seed, args.seconds) for side in sides)
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seed {args.seed}")
    print("\n".join(summarize(metrics, pairs) + ratios(metrics, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
