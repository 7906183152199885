"""Two-set steadiness check of the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--out FILE]

Runs the same code as two sets of `--runs` runs per workload, each run with
its own seed and BENCHMARK.json's run_seconds, through run.py exactly as the
benchmark command does.  For every end-to-end metric and workload it reports
each set's median and its spread (distance between the first and third
quartile, as a share of the median), and how far the second set's median
moved from the first set's in the metric's worse direction.  A pair is
steady when both spreads stay below the metric's bound in BENCHMARK.json and
the median moved by no more than the bound.  It exits 1 if any pair is not
steady, and `--out` keeps every run's output as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    names = args.workload or [w["name"] for w in bench["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for r in range(args.runs):
            for w in names:
                seed = args.seed_base + 1000 * s + r
                results[w][s].append(run_once(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} run {r + 1} {w} seed {seed}", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")

    steady = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'bound':>6} {'median1':>12} {'spread1':>8}"
              f" {'median2':>12} {'spread2':>8} {'moved':>7}  verdict")
        for m in bench["end_to_end"]:
            first, second = ([run["metrics"][m["name"]]["value"] for run in runs]
                             for runs in results[w])
            spreads = (spread(first), spread(second))
            moved = worsening(statistics.median(first), statistics.median(second), m["better"])
            ok = moved <= m["bound"] and max(spreads) < m["bound"]
            steady &= ok
            verdict = "ok" if ok else "NOT STEADY"
            if ok and max(spreads) >= m["bound"] / 3:
                verdict = "ok (spread above a third of the bound)"
            print(f"  {m['name']:<12} {m['bound']:>6} {statistics.median(first):>12.6g}"
                  f" {spreads[0]:>8.4f} {statistics.median(second):>12.6g} {spreads[1]:>8.4f}"
                  f" {moved:>7.4f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
