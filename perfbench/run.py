"""Seeded benchmark of predim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; predim is imported from its src/ directory.
Metric names and units come from BENCHMARK.json at the root.  With --trace 0
the run sets up several times (set-up time is the median), then runs the
workload's blocks until S seconds have passed and prints every end-to-end
metric.  With --trace 1 it runs a fixed number of blocks untraced, then the
same blocks with every public predim function wrapped (see tracer.py), and
prints every per-layer metric.  End-to-end times are normalized to a
reference machine speed (see workloads.Recorder); per-layer times are raw.
Every output is checked; the last line of stdout is one JSON object, and the
exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 11
# The tail is the highest of these percentiles that still has at least
# TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def rank_index(n: int, p: float) -> int:
    """Nearest-rank index of the p-th percentile among n sorted samples."""
    return max(0, math.ceil(p / 100 * n) - 1)


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    return s[rank_index(len(s), p)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail; the maximum when even the median
    has fewer than TAIL_BEYOND samples above it."""
    s = sorted(values)
    for p in TAIL_LADDER:
        if len(s) - 1 - rank_index(len(s), p) >= TAIL_BEYOND:
            return p, s[rank_index(len(s), p)]
    return 100.0, s[-1]


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "predim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_blocks(wl, rec, blocks: int) -> None:
    for i in range(blocks):
        rec.begin_block()
        wl.run_block(i, rec)
        rec.end_block()


def run_for(wl, rec, seconds: float) -> None:
    """Run blocks while the next one, taking as long as the last, would end
    within `seconds`; at least one block."""
    start = last = time.perf_counter()
    i = 0
    while i == 0 or (now := time.perf_counter()) + (now - last) - start <= seconds:
        last = time.perf_counter()
        rec.begin_block()
        wl.run_block(i, rec)
        rec.end_block()
        i += 1


# Run in a fresh interpreter: prints the time of `import predim`, normalized
# by the reference work just before and after it in the same interpreter.
IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, {here!r})
from speed import speed_factor
before = speed_factor()
start = time.perf_counter()
import predim
print((time.perf_counter() - start) * (before + speed_factor()) / 2)
"""


def import_seconds(env: dict) -> float:
    """Normalized time of `import predim` in a fresh interpreter, timed
    inside it, so that interpreter start-up and exit are left out."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(here=str(HERE))],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def set_up(wl, env: dict) -> tuple[list[float], list[float]]:
    """SETUP_REPS set-ups: each imports predim in a fresh interpreter and
    builds the workload's fixed inputs.  Returns (set-up, import) seconds,
    normalized (see workloads.Recorder)."""
    total, imports = [], []
    for _ in range(SETUP_REPS):
        imported = import_seconds(env)
        before = speed_factor()
        start = time.perf_counter()
        wl.setup()
        built = (time.perf_counter() - start) * (before + speed_factor()) / 2
        total.append(imported + built)
        imports.append(imported)
    return total, imports


def end_to_end(wl, rec, setup_samples: list[float]) -> tuple[dict, dict]:
    tail_p, tail_v = tail(rec.op_s)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.mean(rec.block_s),
        "peak_rss_mb": peak_rss_mb(wl.children_rss),
        "build_s": statistics.median(wl.build_samples),
        "ops_per_s": len(rec.op_s) / sum(rec.op_s),
        "op_p50_ms": percentile(rec.op_s, 50) * 1000,
        "op_tail_ms": tail_v * 1000,
    }
    info = {"ops": len(rec.op_s), "blocks": len(rec.block_s), "tail_percentile": tail_p,
            "tail_samples_beyond": len(rec.op_s) - 1 - rank_index(len(rec.op_s), tail_p),
            "build_samples": len(wl.build_samples), "setup_reps": len(setup_samples),
            "raw_wall_s": rec.raw_s / len(rec.block_s),
            "speed_factor_median": statistics.median(rec.sampler.samples),
            "speed_samples": len(rec.sampler.samples)}
    return values, info


def per_layer(make, env: dict, names: list[str]) -> tuple[dict, dict, list, object]:
    """Untraced blocks, then the same blocks traced on a freshly set-up
    workload; per-layer values.  The CLI runs in-process in both halves, so
    that it can be traced."""
    import tracer as tracer_mod
    import workloads

    wl = make()
    _, imports = set_up(wl, env)
    wl.in_process = True
    again = make()
    again.in_process = True
    again.setup()
    tracer = tracer_mod.Tracer()
    with wl.sampler() as sampler:
        plain = workloads.Recorder(sampler)
        run_blocks(wl, plain, wl.trace_blocks)
        traced = workloads.Recorder(sampler)
        traced.unmeasured = tracer.suspended
        with tracer:
            patches = tracer.patched()
            run_blocks(again, traced, again.trace_blocks)
    leftovers = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches if vars(o)[a] is not orig]
    special = {
        "trace.overhead_frac": sum(traced.block_s) / sum(plain.block_s) - 1,
        "cli.import_predim_s": statistics.median(imports),
        "collapse.thrifty_step.free_frac": tracer.free_frac(),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        if layer in tracer_mod.MODULES and field == "self_s":
            values[name] = tracer.module_self_s(layer)
        elif layer in tracer.calls:
            values[name] = tracer.total(layer, field)
        else:
            raise SystemExit(f"error: BENCHMARK.json names {name!r}, which is no traced layer")
    info = {"trace_blocks": wl.trace_blocks, "patched": len(patches),
            "untraced_s": sum(plain.block_s), "traced_s": sum(traced.block_s)}
    if leftovers:
        traced.failed += 1
        traced.errors.append(f"tracer left patched: {leftovers}")
    return values, info, [plain, traced], wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "predim" / "__init__.py").is_file():
        print(f"error: no predim sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"error: {bench_file} is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import predim
    if Path(predim.__file__).resolve().parent != SRC / "predim":
        print(f"error: imported predim from {predim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def make():
        return workloads.WORKLOADS[args.workload](args.seed, env)

    if args.trace:
        spec = bench["per_layer"]
        values, info, recs, wl = per_layer(make, env, [m["name"] for m in spec])
    else:
        spec = bench["end_to_end"]
        wl = make()
        setup_samples, _ = set_up(wl, env)
        with wl.sampler() as sampler:
            rec = workloads.Recorder(sampler)
            run_for(wl, rec, args.seconds)
        values, info = end_to_end(wl, rec, setup_samples)
        recs = [rec]

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    errors = [e for r in recs for e in r.errors]
    for e in errors:
        print(f"mismatch: {e}", file=sys.stderr)
    record = {"env": environment(args), "run": info, "detail": wl.detail(), "errors": errors,
              "fail_frac": failed / attempted if attempted else None}
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
