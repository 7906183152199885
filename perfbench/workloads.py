"""The four benchmark workloads.

Each workload is one client in one process sending one operation at a time
(a closed loop).  A workload makes its inputs from the run seed, does its
set-up in `setup()`, and runs its operations in blocks: `run_block(i, rec)`
runs block i through the recorder, which times every call into predim and
counts every wrong answer.  Checks run between timed calls, never inside
them.  predim is always reached through module attributes looked up at call
time, so a tracer that rebinds those attributes sees every call.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import predim
import predim.cli
import predim.sampling
from speed import speed_factor

DATA = Path(__file__).resolve().parent / "data"
CLI_FILES = DATA / "cli"


class Failed:
    """Stands for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"<raised {self.exc!r}>"


# The sampler runs a tenth of the reference work every SAMPLE_EVERY_S, and a
# call is charged the mean of the samples taken while it ran and of the
# LOOKBACK samples before it.
SAMPLE_ITERATIONS = 300
SAMPLE_EVERY_S = 0.2
LOOKBACK = 4


class SpeedSampler:
    """Speed factors sampled every SAMPLE_EVERY_S of wall time while active.

    The machine this runs on changes speed by tens of percent within
    seconds, also in the middle of a call that lasts seconds, so the speed
    is sampled while calls run and not only between them: a SIGALRM handler
    runs SAMPLE_ITERATIONS of the reference work.  It runs in the main
    thread between bytecodes; `spent` adds up its time, which callers
    subtract from what they time.  On a level-4 audit (about 5 s) repeated
    twelve times, the quartile spread was 0.14 raw, 0.15 normalized by the
    speed just before and after each call, and 0.03 normalized by samples.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(speed_factor(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - start

    def before_call(self) -> None:
        """Samples are taken by the timer."""

    def factor_since(self, first: int) -> float:
        """The speed factor of a call that began when there were `first`
        samples."""
        return statistics.fmean(self.samples[max(first - LOOKBACK, 0):])

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# Start-up time of a bare interpreter at the reference speed.
BARE_S = 0.07


class StartupSampler(SpeedSampler):
    """Speed factors from start-ups of a bare interpreter, one before each
    call, for calls that run a child interpreter.  The reference work in
    this process follows the wall time of child interpreters poorly: on
    cli-cold the quartile spreads of the op metrics over five runs were
    0.08-0.23 normalized by it and 0.04-0.13 normalized by start-ups.
    """

    def __init__(self, env: dict):
        super().__init__()
        self.env = env

    def before_call(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        self.samples.append(BARE_S / (time.perf_counter() - start))

    def __enter__(self) -> "StartupSampler":
        return self

    def __exit__(self, *exc) -> None:
        pass


class Recorder:
    """Per-op latencies, per-block timed seconds and failure counts.

    An op is one call into predim (or one CLI invocation) that the workload
    answers for, or one of the queries a call answers (`count_ops`); `timed`
    calls that are not ops add to the block's time only.

    Every time is normalized: the call's seconds, less the time the
    sampler's handler took during it, times the speed factor the sampler
    gives the call.  Raw seconds are kept in `raw_s`.
    """

    def __init__(self, sampler: SpeedSampler):
        self.sampler = sampler
        self.op_s: list[float] = []
        self.block_s: list[float] = []
        self.raw_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._block = 0.0
        self._op_failed = False
        # Wraps checks that call predim, so a tracer can leave them out.
        self.unmeasured = contextlib.nullcontext

    def begin_block(self) -> None:
        self._block = 0.0

    def end_block(self) -> None:
        self.block_s.append(self._block)

    def timed(self, fn, *args, op: bool = True, **kwargs):
        """Run fn, returning (result, normalized seconds); an exception
        becomes Failed."""
        if op:
            self.attempted += 1
            self._op_failed = False
        sampler = self.sampler
        sampler.before_call()
        # The sampler's time is read inside the timed interval, so a sample
        # taken just outside it is never subtracted from it.
        start = time.perf_counter()
        first, spent = len(sampler.samples), sampler.spent
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed op, not a crash
            out = Failed(exc)
        spent = sampler.spent - spent
        raw = time.perf_counter() - start - spent
        elapsed = raw * sampler.factor_since(first)
        self.raw_s += raw
        self._block += elapsed
        if op:
            self.op_s.append(elapsed)
        if isinstance(out, Failed):
            if not op:
                self.attempted += 1
                self._op_failed = False
            self.expect(False, f"{getattr(fn, '__name__', fn)} raised {out.exc!r}")
        return out, elapsed

    def count_ops(self, n: int, seconds: float) -> None:
        """Record one call that answered n queries in `seconds` as n ops,
        each charged the call's mean latency."""
        self.attempted += n
        self._op_failed = False
        self.op_s.extend([seconds / n] * n)

    def expect(self, ok: bool, what: str) -> bool:
        """Count the current op as failed when `ok` is false (once per op)."""
        if not ok and not self._op_failed:
            self.failed += 1
            self._op_failed = True
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def _rebuild(struct):
    """A fresh object with the same content, so no per-object cache carries over."""
    return predim.FinStructure(struct.sig, struct.universe, struct.instances, struct.annotations)


def _load(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def _edge():
    return predim.FinStructure(predim.sampling.graph_signature(), range(2), {"E": [(0, 1)]})


class Workload:
    """Shared state: the run seed, the environment for child interpreters,
    and build-time samples."""

    name = ""
    trace_blocks = 1  # blocks run untraced and then traced by --trace 1
    children_rss = False  # peak RSS is the child processes', not ours

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        self.build_samples: list[float] = []
        self.in_process = False

    def setup(self) -> None:
        raise NotImplementedError

    def sampler(self) -> SpeedSampler:
        """What normalizes this workload's times."""
        return SpeedSampler()

    def run_block(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def detail(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# generic-k3


class GenericK3(Workload):
    """The criterion-6 build and audit schedule, plus the collapsed build and
    canonical codes of three approximations.  The schedule is deterministic,
    so the seed changes nothing here.

    An op is one audited obligation, charged the mean latency of the audit
    that checked it; builds and canonical codes count in the block time but
    are not ops.
    """

    name = "generic-k3"

    # The schedule with its pinned work counts: a build pins (n, discharges),
    # an audit (level, (satisfied, total)).
    BUDGET, BUILT = 40, (40, 19)
    AUDITS_BUILT = ((3, (1857, 1895)), (4, (22148, 23451)))
    RESUME, RESUMED = 20, (60, 29)
    AUDITS_RESUMED = ((3, (4113, 4171)),)
    CAPPED_BUDGET, CAPPED = 30, (30, 14)
    CANON_SIZES = (24, 28, 32)  # n >= 36 takes minutes in canonical_code today

    def __init__(self, *args):
        super().__init__(*args)
        self.canon_samples: list[float] = []
        self.canon_digests = _load("generic.json")["canonical_sha256"]  # by size

    def setup(self) -> None:
        self.spec = predim.PredimensionSpec.make(relational=True)
        self.edge = _edge()
        pendant = predim.classify_extension(self.spec, self.edge, [0])
        self.mu = predim.MuFunction.from_dict({pendant.code: 3})
        self.canon_inputs = [
            predim.build_generic(self.spec, self.edge, k=3, budget=n).current
            for n in self.CANON_SIZES
        ]

    def _audits(self, rec: Recorder, struct, audits) -> None:
        for k, pinned in audits:
            rep, dt = rec.timed(predim.audit_richness, self.spec, struct, k, op=False)
            if isinstance(rep, Failed):
                continue
            rec.count_ops(rep.total, dt)
            got = (rep.satisfied, rep.total)
            rec.expect(got == pinned, f"level-{k} audit at n={struct.n}: {got} != {pinned}")

    def _grown(self, rec: Recorder, ga, pinned: tuple[int, int], what: str) -> bool:
        if isinstance(ga, Failed):
            return False
        got = (ga.current.n, len(ga.history))
        return rec.expect(got == pinned, f"{what}: (n, discharges) {got} != {pinned}")

    def run_block(self, i: int, rec: Recorder) -> None:
        spec, edge = self.spec, self.edge
        build = 0.0
        ga, dt = rec.timed(predim.build_generic, spec, edge, k=3, budget=self.BUDGET, op=False)
        build += dt
        if self._grown(rec, ga, self.BUILT, "build"):
            self._audits(rec, ga.current, self.AUDITS_BUILT)
            out, dt = rec.timed(predim.resume, ga, self.RESUME, op=False)
            build += dt
            if self._grown(rec, out, self.RESUMED, "resume"):
                self._audits(rec, ga.current, self.AUDITS_RESUMED)
        capped, dt = rec.timed(
            predim.build_collapsed, spec, self.mu, edge, k=3, budget=self.CAPPED_BUDGET,
            cross_check=True, op=False,
        )
        build += dt
        if self._grown(rec, capped, self.CAPPED, "collapsed build"):
            with rec.unmeasured():
                report = predim.in_class_mu(spec, self.mu, capped.current, 3)
            rec.expect(report.ok, f"collapsed build breaks a copy cap: {report.violations}")
        canon = 0.0
        for struct in self.canon_inputs:
            digest = self.canon_digests[str(struct.n)]
            with rec.unmeasured():
                fresh = _rebuild(struct)
            code, dt = rec.timed(predim.canonical_code, fresh, op=False)
            canon += dt
            if not isinstance(code, Failed):
                got = hashlib.sha256(code).hexdigest()
                rec.expect(got == digest, f"canonical code at n={struct.n} changed")
        self.build_samples.append(build)
        self.canon_samples.append(canon)

    def detail(self) -> dict:
        return {"canon_s": statistics.median(self.canon_samples) if self.canon_samples else None}


# ---------------------------------------------------------------------------
# pregeometry-n40


class PregeometryN40(Workload):
    """Law checks and geometric closures on one fixed n=40 approximation."""

    name = "pregeometry-n40"
    trace_blocks = 4
    # A block holds CYCLES cycles; a cycle is LAWS exchange checks, LAWS
    # additivity checks and one gcl (about 40 closures, so the slowest op).
    CYCLES = 4
    LAWS = 3

    def __init__(self, *args):
        super().__init__(*args)
        pins = _load("pregeometry.json")
        self.gcl_pins = {int(e): tuple(ids) for e, ids in pins["gcl"].items()}

    def setup(self) -> None:
        self.spec = predim.PredimensionSpec.make(relational=True)
        before = speed_factor()
        start = time.perf_counter()
        ga = predim.build_generic(self.spec, _edge(), k=3, budget=GenericK3.BUDGET)
        raw = time.perf_counter() - start
        self.build_samples.append(raw * (before + speed_factor()) / 2)
        self.struct = ga.current
        if (self.struct.n, len(ga.history)) != GenericK3.BUILT:
            raise RuntimeError("the n=40 approximation changed")
        self.elems = list(self.struct.universe)

    def _block_inputs(self, i: int):
        rng = random.Random(f"{self.seed}/pregeometry/{i}")
        elems = self.elems
        out = []
        for _ in range(self.CYCLES):
            exchange, additivity = [], []
            for _ in range(self.LAWS):
                a, b = rng.sample(elems, 2)
                pool = [e for e in elems if e not in (a, b)]
                exchange.append((a, b, tuple(rng.sample(pool, rng.randrange(4)))))
                additivity.append(tuple(frozenset(rng.sample(elems, rng.randrange(4))) for _ in range(3)))
            out.append((exchange, additivity, rng.choice(elems)))
        return out

    def _additivity(self, x, y, c) -> tuple[int, int]:
        dim = predim.dim
        joint = dim(self.spec, self.struct, x | y, c)
        split = dim(self.spec, self.struct, x, y | c) + dim(self.spec, self.struct, y, c)
        return joint, split

    def run_block(self, i: int, rec: Recorder) -> None:
        spec, struct = self.spec, self.struct
        for exchange, additivity, e in self._block_inputs(i):
            for a, b, c in exchange:
                holds, _ = rec.timed(predim.check_exchange, spec, struct, a, b, c)
                rec.expect(holds is True, f"exchange fails on a={a} b={b} C={c}")
            for x, y, z in additivity:
                sides, _ = rec.timed(self._additivity, x, y, z)
                rec.expect(
                    isinstance(sides, Failed) or sides[0] == sides[1],
                    f"additivity fails on X={sorted(x)} Y={sorted(y)} C={sorted(z)}: {sides}",
                )
            got, _ = rec.timed(predim.gcl, spec, struct, (e,))
            rec.expect(got == self.gcl_pins[e], f"gcl({e}) = {got} != {self.gcl_pins[e]}")


# ---------------------------------------------------------------------------
# matroid-closure


def matroid_spec(name: str):
    """relational + 1/2 * the named matroid."""
    return predim.PredimensionSpec.make(
        relational=True, components=((predim.oracle_by_name(name), Fraction(1, 2)),)
    )


def pool_structure(entry: dict):
    """A FinStructure from a pool entry's raw data."""
    sig = predim.sampling.graph_signature()
    edges = [tuple(e) for e in entry["edges"]]
    vectors = entry.get("vectors")
    ann = {e: tuple(str(c) for c in v) for e, v in enumerate(vectors)} if vectors else None
    return predim.FinStructure(sig, range(entry["n"]), {"E": edges}, ann)


class MatroidClosure(Workload):
    """Strength, closure and class queries on fresh small structures under
    relational + 1/2 linear5 and relational + 1/2 uniform2.

    The structures come from a pinned pool whose answers were computed with
    the brute-force oracles (see make_refs.py): those oracles need up to
    seconds per 16-element structure, far more than the ops they check.  A
    block walks the whole pool in a seeded order and builds a fresh
    FinStructure for every query, so no two queries share a structure
    object.  The bases of a structure's queries rotate from block to block
    from an offset the seed sets, so that every run of several blocks covers
    them about evenly.
    """

    name = "matroid-closure"

    def __init__(self, *args):
        super().__init__(*args)
        self.pool = _load("matroid_pool.json")["pool"]

    def setup(self) -> None:
        self.specs = {name: matroid_spec(name) for name in ("linear5", "uniform2")}

    def _check_strong(self, rec: Recorder, spec, struct, base, rep, ref) -> None:
        if isinstance(rep, Failed):
            return
        want = (ref["verdict"], Fraction(ref["deficiency"]))
        got = (rep.verdict, rep.deficiency)
        if not rec.expect(got == want, f"is_strong({base}): {got} != {want}"):
            return
        if not rep.verdict:
            with rec.unmeasured():
                d_base = predim.delta(spec, struct, base)
                attained = predim.delta(spec, struct, set(base) | set(rep.witness)) - d_base
            rec.expect(attained == rep.deficiency, f"witness {rep.witness} misses the deficiency")

    def run_block(self, i: int, rec: Recorder) -> None:
        rng = random.Random(f"{self.seed}/matroid/{i}")
        order = rng.sample(range(len(self.pool)), len(self.pool))
        build = 0.0
        for idx in order:
            entry = self.pool[idx]
            spec = self.specs[entry["spec"]]
            for kind in ("is_strong", "closure", "in_class"):
                struct, dt = rec.timed(pool_structure, entry, op=False)
                build += dt
                if kind == "in_class":
                    got, _ = rec.timed(predim.in_class, spec, struct)
                    rec.expect(got == entry["in_class"], f"in_class on pool[{idx}]")
                    continue
                shift = 0 if kind == "is_strong" else 1
                j = (self.seed + i + idx + shift) % len(entry["bases"])
                base = tuple(entry["bases"][j])
                if kind == "is_strong":
                    rep, _ = rec.timed(predim.is_strong, spec, struct, base)
                    self._check_strong(rec, spec, struct, base, rep, entry["is_strong"][j])
                else:
                    got, _ = rec.timed(predim.closure, spec, struct, base)
                    want = tuple(entry["closure"][j])
                    rec.expect(got == want, f"closure({base}) on pool[{idx}]: {got} != {want}")
        self.build_samples.append(build)

    def detail(self) -> dict:
        return {"pool": len(self.pool)}


# ---------------------------------------------------------------------------
# cli-cold


def cli_argv(argv: list[str]) -> list[str]:
    """`argv` with every `@name` replaced by the path of data/cli/name."""
    return [str(CLI_FILES / a[1:]) if a.startswith("@") else a for a in argv]


class CliCold(Workload):
    """A fixed cycle of CLI verbs, each a fresh `python -m predim.cli`
    process, with stdout and exit code compared to pinned references.  An
    argument `@name` stands for the input file data/cli/name."""

    name = "cli-cold"
    trace_blocks = 4
    VERBS = ("delta", "strong", "closure", "check-class", "dim", "build")

    children_rss = True

    def __init__(self, *args):
        super().__init__(*args)
        self.refs = _load("cli_pool.json")

    def setup(self) -> None:
        pass

    def sampler(self) -> SpeedSampler:
        return SpeedSampler() if self.in_process else StartupSampler(self.env)

    def _subprocess(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "predim.cli", *argv],
            cwd=DATA, env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout.decode("utf-8")

    def _in_process(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = predim.cli.main(argv)
        return rc, out.getvalue()

    def run_block(self, i: int, rec: Recorder) -> None:
        run = self._in_process if self.in_process else self._subprocess
        for verb in self.VERBS:
            # the variants rotate from an offset the seed sets, so that every
            # run of several blocks covers them about evenly
            variants = self.refs["commands"][verb]
            cmd = variants[(self.seed + i) % len(variants)]
            got, dt = rec.timed(run, cli_argv(cmd["argv"]))
            if verb == "build":
                self.build_samples.append(dt)
            want = (cmd["rc"], cmd["stdout"])
            rec.expect(got == want, f"{' '.join(cmd['argv'])}: {got!r} != {want!r}")


WORKLOADS = {w.name: w for w in (GenericK3, PregeometryN40, MatroidClosure, CliCold)}

