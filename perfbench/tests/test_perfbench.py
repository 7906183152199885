"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import predim
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_generic():
    """GenericK3 on a small schedule, pinned from direct library calls."""
    spec = predim.PredimensionSpec.make(relational=True)
    edge = workloads._edge()
    ga = predim.build_generic(spec, edge, k=3, budget=10)
    built = (ga.current.n, len(ga.history))
    audit = predim.audit_richness(spec, ga.current, 3)
    predim.resume(ga, 4)
    resumed = (ga.current.n, len(ga.history))
    audit2 = predim.audit_richness(spec, ga.current, 3)
    pendant = predim.classify_extension(spec, edge, [0])
    mu = predim.MuFunction.from_dict({pendant.code: 3})
    capped = predim.build_collapsed(spec, mu, edge, k=3, budget=8)
    digests = {}
    for n in (6, 8):
        s = predim.build_generic(spec, edge, k=3, budget=n).current
        digests[str(s.n)] = hashlib.sha256(predim.canonical_code(s)).hexdigest()

    class TinyGeneric(workloads.GenericK3):
        BUDGET, BUILT = 10, built
        AUDITS_BUILT = ((3, (audit.satisfied, audit.total)),)
        RESUME, RESUMED = 4, resumed
        AUDITS_RESUMED = ((3, (audit2.satisfied, audit2.total)),)
        CAPPED_BUDGET, CAPPED = 8, (capped.current.n, len(capped.history))
        CANON_SIZES = (6, 8)

        def __init__(self, *args):
            super().__init__(*args)
            self.canon_digests = digests

    return TinyGeneric


class TinyPregeometry(workloads.PregeometryN40):
    CYCLES = 1
    LAWS = 1
    trace_blocks = 1


class TinyMatroid(workloads.MatroidClosure):
    def __init__(self, *args):
        super().__init__(*args)
        self.pool = self.pool[:6]


class TinyCli(workloads.CliCold):
    trace_blocks = 1


def _tiny(name: str):
    return {
        "generic-k3": _tiny_generic,
        "pregeometry-n40": lambda: TinyPregeometry,
        "matroid-closure": lambda: TinyMatroid,
        "cli-cold": lambda: TinyCli,
    }[name]()


def _run(capsys, name: str, trace: int) -> tuple[int, dict]:
    rc = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


def _snapshot() -> dict:
    """Identity of every attribute of every predim module and traced class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "predim" or name.startswith("predim."):
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    for short, classes in tracer.METHODS.items():
        mod = sys.modules[f"predim.{short}"]
        for cls_name in classes:
            cls = getattr(mod, cls_name)
            snap.update({(cls_name, k): id(v) for k, v in vars(cls).items()})
    return snap


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(name, capsys, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    before = _snapshot()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, out = _run(capsys, name, trace)
        assert rc == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        assert set(out["metrics"]) == {m["name"] for m in BENCH[key]}
        for m in BENCH[key]:
            value = out["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert isinstance(value["value"], (int, float))
            if trace == 0:
                assert value["value"] > 0, m["name"]
    # every attribute the traced run patched is back
    after = _snapshot()
    assert {k: after.get(k) for k in before} == before


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.5, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = t.wrap("m.outer", body)
    outer()
    assert t.calls == {"m.inner": 2, "m.outer": 1}
    assert t.self_s["m.inner"] == 4.5
    assert t.self_s["m.outer"] == 10.0 - 4.5


def test_install_rebinds_imported_names_and_restore_puts_them_back():
    before = _snapshot()
    met_fast = predim.richness.met_fast
    t = tracer.Tracer()
    with t:
        # builder imported met_fast by name; both bindings are wrapped
        assert predim.builder.met_fast is not met_fast
        assert predim.builder.met_fast is predim.richness.met_fast
        spec = predim.PredimensionSpec.make(relational=True)
        with t.suspended():
            predim.delta(spec, workloads._edge())
        predim.delta(spec, workloads._edge())
    assert t.calls["predimension.delta"] == 1
    after = _snapshot()
    assert {k: after.get(k) for k in before} == before


def test_recorder_subtracts_the_sampler_and_applies_its_factor():
    class FixedSampler(workloads.SpeedSampler):
        def before_call(self):
            self.samples.append(2.0)

    sampler = FixedSampler()
    rec = workloads.Recorder(sampler)

    def call():
        time.sleep(0.05)
        # as if the handler had run for 0.03 s and sampled during the call
        sampler.spent += 0.03
        sampler.samples.append(4.0)
        return "ok"

    out, elapsed = rec.timed(call)
    assert out == "ok" and rec.op_s == [elapsed]
    # (0.05 s less 0.03 s) times the mean of the samples before and during
    assert 0.02 <= elapsed / 3.0 < 0.05


def test_speed_sampler_samples_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with workloads.SpeedSampler() as sampler:
        time.sleep(0.5)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2 and sampler.spent > 0


def test_wrong_answer_fails_the_run(capsys, monkeypatch):
    class Broken(TinyMatroid):
        def __init__(self, *args):
            super().__init__(*args)
            self.pool = [dict(e) for e in self.pool]
            self.pool[0]["in_class"] = not self.pool[0]["in_class"]

    monkeypatch.setitem(workloads.WORKLOADS, "matroid-closure", Broken)
    rc, out = _run(capsys, "matroid-closure", 0)
    assert rc == 1
    assert not out["correct"] and out["failed"] >= 1


def test_matroid_pins_match_the_brute_oracles():
    wl = workloads.MatroidClosure(0, None)
    small = [e for e in wl.pool if e["n"] <= 9][:6]
    assert small
    for entry in small:
        spec = workloads.matroid_spec(entry["spec"])
        struct = workloads.pool_structure(entry)
        assert predim.brute_force_is_strong(spec, struct, ()).verdict == entry["in_class"]
        for base, closed, ref in zip(entry["bases"], entry["closure"], entry["is_strong"]):
            assert list(predim.brute_closure(spec, struct, base)) == closed
            rep = predim.brute_force_is_strong(spec, struct, base)
            assert (rep.verdict, rep.deficiency) == (ref["verdict"], Fraction(ref["deficiency"]))


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 19)]) == (100.0, 18.0)
    assert run.tail([float(x) for x in range(1, 41)])[0] == 75.0
    assert run.tail([float(x) for x in range(1, 1001)]) == (99.0, 990.0)
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
