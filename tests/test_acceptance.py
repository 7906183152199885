"""Acceptance gate.

One test per shipped guarantee, each printing a single
`[criterion N] label: PASS|FAIL` line next to the usual pytest verdict.
Budgets, seeds, and time limits are pinned; the tests never shrink a
budget to make a run pass.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from predim import (
    DEFAULT_MU,
    FinStructure,
    MuFunction,
    Signature,
    audit_amalgamation,
    audit_dim_additivity,
    audit_exchange,
    audit_oracle_equivalence,
    audit_strong_laws,
    audit_submodularity,
    brute_closure,
    build_collapsed,
    build_generic,
    canonical_code,
    classify_extension,
    closure,
    in_class_mu,
    parse_structure,
    resume,
    serialize_structure,
    structure_source,
    audit_richness,
)
from predim.cli import main
from predim.sampling import random_sparse_graph, random_vectors
from predim.strongsets import subset_tables

from conftest import graph, spec_alpha, spec_fusion

F = Fraction


def _verdict(capsys, num: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# criterion 1: submodularity, 10^4 triples per shipped spec, n <= 12, < 30 s


def test_criterion_1_submodularity(capsys):
    rel = spec_alpha()
    fus = spec_fusion()
    runs = [
        (rel, structure_source(rel, weight=F(1), max_n=12)),
        (rel, structure_source(rel, weight=F(1, 2), max_n=12)),
        (rel, structure_source(rel, weight=F(2, 3), max_n=12)),
        (fus, structure_source(fus, max_n=12)),
    ]
    start = time.monotonic()
    results = [
        audit_submodularity(spec, source, random.Random(11 + i), 10_000)
        for i, (spec, source) in enumerate(runs)
    ]
    elapsed = time.monotonic() - start
    checked = sum(r.checked for r in results)
    violations = sum(r.violations for r in results)
    ok = checked == 40_000 and violations == 0 and elapsed < 30.0
    _verdict(capsys, 1, "submodularity", ok)
    assert checked == 40_000
    assert violations == 0, [r.witness for r in results if r.witness]
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: transitivity and intersection-closure on 10^3 structures, < 60 s


def test_criterion_2_strong_laws(capsys):
    rel = spec_alpha()
    fus = spec_fusion()
    runs = [
        (rel, structure_source(rel, max_n=10), 600),
        (rel, structure_source(rel, weight=F(2, 3), max_n=10), 200),
        (fus, structure_source(fus, max_n=10), 200),
    ]
    start = time.monotonic()
    results = [
        audit_strong_laws(spec, source, random.Random(7 + i), samples)
        for i, (spec, source, samples) in enumerate(runs)
    ]
    elapsed = time.monotonic() - start
    checked = sum(r.checked for r in results)
    violations = sum(r.violations for r in results)
    # one transitivity chain and one intersection pair per structure
    ok = checked == 2_000 and violations == 0 and elapsed < 60.0
    _verdict(capsys, 2, "strong-set laws", ok)
    assert checked == 2_000
    assert violations == 0, [r.witness for r in results if r.witness]
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: fast strength engines vs the exhaustive oracle, 10^4 instances,
# free part <= 12, < 2 min


def test_criterion_3_oracle_equivalence(capsys):
    rel = spec_alpha()
    fus = spec_fusion()
    runs = [
        (rel, structure_source(rel, max_n=14), 4_000),
        (rel, structure_source(rel, weight=F(1, 2), max_n=12), 2_000),
        (rel, structure_source(rel, weight=F(2, 3), max_n=12), 2_000),
        (fus, structure_source(fus, max_n=14), 2_000),
    ]
    start = time.monotonic()
    results = [
        audit_oracle_equivalence(spec, source, random.Random(3 + i), samples)
        for i, (spec, source, samples) in enumerate(runs)
    ]
    elapsed = time.monotonic() - start
    checked = sum(r.checked for r in results)
    violations = sum(r.violations for r in results)
    ok = checked == 10_000 and violations == 0 and elapsed < 120.0
    _verdict(capsys, 3, "oracle equivalence", ok)
    assert checked == 10_000
    assert violations == 0, [r.witness for r in results if r.witness]
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: closure equals the brute-force least strong superset for every
# subset of every fixture structure (all <= 12 elements), exactly


def test_criterion_4_closure_exact(capsys):
    rel = spec_alpha()
    fus = spec_fusion()
    rng = random.Random(2026)
    fixtures = [
        (rel, graph(3, [(0, 1), (1, 2), (2, 0)])),
        (rel, graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
        (rel, graph(7, [(i, i + 1) for i in range(6)])),
        (rel, graph(6, [(i, (i + 1) % 6) for i in range(6)])),
        (rel, graph(8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7)])),
        (rel, random_sparse_graph(rng, 12, 4)),
        (rel, random_sparse_graph(rng, 12, 6)),
        (rel, graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], weight=F(1, 2))),
        (rel, graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)], weight=F(2, 3))),
        (fus, FinStructure(Signature(()), range(8), None, random_vectors(rng, 8, 3, 5))),
    ]
    assert all(len(s.universe) <= 12 for _, s in fixtures)
    total = 0
    mismatches = []
    for spec, s in fixtures:
        tables = subset_tables(spec, s)
        elems = sorted(s.universe)
        for r in range(len(elems) + 1):
            for a in itertools.combinations(elems, r):
                total += 1
                fast = closure(spec, s, a)
                slow = brute_closure(spec, s, a, tables=tables)
                if fast != slow:
                    mismatches.append((a, fast, slow))
    ok = total == 9_016 and not mismatches
    _verdict(capsys, 4, "closure vs brute force", ok)
    assert total == 9_016
    assert not mismatches, mismatches[:3]


# ---------------------------------------------------------------------------
# criterion 5: 10^3 free amalgams of class members over strong bases


def test_criterion_5_amalgamation(capsys):
    rel = spec_alpha()
    result = audit_amalgamation(
        rel, structure_source(rel, max_n=9), random.Random(5), 1_000
    )
    ok = result.checked == 1_000 and result.violations == 0
    _verdict(capsys, 5, "free amalgamation", ok)
    assert result.checked == 1_000
    assert result.violations == 0, result.witness


# ---------------------------------------------------------------------------
# criterion 6: generic build at k=3, richness audits before and after resume


@pytest.fixture(scope="module")
def k3_build():
    rel = spec_alpha()
    start = time.monotonic()
    ga = build_generic(rel, graph(2, [(0, 1)]), k=3, budget=40)
    approx = ga.current
    level3 = audit_richness(rel, approx, 3)
    level4_before = audit_richness(rel, approx, 4)
    resume(ga, 40)
    level4_after = audit_richness(rel, ga.current, 4)
    elapsed = time.monotonic() - start
    return SimpleNamespace(
        spec=rel,
        approx=approx,
        level3=level3,
        level4_before=level4_before,
        level4_after=level4_after,
        elapsed=elapsed,
    )


def test_criterion_6_richness(capsys, k3_build):
    b = k3_build
    non_decreasing = b.level4_after.fraction >= b.level4_before.fraction
    ok = non_decreasing and b.elapsed < 300.0 and b.level3.fraction == 1
    _verdict(capsys, 6, "richness after generic build", ok)
    assert b.level3.total > 0
    # seeded run: 22148/23451 before, 151784/156723 after
    assert non_decreasing, (
        f"level-4 fraction fell: {b.level4_before.fraction} -> {b.level4_after.fraction}"
    )
    assert b.elapsed < 300.0, f"took {b.elapsed:.1f}s"
    assert b.level3.fraction == 1, (
        f"level-3 richness is {b.level3.satisfied}/{b.level3.total}, not 100%, and no "
        "finite structure in the class can do better: the one-point class over the "
        "empty base forces a strong singleton, so some component is a tree; every "
        "finite tree has a vertex of degree at most one, and that vertex is itself a "
        "strong singleton whose two-pendant obligation needs two neighbours. The "
        "unmet fringe moves outward with every discharge but never vanishes."
    )


# ---------------------------------------------------------------------------
# criterion 7: exchange and dimension additivity on the k=3 approximation


def test_criterion_7_pregeometry(capsys, k3_build):
    fixed = lambda rng: k3_build.approx
    exchange = audit_exchange(k3_build.spec, fixed, random.Random(9), 1_000)
    additivity = audit_dim_additivity(k3_build.spec, fixed, random.Random(9), 1_000)
    ok = (
        exchange.checked == 1_000
        and additivity.checked == 1_000
        and exchange.violations == 0
        and additivity.violations == 0
    )
    _verdict(capsys, 7, "pregeometry laws", ok)
    assert exchange.checked == 1_000
    assert exchange.violations == 0, exchange.witness
    assert additivity.checked == 1_000
    assert additivity.violations == 0, additivity.witness


# ---------------------------------------------------------------------------
# criterion 8: capped build respects mu, uncapped build matches the free one,
# incremental cap checks agree with full recounts at every step


def test_criterion_8_collapse(capsys):
    rel = spec_alpha()
    edge = graph(2, [(0, 1)])
    pendant = classify_extension(rel, edge, [0])
    mu = MuFunction.from_dict({pendant.code: 3})
    # cross_check recounts every cap from scratch after each step and raises
    # on any disagreement with the incremental scan
    capped = build_collapsed(rel, mu, edge, k=3, budget=30, cross_check=True)
    report = in_class_mu(rel, mu, capped.current, 3)
    free = build_generic(rel, edge, k=3, budget=25)
    collapsed = build_collapsed(rel, DEFAULT_MU, edge, k=3, budget=25, cross_check=True)
    match = canonical_code(free.current) == canonical_code(collapsed.current)
    ok = report.ok and match
    _verdict(capsys, 8, "mu-collapsed build", ok)
    assert report.ok, report.violations
    assert match


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports across thread caps, and every emitted
# structure survives parse/serialize as a fixed point


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _roundtrip_fixed_point(text: str) -> bool:
    struct = parse_structure(text)
    canon = serialize_structure(struct)
    return parse_structure(canon) == struct and serialize_structure(parse_structure(canon)) == canon


def test_criterion_9_determinism_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PREDIM_THREADS", raising=False)
    spec_file = tmp_path / "alpha.spec"
    spec_file.write_text("component relational on\n")

    audit_argv = ["audit-all", "--spec", str(spec_file), "--samples", "60", "--seed", "3"]
    rc1, audit_one = _run(capsys, audit_argv + ["--threads", "1"])
    rc4, audit_four = _run(capsys, audit_argv + ["--threads", "4"])

    build_argv = ["build", "--spec", str(spec_file), "--k", "2", "--budget", "12", "--seed", "1"]
    rb1, build_one = _run(capsys, build_argv + ["--threads", "1"])
    rb4, build_four = _run(capsys, build_argv + ["--threads", "4"])

    out_one = tmp_path / "collapse1.structure"
    out_four = tmp_path / "collapse4.structure"
    collapse_argv = ["collapse-build", "--spec", str(spec_file), "--k", "2", "--budget", "10", "--seed", "2"]
    rc_c1, collapse_one = _run(capsys, collapse_argv + ["--out", str(out_one), "--threads", "1"])
    rc_c4, collapse_four = _run(capsys, collapse_argv + ["--out", str(out_four), "--threads", "4"])

    monkeypatch.setenv("PREDIM_THREADS", "4")
    rc_env, audit_env = _run(capsys, audit_argv)
    monkeypatch.delenv("PREDIM_THREADS")

    codes_ok = {rc1, rc4, rb1, rb4, rc_c1, rc_c4, rc_env} == {0}
    reports_ok = audit_one == audit_four == audit_env and build_one == build_four
    files_ok = collapse_one == collapse_four and out_one.read_bytes() == out_four.read_bytes()
    emitted = [build_one, out_one.read_text()]
    roundtrip_ok = all(_roundtrip_fixed_point(text) for text in emitted)
    ok = codes_ok and reports_ok and files_ok and roundtrip_ok

    _verdict(capsys, 9, "determinism and round-trip", ok)
    assert codes_ok
    assert audit_one and build_one
    assert reports_ok
    assert files_ok
    assert roundtrip_ok
