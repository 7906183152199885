"""The strong-base walk and the obligation order against their frozen
oracles (`strongbase_oracle.py`), and counters on the work they do."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from predim import FinStructure, RichnessReport, Signature, audit_richness, build_generic, resume
from predim import builder, strongsets
from predim.builder import _obligations
from predim.canonical import pinned_shape
from predim.cli import main
from predim.strongsets import in_class, strong_subsets, strong_subsets_by_shape
from predim.textio import serialize_structure

from conftest import graph
from strongbase_oracle import oracle_obligations, oracle_strong_subsets

EF = Signature((("E", 2), ("F", 2)))


def _multigraph(rng: random.Random, n: int, kinds: str) -> FinStructure:
    """Components of up to five elements, each a random tree over E and F
    closed by as many chords as its kind asks ("t" none, "u" one, "c" two,
    which crowds it), with some E pairs doubled by F; the elements are
    shuffled so that components interleave in ids order."""
    ids = list(range(n))
    rng.shuffle(ids)
    pairs: dict[str, set[tuple[int, int]]] = {"E": set(), "F": set()}
    start = 0
    while start < n:
        comp = ids[start:start + rng.randrange(1, min(5, n - start) + 1)]
        start += len(comp)
        edges = [(comp[rng.randrange(i)], comp[i]) for i in range(1, len(comp))]
        chords = [(a, b) for i, a in enumerate(comp) for b in comp[i + 1:]
                  if (a, b) not in edges and (b, a) not in edges]
        rng.shuffle(chords)
        edges += chords[:"tuc".index(rng.choice(kinds))]
        for a, b in edges:
            pairs[rng.choice("EEF")].add((min(a, b), max(a, b)))
    for t in list(pairs["E"]):
        if rng.random() < 0.15:
            pairs["F"].add(t)  # a parallel pair, itself a cycle
    return FinStructure(EF, range(n), {name: sorted(ts) for name, ts in pairs.items()})


def test_walk_is_the_filter_on_weight_one_multigraphs(alpha1, monkeypatch):
    # the walk runs on valid pseudoforests only; a crowded structure goes to the filter
    walks = _counted(monkeypatch, strongsets, "_graph_strong_subsets")
    rng = random.Random(61)
    seen = {"forest": 0, "cyclic": 0, "parallel": 0, "crowded": 0, "near": 0, "bases": 0}
    for i in range(160):
        g = _multigraph(rng, rng.randrange(0, 12), ("t", "tu", "tuc")[i % 3])
        _, _, excess, crowded = g.components()
        seen["forest"] += all(x < 0 for x in excess.values())
        seen["cyclic"] += 0 in excess.values()
        seen["parallel"] += bool(g.instances["E"] & g.instances["F"])
        seen["crowded"] += bool(crowded)
        for below in range(6):
            nears = [None, set()] + [set(rng.sample(range(g.n), m)) for m in (1, 2, 3) if m <= g.n]
            for near in nears:
                walked = len(walks)
                want = oracle_strong_subsets(g, below, near)
                assert strong_subsets(alpha1, g, below, near) == want, (g, below, near)
                assert len(walks) == walked + (not crowded)
                # each walk-fed shape is the base's `pinned_shape`
                assert strong_subsets_by_shape(alpha1, g, below, near) == _grouped(g, want)
                seen["near"] += near is not None and len(want) > 1
                seen["bases"] += len(want)
    assert min(seen.values()) >= 20, seen


def _grouped(g, bases):
    """The bases grouped by `pinned_shape`, each group in the given order."""
    groups: dict = {}
    for A in bases:
        groups.setdefault(pinned_shape(g, A), []).append(A)
    return groups


def _runs(spec, g, k, cache):
    groups = strong_subsets_by_shape(spec, g, k)
    return [(A, cls) for cls, bases in _obligations(spec, g, groups, k, cache) for A in bases]


def test_obligation_runs_are_the_sorted_order(alpha1):
    rng = random.Random(62)
    cache: dict = {}  # one cache, so both sides read the same templates
    checked = 0
    for i in range(24):
        g = _multigraph(rng, rng.randrange(1, 10), ("t", "tu", "tuc")[i % 3])
        want = list(oracle_obligations(alpha1, g, oracle_strong_subsets(g, 3), 3, cache))
        got = _runs(alpha1, g, 3, cache)
        assert [(A, cls.code) for A, cls in got] == [(A, cls.code) for A, cls in want]
        assert all(a is b for (_, a), (_, b) in zip(got, want))
        checked += len(want)
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    want = list(oracle_obligations(alpha1, g, oracle_strong_subsets(g, 4), 4, cache))
    got = _runs(alpha1, g, 4, cache)
    assert [(A, cls.code) for A, cls in got] == [(A, cls.code) for A, cls in want]
    assert len(want) == 23451 and checked > 1000


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_weight_one_walk_makes_no_strength_test(alpha1, monkeypatch):
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    want, near = oracle_strong_subsets(g, 4), oracle_strong_subsets(g, 4, {0, 39})
    calls = _counted(monkeypatch, strongsets, "graph_strong")
    assert strong_subsets(alpha1, g, 4) == want
    assert strong_subsets(alpha1, g, 4, {0, 39}) == near
    assert strong_subsets_by_shape(alpha1, g, 4) == _grouped(g, want)
    assert calls == []


def _crowded_half_graph(n: int, seed: int) -> FinStructure:
    """A random tree on n elements plus random chords up to 2n + 5 edges of
    weight 1/2: delta of the whole set is -5/2, so it is outside the class."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n + 5:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return graph(n, sorted(edges), Fraction(1, 2))


def test_out_of_class_audit_walks_no_bases(alpha1, monkeypatch, tmp_path, capsys):
    g = _crowded_half_graph(500, 71)
    assert not in_class(alpha1, g)
    walks = _counted(monkeypatch, strongsets, "strong_subsets")
    rep = audit_richness(alpha1, g, 3)
    assert rep == RichnessReport(3, 0, 0, ()) and rep.fraction == 1
    assert walks == []
    # the CLI report, as it read when every strong base was walked
    (tmp_path / "alpha.spec").write_text("component relational on\n")
    (tmp_path / "half.structure").write_text(serialize_structure(g))
    argv = ["audit", "--spec", str(tmp_path / "alpha.spec"), "--k", "3", str(tmp_path / "half.structure")]
    assert main(argv) == 0
    head = "# k\t3\n# n\t500\n# satisfied\t0\n# total\t0\n"
    assert capsys.readouterr().out == head + serialize_structure(g)
    assert walks == []


def test_level_four_audit_decides_each_run_once(alpha1, monkeypatch):
    # 87 runs (class, bases of its shape) for 23,451 obligations, and the
    # grouping reads each base's instances off the walk, with no scan
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    runs = _counted(monkeypatch, builder, "met_fast")
    scans = _counted(monkeypatch, FinStructure, "inside")
    groups = strong_subsets_by_shape(alpha1, g, 4)
    assert sum(map(len, groups.values())) == 4635 and scans == []
    rep = audit_richness(alpha1, g, 4)
    assert (rep.satisfied, rep.total) == (22148, 23451)
    assert len(runs) == 87
    assert sum(len(bases) for _, _, bases in runs) == 23451


def test_level_four_audit_looks_classes_up_once_per_shape(alpha1, monkeypatch):
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    calls = _counted(monkeypatch, builder, "classes_over")
    rep = audit_richness(alpha1, g, 4)
    assert (rep.satisfied, rep.total) == (22148, 23451)
    assert len(calls) == 11  # one per shape among the 4,635 strong bases


def test_builder_computes_at_most_one_shape_per_strong_base(alpha1, monkeypatch):
    # base shapes only: certificates serialize whole extensions through the
    # same method, and the empty base's shape, a constant, comes once per walk
    shapes = []
    real = FinStructure.shape

    def shape(struct, order, *args):
        if order and sys._getframe(1).f_code.co_name != "_serialize":
            shapes.append(tuple(order))
        return real(struct, order, *args)

    monkeypatch.setattr(FinStructure, "shape", shape)
    ga = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40)
    resume(ga, 20)
    held = sum(map(len, ga._strong.values()))
    assert (ga.current.n, held) == (60, 1313)
    assert len(shapes) <= held - 1 and len(set(shapes)) == len(shapes)
    monkeypatch.undo()
    assert ga._strong == _grouped(ga.current, oracle_strong_subsets(ga.current, 3))
