from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from predim import (
    DEFAULT_MU,
    BuilderError,
    FinStructure,
    LinearOracle,
    MuFunction,
    PredimensionSpec,
    Signature,
    audit_richness,
    brute_force_is_strong,
    build_collapsed,
    build_generic,
    canonical_code,
    classify_extension,
    find_embeddings,
    free_extend,
    in_class,
    obligation_met,
    oracle_by_name,
    resume,
    serialize_structure,
    strong_verdict,
)
from predim import builder, richness
from predim.builder import _obligations, classes_over
from predim.canonical import pinned_shape
from predim.richness import Pseudoforest
from predim.strongsets import graph_strong, strong_subsets_by_shape, valid_pseudoforest
from predim.sampling import random_sparse_graph, random_subset
from predim.structures import GRAPH_SIG

from conftest import graph, spec_alpha, spec_fusion, vectors
from richness_oracle import oracle_met

F = Fraction


def _empty_graph():
    return graph(0, [])


def test_small_build_saturates(alpha1):
    ga = build_generic(alpha1, _empty_graph(), k=2, budget=20)
    rep = audit_richness(alpha1, ga.current, 2)
    assert ga.blocked is None
    assert rep.fraction == F(1)
    assert rep.satisfied == rep.total == 11
    assert ga.current.n == 4
    assert in_class(alpha1, ga.current)


def test_zero_budget_blocks_immediately(alpha1):
    ga = build_generic(alpha1, _empty_graph(), k=2, budget=0)
    assert ga.current.n == 0
    assert ga.blocked is not None
    assert ga.blocked.needed >= 1


def test_build_rejects_bad_inputs(alpha1, k4):
    with pytest.raises(BuilderError):
        build_generic(alpha1, _empty_graph(), k=0, budget=5)
    with pytest.raises(BuilderError):
        build_generic(alpha1, k4, k=2, budget=10)  # start outside the class
    with pytest.raises(BuilderError, match="^level k must be at least 1$"):
        audit_richness(alpha1, _empty_graph(), 0)


def test_resume_zero_is_identity(alpha1):
    ga = build_generic(alpha1, _empty_graph(), k=3, budget=12)
    before = ga.current
    out = resume(ga, 0)
    assert out is ga
    assert ga.current == before
    with pytest.raises(BuilderError):
        resume(ga, -1)


def test_resume_matches_single_run(alpha1):
    one_shot = build_generic(alpha1, _empty_graph(), k=3, budget=24)
    staged = build_generic(alpha1, _empty_graph(), k=3, budget=10)
    resume(staged, 14)
    assert staged.current == one_shot.current
    assert [r.code for r in staged.history] == [r.code for r in one_shot.history]


def test_richness_never_drops_on_resume(alpha1):
    ga = build_generic(alpha1, _empty_graph(), k=3, budget=8)
    prev = audit_richness(alpha1, ga.current, 3).fraction
    for _ in range(3):
        resume(ga, 8)
        cur = audit_richness(alpha1, ga.current, 3).fraction
        assert cur >= prev
        prev = cur


def test_history_records_replay(alpha1):
    ga = build_generic(alpha1, _empty_graph(), k=2, budget=16)
    assert [r.step for r in ga.history] == list(range(len(ga.history)))
    for rec in ga.history:
        assert all(e in ga.current for e in rec.new_elements)


def test_audit_unmet_lists_witnesses(alpha1):
    ga = build_generic(alpha1, _empty_graph(), k=3, budget=6)
    rep = audit_richness(alpha1, ga.current, 3)
    assert rep.satisfied < rep.total
    assert len(rep.unmet) == rep.total - rep.satisfied
    base, code = rep.unmet[0]
    assert strong_verdict(alpha1, ga.current, base)
    assert isinstance(code, bytes)


def test_audit_vacuous_on_empty_structure(alpha1):
    rep = audit_richness(alpha1, _empty_graph(), 2)
    # the empty base is strong, so its classes are still obligations
    assert rep.total > 0


def test_obligation_met_fast_matches_generic(alpha1):
    rng = random.Random(51)
    for _ in range(40):
        g = random_sparse_graph(rng, rng.randrange(2, 9), extra_edges=1)
        if not in_class(alpha1, g):
            continue
        if not valid_pseudoforest(alpha1, g):
            continue
        pf = Pseudoforest(g)
        base = random_subset(rng, g.universe, k=min(g.n, rng.randrange(1, 3)))
        if not strong_verdict(alpha1, g, base):
            continue
        for cls in classes_over(alpha1, g.sig, pinned_shape(g, base), 2):
            fast = not richness.met_fast(pf, cls, [base])
            slow = obligation_met(alpha1, g, base, cls)
            assert fast == slow


def test_met_fast_shares_plans_with_transported_classes(alpha1):
    # a transported class has the plan's code but other base ids; the plan
    # pins the base in its own coordinates
    pend = classify_extension(alpha1, graph(2, [(0, 1)]), [0])
    g = graph(4, [(0, 1), (2, 3)])
    pf = Pseudoforest(g)
    moved = pend.transport(g.restrict([2]))
    assert richness.met_fast(pf, pend, [(0,)]) == []
    assert obligation_met(alpha1, g, (2,), moved)
    assert richness.met_fast(pf, moved, [(2,)]) == []


def _random_pseudoforest(rng: random.Random, n: int):
    """Trees and unicyclic components: a random tree per component, closed
    into one cycle (of length three or more) with probability one half."""
    edges = set()
    start = 0
    while start < n:
        size = rng.randrange(1, min(6, n - start) + 1)
        comp = list(range(start, start + size))
        for i in range(1, size):
            edges.add((comp[rng.randrange(i)], comp[i]))
        chords = [
            (a, b) for i, a in enumerate(comp) for b in comp[i + 1:] if (a, b) not in edges
        ]
        if chords and rng.random() < 0.5:
            edges.add(rng.choice(chords))
        start += size
    return graph(n, sorted(edges))


def _assert_fast_matches_generic(spec, g, max_base, level):
    """Fast and generic verdicts on the untransported catalogue classes over
    every strong base, with one Pseudoforest shared by all bases."""
    assert valid_pseudoforest(spec, g)
    pf = Pseudoforest(g)
    checked = 0
    for size in range(0, max_base + 1):
        for base in combinations(g.universe, size):
            if base and not graph_strong(g, base):
                continue
            for cls in classes_over(spec, g.sig, pinned_shape(g, base), max(level - size, 1)):
                fast = not richness.met_fast(pf, cls, [base])
                assert fast == obligation_met(spec, g, base, cls), (base, cls.code)
                checked += 1
    return checked


def test_fast_matches_generic_on_template_classes_at_n40(alpha1):
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    # the level-4 audit's obligations
    assert _assert_fast_matches_generic(alpha1, g, 3, 4) == 23451


def test_fast_matches_generic_on_random_pseudoforests(alpha1):
    rng = random.Random(52)
    for _ in range(12):
        g = _random_pseudoforest(rng, rng.randrange(3, 10))
        assert _assert_fast_matches_generic(alpha1, g, 2, 3) > 0


def _brute_pseudoforest(g):
    """Components (by their minimum) and class membership straight from the
    instance lists: valid when no component has more edges than vertices."""
    edges = [t for name in g.sig.names for t in sorted(g.instances[name])]
    comps = [{e} for e in g.universe]
    for u, v in edges:
        cu = next(c for c in comps if u in c)
        cv = next(c for c in comps if v in c)
        if cu is not cv:
            comps.remove(cv)
            cu |= cv
    comps = {min(c): sorted(c) for c in comps}
    valid = all(sum(1 for u, _ in edges if u in c) <= len(c) for c in comps.values())
    return valid, comps


def test_pseudoforest_matches_brute_with_parallel_edges(alpha1):
    # F repeats some E pairs, so components can close on a parallel pair
    sig = Signature((("E", 2), ("F", 2)))
    rng = random.Random(53)
    members = outside = 0
    for i in range(60):
        n = rng.randrange(2, 10)
        if i % 2:
            base = _random_pseudoforest(rng, n)
        else:
            base = random_sparse_graph(rng, n, extra_edges=rng.randrange(4))
        e_pairs = sorted(base.instances["E"])
        f_pairs = [t for t in e_pairs if rng.random() < 0.2]
        g = FinStructure(sig, range(n), {"E": e_pairs, "F": f_pairs})
        pf = Pseudoforest(g)
        valid, comps = _brute_pseudoforest(g)
        assert valid_pseudoforest(alpha1, g) == valid == in_class(alpha1, g)
        assert pf.comp_elems == comps
        assert all(pf.comp_of[e] == r for r, c in comps.items() for e in c)
        if not valid:
            outside += 1
            continue
        members += 1
        for size in (1, 2, 3):
            for s in combinations(g.universe, size):
                assert graph_strong(g, s) == brute_force_is_strong(alpha1, g, s).verdict, s
    assert members >= 20 and outside >= 10


def _pieces(elems, edges):
    """Components of the graph on `elems` with the edges inside it."""
    comps = [{e} for e in elems]
    for u, v in edges:
        cu = next((c for c in comps if u in c), None)
        cv = next((c for c in comps if v in c), None)
        if cu is not None and cv is not None and cu is not cv:
            comps.remove(cv)
            cu |= cv
    return comps


def test_strong_bases_meet_components_in_pendant_branches(alpha1):
    # the lemma behind `met_fast`: over a strong base A, each component C
    # that A meets has A & C connected with C's cyclomatic number, and every
    # element of C outside A lies in a branch, a tree joined to A by exactly
    # one instance; straight from the instance lists
    sig = Signature((("E", 2), ("F", 2)))
    rng = random.Random(54)
    structures = parallel = cyclic = branches = 0
    for _ in range(80):
        n = rng.randrange(3, 11)
        e_pairs = sorted(_random_pseudoforest(rng, n).instances["E"])
        f_pairs = [t for t in e_pairs if rng.random() < 0.2]
        g = FinStructure(sig, range(n), {"E": e_pairs, "F": f_pairs})
        valid, comps = _brute_pseudoforest(g)
        if not valid:
            continue
        structures += 1
        parallel += bool(f_pairs)
        cyclic += 0 in g.components()[2].values()  # some component has one cycle
        edges = e_pairs + f_pairs

        def inner(elems):
            return sum(1 for t in edges if elems.issuperset(t))

        for size in (0, 1, 2):
            for base in combinations(g.universe, size):
                if not graph_strong(g, base):
                    continue
                for comp in map(set, comps.values()):
                    met = comp.intersection(base)
                    if not met:
                        continue
                    assert len(_pieces(met, edges)) == 1, (base, comp)
                    assert inner(met) - len(met) == inner(comp) - len(comp), (base, comp)
                    for branch in _pieces(comp - met, edges):
                        joins = [t for t in edges if len(branch.intersection(t)) == 1]
                        assert len(joins) == 1 and inner(branch) == len(branch) - 1, (base, branch)
                        branches += 1
    assert structures >= 40 and parallel >= 10 and cyclic >= 20 and branches >= 400


def test_anchored_image_over_a_base_on_a_cycle_is_not_strong(alpha1):
    # the strong base is needed: the point 0 on the triangle is not strong,
    # and the pendant over it has an image, {0, 3}, that misses the cycle
    g = graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    pendant = classify_extension(alpha1, graph(2, [(0, 1)]), [0])
    images = [set(m.values()) for m in find_embeddings(pendant.ext, g, fixed=pendant.base_map((0,)))]
    assert not graph_strong(g, (0,))
    assert {0, 3} in images
    assert not graph_strong(g, (0, 3))


def test_obligation_met_decides_a_base_that_is_not_strong_generically(alpha1):
    # the pendant over the point 0 of the triangle 0-1-2 (with a pendant 3
    # at 0): every pendant image misses the cycle or takes it whole
    g = graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    pendant = classify_extension(alpha1, graph(2, [(0, 1)]), [0])
    assert not obligation_met(alpha1, g, (0,), pendant)


def test_fast_matches_generic_at_level4_on_two_symbol_pseudoforests(alpha1):
    # F repeats some E pairs and replaces E on others; bases of up to 3
    # elements, classes of up to 4
    sig = Signature((("E", 2), ("F", 2)))
    rng = random.Random(55)
    checked = parallel = cyclic = 0
    for _ in range(16):
        n = rng.randrange(4, 9)
        pairs = sorted(_random_pseudoforest(rng, n).instances["E"])
        rolls = [rng.random() for _ in pairs]
        e_pairs = [t for t, r in zip(pairs, rolls) if r < 0.2 or r >= 0.45]
        f_pairs = [t for t, r in zip(pairs, rolls) if r < 0.45]
        g = FinStructure(sig, range(n), {"E": e_pairs, "F": f_pairs})
        if not valid_pseudoforest(alpha1, g):
            continue
        parallel += not set(e_pairs).isdisjoint(f_pairs)
        cyclic += 0 in g.components()[2].values()
        checked += _assert_fast_matches_generic(alpha1, g, 3, 4)
    assert parallel >= 3 and cyclic >= 3 and checked >= 3000


def _assert_runs_match_oracle(spec, g, level, seen):
    """`met_fast` on every run of the audit's obligations against the frozen
    per-obligation check, each side with a Pseudoforest of its own; counts
    the obligations, and the runs that mix met and unmet bases, in `seen`."""
    pf, frozen = Pseudoforest(g), Pseudoforest(g)
    for cls, bases in _obligations(spec, g.sig, strong_subsets_by_shape(spec, g, level), level):
        want = [A for A in bases if not oracle_met(frozen, A, cls)]
        assert richness.met_fast(pf, cls, bases) == want, cls.code
        seen["obligations"] += len(bases)
        seen["mixed"] += 0 < len(want) < len(bases)


def test_runs_match_the_per_obligation_oracle_at_n40(alpha1):
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    seen = Counter()
    _assert_runs_match_oracle(alpha1, g, 4, seen)
    assert seen["obligations"] == 23451 and seen["mixed"] > 10


def test_runs_match_the_per_obligation_oracle_on_random_pseudoforests(alpha1):
    # the single-symbol pseudoforests, and two-symbol ones where F repeats
    # some E pairs and replaces E on others, at levels 3 and 4
    rng = random.Random(56)
    seen = Counter()
    for i in range(30):
        g = _random_pseudoforest(rng, rng.randrange(3, 11))
        if i % 2:
            pairs = sorted(g.instances["E"])
            rolls = [rng.random() for _ in pairs]
            g = FinStructure(EF, g.universe, {
                "E": [t for t, r in zip(pairs, rolls) if r < 0.2 or r >= 0.45],
                "F": [t for t, r in zip(pairs, rolls) if r < 0.45],
            })
        if valid_pseudoforest(alpha1, g):
            _assert_runs_match_oracle(alpha1, g, 3 + i % 2, seen)
    assert seen["obligations"] >= 5000 and seen["mixed"] >= 50, seen


EF = Signature((("E", 2), ("F", 2)))


@pytest.mark.parametrize("host, ext, base", [
    # a new element joined to two base elements
    (graph(4, [(0, 2), (1, 3)]), graph(3, [(0, 2), (1, 2)]), (0, 1)),
    # a new part that closes a cycle through the base
    (graph(3, [(0, 1), (1, 2)]), graph(3, [(0, 1), (0, 2), (1, 2)]), (0, 1)),
    # a new part that closes a cycle of its own
    (graph(4, [(0, 1), (1, 2), (2, 3)]), graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)]), (0,)),
], ids=["two-base-elements", "cycle-through-base", "cycle-of-its-own"])
def test_anchored_part_that_is_not_a_pendant_forest_is_unmet(alpha1, host, ext, base):
    cls = classify_extension(alpha1, ext, base)
    pf = Pseudoforest(host)
    assert graph_strong(host, base)
    assert pf.plan(cls).places is None
    assert richness.met_fast(pf, cls, [base]) == [base]
    assert not obligation_met(alpha1, host, base, cls)


@pytest.mark.parametrize("host, ext", [
    # two trees at a base element that has one branch, the path 0-1-2
    (graph(3, [(0, 1), (1, 2)]), graph(3, [(0, 1), (0, 2)])),
    # an F-attached tree where the one branch hangs by E (with F below it)
    (FinStructure(EF, range(3), {"E": [(0, 1)], "F": [(1, 2)]}),
     FinStructure(EF, range(2), {"F": [(0, 1)]})),
], ids=["two-trees-one-branch", "symbol-mismatch"])
def test_pendant_trees_that_do_not_fit_the_branches_are_unmet(alpha1, host, ext):
    cls = classify_extension(alpha1, ext, [0])
    pf = Pseudoforest(host)
    assert graph_strong(host, (0,))
    assert pf.plan(cls).places
    assert richness.met_fast(pf, cls, [(0,)]) == [(0,)]
    assert not obligation_met(alpha1, host, (0,), cls)


def test_free_extend_targets_and_fresh_ids():
    host = graph(3, [(0, 1)])
    ext = graph(2, [(0, 1)])  # pendant over base element 0
    grown, mapping = free_extend(host, ext, (0,))
    assert mapping[0] == 0 and mapping[1] == 3
    assert (0, 3) in grown.instances["E"]
    grown2, mapping2 = free_extend(host, ext, (0,), targets={1: 9})
    assert mapping2[1] == 9
    assert 9 in grown2


def test_free_extend_shifts_annotations():
    host = vectors((1, 0), (0, 1))
    ext = vectors((1,), (0, 1))  # base vector plus one new element on a fresh axis
    grown, mapping = free_extend(host, ext, (0,))
    new_id = mapping[1]
    toks = grown.annotation(new_id)
    # the fresh coordinate moved past both host axes
    assert toks.count("0") == len(toks) - 1
    assert toks[-1] == "1"
    assert len(toks) > 2


def test_free_extend_leaves_an_unannotated_new_element_unannotated():
    host = vectors((1, 0), (0, 1))
    ext = FinStructure(Signature(()), range(3), {}, {0: ("1",), 1: ("0", "1")})  # 2 has no vector
    grown, mapping = free_extend(host, ext, (0,))
    assert (mapping[1], mapping[2]) == (2, 3)
    assert grown.annotation(2) == ("0", "0", "1")  # the fresh axis moved past both host axes
    assert grown.annotation(3) == ()
    assert 3 not in grown.annotations


def test_fusion_build_saturates():
    spec = spec_fusion()
    from predim import FinStructure, Signature

    start = FinStructure(Signature(()), (), {})
    ga = build_generic(spec, start, k=2, budget=20)
    rep = audit_richness(spec, ga.current, 2)
    assert ga.blocked is None
    assert rep.fraction == F(1)
    assert ga.current.n == 9
    assert rep.total == 29


def test_build_deterministic_across_calls(alpha1):
    a = build_generic(alpha1, _empty_graph(), k=3, budget=18)
    b = build_generic(alpha1, _empty_graph(), k=3, budget=18)
    assert a.current == b.current
    assert canonical_code(a.current) == canonical_code(b.current)


# SHA-256 over the byte-exact schedules of three runs: the k=3 free build to
# 40 elements resumed by 20, the collapsed k=3 build to 30 elements with the
# pendant class capped at 3, and the level-4 audit's unmet list at n=40.
# The counts of these runs are pinned elsewhere; this pins their order and
# bytes, including the class codes in every history record.
SCHEDULE_SHA256 = "10c6ec897cfc463180de5a52af8074d357b0149627c771097686276fe362b5a7"

# SHA-256 of the history and final structure of the collapsed k=3 build
# under relational + 1/2 linear3 + 1/2 uniform2 from the empty graph, with
# the default mu, size bound 3 and budget 20.  Its class codes carry vector
# tokens, and a shape carries them too, so this pins the matroid path
# through the extension-class catalogue; computed before the catalogue
# replaced the per-build and per-call class caches.
FUSION_SCHEDULE_SHA256 = "b6d98ef8c8bb99f5558ce69bf9175ed7d75e1feae46f54c2d162e9a93a2eee5a"

# SHA-256 of the level-3 audit's unmet list at n=60 (the k=3 build from the
# edge to 40 elements resumed by 20), computed before `met_fast` dropped its
# per-map strength test and kept the free parts' verdict per component set.
UNMET60_SHA256 = "1917ab18a1bad65497fa2e15a4630d0ee33b14a7a74a55e0b4fa5f779a573804"

# SHA-256 of the level-5 audit's unmet list at n=40 (the k=3 build from the
# edge to 40 elements), computed before `met_fast` decided anchored parts on
# pendant branches instead of by an embedding search.
UNMET5_SHA256 = "a10dfa598866271b657d895e676415c97ced46decba714a068fe9c52933090fc"


def _pinned_schedules(spec) -> bytes:
    """The bytes behind `SCHEDULE_SHA256`."""
    edge = graph(2, [(0, 1)])
    ga = build_generic(spec, edge, k=3, budget=40)
    level4 = audit_richness(spec, ga.current, 4)
    resume(ga, 20)
    out = repr(ga.history).encode() + serialize_structure(ga.current).encode()
    pendant = classify_extension(spec, edge, [0])
    mu = MuFunction.from_dict({pendant.code: 3})
    capped = build_collapsed(spec, mu, edge, k=3, budget=30, cross_check=True)
    out += repr(capped.history).encode() + serialize_structure(capped.current).encode()
    assert (ga.current.n, capped.current.n, len(level4.unmet)) == (60, 30, 23451 - 22148)
    return out + repr(level4.unmet).encode()


def test_schedules_are_pinned(alpha1):
    assert hashlib.sha256(_pinned_schedules(alpha1)).hexdigest() == SCHEDULE_SHA256


@pytest.fixture
def cold_catalogue():
    builder._catalogue.cache_clear()
    yield
    builder._catalogue.cache_clear()


def test_catalogue_enumerates_each_key_once(alpha1, cold_catalogue, monkeypatch):
    # the pinned sequence reads 15 keys; run again, it enumerates nothing
    calls = []
    enumerate_extensions = builder.enumerate_extensions
    monkeypatch.setattr(builder, "enumerate_extensions", lambda *a: calls.append(a) or enumerate_extensions(*a))
    assert hashlib.sha256(_pinned_schedules(alpha1)).hexdigest() == SCHEDULE_SHA256
    assert len(calls) == len({(spec, base.sig, base.shape(base.universe), m) for spec, base, m in calls}) == 15
    assert hashlib.sha256(_pinned_schedules(alpha1)).hexdigest() == SCHEDULE_SHA256
    assert len(calls) == 15


def _schedules_and_audits(spec):
    ga = build_generic(spec, graph(2, [(0, 1)]), k=3, budget=40)
    level3 = audit_richness(spec, ga.current, 3)
    resume(ga, 20)
    return repr((ga.history, level3.unmet, audit_richness(spec, ga.current, 3).unmet)).encode()


def test_catalogue_entries_do_not_depend_on_who_asked_first(alpha1, cold_catalogue):
    cold = _schedules_and_audits(alpha1)
    enumerated = builder._catalogue.cache_info().misses
    builder._catalogue.cache_clear()
    # the same shapes under another spec, and bases of those shapes on other ids
    shifted = FinStructure(GRAPH_SIG, range(7, 12), {"E": [(7, 9), (9, 11), (8, 11)]})
    linear = PredimensionSpec.make(
        relational=True, components=((LinearOracle(3), F(1, 2)), (oracle_by_name("uniform2"), F(1, 2)))
    )
    audit_richness(linear, shifted, 3)
    audit_richness(alpha1, shifted, 3)
    warmed = builder._catalogue.cache_info().misses
    assert _schedules_and_audits(alpha1) == cold
    assert builder._catalogue.cache_info().misses - warmed < enumerated


def _fusion_collapsed_digest(**kw) -> str:
    spec = PredimensionSpec.make(
        relational=True, components=((LinearOracle(3), F(1, 2)), (oracle_by_name("uniform2"), F(1, 2)))
    )
    ga = build_collapsed(spec, DEFAULT_MU, graph(0, []), k=3, budget=20, bound=3, **kw)
    assert (ga.current.n, len(ga.history), ga.blocked.needed) == (20, 9, 3)
    return hashlib.sha256(repr(ga.history).encode() + serialize_structure(ga.current).encode()).hexdigest()


def test_fusion_collapsed_schedule_is_pinned():
    assert _fusion_collapsed_digest() == FUSION_SCHEDULE_SHA256


def test_a_walk_past_the_catalogue_bound_enumerates_each_key_once(cold_catalogue, monkeypatch):
    # every collapsed step rescans each shape's bi-minimal classes, and each
    # discharge rereads every shape's classes: with 8 entries kept between
    # walks, the build still enumerates each of its keys once, and clears
    # the catalogue as it ends
    monkeypatch.setattr(builder, "CATALOGUE_SIZE", 8)
    calls = Counter()
    enumerate_extensions = builder.enumerate_extensions

    def counted(spec, base, m):
        calls[spec, base.sig, base.shape(base.universe), m] += 1
        return enumerate_extensions(spec, base, m)

    monkeypatch.setattr(builder, "enumerate_extensions", counted)
    assert _fusion_collapsed_digest(cross_check=True) == FUSION_SCHEDULE_SHA256
    assert len(calls) > 8 and max(calls.values()) == 1
    assert builder._catalogue.cache_info().currsize == 0
    # a walk under the bound keeps its entries for the next one
    audit_richness(PredimensionSpec.make(relational=True), graph(2, [(0, 1)]), 2)
    assert 0 < builder._catalogue.cache_info().currsize <= 8


def test_level5_audit_at_n40_is_pinned(alpha1):
    # trees of up to 4 nodes, and several trees at one base element
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    rep = audit_richness(alpha1, g, 5)
    assert (rep.satisfied, rep.total) == (148775, 179486)
    assert hashlib.sha256(repr(rep.unmet).encode()).hexdigest() == UNMET5_SHA256


def test_level3_unmet_at_n60_is_pinned(alpha1):
    ga = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40)
    resume(ga, 20)
    rep = audit_richness(alpha1, ga.current, 3)
    assert (ga.current.n, rep.satisfied, rep.total) == (60, 4113, 4171)
    assert hashlib.sha256(repr(rep.unmet).encode()).hexdigest() == UNMET60_SHA256


def test_level4_audit_decides_free_parts_once_per_component_set(alpha1, monkeypatch):
    g = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    searches = Counter()
    search = richness._free_parts_fit

    def counted(pf, plan, roots):
        searches[id(plan), roots] += 1
        return search(pf, plan, roots)

    monkeypatch.setattr(richness, "_free_parts_fit", counted)
    rep = audit_richness(alpha1, g, 4)
    assert (rep.satisfied, rep.total) == (22148, 23451)
    assert searches and max(searches.values()) == 1
