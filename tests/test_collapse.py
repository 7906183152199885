from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from predim import (
    DEFAULT_MU,
    BiminimalError,
    FinStructure,
    LinearOracle,
    MuError,
    MuFunction,
    PredimensionSpec,
    ThriftyError,
    audit_richness,
    biminimal_base,
    build_collapsed,
    build_generic,
    canonical_code,
    classify_extension,
    count_independent_copies,
    enumerate_minimal_extensions,
    find_embeddings,
    in_class_mu,
    mu_violations,
    resume,
    thrifty_step,
)
from predim import collapse, richness
from predim.builder import classes_over
from predim.canonical import pinned_shape
from predim.sampling import graph_signature, random_sparse_graph
from predim.strongsets import strong_subsets

from conftest import graph, spec_alpha

F = Fraction


def _pendant_class(spec):
    return classify_extension(spec, graph(2, [(0, 1)]), [0])


def _star(leaves):
    return graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_mu_function_validation():
    with pytest.raises(MuError):
        MuFunction(formula="cubic")
    with pytest.raises(MuError):
        MuFunction(params=(1,))
    with pytest.raises(MuError):
        MuFunction(params=(0, 0))  # cap of zero would empty the class
    with pytest.raises(MuError):
        MuFunction(params=(-1, 2))
    with pytest.raises(MuError):
        MuFunction(table=((b"x", 0),))
    with pytest.raises(MuError):
        MuFunction(table=((b"x", 1), (b"x", 2)))
    mu = MuFunction.from_dict({b"x": 5})
    assert mu.lookup(b"x") == 5
    assert mu.lookup(b"y") is None


def test_mu_value_table_hit_and_formula(alpha1):
    pend = _pendant_class(alpha1)
    capped = MuFunction.from_dict({pend.code: 3})
    assert capped.value(pend) == 3
    # default linear formula: 8 + 4 * new elements
    assert DEFAULT_MU.value(pend) == 12
    weighted = MuFunction(formula="weighted", params=(1, 2, 3))
    # one new element, one unit edge: 1 + 2*1 + 3*1
    assert weighted.value(pend) == 6


def test_copy_counts_frozen(alpha1, k3, path4):
    pend = _pendant_class(alpha1)
    assert count_independent_copies(alpha1, _star(3), [0], pend) == 3
    # in a triangle the two candidate copies share an edge
    assert count_independent_copies(alpha1, k3, [0], pend) == 1
    assert count_independent_copies(alpha1, path4, [1], pend) == 2
    lone = graph(1, [])
    assert count_independent_copies(alpha1, lone, [0], pend) == 0


def test_copy_count_respects_cap(alpha1):
    pend = _pendant_class(alpha1)
    big = _star(6)
    assert count_independent_copies(alpha1, big, [0], pend) == 6
    assert count_independent_copies(alpha1, big, [0], pend, cap=2) >= 3


def test_copy_count_on_a_wide_star_needs_no_recursion(alpha1):
    # the search used to take one Python stack frame per chosen copy
    pend = _pendant_class(alpha1)
    star = _star(1500)
    assert count_independent_copies(alpha1, star, [0], pend) == 1500
    report = in_class_mu(alpha1, DEFAULT_MU, star, 2)
    assert report.violations == (((0,), pend.code, 1500, 12),)


def test_copy_count_rejects_foreign_base(alpha1, k3):
    pend = _pendant_class(alpha1)
    # base shape is a single point; an edge base cannot host the class
    with pytest.raises(MuError):
        count_independent_copies(alpha1, k3, [0, 1], pend)
    # same size, other shape: a class over an edge cannot sit over a non-edge
    over_edge = classify_extension(alpha1, graph(3, [(0, 1), (1, 2)]), [0, 1])
    with pytest.raises(MuError):
        count_independent_copies(alpha1, graph(3, [(1, 2)]), [0, 1], over_edge)
    # too few base elements is a shape mismatch too
    with pytest.raises(MuError):
        count_independent_copies(alpha1, k3, [0], over_edge)


def test_copy_count_rejects_a_base_outside_the_class_signature_or_the_structure(alpha1):
    pend = _pendant_class(alpha1)
    # the same one-point shape, over a signature with another edge weight
    with pytest.raises(MuError):
        count_independent_copies(alpha1, graph(2, [(0, 1)], F(1, 2)), [0], pend)
    with pytest.raises(MuError):
        count_independent_copies(alpha1, graph(2, [(0, 1)]), [5], pend)


def _brute_copy_count(spec, struct, base, cls):
    fixed = {a: a for a in base}
    hits = find_embeddings(cls.ext, struct, fixed=fixed)
    images = sorted(
        {frozenset(m[e] for e in cls.new_elements) for m in hits},
        key=lambda s: tuple(sorted(s)),
    )

    def independent(a, b):
        if a & b:
            return False
        for _, t in struct.all_instances():
            ts = set(t)
            if ts & a and ts & b:
                return False
        return True

    best = 0
    for r in range(len(images), 0, -1):
        for family in combinations(images, r):
            if all(independent(a, b) for a, b in combinations(family, 2)):
                return r
    return best


def test_copy_count_matches_brute_on_random_graphs(alpha1):
    rng = random.Random(61)
    pend = _pendant_class(alpha1)
    for _ in range(60):
        g = random_sparse_graph(rng, rng.randrange(2, 8), extra_edges=rng.randrange(3))
        base = (rng.choice(g.universe),)
        cls = pend.transport(g.restrict(base))
        expected = _brute_copy_count(alpha1, g, base, cls)
        assert count_independent_copies(alpha1, g, base, cls) == expected
        # the untransported class, pinned onto the base, counts the same
        assert count_independent_copies(alpha1, g, base, pend) == expected


def test_biminimal_base_examples(alpha1):
    # pendant hanging off element 1 inside base {0,1}: the least sub-base is {1}
    ext = graph(3, [(1, 2)])
    assert biminimal_base(alpha1, ext, [0, 1]) == (1,)
    # an isolated new element is never prealgebraic over anything
    iso = graph(2, [])
    with pytest.raises(BiminimalError):
        biminimal_base(alpha1, iso, [0])
    # the apex of a triangle is prealgebraic over either endpoint alone, so
    # there is no least sub-base
    tri = graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(BiminimalError):
        biminimal_base(alpha1, tri, [0, 1])


def test_biminimal_base_refuses_a_base_outside_the_class(alpha1, monkeypatch):
    # a path 0-...-15 with a K4 on 15..18 (crowded) and a pendant new element
    # 19 at 0: refused after one membership test, with no subset walked
    path = [(i, i + 1) for i in range(15)]
    k4 = [(a, b) for a, b in combinations(range(15, 19), 2)]
    ext = graph(20, path + k4 + [(0, 19)])
    walks = []
    monkeypatch.setattr(collapse, "strong_subsets", lambda *args: walks.append(args))
    with pytest.raises(BiminimalError, match="^the base is outside the nonnegative class$"):
        biminimal_base(alpha1, ext, range(19))
    assert walks == []


def test_enumerate_minimal_extensions_frozen(alpha1):
    point = graph(1, [])
    classes = enumerate_minimal_extensions(alpha1, point, 2)
    # only the pendant is bi-minimal over a single point at this size
    assert len(classes) == 1
    assert classes[0].code == _pendant_class(alpha1).code
    edge = graph(2, [(0, 1)])
    # everything prealgebraic over the edge is already anchored at one endpoint
    assert enumerate_minimal_extensions(alpha1, edge, 1) == []


def test_mu_violations_frozen(alpha1, path4):
    pend = _pendant_class(alpha1)
    mu2 = MuFunction.from_dict({pend.code: 2})
    star3 = _star(3)
    report = in_class_mu(alpha1, mu2, star3, 2)
    assert not report.ok
    assert report.violations == (((0,), pend.code, 3, 2),)
    assert in_class_mu(alpha1, mu2, path4, 2).ok
    assert in_class_mu(alpha1, mu2, graph(0, []), 2).ok


def test_mu_violations_come_in_strong_base_order(alpha1):
    # weight-1/2 edges, every cap 1: the non-edges (0, 1), (2, 3), (8, 9)
    # and (10, 11) each have two common neighbours, and so has the edge
    # (4, 5), whose shape differs; the violations keep the bases' (size,
    # ids) order, as when they were checked one base at a time
    square = [(0, 2), (0, 3), (1, 2), (1, 3)]
    edges = square + [(4, 5), (4, 6), (5, 6), (4, 7), (5, 7)] + [(a + 8, b + 8) for a, b in square]
    g = graph(12, edges, Fraction(1, 2))
    mu = MuFunction(params=(1, 0))
    got = mu_violations(alpha1, mu, g, 3)
    assert [v[0] for v in got] == [(0, 1), (2, 3), (4, 5), (8, 9), (10, 11)]
    cache, want = {}, []
    for base in strong_subsets(alpha1, g, 3):
        key = (pinned_shape(g, base), 3 - len(base))
        if key not in cache:
            cache[key] = enumerate_minimal_extensions(alpha1, g.restrict(base), 3 - len(base))
        for cls in cache[key]:
            count = count_independent_copies(alpha1, g, base, cls)
            if count > mu.value(cls):
                want.append((base, cls.code, count, mu.value(cls)))
    assert got == tuple(want)


def test_minimal_classes_of_one_shape_agree_on_other_base_ids(alpha1):
    # the non-edges (2, 3) and (10, 11) of the graph above share a shape;
    # the catalogue's template sits over (0, 1), ids of neither, and its
    # bi-minimal filter checks each class on the template's own ids
    square = [(0, 2), (0, 3), (1, 2), (1, 3)]
    g = graph(12, square + [(a + 8, b + 8) for a, b in square], Fraction(1, 2))
    first, second = (2, 3), (10, 11)
    shape = pinned_shape(g, first)
    assert shape == pinned_shape(g, second)
    through = classes_over(alpha1, g.sig, shape, 1, collapse._biminimal)
    assert through and all(cls.base.universe == (0, 1) for cls in through)
    codes = [cls.code for cls in through]
    for base in (first, second):
        assert [cls.code for cls in enumerate_minimal_extensions(alpha1, g.restrict(base), 1)] == codes
        assert [cls.code for cls in classes_over(alpha1, g.sig, pinned_shape(g, base), 1, collapse._biminimal)] == codes


def test_mu_violations_need_class_membership(alpha1, k4):
    with pytest.raises(MuError):
        mu_violations(alpha1, DEFAULT_MU, k4, 2)


def test_mu_violations_incremental_matches_full(alpha1):
    rng = random.Random(62)
    pend = _pendant_class(alpha1)
    mu = MuFunction.from_dict({pend.code: 2}, params=(8, 4))
    for _ in range(40):
        g = random_sparse_graph(rng, rng.randrange(2, 9), extra_edges=1)
        full = mu_violations(alpha1, mu, g, 2)
        seen = set()
        for e in g.universe:
            seen.update(mu_violations(alpha1, mu, g, 2, around=[e]))
        # every violation surfaces from some touched element's neighbourhood
        assert set(full) == set(
            v for v in seen
        ) or set(full).issubset(seen)


def test_thrifty_step_free_when_caps_allow(alpha1):
    star = _star(3)
    pend = graph(2, [(0, 1)]).relabel({0: 0, 1: 9})
    out = thrifty_step(alpha1, DEFAULT_MU, star, (0,), pend, bound=2, cross_check=True)
    assert out.free
    assert out.struct.n == star.n + 1
    assert not out.violations


def _counted_scans(monkeypatch):
    scans = []
    scan = collapse.mu_violations
    monkeypatch.setattr(collapse, "mu_violations", lambda *a, **kw: scans.append(kw) or scan(*a, **kw))
    return scans


def test_cross_check_rescans_only_when_the_scans_differ(alpha1, monkeypatch):
    # relational: the local scan and the full recount, compared; with a
    # matroid component the local scan is already the full one
    scans = _counted_scans(monkeypatch)
    pend = graph(2, [(0, 1)]).relabel({0: 0, 1: 9})
    assert thrifty_step(alpha1, DEFAULT_MU, _star(3), (0,), pend, bound=2, cross_check=True).free
    assert [sorted(kw) for kw in scans] == [["around"], []]
    scans.clear()
    linear = PredimensionSpec.make(relational=True, components=((LinearOracle(5), F(1)),))
    sig = graph_signature()
    edge = FinStructure(sig, (0, 1), {"E": [(0, 1)]}, {0: ("1",), 1: ("1",)})
    pend = FinStructure(sig, (0, 5), {"E": [(0, 5)]}, {0: ("1",), 5: ("1",)})
    assert thrifty_step(linear, DEFAULT_MU, edge, (0,), pend, bound=2, cross_check=True).free
    assert [sorted(kw) for kw in scans] == [["around"]]


def test_thrifty_step_embeds_when_cap_hit(alpha1):
    star = _star(3)
    pend = graph(2, [(0, 1)]).relabel({0: 0, 1: 9})
    mu3 = MuFunction.from_dict({_pendant_class(alpha1).code: 3})
    out = thrifty_step(alpha1, mu3, star, (0,), pend, bound=2, cross_check=True)
    assert not out.free
    assert out.struct == star  # nothing added
    assert dict(out.mapping)[9] in {1, 2, 3}
    assert out.violations


def test_thrifty_step_counts_annotated_copies_under_a_linear_spec():
    # the cap check enumerates classes with annotated new elements, so the
    # second copy of the pendant vector trips the cap of 1 and the step
    # embeds onto the existing copy instead of breaking the cap
    spec = PredimensionSpec.make(relational=True, components=((LinearOracle(5), F(1)),))
    sig = graph_signature()
    mu1 = MuFunction(params=(1, 0))
    edge = FinStructure(sig, (0, 1), {"E": [(0, 1)]}, {0: ("1",), 1: ("1",)})
    pend = FinStructure(sig, (0, 5), {"E": [(0, 5)]}, {0: ("1",), 5: ("1",)})
    assert in_class_mu(spec, mu1, edge, 2).ok
    out = thrifty_step(spec, mu1, edge, (0,), pend, bound=2, cross_check=True)
    assert not out.free
    assert out.mapping == ((0, 0), (5, 1))
    assert in_class_mu(spec, mu1, out.struct, 2).ok


def test_thrifty_step_errors_with_no_room(alpha1):
    # the whole structure is the base: the embed horn has nowhere to land
    path = graph(2, [(0, 1)])
    pend = graph(2, [(0, 1)]).extended([9], {"E": [(1, 9)]})
    mu1 = MuFunction.from_dict({_pendant_class(alpha1).code: 1})
    with pytest.raises(ThriftyError):
        thrifty_step(alpha1, mu1, path, (0, 1), pend, bound=2)


def test_thrifty_step_refuses_a_base_that_is_not_strong(alpha1):
    # a point on a triangle is not strong: the triangle has delta 0 over it
    triangle = graph(3, [(0, 1), (1, 2), (0, 2)])
    pend = graph(2, [(0, 1)]).relabel({0: 0, 1: 9})
    with pytest.raises(ThriftyError, match="not strong"):
        thrifty_step(alpha1, DEFAULT_MU, triangle, (0,), pend, bound=2)


def test_thrifty_step_rejects_nonminimal(alpha1):
    # two isolated new points split into independent stages
    point = graph(1, [])
    split = point.extended([8, 9], {})
    with pytest.raises(ThriftyError):
        thrifty_step(alpha1, DEFAULT_MU, point, (0,), split, bound=2)


def test_build_collapsed_respects_caps(alpha1):
    pend = _pendant_class(alpha1)
    mu3 = MuFunction.from_dict({pend.code: 3})
    start = graph(2, [(0, 1)])
    ga = build_collapsed(alpha1, mu3, start, k=2, budget=14, bound=2, cross_check=True)
    report = in_class_mu(alpha1, mu3, ga.current, 2)
    assert report.ok
    assert ga.current.n <= 14


def test_build_collapsed_unconstrained_matches_generic(alpha1):
    # with caps far out of reach the dichotomy always takes the free horn
    start = graph(0, [])
    loose = build_collapsed(alpha1, DEFAULT_MU, start, k=2, budget=16)
    free = build_generic(alpha1, start, k=2, budget=16)
    assert canonical_code(loose.current) == canonical_code(free.current)


def test_resume_after_collapsed_build_matches_single_run(alpha1, monkeypatch):
    # resume continues with the collapsed step, so the caps still hold and
    # the staged build is the single build; both read one plan per code
    read: dict[bytes, set[int]] = {}
    plan_of = richness.plan_of

    def recorded(cls):
        plan = plan_of(cls)
        read.setdefault(cls.code, set()).add(id(plan))
        return plan

    monkeypatch.setattr(richness, "plan_of", recorded)
    edge = graph(2, [(0, 1)])
    mu2 = MuFunction.from_dict({_pendant_class(alpha1).code: 2})
    staged = build_collapsed(alpha1, mu2, edge, k=3, budget=12)
    resume(staged, 18)
    staged_read, read = read, {}
    one_shot = build_collapsed(alpha1, mu2, edge, k=3, budget=30)
    assert staged.current == one_shot.current
    assert [r.code for r in staged.history] == [r.code for r in one_shot.history]
    assert in_class_mu(alpha1, mu2, staged.current, 3).ok
    assert staged_read and read == staged_read
    assert all(len(ids) == 1 for ids in read.values())


def test_build_collapsed_rejects_bad_start(alpha1):
    pend = _pendant_class(alpha1)
    mu1 = MuFunction.from_dict({pend.code: 1})
    with pytest.raises(MuError):
        build_collapsed(alpha1, mu1, _star(2), k=2, budget=10)


def test_build_collapsed_still_audits(alpha1):
    ga = build_collapsed(alpha1, DEFAULT_MU, graph(0, []), k=2, budget=20)
    rep = audit_richness(alpha1, ga.current, 2)
    assert rep.fraction == F(1)
