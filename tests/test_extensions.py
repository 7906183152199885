from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from predim import (
    Embedding,
    FinStructure,
    LinearOracle,
    PredimensionSpec,
    Signature,
    SpecError,
    StructureError,
    classify_extension,
    code_over_base,
    enumerate_extensions,
    find_embeddings,
    linear_extension_palette,
    oracle_by_name,
)
from predim.sampling import graph_signature, random_structure

from conftest import graph, spec_alpha, spec_fusion, vectors
from extension_oracle import oracle_extensions

F = Fraction


def test_extension_classes_over_a_point():
    spec = spec_alpha()
    point = graph(1, [])
    classes = oracle_extensions(spec, point, 2)
    # by hand: 1 new element gives edge / non-edge; 2 new elements give the
    # six graphs on {base, a, b} up to swapping a and b
    assert len(classes) == 8
    ones = [c for c in classes if len(c.new_elements) == 1]
    twos = [c for c in classes if len(c.new_elements) == 2]
    assert len(ones) == 2 and len(twos) == 6
    assert all(c.base_strong for c in ones)
    pendant = next(c for c in ones if c.delta_over_base == 0)
    isolated = next(c for c in ones if c.delta_over_base == 1)
    assert pendant.prealgebraic and pendant.minimal
    assert not isolated.prealgebraic
    assert isolated.minimal
    # no 2-element extension of a point is minimal: either a 1-element stage
    # is already nonpositive or the pair splits
    assert not any(c.minimal for c in twos)


def test_enumeration_is_deterministic_and_sorted():
    spec = spec_alpha()
    base = graph(2, [(0, 1)])
    a = enumerate_extensions(spec, base, 2)
    b = enumerate_extensions(spec, base, 2)
    assert [c.code for c in a] == [c.code for c in b]
    sizes = [len(c.new_elements) for c in a]
    assert sizes == sorted(sizes)


def test_class_tags_on_triangle_base():
    spec = spec_alpha()
    k3 = graph(3, [(0, 1), (1, 2), (0, 2)])
    classes = oracle_extensions(spec, k3, 1)
    # base elements are pinned pointwise, so the classes are exactly the
    # edge subsets of {0,1,2} for the one new vertex
    assert len(classes) == 8
    deltas = sorted(c.delta_over_base for c in classes)
    assert deltas == [F(-2), F(-1), F(-1), F(-1), F(0), F(0), F(0), F(1)]
    for c in classes:
        # with a single new element every tag reduces to the sign of delta
        assert c.base_strong == (c.delta_over_base >= 0)
        assert c.prealgebraic == (c.delta_over_base == 0)
        assert c.ext_in_class == (c.delta_over_base >= 0)
        assert c.minimal == (c.delta_over_base >= 0)


def test_classify_extension_matches_enumeration():
    spec = spec_alpha()
    point = graph(1, [])
    pend = graph(2, [(0, 1)])
    cls = classify_extension(spec, pend, [0])
    known = enumerate_extensions(spec, point, 1)
    assert cls.code in {c.code for c in known}
    assert cls.prealgebraic and cls.minimal
    assert cls.new_elements == (1,)
    assert cls.code == code_over_base(pend, [0])


def test_classify_extension_rejects_bad_bases():
    spec = spec_alpha()
    pend = graph(2, [(0, 1)])
    with pytest.raises(StructureError):
        classify_extension(spec, pend, [7])
    with pytest.raises(StructureError):
        classify_extension(spec, pend, [0, 1])  # nothing new


def test_transport_moves_ids_only():
    spec = spec_alpha()
    edge = graph(2, [(0, 1)])
    cls = next(
        c for c in enumerate_extensions(spec, edge, 1) if c.delta_over_base == 0 and c.prealgebraic
    )
    target = graph(4, [(1, 3)]).restrict([1, 3])
    moved = cls.transport(target)
    assert moved.base.universe == (1, 3)
    assert moved.code == cls.code
    assert moved.delta_over_base == cls.delta_over_base
    assert min(moved.new_elements) > 3
    # every other field is the class's own, and the new elements follow the base
    assert type(moved) is type(cls) and moved.base is target
    assert moved.new_elements == tuple(range(4, 4 + len(cls.new_elements)))
    assert moved.ext == cls.ext.relabel({0: 1, 1: 3, **dict(zip(cls.new_elements, moved.new_elements))})
    tags = ("minimal", "prealgebraic")
    assert [getattr(moved, t) for t in tags] == [getattr(cls, t) for t in tags]


def test_fusion_palette_classes_over_a_vector():
    spec = spec_fusion()
    base = vectors((1, 0))
    classes = enumerate_extensions(spec, base, 1)
    # a new element is either independent of the base, a dependent copy, or
    # rank zero; annotation variants with equal rank patterns collapse
    assert len(classes) == 3
    deltas = sorted(c.delta_over_base for c in classes)
    assert deltas == [F(0), F(0), F(1)]
    # vectors are padded to base width plus one fresh axis per new element
    anns = sorted(c.ext.annotation(c.new_elements[0]) for c in classes)
    assert anns == [("0", "0", "0"), ("0", "0", "1"), ("1", "0", "0")]


def test_palette_fresh_axis_lands_beyond_base_width():
    pal = linear_extension_palette(5)
    base = vectors((1, 0))
    options = pal(base, (1,))
    fresh = [d for d in options if d and d[1][-1] == "1" and set(d[1][:-1]) == {"0"}]
    assert fresh  # some option adds a genuinely new axis


def _new_instances(base, m):
    """The m new elements over `base`, and every instance touching them."""
    sig = base.sig
    start = max(base.universe, default=-1) + 1
    new = tuple(range(start, start + m))
    elems = base.universe + new
    insts = [
        (name, t)
        for name, arity in sig.symbols
        for t in (product(elems, repeat=arity) if sig.ordered else combinations(elems, arity))
        if set(t) & set(new)
    ]
    return new, insts


def _all_candidates(base, max_new, palette=None):
    """Every extension of `base` by 1..max_new new elements, built here from
    scratch: each set of instances over base and new that touches new, with
    each palette annotation."""
    sig = base.sig
    out = {}
    for m in range(1, max_new + 1):
        new, insts = _new_instances(base, m)
        elems = base.universe + new
        anns = palette(base, new) if palette else [{}]
        out[m] = []
        for r in range(len(insts) + 1):
            for chosen in combinations(insts, r):
                rel = {name: list(base.instances[name]) for name in sig.names}
                for name, t in chosen:
                    rel[name].append(t)
                for ann in anns:
                    out[m].append(FinStructure(sig, elems, rel, {**base.annotations, **ann}))
    return out


def _types(structs, same):
    """One representative per class of `same`, an equivalence relation."""
    reps = []
    for s in structs:
        if not any(same(s, r) for r in reps):
            reps.append(s)
    return reps


def _check_one_class_per_type(spec, base, max_new, same, palette=None):
    classes = oracle_extensions(spec, base, max_new)
    for m, cands in _all_candidates(base, max_new, palette).items():
        exts = [c.ext for c in classes if len(c.new_elements) == m]
        types = _types(cands, same)
        assert len(exts) == len(types)
        for t in types:
            assert sum(same(t, e) for e in exts) == 1


def _fixing_base(base, compat):
    fixed = {e: e for e in base.universe}

    def same(a, b):
        return bool(find_embeddings(a, b, fixed=fixed, compat=lambda mp: compat(a, b, mp), limit=1))

    return same


def _verbatim(a, b, mapping):
    return all(a.annotation(x) == b.annotation(y) for x, y in mapping.items())


def test_one_class_per_base_fixing_isomorphism_type():
    rng = random.Random(7)
    spec = spec_alpha()
    sigs = [
        graph_signature(),
        graph_signature(F(1, 2)),
        Signature((("E", 2), ("F", 2))),
        Signature((("R", 3),)),
        Signature((("R", 2),), ordered=True),
    ]
    for i in range(40):
        sig = sigs[i % len(sigs)]
        n = rng.randint(0, 2)
        base = random_structure(rng, sig, n, density=0.5)
        if i % 2:
            base = FinStructure(sig, base.universe, base.instances, {e: (rng.choice("ab"),) for e in base.universe})
        # at most 2^8 instance sets per size keeps the pairwise check quick
        max_new = 2 if len(_new_instances(base, 2)[1]) <= 8 else 1
        _check_one_class_per_type(spec, base, max_new, _fixing_base(base, _verbatim))


def test_palette_classes_are_rank_pattern_types():
    spec = PredimensionSpec.make(relational=True, components=((LinearOracle(5), F(1, 2)),))
    base = FinStructure(graph_signature(), (0, 1), {"E": [(0, 1)]}, {0: ("1", "0"), 1: ("0", "1")})
    oracle = spec.components[0][0]

    def rank_compatible(a, b, mapping):
        # every subset keeps its rank, checked here without `rank_compat`
        Embedding.make(a, b, mapping)
        subsets = [c for r in range(a.n + 1) for c in combinations(a.universe, r)]
        return all(oracle.rank(a, frozenset(c)) == oracle.rank(b, frozenset(mapping[e] for e in c)) for c in subsets)

    for b, max_new in ((base, 1), (base.restrict([0]), 2)):
        _check_one_class_per_type(spec, b, max_new, _fixing_base(b, rank_compatible), linear_extension_palette(5))


def _view(c):
    """What a class pins: code, representative, new elements and tags."""
    return (c.code, c.ext.universe, c.ext.instances, sorted(c.ext.annotations.items()),
            c.new_elements, c.delta_over_base, c.minimal, c.prealgebraic)


def _oracle_cost(spec, base, m):
    """The oracle's work for m new elements: instance sets times the squared
    annotation options, which its rank-pattern merge compares pairwise."""
    new, insts = _new_instances(base, m)
    primes = [o.p for o, _ in spec.components if isinstance(o, LinearOracle)]
    return (1 << len(insts)) * (len(linear_extension_palette(primes[0])(base, new)) if primes else 1) ** 2


def test_enumeration_is_the_oracle_filtered_to_strong_in_class():
    rng = random.Random(26)
    linear5 = PredimensionSpec.make(relational=True, components=((LinearOracle(5), F(1, 2)),))
    mixed = PredimensionSpec.make(
        relational=True, components=((LinearOracle(3), F(1, 2)), (oracle_by_name("uniform2"), F(1, 2)))
    )
    # a component without a palette: codes alone name the classes
    uniform2 = PredimensionSpec.make(relational=True, components=((oracle_by_name("uniform2"), F(1, 2)),))
    sigs = [
        graph_signature(),
        graph_signature(F(1, 2)),
        Signature((("E", 2), ("F", 2))),
        Signature((("R", 2),), ordered=True),
        Signature((("R", 3),)),
    ]
    cases = [(spec_alpha(), sig, None) for sig in sigs]
    cases += [(linear5, graph_signature(), 5), (mixed, graph_signature(), 3), (spec_fusion(), Signature(()), 5)]
    cases += [(uniform2, graph_signature(), None)]
    seen = {"kept": 0, "dropped": 0, "max_new": 0}
    done = set()
    for i in range(90):
        spec, sig, p = cases[i % len(cases)]
        base = random_structure(rng, sig, rng.randint(0, 4), density=rng.choice((0.2, 0.5)))
        if p:
            width = rng.randint(1, 2)
            ann = {e: tuple(str(rng.randrange(p)) for _ in range(width)) for e in base.universe}
            base = FinStructure(sig, base.universe, base.instances, ann)
        if (spec, base) in done:
            continue
        done.add((spec, base))
        max_new = 0  # the most new elements, up to 4, that keep the oracle's work in a fixed budget
        while max_new < 4 and sum(_oracle_cost(spec, base, m) for m in range(1, max_new + 2)) <= 1100:
            max_new += 1
        if not max_new:
            continue
        oracle = oracle_extensions(spec, base, max_new)
        want = [c for c in oracle if c.base_strong and c.ext_in_class]
        got = enumerate_extensions(spec, base, max_new)
        assert [_view(c) for c in got] == [_view(c) for c in want], (i, base)
        assert all(c.base is base for c in got)
        seen["kept"] += len(want)
        seen["dropped"] += len(oracle) - len(want)
        seen["max_new"] = max(seen["max_new"], max_new)
    # the suite is not vacuous: both sides of the filter and four new elements occur
    assert seen["kept"] and seen["dropped"] and seen["max_new"] == 4, seen


def test_no_classes_over_a_base_outside_the_class(k4):
    spec = spec_alpha()
    oracle = oracle_extensions(spec, k4, 1)
    assert oracle and not any(c.ext_in_class for c in oracle)
    assert enumerate_extensions(spec, k4, 1) == []


def test_enumeration_refuses_an_invalid_spec():
    # the in-class lemma needs submodularity, so no list is given for a spec
    # that lacks it
    bent = PredimensionSpec.make(
        relational=True, components=((oracle_by_name("uniform2"), F(-1)),), allow_invalid=True
    )
    with pytest.raises(SpecError, match="requires a submodular spec"):
        enumerate_extensions(bent, graph(1, []), 1)


def test_enumeration_refuses_before_walking(monkeypatch):
    from predim import extensions

    def walked(*args, **kwargs):
        raise AssertionError("walked before refusing")

    monkeypatch.setattr(extensions, "strong_verdict", walked)
    monkeypatch.setattr(extensions, "in_class", walked)
    tree = graph(8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7)])
    # 8, 17 and 27 candidate edges for 1, 2 and 3 new elements
    with pytest.raises(SpecError, match=r"^extension enumeration refused: 27 candidate instances > 22$"):
        enumerate_extensions(spec_alpha(), tree, 6)
