from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from predim import (
    Embedding,
    FinStructure,
    Signature,
    StructureError,
    canonical_code,
    code_over_base,
    find_embeddings,
    pair_code,
)
from predim.sampling import random_structure

from conftest import graph, vectors


def test_signature_lookup():
    sig = Signature((("E", 2), ("R", 3)), (("E", Fraction(1, 2)),))
    assert sig.arity("E") == 2
    assert sig.arity("R") == 3
    assert sig.weight("E") == Fraction(1, 2)
    assert sig.weight("R") == Fraction(1)
    assert sig.names == ("E", "R")


def test_signature_lookups_leave_equality_hash_and_repr_alone():
    plain = Signature((("E", 2), ("R", 3)))
    spelled = Signature((("E", 2), ("R", 3)), (("E", Fraction(1)),))
    assert plain == spelled and hash(plain) == hash(spelled)
    assert repr(plain) == "Signature(symbols=(('E', 2), ('R', 3)), weights=(), ordered=False)"
    assert plain != Signature((("E", 2), ("R", 3)), ordered=True)
    with pytest.raises(StructureError):
        plain.arity("X")
    with pytest.raises(StructureError):
        plain.weight("X")


def test_signature_rejects_duplicates_and_bad_arities():
    with pytest.raises(StructureError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(StructureError):
        Signature((("E", 0),))
    with pytest.raises(StructureError):
        Signature((("E", 2),), (("X", Fraction(1)),))
    with pytest.raises(StructureError):
        Signature((("E", 2),), (("E", Fraction(-1)),))
    for symbols, weights in [
        ((("", 2),), ()),  # empty name
        ((("E F", 2),), ()),  # whitespace in the name
        ((("E", 2),), (("E", Fraction(2)), ("E", Fraction(3)))),  # weight given twice
        ((("E", 2),), (("E", 2),)),  # weight not a Fraction
    ]:
        with pytest.raises(StructureError):
            Signature(symbols, weights)


def test_structure_normalizes_instances():
    g = graph(3, [(1, 0), (0, 1), (1, 2)])
    # unordered relation: reversed and repeated tuples collapse to one instance
    assert sorted(g.instances["E"]) == [(0, 1), (1, 2)]
    assert g.count("E") == 2


def test_ordered_signature_keeps_tuples_raw():
    sig = Signature((("R", 2),), ordered=True)
    s = FinStructure(sig, (0, 1), {"R": [(1, 0), (0, 0)]})
    assert sorted(s.instances["R"]) == [(0, 0), (1, 0)]


def test_structure_rejects_foreign_elements():
    with pytest.raises(StructureError):
        graph(2, [(0, 5)])
    with pytest.raises(StructureError):
        FinStructure(Signature(()), (0,), {"E": [(0, 0)]})


def test_structure_rejects_diagonal_unordered_tuples():
    with pytest.raises(StructureError):
        graph(2, [(1, 1)])


def test_annotations_only_on_elements():
    with pytest.raises(StructureError):
        FinStructure(Signature(()), (0, 1), {}, {7: ("1",)})
    with pytest.raises(StructureError):
        FinStructure(Signature(()), (0,), {}, {0: ()})
    v = vectors((1, 0), (0, 1))
    assert v.annotation(0) == ("1", "0")
    assert v.annotation(99) == ()


def test_restrict_keeps_induced_instances():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    sub = g.restrict([1, 2, 3])
    assert sub.universe == (1, 2, 3)
    assert sorted(sub.instances["E"]) == [(1, 2), (2, 3)]
    with pytest.raises(StructureError):
        g.restrict([1, 9])


def test_relabel_roundtrip():
    g = graph(3, [(0, 1), (1, 2)])
    fwd = {0: 10, 1: 11, 2: 12}
    h = g.relabel(fwd)
    assert h.universe == (10, 11, 12)
    back = h.relabel({v: k for k, v in fwd.items()})
    assert back == g


def test_relabel_requires_injective_total_map():
    g = graph(2, [(0, 1)])
    with pytest.raises(StructureError):
        g.relabel({0: 5, 1: 5})
    with pytest.raises(StructureError):
        g.relabel({0: 5})


def test_extended_adds_elements_and_instances():
    g = graph(2, [(0, 1)])
    h = g.extended([2], {"E": [(1, 2)]}, {2: ("1",)})
    assert h.universe == (0, 1, 2)
    assert sorted(h.instances["E"]) == [(0, 1), (1, 2)]
    assert h.annotation(2) == ("1",)
    with pytest.raises(StructureError):
        g.extended([1], {})  # already present
    assert h.extended([3], {}, {2: ("1",)}).annotation(2) == ("1",)  # a repeated annotation is fine
    with pytest.raises(StructureError, match="conflicting annotation"):
        h.extended([3], {}, {2: ("0",)})


def test_adjacency_and_instances_meeting():
    g = graph(4, [(0, 1), (1, 2)])
    adj = g.adjacency()
    assert adj[1] == {0, 2}
    assert adj[3] == set()
    inc = g.incidence()
    assert inc[0] == (("E", (0, 1)),)
    assert inc[3] == ()


def test_embedding_make_checks_induced_both_ways():
    p3 = graph(3, [(0, 1), (1, 2)])
    host = graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    # 0-1-2 of host carries a chord 0-2, so the path does not sit induced there
    with pytest.raises(StructureError):
        Embedding.make(p3, host, {0: 0, 1: 1, 2: 2})
    emb = Embedding.make(p3, host, {0: 1, 1: 2, 2: 3})
    assert emb.image == frozenset({1, 2, 3})
    assert emb[0] == 1
    assert emb.apply((0, 1)) == (1, 2)
    emb.validate()


def test_embedding_rejects_partial_or_noninjective_maps():
    g = graph(2, [(0, 1)])
    h = graph(3, [(0, 1), (1, 2)])
    with pytest.raises(StructureError):
        Embedding.make(g, h, {0: 0})
    with pytest.raises(StructureError):
        Embedding.make(g, h, {0: 1, 1: 1})
    with pytest.raises(StructureError, match="different signatures"):
        Embedding.make(g, vectors((1,), (0,)), {0: 0, 1: 1})
    with pytest.raises(StructureError, match="non-elements of the target"):
        Embedding.make(g, h, {0: 2, 1: 3})


def test_identity_embedding_of_substructure():
    g = graph(3, [(0, 1), (1, 2)])
    emb = Embedding.make(g.restrict([0, 1]), g, {0: 0, 1: 1})
    assert emb.image == frozenset({0, 1})
    assert emb[1] == 1


def test_find_embeddings_counts():
    edge = graph(2, [(0, 1)])
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    # each of 3 edges, both orientations
    assert len(find_embeddings(edge, tri)) == 6
    fixed = find_embeddings(edge, tri, fixed={0: 1})
    assert {m[1] for m in fixed} == {0, 2}
    assert len(find_embeddings(edge, tri, limit=2)) == 2


@pytest.mark.parametrize("target, fixed, message", [
    (vectors((1,), (0,)), None, "different signatures"),
    (None, {5: 0}, "not a source element"),
    (None, {0: 5}, "not a target element"),
    (None, {0: 1, 1: 1}, "not injective"),
])
def test_find_embeddings_refuses_bad_arguments(target, fixed, message):
    edge = graph(2, [(0, 1)])
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(StructureError, match=message):
        find_embeddings(edge, tri if target is None else target, fixed=fixed)


def test_find_embeddings_compat():
    edge = graph(2, [(0, 1)])
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    out = find_embeddings(edge, tri, compat=lambda m: m[0] < m[1])
    assert len(out) == 3


def test_find_embeddings_needs_induced_image():
    # a non-edge cannot land on an edge
    non_edge = graph(2, [])
    edge = graph(2, [(0, 1)])
    assert find_embeddings(non_edge, edge) == []


def test_find_embeddings_deterministic_order():
    edge = graph(2, [(0, 1)])
    square = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    once = find_embeddings(edge, square)
    again = find_embeddings(edge, square)
    assert once == again
    assert len(once) == 8


def test_find_embeddings_long_path_into_itself():
    # a recursive search would need one stack frame per element; pinning an
    # end keeps the search linear, and so does a target of the source's size,
    # where only an end can take the first end
    n = 1500
    path = graph(n, [(i, i + 1) for i in range(n - 1)])
    assert find_embeddings(path, path, fixed={0: 0}) == [{i: i for i in range(n)}]
    assert find_embeddings(path, path, fixed={0: n - 1}) == [{i: n - 1 - i for i in range(n)}]
    assert find_embeddings(path, path) == [{i: i for i in range(n)}, {i: n - 1 - i for i in range(n)}]


def _signatures():
    return (
        Signature((("E", 2),)),
        Signature((("E", 2), ("T", 3))),
        Signature((("R", 2),), ordered=True),
    )


def _random_structures(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        sig = rng.choice(_signatures())
        s = random_structure(rng, sig, rng.randrange(0, 7), rng.choice((0.2, 0.4)))
        ann = {e: (str(rng.randrange(2)),) for e in s.universe if rng.random() < 0.3}
        yield FinStructure(s.sig, s.universe, s.instances, ann), rng


def _brute_embeddings(source, target, pin):
    free = [e for e in source.universe if e not in pin]
    expected = []
    for image in permutations(target.universe, len(free)):
        mapping = dict(pin)
        mapping.update(zip(free, image))
        if len(set(mapping.values())) < len(mapping):
            continue
        try:
            Embedding.make(source, target, mapping)
        except StructureError:
            continue
        expected.append(mapping)
    return expected


def test_find_embeddings_matches_brute_force_in_order():
    cases = []
    for source, rng in _random_structures(71, 60):
        target = random_structure(rng, source.sig, rng.randrange(0, 6), 0.4)
        pin = {}
        if source.universe and target.universe and rng.random() < 0.5:
            pin = {source.universe[0]: rng.choice(target.universe)}
        cases.append((source, target, pin))
    # pins of two or three points, and two binary symbols whose parallel
    # instances the per-element count has to tell apart
    rng = random.Random(74)
    parallel = Signature((("E", 2), ("F", 2)))
    sigs = _signatures() + (parallel, Signature(parallel.symbols, ordered=True))
    for _ in range(120):
        sig = rng.choice(sigs)
        source = random_structure(rng, sig, rng.randrange(2, 6), 0.5)
        target = random_structure(rng, sig, rng.randrange(2, 6), 0.5)
        size = rng.randint(2, min(3, source.n, target.n))
        cases.append((source, target, dict(zip(rng.sample(source.universe, size), rng.sample(target.universe, size)))))
    # targets of the source's size, where embeddings are isomorphisms: the
    # source relabelled, with at most one pin
    for _ in range(40):
        source = random_structure(rng, rng.choice(sigs), rng.randrange(1, 7), 0.4)
        ids = list(source.universe)
        rng.shuffle(ids)
        target = source.relabel(dict(zip(source.universe, ids)))
        cases.append((source, target, {ids[0]: rng.choice(ids)} if rng.random() < 0.3 else {}))
    same = [bool(_brute_embeddings(s, t, pin)) for s, t, pin in cases if s.n == t.n]
    assert same.count(True) >= 30 and same.count(False) >= 10, same
    induced = {True: 0, False: 0}
    for source, target, pin in cases:
        expected = _brute_embeddings(source, target, pin)
        # candidates are tried in sorted order, so results come lexicographically
        assert find_embeddings(source, target, fixed=pin) == expected
        assert find_embeddings(source, target, fixed=pin, limit=1) == expected[:1]
        if len(pin) > 1:
            induced[bool(_brute_embeddings(source.restrict(pin), target, pin))] += 1
    assert min(induced.values()) >= 10, induced


def test_trusted_restrict_equals_validated_structure():
    for s, rng in _random_structures(72, 80):
        sub = [e for e in s.universe if rng.random() < 0.6]
        subset = set(sub)
        checked = FinStructure(
            s.sig,
            sub,
            {name: [t for t in ts if subset.issuperset(t)] for name, ts in s.instances.items()},
            {e: toks for e, toks in s.annotations.items() if e in subset},
        )
        base = [e for e in sub if rng.random() < 0.5]
        for trusted in (s.restrict(sub), s.restrict(reversed(sub))):
            assert trusted == checked and hash(trusted) == hash(checked)
            assert list(trusted.all_instances()) == list(checked.all_instances())
            assert canonical_code(trusted) == canonical_code(checked)
            assert code_over_base(trusted, base) == code_over_base(checked, base)
            assert pair_code(trusted, base) == pair_code(checked, base)
        # delta, restrict, validate, the kernel and the brute oracle all read
        # `inside`, so check it against a filter of its own
        for x in (subset, set(), set(s.universe)):
            found = {name: set() for name in s.sig.names}
            for name, t in s.all_instances():
                if x.issuperset(t):
                    found[name].add(t)
            assert list(s.inside(x)) == list(s.sig.names)
            assert {name: set(ts) for name, ts in s.inside(x).items()} == found


def test_cached_index_equals_a_fresh_scan():
    for s, _ in _random_structures(73, 60):
        adj = {e: set() for e in s.universe}
        inc = {e: [] for e in s.universe}
        for name, t in s.all_instances():
            for a in set(t):
                adj[a].update(set(t) - {a})
                inc[a].append((name, t))
        assert s.adjacency() == adj
        assert {e: list(ts) for e, ts in s.incidence().items()} == inc
        assert s.adjacency() is s.adjacency()
