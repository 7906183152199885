"""The linear matroid rank, its per-structure row memo and the rank filter
of embedding searches.

`_frozen_rank` is the rank as it stood before rows were memoized: every call
parses the tokens of the subset's elements again and runs a full
Gauss-Jordan pass.  The memoized, early-stopping rank must agree with it on
fresh structures and on structures whose memo earlier calls have filled.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from predim import (
    FinStructure,
    LinearOracle,
    PredimensionSpec,
    Signature,
    SpecError,
    brute_closure,
    brute_force_is_strong,
    closure,
    find_embeddings,
    in_class,
    is_strong,
    oracle_by_name,
)
from predim.predimension import rank_compat
from predim.sampling import graph_signature, random_sparse_graph, random_subset, random_vectors

import extension_oracle

F = Fraction
PRIMES = (2, 3, 5, 7, 2**31 - 1)


def _frozen_vector(p, struct, elem, width):
    toks = struct.annotation(elem)
    try:
        vals = tuple(int(t) % p for t in toks)
    except ValueError:
        raise SpecError(f"non-integer annotation token on element {elem}: {toks}")
    return vals + (0,) * (width - len(vals))


def _frozen_rank_mod_p(rows, p):
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    col = 0
    rows = [r[:] for r in rows]
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _frozen_rank(p, struct, subset):
    width = struct.annotation_width()
    if width == 0 or not subset:
        return Fraction(0)
    rows = [list(_frozen_vector(p, struct, e, width)) for e in sorted(subset)]
    return Fraction(_frozen_rank_mod_p(rows, p))


def _plain(n, ann):
    return FinStructure(Signature(()), range(n), {}, ann)


@st.composite
def annotated_queries(draw):
    """A prime, an annotation map on range(n) (n <= 16: short rows, missing
    annotations and negative tokens, at most 5 tokens) and a few subsets."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, 16))
    token = st.integers(-3 * p, 3 * p) | st.integers(-(10**12), 10**12)
    rows = draw(st.lists(st.none() | st.lists(token, min_size=1, max_size=5), min_size=n, max_size=n))
    ann = {e: tuple(map(str, row)) for e, row in enumerate(rows) if row is not None}
    subsets = draw(st.lists(st.sets(st.sampled_from(range(n))) if n else st.just(set()), min_size=1, max_size=6))
    return p, n, ann, [frozenset(s) for s in subsets]


@settings(max_examples=400, deadline=None)
@given(annotated_queries())
def test_rank_matches_the_frozen_rank(case):
    p, n, ann, subsets = case
    oracle = LinearOracle(p)
    warm = _plain(n, ann)
    for sub in subsets:
        want = _frozen_rank(p, _plain(n, ann), sub)
        assert oracle.rank(_plain(n, ann), sub) == want
        got = oracle.rank(warm, sub)
        assert got == want and isinstance(got, Fraction)
    assert set(warm._rows.get(p, {})) <= set().union(*subsets)


def test_a_bad_token_raises_exactly_on_subsets_holding_it():
    # 0 and 1 span the plane, so a rank over {0, 1, 3} is full before it
    # reaches element 3; it must still raise
    s = _plain(4, {0: ("1", "0"), 1: ("0", "1"), 2: ("2", "2"), 3: ("x", "1")})
    oracle = LinearOracle(5)
    for sub, want in (({0, 1}, 2), ({2}, 1), ({0, 1, 2}, 2), ((), 0)):
        assert oracle.rank(s, frozenset(sub)) == want
    for sub in ({3}, {0, 1, 3}, {2, 3}, {0, 1, 2, 3}):
        with pytest.raises(SpecError, match="non-integer annotation token on element 3"):
            oracle.rank(s, frozenset(sub))
    assert set(s._rows[5]) == {0, 1, 2}
    assert oracle.rank(s, frozenset({0, 2})) == 2


def test_derived_structures_rank_by_their_own_annotations():
    s = _plain(3, {0: ("1", "0"), 1: ("2", "0"), 2: ("0", "1")})
    oracle = LinearOracle(5)
    assert oracle.rank(s, frozenset({0, 1})) == 1
    assert oracle.rank(s, frozenset({0, 1, 2})) == 2
    swapped = s.relabel({0: 0, 1: 2, 2: 1})  # now 1 is (0, 1) and 2 is (2, 0)
    assert oracle.rank(swapped, frozenset({0, 1})) == 2
    assert oracle.rank(swapped, frozenset({0, 2})) == 1
    assert oracle.rank(s.restrict([1, 2]), frozenset({1, 2})) == 2
    # a longer vector widens every row, the memoized ones included
    wide = s.extended([3], new_annotations={3: ("0", "0", "1")})
    assert oracle.rank(wide, frozenset({0, 1, 2, 3})) == 3
    assert oracle.rank(wide, frozenset({0, 3})) == 2
    bare = s.extended([3])
    assert oracle.rank(bare, frozenset({2, 3})) == 1
    for t in (swapped, s.restrict([1, 2]), wide, bare):
        for r in range(t.n + 1):
            for sub in map(frozenset, combinations(t.universe, r)):
                assert oracle.rank(t, sub) == _frozen_rank(5, t, sub)


def test_warm_queries_under_a_fusion_spec_match_brute():
    spec = PredimensionSpec.make(relational=True, components=((oracle_by_name("linear5"), F(1, 2)),))
    rng = random.Random(41)
    for _ in range(25):
        g = random_sparse_graph(rng, rng.randrange(3, 10), extra_edges=rng.randrange(4))
        ann = random_vectors(rng, g.n, rng.randrange(1, 4), 5)
        s = FinStructure(g.sig, g.universe, g.instances, ann)
        for _ in range(3):
            base = random_subset(rng, s.universe)
            assert is_strong(spec, s, base) == brute_force_is_strong(spec, s, base)
            assert closure(spec, s, base) == brute_closure(spec, s, base)
            assert in_class(spec, s) == brute_force_is_strong(spec, s, ()).verdict
        assert set(s._rows[5]) <= set(s.universe)


def _per_map_filter(spec, source, target):
    """The rank filter as it was: every map ranks every source subset again."""

    def compat(m):
        for oracle, _ in spec.components:
            for r in range(source.n + 1):
                for c in combinations(source.universe, r):
                    if oracle.rank(source, frozenset(c)) != oracle.rank(target, frozenset(m[e] for e in c)):
                        return False
        return True

    return compat


def _enumerate_counting(monkeypatch, spec, base, make_filter):
    """The full walk's extension classes of `base` (every class, whatever
    its tags), and per embedding filter built in the search, the source
    subsets it ranked."""
    active = []  # (source, its ranked subsets) of the filter running now
    ranked = []
    rank = LinearOracle.rank

    def counted(self, struct, subset):
        if active and struct is active[-1][0]:
            active[-1][1].append(subset)
        return rank(self, struct, subset)

    def tracked(spec, source, target):
        inner = make_filter(spec, source, target)
        ranked.append([])
        mine = (source, ranked[-1])

        def compat(m):
            active.append(mine)
            try:
                return inner(m)
            finally:
                active.pop()

        return compat

    with monkeypatch.context() as mp:
        mp.setattr(LinearOracle, "rank", counted)
        mp.setattr(extension_oracle, "rank_compat", tracked)
        return extension_oracle.oracle_extensions(spec, base, 2), ranked


def test_rank_filter_ranks_each_source_subset_once(monkeypatch):
    spec = PredimensionSpec.make(relational=True, components=((LinearOracle(5), F(1, 2)),))
    base = FinStructure(graph_signature(), (0, 1), {"E": [(0, 1)]}, {0: ("1", "0"), 1: ("0", "1")})
    want, per_map = _enumerate_counting(monkeypatch, spec, base, _per_map_filter)
    got, once = _enumerate_counting(monkeypatch, spec, base, rank_compat)
    assert len(got) == 288 and got == want
    assert all(len(set(subsets)) == len(subsets) for subsets in once)
    # most of these filters check one or two maps, so few ranks repeat
    assert (sum(map(len, per_map)), sum(map(len, once))) == (26_692, 23_428)


def test_rank_filter_refuses_large_sources_only_at_a_map():
    big = FinStructure(graph_signature(), range(17), {"E": [(0, 1)]}, {e: ("1",) for e in range(17)})
    spec = PredimensionSpec.make(relational=True, components=((LinearOracle(5), F(1, 2)),))
    compat = rank_compat(spec, big, big)  # building the filter ranks nothing
    edgeless = FinStructure(graph_signature(), range(17), {}, big.annotations)
    assert find_embeddings(big, edgeless, compat=rank_compat(spec, big, edgeless)) == []
    with pytest.raises(SpecError, match="refused beyond 16 source elements"):
        compat({e: e for e in big.universe})
    with pytest.raises(SpecError, match="refused beyond 16 source elements"):
        find_embeddings(big, big, compat=rank_compat(spec, big, big), limit=1)
    uniform = PredimensionSpec.make(relational=True, components=((oracle_by_name("uniform2"), F(1, 2)),))
    assert len(find_embeddings(big, big, fixed={0: 0, 1: 1}, compat=rank_compat(uniform, big, big), limit=2)) == 2
