from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

from hypothesis import example, given, settings, strategies as st

from predim import Signature, FinStructure, canonical_code, code_over_base, pair_code
from predim.canonical import certificate, pinned_shape
from predim.sampling import random_structure, random_vectors
from predim.structures import GRAPH_SIG

from conftest import graph, vectors

# graph, two binary symbols, ternary, weighted binary + ternary, ordered,
# ordered ternary + binary; two list their symbols out of name order, so a
# code that sorts by symbol name instead of signature place shows
SIGNATURES = (
    GRAPH_SIG,
    Signature((("F", 2), ("E", 2))),
    Signature((("R", 3),)),
    Signature((("E", 2), ("T", 3)), (("E", Fraction(1, 2)),)),
    Signature((("R", 2),), ordered=True),
    Signature((("T", 3), ("R", 2)), ordered=True),
)

# SHA-256 over the codes of `_suite`; canonical codes are persisted as hex in
# mu files, so every byte of them is pinned.
SUITE_SHA256 = "b7fa648cc79ae346581ac362d6b5ed1c28ec11ff9c9d079cc4fab522c51b5b6d"


def _shuffled(struct, rng):
    names = list(struct.universe)
    images = list(range(100, 100 + len(names)))
    rng.shuffle(images)
    return struct.relabel(dict(zip(names, images)))


def test_code_invariant_under_relabeling_many_samples():
    rng = random.Random(9)
    pairs = 0
    while pairs < 1000:
        g = random_structure(rng, GRAPH_SIG, rng.randrange(1, 10), 0.4)
        code = canonical_code(g)
        for _ in range(4):
            assert canonical_code(_shuffled(g, rng)) == code
            pairs += 1


def test_code_invariant_with_annotations():
    rng = random.Random(10)
    v = vectors((1, 0), (0, 1), (1, 1), (2, 0))
    code = canonical_code(v)
    for _ in range(50):
        assert canonical_code(_shuffled(v, rng)) == code


def test_code_distinguishes_nonisomorphic():
    path = graph(3, [(0, 1), (1, 2)])
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_code(path) != canonical_code(tri)
    assert canonical_code(vectors((1,), (2,))) != canonical_code(vectors((1,), (1,)))


def test_code_over_base_pins_base_pointwise():
    pend0 = graph(3, [(0, 1), (0, 2)]).restrict([0, 2]).extended([5], {"E": [(0, 5)]})
    pend1 = graph(3, [(0, 1), (1, 2)]).restrict([0, 1]).extended([5], {"E": [(1, 5)]})
    # both are an edge plus a pendant, but the pendant hangs off a different
    # base position, so the pointwise codes differ
    assert code_over_base(pend0, [0, 2]) != code_over_base(pend1, [0, 1])
    same = pend0.relabel({0: 0, 2: 1, 5: 9})
    assert code_over_base(pend0.relabel({0: 0, 2: 1, 5: 7}), [0, 1]) == code_over_base(same, [0, 1])


def test_pair_code_ignores_base_order():
    # pendant on the first base element vs pendant on the second: the set-level
    # pair code treats base elements interchangeably
    a = graph(3, [(0, 1), (0, 2)])  # pendant 2 on base element 0
    b = graph(3, [(0, 1), (1, 2)])  # pendant 2 on base element 1
    assert pair_code(a, [0, 1]) == pair_code(b, [0, 1])
    assert code_over_base(a, [0, 1]) != code_over_base(b, [0, 1])


def test_pair_code_separates_base_from_rest():
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert pair_code(tri, [0]) == pair_code(tri, [1])
    assert pair_code(tri, [0]) != pair_code(tri, [0, 1])


def test_codes_stable_on_random_annotated_sets():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 8)
        s = FinStructure(Signature(()), range(n), {}, random_vectors(rng, n, 2, 5))
        assert canonical_code(_shuffled(s, rng)) == canonical_code(s)


def _seeded(rng, sig, n):
    """n elements with scattered ids, each possible instance drawn at a
    density of its own, and annotations on about half the structures.
    Densities stay off zero: the search is factorial on edgeless structures."""
    elems = sorted(rng.sample(range(3 * n + 1), n))
    insts = {}
    for name, arity in sig.symbols:
        tuples = product(elems, repeat=arity) if sig.ordered else combinations(elems, arity)
        p = (0.1 + 0.5 * rng.random()) if arity == 2 else (0.05 + 0.2 * rng.random())
        insts[name] = [t for t in tuples if rng.random() < p]
    ann = {}
    if rng.random() < 0.5:
        ann = {
            e: tuple(str(rng.randrange(3)) for _ in range(rng.randrange(1, 3)))
            for e in elems
            if rng.random() < 0.7
        }
    return FinStructure(sig, elems, insts, ann)


def _suite():
    """Plain, pinned, pair and randomly coloured codes of 2,000 seeded
    structures of at most 8 elements over all six signatures."""
    rng = random.Random(2014)
    for i in range(2000):
        s = _seeded(rng, SIGNATURES[i % len(SIGNATURES)], rng.randrange(9))
        base = [e for e in s.universe if rng.random() < 0.4]
        colors = {e: rng.randrange(3) for e in s.universe}
        yield from (canonical_code(s), code_over_base(s, base), pair_code(s, base), certificate(s, colors))


def test_codes_pinned_on_seeded_suite():
    h = hashlib.sha256()
    for code in _suite():
        h.update(len(code).to_bytes(4, "big") + code)
    assert h.hexdigest() == SUITE_SHA256


def test_code_invariant_under_relabeling_ordered_and_ternary():
    rng = random.Random(12)
    sigs = [sig for sig in SIGNATURES if sig.ordered or any(a == 3 for _, a in sig.symbols)]
    for i in range(200):
        s = _seeded(rng, sigs[i % len(sigs)], rng.randrange(1, 8))
        base = [e for e in s.universe if rng.random() < 0.4]
        images = list(range(100, 100 + s.n))
        rng.shuffle(images)
        moved = dict(zip(s.universe, images))
        # the pinned code colours the base by sorted position, so keep the
        # base's order: hand its images back out in sorted order
        moved.update(zip(base, sorted(moved[e] for e in base)))
        t = s.relabel(moved)
        image = [moved[e] for e in base]
        assert canonical_code(t) == canonical_code(s)
        assert code_over_base(t, image) == code_over_base(s, base)
        assert pair_code(t, image) == pair_code(s, base)


@st.composite
def _small_structures(draw, sig):
    """A structure over `sig` on 0-8 elements, each possible instance drawn
    at one density, with annotations from a two-token alphabet on about half
    of the structures, so that shapes collide."""
    elems = sorted(draw(st.sets(st.integers(0, 20), max_size=8)))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from((0.2, 0.5)))
    insts = {}
    for name, arity in sig.symbols:
        pool = product(elems, repeat=arity) if sig.ordered else combinations(elems, arity)
        insts[name] = [t for t in pool if rng.random() < density]
    ann = {}
    if elems and draw(st.booleans()):
        tokens = st.lists(st.sampled_from("01"), min_size=1, max_size=2).map(tuple)
        ann = draw(st.dictionaries(st.sampled_from(elems), tokens))
    return FinStructure(sig, elems, insts, ann)


@st.composite
def _shape_cases(draw):
    """A structure `s`, a base `a` of it, and two more bases: one of `s`, and
    one of `t`, another structure over the same signature or a relabelled
    copy of `s` with the image of `a`.  Bases are distinct elements in no
    particular order, all of one size up to 4 where the structures allow
    it, so that equal shapes are common."""
    sig = draw(st.sampled_from(SIGNATURES))
    s, t = draw(_small_structures(sig)), draw(_small_structures(sig))
    size = draw(st.sampled_from((2, 3, 1, 4, 0)))
    a, b, c = (draw(st.permutations(x.universe))[:size] for x in (s, s, t))
    if draw(st.booleans()):
        moved = dict(zip(s.universe, draw(st.permutations(s.universe))))
        t, c = s.relabel(moved), [moved[e] for e in a]
    return s, a, ((s, b), (t, c))


_ORD = SIGNATURES[4]
_FE = SIGNATURES[1]
_one_arc = FinStructure(_ORD, (0, 1), {"R": [(0, 1)]})
_one_f_edge = FinStructure(_FE, (0, 1), {"F": [(0, 1)]})


# an arc against its reverse, and an edge of one symbol against the other's
@example((_one_arc, [0, 1], ((_one_arc.relabel({0: 1, 1: 0}), [1, 0]),)))
@example((_one_f_edge, [1, 0], ((FinStructure(_FE, (0, 1), {"E": [(0, 1)]}), [0, 1]),)))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shape_cases())
def test_pinned_shape_keys_bases_exactly_as_their_pinned_codes(case):
    s, a, others = case
    shape = pinned_shape(s, a)
    code = code_over_base(s.restrict(a), a)
    hash(shape)
    assert pinned_shape(s, sorted(a)) == shape
    for t, b in others:
        same_code = code_over_base(t.restrict(b), b) == code
        assert (pinned_shape(t, b) == shape) == same_code, (a, b)
