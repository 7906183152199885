from __future__ import annotations

import random
from fractions import Fraction

import pytest

from predim import AmalgamError, Embedding, delta, free_amalgam, in_class, strong_verdict
from predim.sampling import random_sparse_graph, random_subset

from conftest import graph, spec_alpha, vectors


def test_two_pendants_over_a_point_make_a_star():
    base = graph(1, [])
    pend_a = graph(2, [(0, 1)])
    pend_b = graph(2, [(0, 1)])
    out = free_amalgam(
        Embedding.make(base, pend_a, {0: 0}),
        Embedding.make(base, pend_b, {0: 0}),
    )
    assert out.amalgam.universe == (0, 1, 2)
    assert sorted(out.amalgam.instances["E"]) == [(0, 1), (0, 2)]
    assert out.left[1] == 1
    assert out.right[1] == 2
    assert out.base[0] == 0


def test_no_instances_across_the_two_new_parts():
    base = graph(2, [(0, 1)])
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    out = free_amalgam(
        Embedding.make(base, tri, {0: 0, 1: 1}),
        Embedding.make(base, tri, {0: 0, 1: 1}),
    )
    new_left = out.left.image - out.base.image
    new_right = out.right.image - out.base.image
    for _, t in out.amalgam.all_instances():
        assert not (set(t) & new_left and set(t) & new_right)


def test_base_instances_not_duplicated():
    base = graph(2, [(0, 1)])
    out = free_amalgam(
        Embedding.make(base, base, {0: 0, 1: 1}),
        Embedding.make(base, base, {0: 0, 1: 1}),
    )
    assert out.amalgam == base


def test_mismatched_bases_rejected():
    b1 = graph(1, [])
    b2 = graph(2, [(0, 1)])
    pend = graph(2, [(0, 1)])
    with pytest.raises(AmalgamError):
        free_amalgam(
            Embedding.make(b1, pend, {0: 0}),
            Embedding.make(b2, pend, {0: 0, 1: 1}),
        )


def test_conflicting_base_annotations_rejected():
    base = vectors((1,))
    left = vectors((1,), (0, 1))
    right = vectors((2,), (0, 1))  # base point carries a different vector here
    with pytest.raises(AmalgamError):
        free_amalgam(
            Embedding.make(base, left, {0: 0}),
            Embedding.make(base, right, {0: 0}),
        )


def test_factor_annotations_carried():
    base = vectors((1,))
    left = vectors((1,), (0, 1))
    right = vectors((1,), (1, 1))
    out = free_amalgam(
        Embedding.make(base, left, {0: 0}),
        Embedding.make(base, right, {0: 0}),
    )
    assert out.amalgam.annotation(out.left[1]) == ("0", "1")
    assert out.amalgam.annotation(out.right[1]) == ("1", "1")


def test_delta_adds_over_the_base():
    spec = spec_alpha()
    rng = random.Random(31)
    done = 0
    while done < 120:
        b1 = random_sparse_graph(rng, rng.randrange(2, 8), extra_edges=rng.randrange(3))
        seed = random_subset(rng, b1.universe, k=rng.randrange(1, 3))
        base_ids = frozenset(seed)
        base = b1.restrict(base_ids)
        b2 = base.relabel({e: i for i, e in enumerate(sorted(base_ids))})
        extra = rng.randrange(1, 4)
        ids = list(b2.universe)
        nxt = max(ids) + 1
        edges = []
        for _ in range(extra):
            for t in ids[-2:]:
                if rng.random() < 0.6:
                    edges.append((t, nxt))
            ids.append(nxt)
            nxt += 1
        b2 = b2.extended(range(len(b2.universe), len(b2.universe) + extra), {"E": edges})
        out = free_amalgam(
            Embedding.make(base, b1, {e: e for e in base.universe}),
            Embedding.make(base, b2, dict(zip(sorted(base.universe), sorted(b2.universe)[: len(base.universe)]))),
        )
        lhs = delta(spec, out.amalgam)
        rhs = delta(spec, b1) + delta(spec, b2) - delta(spec, base)
        assert lhs == rhs
        done += 1


def test_strong_factors_stay_strong():
    # when the base is strong in both factors, each factor is strong in the
    # free amalgam
    spec = spec_alpha()
    rng = random.Random(32)
    done = 0
    while done < 80:
        g = random_sparse_graph(rng, rng.randrange(2, 7), extra_edges=1)
        base_ids = random_subset(rng, g.universe, k=rng.randrange(1, 3))
        if not strong_verdict(spec, g, base_ids):
            continue
        base = g.restrict(base_ids)
        out = free_amalgam(
            Embedding.make(base, g, {e: e for e in base.universe}),
            Embedding.make(base, g, {e: e for e in base.universe}),
        )
        if in_class(spec, g):
            assert strong_verdict(spec, out.amalgam, out.left.image)
            assert strong_verdict(spec, out.amalgam, out.right.image)
        done += 1
