from __future__ import annotations

import random
from fractions import Fraction

import pytest

from predim import (
    GeometryError,
    PredimensionSpec,
    UniformOracle,
    build_generic,
    check_exchange,
    closure,
    delta,
    dim,
    gcl,
    require_geometric,
)
from predim.sampling import random_sparse_graph

from conftest import graph, spec_alpha, spec_fusion, vectors

F = Fraction


def test_dim_frozen_examples(alpha1, path4, k3):
    # both endpoints of the path pull in the interior: 4 points, 3 edges
    assert dim(alpha1, path4, [0, 3]) == 1
    assert dim(alpha1, path4, [0]) == 1
    assert dim(alpha1, path4, [0], over=[3]) == 0
    assert dim(alpha1, path4, []) == 0
    assert dim(alpha1, k3, [0, 1, 2]) == 0
    assert dim(alpha1, k3, [0]) == 0


def test_dim_fusion_is_linear_rank(fusion):
    v = vectors((1, 0), (0, 1), (1, 1), (2, 0))
    assert dim(fusion, v, [0, 1]) == 2
    assert dim(fusion, v, [0, 3]) == 1
    assert dim(fusion, v, [2], over=[0, 1]) == 0
    assert dim(fusion, v, [2], over=[0]) == 1


def test_gcl_frozen_examples(alpha1):
    two_edges = graph(4, [(0, 1), (2, 3)])
    assert gcl(alpha1, two_edges, [0]) == (0, 1)
    assert gcl(alpha1, two_edges, []) == ()
    assert dim(alpha1, two_edges, [1], [0]) == 0
    assert dim(alpha1, two_edges, [2], [0]) != 0
    k3 = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert gcl(alpha1, k3, []) == (0, 1, 2)


def test_gcl_grows_with_base(alpha1):
    rng = random.Random(41)
    for _ in range(60):
        g = random_sparse_graph(rng, rng.randrange(2, 9), extra_edges=1)
        base = list(rng.sample(g.universe, k=min(2, g.n)))
        small = set(gcl(alpha1, g, base[:1]))
        big = set(gcl(alpha1, g, base))
        assert small.issubset(big) or base[0] not in base[:1]


def test_exchange_frozen_and_random(alpha1):
    path = graph(3, [(0, 1), (1, 2)])
    assert check_exchange(alpha1, path, 0, 2)
    rng = random.Random(42)
    for _ in range(200):
        g = random_sparse_graph(rng, rng.randrange(2, 9), extra_edges=rng.randrange(3))
        a, b = rng.sample(g.universe, 2)
        over = [e for e in g.universe if e not in (a, b) and rng.random() < 0.3]
        assert check_exchange(alpha1, g, a, b, over)


def test_exchange_on_fusion(fusion):
    v = vectors((1, 0), (0, 1), (1, 1))
    # 0 depends on {1,2} but not on {1}; exchange forces 2 to depend on {0,1}
    assert dim(fusion, v, [0], [1, 2]) == 0
    assert dim(fusion, v, [0], [1]) != 0
    assert check_exchange(fusion, v, 0, 2, over=[1])


def test_geometry_requires_integral_specs():
    half = graph(3, [(0, 1), (1, 2)], weight=F(1, 2))
    with pytest.raises(GeometryError):
        require_geometric(spec_alpha(), half)
    with pytest.raises(GeometryError):
        dim(spec_alpha(), half, [0])


def test_geometry_requires_small_singletons():
    spec = PredimensionSpec.make(relational=False, components=((UniformOracle(3), F(2)),))
    v = vectors((1,), (2,))
    # a singleton of predimension 2 breaks the point axiom
    with pytest.raises(GeometryError):
        dim(spec, v, [0])


def test_geometry_requires_valid_spec():
    bent = PredimensionSpec.make(
        relational=True, components=((UniformOracle(2), F(-1)),), allow_invalid=True
    )
    with pytest.raises(GeometryError):
        require_geometric(bent, graph(2, [(0, 1)]))


def test_dim_additive_over_closures(alpha1):
    rng = random.Random(43)
    for _ in range(150):
        g = random_sparse_graph(rng, rng.randrange(3, 9), extra_edges=rng.randrange(3))
        elems = list(g.universe)
        xs = {e for e in elems if rng.random() < 0.4}
        ys = {e for e in elems if rng.random() < 0.4}
        cs = {e for e in elems if rng.random() < 0.2}
        lhs = dim(alpha1, g, xs | ys, over=cs)
        rhs = dim(alpha1, g, xs, over=ys | cs) + dim(alpha1, g, ys, over=cs)
        assert lhs == rhs


def _delta_dim(spec, struct, subset, over=()):
    joint = closure(spec, struct, set(subset) | set(over))
    return delta(spec, struct, joint) - delta(spec, struct, closure(spec, struct, over))


def test_dim_and_gcl_match_their_delta_definitions_at_n40(alpha1):
    # dim and gcl read delta of a closure from the kernel's flow value
    s = build_generic(alpha1, graph(2, [(0, 1)]), k=3, budget=40).current
    assert s.n == 40
    rng = random.Random(44)
    elems = list(s.universe)
    for _ in range(60):
        xs = rng.sample(elems, rng.randrange(4))
        cs = rng.sample(elems, rng.randrange(4))
        assert dim(alpha1, s, xs, cs) == _delta_dim(alpha1, s, xs, cs)
    for e in rng.sample(elems, 4):
        want = tuple(x for x in elems if _delta_dim(alpha1, s, (x,), (e,)) == 0)
        assert gcl(alpha1, s, (e,)) == want
    assert gcl(alpha1, s) == tuple(x for x in elems if _delta_dim(alpha1, s, (x,)) == 0)


def test_geometry_verdict_is_checked_once_per_spec_and_structure():
    half = graph(3, [(0, 1), (1, 2)], weight=F(1, 2))
    for _ in range(2):  # the cached verdict still refuses
        with pytest.raises(GeometryError):
            dim(spec_alpha(), half, [0])
    g = graph(3, [(0, 1)])
    require_geometric(spec_alpha(), g)
    assert g._sessions[spec_alpha()].geometric == ""
    assert half._sessions[spec_alpha()].geometric == "weight of E is not an integer"
