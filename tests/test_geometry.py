from __future__ import annotations

import random
from fractions import Fraction

import pytest

from predim import (
    FinStructure,
    GeometryError,
    PredimensionSpec,
    Signature,
    UniformOracle,
    build_generic,
    check_exchange,
    closure,
    delta,
    dim,
    gcl,
    oracle_by_name,
    require_geometric,
    serialize_structure,
)
from predim import geometry
from predim.cli import main
from predim.sampling import random_sparse_graph, random_subset, random_vectors
from predim.strongsets import closure_delta

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


def test_geometry_verdict_is_checked_on_every_query():
    # no verdict is kept, so every query refuses again
    half = graph(3, [(0, 1), (1, 2)], weight=F(1, 2))
    for _ in range(2):
        with pytest.raises(GeometryError, match="^weight of E is not an integer$"):
            dim(spec_alpha(), half, [0])
    require_geometric(spec_alpha(), graph(3, [(0, 1)]))
    # relational + linear5 1/1 lets a singleton reach 2, so each element is checked
    spec = PredimensionSpec.make(relational=True, components=((oracle_by_name("linear5"), F(1)),))

    def lifted(vector):
        ann = {0: ("0", "0"), 1: vector, 2: ("0", "0")}
        return FinStructure(Signature((("E", 2),)), range(3), {"E": [(0, 1)]}, ann)

    for _ in range(2):
        with pytest.raises(GeometryError, match="^element 1 has predimension 2 > 1$"):
            gcl(spec, lifted(("1", "0")))
    zero = lifted(("0", "0"))
    require_geometric(spec, zero)
    assert dim(spec, zero, [0, 1, 2]) == 2


def test_sized_components_count_their_coefficients_exactly(monkeypatch):
    # cardinality and uniform ranks give every singleton rank 1, so
    # relational + cardinality -1 + uniform2 1/1 caps a singleton at exactly 1
    # and no element's delta is evaluated; relational + uniform2 1/1 reaches 2
    calls = []
    monkeypatch.setattr(geometry, "delta", lambda *a: calls.append(a) or delta(*a))
    g = random_sparse_graph(random.Random(45), 40, extra_edges=3)
    capped = PredimensionSpec.make(
        relational=True, components=((oracle_by_name("cardinality"), F(-1)), (UniformOracle(2), F(1)))
    )
    require_geometric(capped, g)
    assert calls == []
    lifted = PredimensionSpec.make(relational=True, components=((UniformOracle(2), F(1)),))
    with pytest.raises(GeometryError, match="^element 0 has predimension 2 > 1$"):
        dim(lifted, g, [0])
    assert len(calls) == 1


def _gcl_by_elements(spec, struct, base=()):
    # the definition, element by element: e is in gcl(B) when adding it to B
    # leaves delta of the closure unchanged
    require_geometric(spec, struct)
    b = frozenset(base)
    ground, d_ground = closure_delta(spec, struct, b)
    inside = set(ground)
    return tuple(
        e for e in struct.universe if e in inside or closure_delta(spec, struct, b | {e})[1] == d_ground
    )


def _with_cardinality(name: str) -> PredimensionSpec:
    # delta = |X| - e(X) - |X| + rk(X)
    return PredimensionSpec.make(components=((oracle_by_name("cardinality"), F(-1)), (oracle_by_name(name), F(1))))


_GEOMETRIC_SPECS = {
    "relational": spec_alpha(),
    # non-modular: a cold network contracted by the base, with exchange arcs
    "linear5": _with_cardinality("linear5"),
    "uniform2": _with_cardinality("uniform2"),
    "linear3": _with_cardinality("linear3"),
    "free": _with_cardinality("free"),
    "linear5 alone": PredimensionSpec.make(relational=False, components=((oracle_by_name("linear5"), F(1)),)),
}


@pytest.mark.parametrize("spec", list(_GEOMETRIC_SPECS.values()), ids=list(_GEOMETRIC_SPECS))
def test_gcl_matches_the_element_by_element_closure(spec):
    # gcl reads the greatest minimizer off one solved network; the oracle
    # asks for one closure per element
    rng = random.Random(45)
    grown = 0
    for _ in range(50):
        n = rng.randrange(1, 14)
        if spec.relational:
            g = random_sparse_graph(rng, n, extra_edges=rng.randrange(3))
            sig, instances = g.sig, g.instances
        else:
            sig, instances = Signature(()), {}
        s = FinStructure(sig, range(n), instances, random_vectors(rng, n, rng.choice((2, 3)), 5))
        for _ in range(6):
            base = random_subset(rng, s.universe, rng.randrange(min(n, 4) + 1))
            got = gcl(spec, s, base)
            assert got == _gcl_by_elements(spec, s, base)
            cl = closure(spec, s, base)
            assert set(cl) <= set(got)
            assert gcl(spec, s, got) == got
            grown += len(got) > len(cl)
    assert grown >= 15  # cases where gcl(B) is larger than cl(B)


def test_gcl_on_a_long_path(tmp_path, capsys):
    # every element of a path has dimension 0 over its first one, and gcl
    # finds them all with one max flow, not one per element
    n = 3000
    path = graph(n, [(i, i + 1) for i in range(n - 1)])
    assert gcl(spec_alpha(), path, (0,)) == tuple(range(n))
    struct_file = tmp_path / "path.structure"
    struct_file.write_text(serialize_structure(path))
    capsys.readouterr()
    assert main(["gcl", str(struct_file), "--of", "0"]) == 0
    assert capsys.readouterr().out == "gcl\t[" + " ".join(map(str, range(n))) + "]\n"
