from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from predim import (
    LinearOracle,
    PredimensionSpec,
    SpecError,
    UniformOracle,
    delta,
    oracle_by_name,
)

from conftest import graph, spec_alpha, spec_fusion, vectors


F = Fraction


def test_delta_counts_elements_minus_weighted_edges():
    spec = spec_alpha()
    k3 = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert delta(spec, k3) == F(0)
    assert delta(spec, k3, [0, 1]) == F(1)
    assert delta(spec, k3, []) == F(0)
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert delta(spec, k4) == F(-2)


def test_delta_fractional_edge_weights():
    half = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)], weight=F(1, 2))
    two_thirds = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)], weight=F(2, 3))
    spec = spec_alpha()
    assert delta(spec, half) == F(1)
    assert delta(spec, two_thirds) == F(0)
    assert delta(spec, half, [0, 1, 2]) == F(3, 2)


def test_delta_rejects_foreign_elements():
    spec = spec_alpha()
    with pytest.raises(Exception):
        delta(spec, graph(2, [(0, 1)]), [0, 9])


def test_fusion_delta_is_rank():
    spec = spec_fusion()
    # two dependent vectors and one independent: linear rank 2, so
    # rank + |X| - |X| leaves exactly the rank
    v = vectors((1, 0), (2, 0), (0, 1))
    assert delta(spec, v) == F(2)
    assert delta(spec, v, [0, 1]) == F(1)
    assert delta(spec, v, [0]) == F(1)
    zero = vectors((0, 0))
    assert delta(spec, zero) == F(0)


def test_fusion_rank_reduces_mod_p():
    spec = spec_fusion(5)
    v = vectors((1, 0), (6, 0))  # 6 = 1 mod 5: same line
    assert delta(spec, v) == F(1)


def test_uniform_oracle_caps_rank():
    spec = PredimensionSpec.make(relational=False, components=((UniformOracle(2), F(1)),))
    v = vectors((1,), (2,), (3,), (4,))
    assert delta(spec, v, [0]) == F(1)
    assert delta(spec, v) == F(2)


def test_spec_validation():
    with pytest.raises(SpecError):
        PredimensionSpec.make(relational=False, components=((UniformOracle(2), F(-1)),))
    with pytest.raises(SpecError):
        PredimensionSpec.make(relational=True, components=((oracle_by_name("free"), F(0)),))
    bent = PredimensionSpec.make(
        relational=True, components=((UniformOracle(2), F(-1)),), allow_invalid=True
    )
    assert not bent.valid
    assert bent.violations
    # negative coefficients on modular components are fine
    ok = PredimensionSpec.make(
        relational=False,
        components=((oracle_by_name("free"), F(1)), (oracle_by_name("cardinality"), F(-1, 2))),
    )
    assert ok.valid


def test_oracle_by_name_roundtrip():
    assert oracle_by_name("linear7") == LinearOracle(7)
    assert oracle_by_name("uniform3") == UniformOracle(3)
    assert oracle_by_name("free").name == "free"
    assert oracle_by_name("cardinality").name == "cardinality"
    assert oracle_by_name("free") != oracle_by_name("cardinality")
    assert oracle_by_name("free") == oracle_by_name("free")
    with pytest.raises(SpecError):
        oracle_by_name("linear4")  # not prime
    with pytest.raises(SpecError):
        oracle_by_name("nonsense")


def test_linear_oracle_refuses_moduli_past_the_cap():
    # 2**31 + 11 is prime: without the cap this would be accepted after a
    # trial division up to its square root
    with pytest.raises(SpecError):
        LinearOracle(2**31 + 11)
    assert LinearOracle(2**31 - 1).p == 2**31 - 1  # the largest prime below the cap
    for name in ("linear" + "9" * 400, "uniform" + "9" * 5000, "linear\u0663", "uniform\u00b2"):
        with pytest.raises(SpecError):
            oracle_by_name(name)


def test_linear_oracle_pads_short_rows():
    spec = spec_fusion()
    ragged = vectors((1, 0), (1,))
    # a short row reads as zero-extended, so both land on the same line
    assert delta(spec, ragged) == F(1)


edge_sets = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    max_size=14,
)


@settings(max_examples=300, deadline=None)
@given(edges=edge_sets, xs=st.sets(st.integers(0, 7)), ys=st.sets(st.integers(0, 7)))
def test_submodularity_property_graphs(edges, xs, ys):
    spec = spec_alpha()
    g = graph(8, edges)
    dx, dy = delta(spec, g, xs), delta(spec, g, ys)
    assert delta(spec, g, xs | ys) + delta(spec, g, xs & ys) <= dx + dy


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=7),
    xs=st.sets(st.integers(0, 6)),
    ys=st.sets(st.integers(0, 6)),
)
def test_submodularity_property_fusion(rows, xs, ys):
    spec = spec_fusion()
    v = vectors(*rows)
    xs = {e for e in xs if e in v}
    ys = {e for e in ys if e in v}
    dx, dy = delta(spec, v, xs), delta(spec, v, ys)
    assert delta(spec, v, xs | ys) + delta(spec, v, xs & ys) <= dx + dy


@settings(max_examples=200, deadline=None)
@given(
    edges=edge_sets,
    xs=st.sets(st.integers(0, 7)),
    base=st.sets(st.integers(0, 7)),
    extra=st.sets(st.integers(0, 7)),
)
def test_relative_delta_diminishing_in_base(edges, xs, base, extra):
    # delta(X/B) >= delta(X/B') for B inside B', as long as the growth stays
    # outside X; this is submodularity in difference form
    spec = spec_alpha()
    g = graph(8, edges)
    bigger = base | extra
    xs = xs - extra
    over_base = delta(spec, g, xs | base) - delta(spec, g, base)
    over_bigger = delta(spec, g, xs | bigger) - delta(spec, g, bigger)
    assert over_base >= over_bigger
