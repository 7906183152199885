from __future__ import annotations

import random
from fractions import Fraction

import pytest

from predim import (
    PredimensionSpec,
    UniformOracle,
    audit_amalgamation,
    audit_dim_additivity,
    audit_exchange,
    audit_oracle_equivalence,
    audit_strong_laws,
    audit_submodularity,
    oracle_by_name,
    structure_source,
)

from conftest import spec_alpha, spec_fusion

F = Fraction


def _broken_spec():
    # relational part plus a negatively weighted non-modular component: the
    # resulting functional is not submodular
    return PredimensionSpec.make(
        relational=True, components=((UniformOracle(2), F(-1)),), allow_invalid=True
    )


def test_source_draws_structures_of_requested_size(alpha1):
    rng = random.Random(71)
    src = structure_source(alpha1, max_n=6)
    for _ in range(30):
        s = src(rng)
        assert s.n <= 6


def test_source_attaches_vectors_for_linear_specs(fusion):
    rng = random.Random(72)
    src = structure_source(fusion, max_n=5)
    seen_ann = False
    for _ in range(20):
        s = src(rng)
        seen_ann = seen_ann or bool(s.annotations)
    assert seen_ann


def test_submodularity_audit_clean_specs(alpha1, fusion):
    rng = random.Random(73)
    for spec in (alpha1, fusion):
        res = audit_submodularity(spec, structure_source(spec, max_n=7), rng, 250)
        assert res.ok
        assert res.checked == 250
        assert res.name == "submodularity"


def test_submodularity_audit_flags_broken_spec():
    spec = _broken_spec()
    rng = random.Random(74)
    res = audit_submodularity(spec, structure_source(spec, max_n=7), rng, 300)
    assert not res.ok
    assert res.violations > 0
    assert res.witness  # reproduction line


def test_submodularity_audit_deterministic(alpha1):
    src = structure_source(alpha1, max_n=7)
    a = audit_submodularity(alpha1, src, random.Random(5), 100)
    b = audit_submodularity(alpha1, src, random.Random(5), 100)
    assert a == b


def test_strong_laws_audit(alpha1, fusion):
    rng = random.Random(75)
    res = audit_strong_laws(alpha1, structure_source(alpha1, max_n=7), rng, 150)
    assert res.ok
    # two laws per sampled structure
    assert res.checked == 300
    res = audit_strong_laws(fusion, structure_source(fusion, max_n=6), rng, 50)
    assert res.ok


def test_oracle_equivalence_audit(alpha1):
    rng = random.Random(76)
    res = audit_oracle_equivalence(alpha1, structure_source(alpha1, max_n=8), rng, 200)
    assert res.ok
    assert res.checked == 200


def test_amalgamation_audit_relational_only(alpha1, fusion):
    rng = random.Random(77)
    res = audit_amalgamation(alpha1, structure_source(alpha1, max_n=6), rng, 60)
    assert res.ok
    assert res.checked == 60
    with pytest.raises(ValueError):
        audit_amalgamation(fusion, structure_source(fusion, max_n=5), rng, 5)


def test_amalgamation_audit_needs_modular_matroid_components():
    # a non-modular rank adds over a free amalgam only when the factors are
    # independent over the base, and copied annotations need not be
    rng = random.Random(82)
    for name in ("linear3", "uniform2"):
        spec = PredimensionSpec.make(relational=True, components=((oracle_by_name(name), F(1, 2)),))
        with pytest.raises(ValueError, match="needs modular matroid components"):
            audit_amalgamation(spec, structure_source(spec, max_n=5), rng, 5)
    # a modular component keeps the audit
    spec = PredimensionSpec.make(relational=True, components=((oracle_by_name("free"), F(1)),))
    res = audit_amalgamation(spec, structure_source(spec, max_n=6), rng, 20)
    assert res.ok and res.checked == 20


def test_exchange_audit(alpha1):
    rng = random.Random(78)
    res = audit_exchange(alpha1, structure_source(alpha1, max_n=7), rng, 120)
    assert res.ok
    assert res.checked == 120


def test_exchange_audit_fixed_structure(alpha1):
    from predim import build_generic
    from conftest import graph

    ga = build_generic(alpha1, graph(0, []), k=2, budget=16)
    rng = random.Random(79)
    res = audit_exchange(alpha1, lambda r: ga.current, rng, 100)
    assert res.ok


def test_dim_additivity_audit(alpha1):
    rng = random.Random(80)
    res = audit_dim_additivity(alpha1, structure_source(alpha1, max_n=7), rng, 120)
    assert res.ok
    assert res.checked == 120


def test_vacuous_result_flagged(alpha1):
    rng = random.Random(81)
    res = audit_submodularity(alpha1, structure_source(alpha1, max_n=6), rng, 0)
    assert res.ok and res.vacuous
