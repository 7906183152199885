from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from predim import (
    FinStructure,
    PredimensionSpec,
    Signature,
    SpecError,
    StrongReport,
    StructureError,
    brute_closure,
    brute_force_is_strong,
    closure,
    in_class,
    is_strong,
    oracle_by_name,
    serialize_spec,
    serialize_structure,
    strong_verdict,
)
from predim.cli import main
from predim.sampling import graph_signature, random_sparse_graph, random_subset, random_vectors
from predim.strongsets import _dfs_min, _flow_nonempty_min, closure_delta, graph_strong, subset_tables

from conftest import graph, spec_alpha, spec_fusion, vectors

F = Fraction


def test_strength_frozen_examples(alpha1, k4, path4):
    rep = is_strong(alpha1, path4, [0, 3])
    assert not rep.verdict
    assert rep.deficiency == F(-1)
    assert rep.witness == (1, 2)

    rep = is_strong(alpha1, k4, [0])
    assert not rep.verdict
    assert rep.deficiency == F(-3)
    assert rep.witness == (1, 2, 3)

    assert is_strong(alpha1, path4, [0, 1]).verdict
    assert is_strong(alpha1, path4, []).verdict
    assert is_strong(alpha1, path4, [0, 1, 2, 3]).verdict


def test_strength_within_restricts_ambient(alpha1, k4):
    # inside a single triangle of K4 the vertex only owes two edges
    rep = is_strong(alpha1, k4, [0], within=[0, 1, 2])
    assert rep.deficiency == F(-1)
    assert rep.witness == (1, 2)
    with pytest.raises(Exception):
        is_strong(alpha1, k4, [0], within=[0, 9])
    with pytest.raises(Exception):
        is_strong(alpha1, k4, [0, 1], within=[1])  # base outside ambient


@pytest.mark.parametrize("query", [is_strong, strong_verdict, closure])
def test_sets_with_non_elements_are_refused(alpha1, k4, query):
    with pytest.raises(StructureError, match="within-set contains non-elements"):
        query(alpha1, k4, [0], within=[0, 9])
    # over the whole universe a stray base id is outside the ambient set
    with pytest.raises(StructureError, match="base must be contained in the ambient set"):
        query(alpha1, k4, [0, 9])


def test_strength_monotone_spec_shortcut(fusion):
    v = vectors((1, 0), (0, 1), (1, 1))
    assert is_strong(fusion, v, [0]).verdict
    assert strong_verdict(fusion, v, [])
    assert closure(fusion, v, [0]) == (0,)


def _direct(engine, spec, struct, base):
    """Report of one engine called directly, bypassing the router."""
    b = frozenset(base)
    free = sorted(set(struct.universe) - b)
    if not free:
        return StrongReport(True, F(0))
    deficiency, witness = engine(spec, struct, b, free)
    if deficiency >= 0:
        return StrongReport(True, deficiency)
    return StrongReport(False, deficiency, witness)


def test_engines_agree_on_random_graphs(alpha1):
    rng = random.Random(21)
    for _ in range(300):
        g = random_sparse_graph(rng, rng.randrange(2, 11), extra_edges=rng.randrange(4))
        base = random_subset(rng, g.universe)
        flow = _direct(_flow_nonempty_min, alpha1, g, base)
        brute = brute_force_is_strong(alpha1, g, base)
        reports = [is_strong(alpha1, g, base), flow, _direct(_dfs_min, alpha1, g, base), brute]
        assert len({r.verdict for r in reports}) == 1
        assert len({r.deficiency for r in reports}) == 1
        assert strong_verdict(alpha1, g, base) == reports[0].verdict
        # both name the inclusion-least minimizer
        assert flow.witness == brute.witness
        for r in reports:
            if not r.verdict:
                # witness attains the deficiency
                joint = set(base) | set(r.witness)
                assert _rel(alpha1, g, joint, base) == r.deficiency


def _rel(spec, struct, joint, base):
    from predim import delta

    return delta(spec, struct, joint) - delta(spec, struct, base)


def test_engines_agree_on_weighted_graphs():
    rng = random.Random(22)
    for w in (F(1, 2), F(2, 3)):
        spec = spec_alpha()
        for _ in range(120):
            g = random_sparse_graph(rng, rng.randrange(2, 9), extra_edges=rng.randrange(5))
            g = graph(g.n, sorted(g.instances["E"]), weight=w)
            base = random_subset(rng, g.universe)
            a = _direct(_dfs_min, spec, g, base)
            b = brute_force_is_strong(spec, g, base)
            c = _direct(_flow_nonempty_min, spec, g, base)
            assert (a.verdict, a.deficiency) == (b.verdict, b.deficiency) == (c.verdict, c.deficiency)


def test_engines_agree_on_fusion(fusion):
    rng = random.Random(23)
    from predim import Signature

    for _ in range(150):
        n = rng.randrange(1, 9)
        v = FinStructure(Signature(()), range(n), {}, random_vectors(rng, n, 2, 5))
        base = random_subset(rng, v.universe)
        a = is_strong(fusion, v, base)
        b = brute_force_is_strong(fusion, v, base)
        assert (a.verdict, a.deficiency) == (b.verdict, b.deficiency)


def _matroid_spec(oracle: str, coef: F = F(1, 2)) -> PredimensionSpec:
    return PredimensionSpec.make(components=((oracle_by_name(oracle), coef),))


@pytest.mark.parametrize("oracle", ["linear5", "uniform2"])
def test_matroid_route_matches_brute(oracle):
    # relational plus a matroid part runs the kernel through the copies'
    # exchange arcs
    spec = _matroid_spec(oracle)
    rng = random.Random(26)
    negative = 0
    for _ in range(100):
        n = rng.randrange(2, 10)
        g = random_sparse_graph(rng, n, extra_edges=rng.randrange(5))
        s = FinStructure(g.sig, g.universe, g.instances, random_vectors(rng, n, 3, 5))
        assert in_class(spec, s) == brute_force_is_strong(spec, s, ()).verdict
        tables = subset_tables(spec, s)
        for _ in range(3):
            base = random_subset(rng, s.universe)
            fast = is_strong(spec, s, base)
            slow = brute_force_is_strong(spec, s, base)
            assert (fast.verdict, fast.deficiency) == (slow.verdict, slow.deficiency)
            assert fast.witness == slow.witness
            assert strong_verdict(spec, s, base) == slow.verdict
            if not fast.verdict:
                negative += 1
                assert _rel(spec, s, set(base) | set(fast.witness), base) == fast.deficiency
            assert closure(spec, s, base) == brute_closure(spec, s, base, tables=tables)
    assert negative >= 100


_TWO_MATROID_FUSION = PredimensionSpec.make(
    relational=False,
    components=(
        (oracle_by_name("linear5"), F(1)),
        (oracle_by_name("uniform2"), F(1)),
        (oracle_by_name("cardinality"), F(-1)),
    ),
)


@pytest.mark.parametrize(
    "spec",
    # the paper's fusion, delta = rk_linear5 + rk_uniform2 - |X| with no
    # relations; and rk_linear5 + |X| - |X|, monotone, so nothing is negative
    [_TWO_MATROID_FUSION, spec_fusion()],
    ids=["linear5+uniform2", "monotone"],
)
def test_fusion_of_two_matroids_matches_brute(spec):
    from predim import Signature

    rng = random.Random(29)
    negative = 0
    for _ in range(60):
        n = rng.randrange(1, 11)
        s = FinStructure(Signature(()), range(n), {}, random_vectors(rng, n, rng.choice((2, 3)), 5))
        assert in_class(spec, s) == brute_force_is_strong(spec, s, ()).verdict
        tables = subset_tables(spec, s)
        for _ in range(3):
            base = random_subset(rng, s.universe)
            slow = brute_force_is_strong(spec, s, base)
            assert is_strong(spec, s, base) == slow
            assert strong_verdict(spec, s, base) == slow.verdict
            assert closure(spec, s, base) == brute_closure(spec, s, base, tables=tables)
            negative += not slow.verdict
    if spec is _TWO_MATROID_FUSION:
        assert negative >= 50
    else:  # a monotone delta leaves every set strong
        assert negative == 0


def test_kernel_matches_subset_search_past_brute_range():
    # 17-24 free elements, where the brute oracle refuses
    rng = random.Random(28)
    negative = 0
    for i in range(40):
        spec = _matroid_spec(("linear5", "uniform2")[i % 2])
        n = rng.randrange(17, 25)
        g = random_sparse_graph(rng, n, extra_edges=rng.randrange(6))
        s = FinStructure(g.sig, g.universe, g.instances, random_vectors(rng, n, 3, 5))
        base = random_subset(rng, s.universe, rng.randrange(4))
        fast = is_strong(spec, s, base)
        search = _direct(_dfs_min, spec, s, base)
        assert fast.deficiency == search.deficiency
        if not fast.verdict:
            negative += 1
            # the least minimizer lies inside every minimizer
            assert set(fast.witness) <= set(search.witness)
            assert _rel(spec, s, set(base) | set(fast.witness), base) == fast.deficiency
    assert negative >= 20


def test_matroid_route_answers_any_size(tmp_path):
    spec = _matroid_spec("linear5")
    rng = random.Random(27)
    n = 200
    g = random_sparse_graph(rng, n, extra_edges=4)
    s = FinStructure(g.sig, g.universe, g.instances, random_vectors(rng, n, 3, 5))
    cl = closure(spec, s, ())
    assert cl  # the closure absorbs something
    assert is_strong(spec, s, cl).verdict
    rep = is_strong(spec, s, ())
    assert not rep.verdict and rep.witness == cl
    spec_file = tmp_path / "lin5.spec"
    spec_file.write_text(serialize_spec(spec))
    struct_file = tmp_path / "g.structure"
    struct_file.write_text(serialize_structure(s))
    assert main(["closure", "--spec", str(spec_file), str(struct_file), "--base", ""]) == 0


def test_strength_queries_leave_numpy_unimported(tmp_path):
    # numpy serves only the brute oracles; the CLI's valid-spec verbs never
    # reach them, so a cold start does not pay for the import
    rng = random.Random(30)
    g = random_sparse_graph(rng, 12, extra_edges=3)
    s = FinStructure(g.sig, g.universe, g.instances, random_vectors(rng, 12, 3, 5))
    spec_file = tmp_path / "lin5.spec"
    spec_file.write_text(serialize_spec(_matroid_spec("linear5")))
    struct_file = tmp_path / "g.structure"
    struct_file.write_text(serialize_structure(s))
    script = (
        "import sys\n"
        "import predim\n"
        "assert 'numpy' not in sys.modules, 'import predim'\n"
        "from predim.cli import main\n"
        "for verb in ('closure', 'strong'):\n"
        f"    main([verb, '--spec', {str(spec_file)!r}, {str(struct_file)!r}, '--base', '0 1'])\n"
        "    assert 'numpy' not in sys.modules, verb\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_graph_strength_matches_brute_with_parallel_edges(alpha1):
    """The weight-1 graph test against brute force on every subset of random
    two-symbol graphs, F repeating some E pairs, in and out of the class;
    and, through `strong_verdict`, on every subset of a random ambient set."""
    sig = Signature((("E", 2), ("F", 2)))
    rng = random.Random(61)
    members = outside = 0
    for _ in range(40):
        n = rng.randrange(1, 9)
        pairs = list(combinations(range(n), 2))
        e_pairs = rng.sample(pairs, rng.randrange(min(len(pairs), n + 2) + 1))
        f_pairs = [t for t in e_pairs if rng.random() < 0.3]
        g = FinStructure(sig, range(n), {"E": e_pairs, "F": f_pairs})
        if brute_force_is_strong(alpha1, g, ()).verdict:
            members += 1
        else:
            outside += 1
        within = random_subset(rng, g.universe)
        for size in range(n + 1):
            for a in combinations(g.universe, size):
                assert graph_strong(g, a) == brute_force_is_strong(alpha1, g, a).verdict, (g, a)
                if set(a).issubset(within):
                    brute = brute_force_is_strong(alpha1, g, a, within).verdict
                    assert strong_verdict(alpha1, g, a, within) == brute, (g, a, within)
    assert members >= 10 and outside >= 10


def test_in_class_examples(alpha1, k3, k4):
    assert in_class(alpha1, k3)
    assert not in_class(alpha1, k4)
    heavy = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)], weight=F(1, 2))
    assert in_class(alpha1, heavy)


def test_closure_frozen_examples(alpha1, k4, path4):
    assert closure(alpha1, k4, [0]) == (0, 1, 2, 3)
    assert closure(alpha1, path4, [0, 3]) == (0, 1, 2, 3)
    assert closure(alpha1, path4, [0, 1]) == (0, 1)
    assert closure(alpha1, path4, []) == ()
    # within a triangle only
    assert closure(alpha1, k4, [0], within=[0, 1, 2]) == (0, 1, 2)


def test_closure_matches_brute_on_random_graphs(alpha1):
    rng = random.Random(24)
    for _ in range(200):
        g = random_sparse_graph(rng, rng.randrange(1, 11), extra_edges=rng.randrange(4))
        tables = subset_tables(alpha1, g)
        for _ in range(4):
            base = random_subset(rng, g.universe)
            fast = closure(alpha1, g, base)
            slow = brute_closure(alpha1, g, base, tables=tables)
            assert fast == slow
        assert brute_closure(alpha1, g, base) == slow  # tables built on the spot


def test_closure_is_a_closure_operator(alpha1):
    rng = random.Random(25)
    for _ in range(100):
        g = random_sparse_graph(rng, rng.randrange(1, 10), extra_edges=2)
        a = set(random_subset(rng, g.universe))
        b = set(random_subset(rng, g.universe))
        ca = closure(alpha1, g, a)
        assert a.issubset(ca)
        assert closure(alpha1, g, ca) == ca  # idempotent
        if a.issubset(b):
            assert set(ca).issubset(closure(alpha1, g, b))
        assert is_strong(alpha1, g, ca).verdict


def test_brute_refuses_oversized_lattices(alpha1, fusion):
    g = random_sparse_graph(random.Random(0), 25, extra_edges=0)
    with pytest.raises(Exception):
        brute_force_is_strong(alpha1, g, frozenset(), frozenset(g.universe))
    big = vectors(*[(1, i) for i in range(18)])
    # matroid components cap at 16 free elements regardless of the bound
    with pytest.raises(Exception):
        brute_force_is_strong(fusion, big, frozenset(), frozenset(big.universe))


def _bent() -> PredimensionSpec:
    """Relational part minus a uniform rank: not submodular, so invalid."""
    return PredimensionSpec.make(components=((oracle_by_name("uniform2"), F(-1)),), allow_invalid=True)


def test_invalid_spec_strength_is_the_brute_oracle():
    spec = _bent()
    rng = random.Random(26)
    for _ in range(80):
        g = random_sparse_graph(rng, rng.randrange(1, 8), extra_edges=rng.randrange(4))
        within = set(random_subset(rng, g.universe)) or set(g.universe)
        base = random_subset(rng, sorted(within))
        for ambient in (None, within):
            brute = brute_force_is_strong(spec, g, base, ambient)
            assert is_strong(spec, g, base, ambient) == brute
            assert strong_verdict(spec, g, base, ambient) == brute.verdict
    with pytest.raises(SpecError, match="submodular"):
        closure(spec, g, base)
    with pytest.raises(SpecError, match="submodular"):
        closure_delta(spec, g, base)


def test_brute_closure_refuses_without_a_least_strong_superset():
    # the path 1-0-2 under the bent spec: {0, 1} and {0, 2} are strong over
    # the empty base (delta -1 each, like the whole path), but their meet
    # {0} has delta 0; the smallest such case a seeded search over random
    # sparse graphs turned up
    path = graph(3, [(0, 1), (0, 2)])
    with pytest.raises(SpecError, match="no least strong superset"):
        brute_closure(_bent(), path, ())


def test_brute_report_matches_definition(alpha1, k4):
    rep = brute_force_is_strong(alpha1, k4, frozenset({0}), frozenset(k4.universe))
    assert not rep.verdict
    assert rep.deficiency == F(-3)
    assert rep.witness == (1, 2, 3)


def test_deep_augmenting_path_needs_no_recursion(tmp_path, capsys):
    # a 701-element path plus one extra relation on its first edge: the max
    # flow runs an augmenting path about 1,400 arcs deep
    from predim import Signature

    n = 701
    s = FinStructure(
        Signature((("E", 2), ("F", 2))), range(n), {"E": [(i, i + 1) for i in range(n - 1)], "F": [(0, 1)]}
    )
    spec = spec_alpha()
    assert closure(spec, s, ()) == ()
    assert is_strong(spec, s, ()) == StrongReport(True, F(0))
    spec_file = tmp_path / "alpha.spec"
    spec_file.write_text(serialize_spec(spec))
    struct_file = tmp_path / "path.structure"
    struct_file.write_text(serialize_structure(s))
    capsys.readouterr()
    assert main(["closure", "--spec", str(spec_file), str(struct_file), "--base", ""]) == 0
    assert "closure" in capsys.readouterr().out


def _modular_specs() -> list[PredimensionSpec]:
    # relational plus free/cardinality terms of either sign; cardinality -3/2
    # makes every element's modular capacity negative
    card, free = oracle_by_name("cardinality"), oracle_by_name("free")
    return [
        PredimensionSpec.make(components=comps)
        for comps in ((), ((card, F(-1, 2)),), ((free, F(1, 3)),), ((free, F(1)), (card, F(-3, 2))))
    ]


def _fresh(s: FinStructure) -> FinStructure:
    return FinStructure(s.sig, s.universe, s.instances, s.annotations)


def test_session_answers_match_fresh_structures_and_brute():
    # queries in random order on one structure run on warm copies of its
    # session; a fresh copy of the structure answers each one cold
    rng = random.Random(31)
    warm = 0
    for w in (F(1), F(1, 2), F(2, 3)):
        for spec in _modular_specs():
            for _ in range(12):
                g = random_sparse_graph(rng, rng.randrange(2, 10), extra_edges=rng.randrange(5))
                s = graph(g.n, sorted(g.instances["E"]), weight=w)
                tables = subset_tables(spec, s)
                for _ in range(8):
                    base = random_subset(rng, s.universe)
                    kind = rng.choice(("closure", "is_strong", "strong_verdict", "in_class"))
                    if kind == "closure":
                        got = closure(spec, s, base)
                        assert got == closure(spec, _fresh(s), base)
                        assert got == brute_closure(spec, s, base, tables=tables)
                    elif kind == "is_strong":
                        got = is_strong(spec, s, base)
                        assert got == is_strong(spec, _fresh(s), base)
                        assert got == brute_force_is_strong(spec, s, base)
                    elif kind == "strong_verdict":
                        got = strong_verdict(spec, s, base)
                        assert got == strong_verdict(spec, _fresh(s), base)
                        assert got == brute_force_is_strong(spec, s, base).verdict
                    else:
                        got = in_class(spec, s)
                        assert got == in_class(spec, _fresh(s))
                        assert got == brute_force_is_strong(spec, s, ()).verdict
                warm += (s._sessions or {}).get(spec) is not None
    # some structures see fewer than two whole-universe kernel queries
    assert warm >= 120


def test_within_queries_leave_the_session_cache_alone():
    spec = _modular_specs()[1]
    rng = random.Random(32)
    g = random_sparse_graph(rng, 9, extra_edges=3)
    s = _fresh(g)
    inner = list(s.universe)[:6]
    for _ in range(2):
        closure(spec, s, (0,), within=inner)
        is_strong(spec, s, (0,), within=inner)
        strong_verdict(spec, s, (), within=inner)
    assert s._sessions is None
    closure(spec, s, ())  # the first whole-universe query solves cold
    assert s._sessions == {spec: None}
    closure(spec, s, (0,), within=inner)
    assert s._sessions == {spec: None}
    closure(spec, s, (1,))  # the second solves the root
    root = s._sessions[spec]
    assert root.base == frozenset() and root.elems == list(s.universe)
    state = (root.cap[:], root.flow, root.least)
    for base in ((0,), (2, 3), ()):
        closure(spec, s, base, within=inner)
        is_strong(spec, s, base)
        closure(spec, s, base)
    assert list(s._sessions) == [spec]
    assert s._sessions[spec] is root
    assert (root.cap, root.flow, root.least) == state  # forcing works on copies


def test_a_session_answers_only_its_own_spec():
    rng = random.Random(33)
    specs = _modular_specs()
    for _ in range(20):
        g = random_sparse_graph(rng, rng.randrange(3, 9), extra_edges=rng.randrange(4))
        s = _fresh(g)
        for _ in range(12):
            spec = rng.choice(specs)
            base = random_subset(rng, s.universe)
            assert closure(spec, s, base) == closure(spec, _fresh(s), base)
            assert is_strong(spec, s, base) == is_strong(spec, _fresh(s), base)
        roots = [root for root in (s._sessions or {}).values() if root is not None]
        assert len({id(r) for r in roots}) == len(roots)
        assert set(s._sessions or ()) <= set(specs)


@pytest.mark.parametrize("oracle,coef", [("linear5", F(1, 2)), ("uniform2", F(1, 2)), ("linear5", F(2))])
def test_positive_deficiency_by_forcing_matches_brute(oracle, coef):
    # every nonempty set strictly positive: each free element is forced in
    # on a copy of the base's solved state
    spec = _matroid_spec(oracle, coef)
    rng = random.Random(34)
    positive = 0
    for w in (F(1), F(1, 2), F(2, 3)):
        for _ in range(40):
            n = rng.randrange(2, 9)
            g = random_sparse_graph(rng, n, extra_edges=rng.randrange(3))
            s = FinStructure(
                graph_signature(w), g.universe, g.instances, random_vectors(rng, n, rng.choice((2, 3)), 5)
            )
            base = random_subset(rng, s.universe)
            slow = brute_force_is_strong(spec, s, base)
            assert is_strong(spec, s, base) == slow
            positive += slow.deficiency > 0
    assert positive >= 30
