"""The query verbs on 20,000-element inputs, in process through the CLI.

A path and a seeded random tree with two extra edges; each answer is read
off the graph itself.  No wall-clock bound is asserted: a verb that went
quadratic again would show as a slow suite, not as a failure.
"""

from __future__ import annotations

import random

import pytest

from predim.cli import main
from predim.sampling import random_sparse_graph
from predim.textio import serialize_structure

from conftest import graph

N = 20_000


def _ids(elems) -> str:
    return "[" + " ".join(map(str, sorted(elems))) + "]"


def _pruned(edges, keep) -> set[int]:
    """The elements left once elements of degree at most 1 outside `keep`
    are removed until none is left: for a connected graph, the least
    connected set that holds `keep` and every cycle."""
    adj: dict[int, set[int]] = {e: set() for e in range(N)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = {e: len(nbrs) for e, nbrs in adj.items()}
    alive = set(adj)
    queue = [e for e in adj if deg[e] <= 1 and e not in keep]
    for e in queue:
        alive.discard(e)
        for f in adj[e]:
            if f in alive:
                deg[f] -= 1
                if deg[f] == 1 and f not in keep:
                    queue.append(f)
    return alive


def _path():
    edges = [(i, i + 1) for i in range(N - 1)]
    expected = {
        "delta": ("1/1\n", 0),
        "strong": ("deficiency\t0/1\nverdict\ttrue\n", 0),
        "closure": ("closure\t[7]\n", 0),
        "check-class": ("in-class\ttrue\n", 0),
        "dim": ("dim\t1\n", 0),
        "gcl": (f"gcl\t{_ids(range(N))}\n", 0),
    }
    return graph(N, edges), expected


def _random_graph():
    # a random tree plus two edges: one component of cycle rank 2, so every
    # minimizer of delta holds the 2-core, and the least one is that core
    # joined to the base
    struct = random_sparse_graph(random.Random(5), N)
    edges = sorted(struct.instances["E"])
    assert len(edges) == N + 1 and (0, 1) in edges
    core = _pruned(edges, ())
    added = _pruned(edges, {0, 1}) - {0, 1}
    expected = {
        "delta": ("-1/1\n", 0),
        "strong": (f"deficiency\t-2/1\nverdict\tfalse\nwitness\t{_ids(added)}\n", 1),
        "closure": (f"closure\t{_ids(_pruned(edges, {7}))}\n", 0),
        "check-class": (f"deficiency\t-1/1\nin-class\tfalse\nwitness\t{_ids(core)}\n", 1),
        "dim": ("dim\t0\n", 0),
        "gcl": (f"gcl\t{_ids(range(N))}\n", 0),
    }
    return struct, expected


@pytest.mark.parametrize("make", [_path, _random_graph], ids=["path", "random-sparse"])
def test_query_verbs_on_20000_elements(make, tmp_path, capsys):
    struct, expected = make()
    path = tmp_path / "long.structure"
    path.write_text(serialize_structure(struct))
    flags = {
        "delta": [],
        "strong": ["--base", "0,1"],
        "closure": ["--base", "7"],
        "check-class": [],
        "dim": ["--of", "0"],
        "gcl": ["--of", "0"],
    }
    capsys.readouterr()
    for verb, extra in flags.items():
        code = main([verb, str(path), *extra])
        assert (capsys.readouterr().out, code) == expected[verb], verb
