"""Seeded random structures for tests and audits.

Everything takes an explicit `random.Random`; nothing here touches global
RNG state, so callers control reproducibility completely.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable, Optional

from .structures import FinStructure, Signature, graph_signature


def random_structure(
    rng: random.Random,
    sig: Signature,
    n: int,
    density: float = 0.3,
) -> FinStructure:
    """Erdos-Renyi style: every candidate instance appears independently."""
    instances: dict[str, list] = {}
    for name, arity in sig.symbols:
        chosen = []
        if sig.ordered:
            cands = product(range(n), repeat=arity)
        else:
            cands = combinations(range(n), arity)
        for t in cands:
            if rng.random() < density:
                chosen.append(t)
        instances[name] = chosen
    return FinStructure(sig, range(n), instances)


def random_sparse_graph(rng: random.Random, n: int, extra_edges: int = 2) -> FinStructure:
    """A forest plus a few extra edges; keeps predimensions near zero, which
    makes strength checks actually contentful."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for _ in range(extra_edges):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return FinStructure(graph_signature(), range(n), {"E": sorted(edges)})


def random_subset(rng: random.Random, elems: Iterable[int], k: Optional[int] = None) -> tuple[int, ...]:
    pool = sorted(elems)
    if k is None:
        k = rng.randrange(len(pool) + 1)
    return tuple(sorted(rng.sample(pool, k)))


def random_vectors(
    rng: random.Random,
    n: int,
    width: int,
    prime: int,
) -> dict[int, tuple[str, ...]]:
    """Annotation map: each element gets a random vector over F_prime."""
    return {
        e: tuple(str(rng.randrange(prime)) for _ in range(width))
        for e in range(n)
    }

