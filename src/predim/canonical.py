"""Canonical certificates for finite structures.

Colour refinement seeded by annotations and caller colours, then
individualization with orbit pruning.  The search reads the structure's own
index (`incidence`, `instances`, `annotation`) and keys colours by element.
Certificates are deterministic bytes: two structures get equal certificates
exactly when an isomorphism matches instances, annotation tokens, and initial
colours.  No reliance on Python hashing anywhere.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .structures import FinStructure

Colors = dict[int, int]  # element -> colour, or element -> position for a labelling


def _refine(struct: FinStructure, colors: Colors) -> Colors:
    """Stable colour refinement over the structure's incidence index; colours
    are re-indexed by sorted key, a symbol keyed by its place in the signature."""
    sym = {name: s for s, name in enumerate(struct.sig.names)}
    inc = struct.incidence()
    ncolors = len(set(colors.values()))
    while True:
        color = colors.__getitem__
        keys = []
        for v in struct.universe:
            if struct.sig.ordered:
                sigs = [
                    (sym[name], tuple([i for i, e in enumerate(t) if e == v]), tuple(map(color, t)))
                    for name, t in inc[v]
                ]
            else:
                sigs = [(sym[name], tuple(sorted(map(color, t)))) for name, t in inc[v]]
            sigs.sort()
            keys.append((colors[v], tuple(sigs)))
        order = sorted(set(keys))
        remap = {k: i for i, k in enumerate(order)}
        colors = {v: remap[k] for v, k in zip(struct.universe, keys)}
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def _serialize(struct: FinStructure, init_colors: Colors, colors: Colors) -> tuple[bytes, Colors]:
    """Certificate bytes for a discrete colouring, plus element->position map."""
    order = sorted(struct.universe, key=colors.__getitem__)
    body = (len(order), tuple([init_colors[v] for v in order]), *struct.shape(order))
    return repr(body).encode(), {v: p for p, v in enumerate(order)}


def _canon(struct: FinStructure, init_colors: Colors, colors: Colors) -> tuple[bytes, Colors]:
    colors = _refine(struct, colors)
    cells: dict[int, list[int]] = {}
    for v in struct.universe:
        cells.setdefault(colors[v], []).append(v)
    branch = None
    for c in sorted(cells):
        if len(cells[c]) > 1 and (branch is None or len(cells[c]) < len(cells[branch])):
            branch = c
    if branch is None:
        return _serialize(struct, init_colors, colors)

    cell = cells[branch]
    best: Optional[tuple[bytes, Colors]] = None
    explored: list[int] = []
    first: dict[bytes, Colors] = {}  # leaf certificate -> its first labelling
    gens: list[Colors] = []

    def orbit(seed: list[int]) -> set[int]:
        out = set(seed)
        frontier = list(seed)
        while frontier:
            x = frontier.pop()
            for p in gens:
                y = p[x]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return out

    for v in cell:
        if explored and v in orbit(explored):
            continue
        child = dict(colors)
        child[v] = -1  # fresh colour; refinement re-indexes
        cert, lab = _canon(struct, init_colors, child)
        if cert in first:
            # Equal leaf certificates expose an automorphism.
            inv = {p: x for x, p in first[cert].items()}
            gens.append({x: inv[p] for x, p in lab.items()})
        else:
            first[cert] = lab
        if best is None or cert < best[0]:
            best = (cert, lab)
        explored.append(v)
    assert best is not None
    return best


def certificate(struct: FinStructure, init_colors: Optional[Mapping[int, int]] = None) -> bytes:
    """Canonical bytes for `struct` with an optional initial colouring.

    Annotation tokens are always part of the isomorphism notion; initial
    colours come on top (elements with different colours can never map to
    each other).
    """
    given = init_colors or {}
    seed_keys = [(int(given.get(e, 0)), struct.annotation(e)) for e in struct.universe]
    order = sorted(set(seed_keys))
    remap = {k: i for i, k in enumerate(order)}
    init = {e: remap[k] for e, k in zip(struct.universe, seed_keys)}
    if len(order) == struct.n:
        # a discrete colouring is already stable: no refinement, no search
        cert, _ = _serialize(struct, init, init)
    else:
        cert, _ = _canon(struct, init, init)
    return cert


def canonical_code(struct: FinStructure) -> bytes:
    """Plain canonical code."""
    return certificate(struct)


def code_over_base(struct: FinStructure, base: Iterable[int]) -> bytes:
    """Code of `struct` with base elements pinned pointwise.

    Base elements are coloured individually in sorted order, so two
    extensions of the same base compare equal exactly when an isomorphism
    fixes the base pointwise.
    """
    base_sorted = tuple(sorted(set(base)))
    return certificate(struct, {e: i + 1 for i, e in enumerate(base_sorted)})


def pinned_shape(struct: FinStructure, base: Iterable[int]) -> tuple:
    """The induced structure on the base as a hashable key, its elements
    renamed to their places in sorted order.  With every base element pinned,
    `code_over_base(struct.restrict(base), base)` is the `repr` of this body
    behind the places, so two bases get equal shapes exactly when equal codes."""
    return struct.shape(sorted(set(base)))


def pair_code(struct: FinStructure, base: Iterable[int]) -> bytes:
    """Code of the pair (base, struct) up to isomorphisms preserving the split."""
    base_sorted = tuple(sorted(set(base)))
    return certificate(struct, dict.fromkeys(base_sorted, 1))
