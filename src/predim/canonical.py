"""Canonical certificates for finite structures.

Colour refinement seeded by annotations and caller colours, then
individualization with orbit pruning.  Certificates are deterministic bytes:
two structures get equal certificates exactly when an isomorphism matches
instances, annotation tokens, and initial colours.  No reliance on Python
hashing anywhere.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .structures import FinStructure


class _Indexed:
    """Structure re-encoded over vertex indices 0..n-1 for the search."""

    __slots__ = ("n", "verts", "ordered", "sym_insts", "vert_insts", "ann")

    def __init__(self, struct: FinStructure):
        self.verts = list(struct.universe)
        self.n = len(self.verts)
        idx = {e: i for i, e in enumerate(self.verts)}
        self.ordered = struct.sig.ordered
        self.sym_insts: list[list[tuple[int, ...]]] = []
        for name in struct.sig.names:
            self.sym_insts.append(sorted(tuple(idx[e] for e in t) for t in struct.instances[name]))
        self.vert_insts: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for s, insts in enumerate(self.sym_insts):
            for j, t in enumerate(insts):
                for v in set(t):
                    self.vert_insts[v].append((s, j))
        self.ann = [struct.annotation(e) for e in self.verts]


def _refine(g: _Indexed, colors: list[int]) -> list[int]:
    """Stable colour refinement; colours are re-indexed by sorted key."""
    ncolors = len(set(colors))
    while True:
        keys = []
        for v in range(g.n):
            sigs = []
            for s, j in g.vert_insts[v]:
                t = g.sym_insts[s][j]
                if g.ordered:
                    pos = tuple(i for i, e in enumerate(t) if e == v)
                    sigs.append((s, pos, tuple(colors[e] for e in t)))
                else:
                    sigs.append((s, tuple(sorted(colors[e] for e in t))))
            keys.append((colors[v], tuple(sorted(sigs))))
        order = sorted(set(keys))
        remap = {k: i for i, k in enumerate(order)}
        colors = [remap[k] for k in keys]
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def _serialize(g: _Indexed, init_colors: list[int], colors: list[int]) -> tuple[bytes, list[int]]:
    """Certificate bytes for a discrete colouring, plus vertex->position map."""
    pos = [0] * g.n
    for p, v in enumerate(sorted(range(g.n), key=lambda v: colors[v])):
        pos[v] = p
    body = (
        g.n,
        tuple(init_colors[v] for v in sorted(range(g.n), key=lambda v: pos[v])),
        tuple(g.ann[v] for v in sorted(range(g.n), key=lambda v: pos[v])),
        tuple(
            tuple(sorted(tuple(pos[e] for e in t) if g.ordered else tuple(sorted(pos[e] for e in t)) for t in insts))
            for insts in g.sym_insts
        ),
    )
    return repr(body).encode(), pos


def _canon(g: _Indexed, init_colors: list[int], colors: list[int]) -> tuple[bytes, list[int]]:
    colors = _refine(g, colors)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    branch = None
    for c in sorted(cells):
        if len(cells[c]) > 1 and (branch is None or len(cells[c]) < len(cells[branch])):
            branch = c
    if branch is None:
        return _serialize(g, init_colors, colors)

    cell = cells[branch]
    best: Optional[tuple[bytes, list[int]]] = None
    explored: list[int] = []
    certs: dict[int, bytes] = {}
    labs: dict[int, list[int]] = {}
    gens: list[list[int]] = []

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
        child = list(colors)
        child[v] = -1  # fresh colour; refinement re-indexes
        cert, lab = _canon(g, init_colors, child)
        for u in explored:
            if certs[u] == cert:
                # Equal leaf certificates expose an automorphism.
                inv = [0] * g.n
                for x in range(g.n):
                    inv[labs[u][x]] = x
                gens.append([inv[lab[x]] for x in range(g.n)])
                break
        if best is None or cert < best[0]:
            best = (cert, lab)
        explored.append(v)
        certs[v] = cert
        labs[v] = lab
    assert best is not None
    return best


def certificate(struct: FinStructure, init_colors: Optional[Mapping[int, int]] = None) -> bytes:
    """Canonical bytes for `struct` with an optional initial colouring.

    Annotation tokens are always part of the isomorphism notion; initial
    colours come on top (elements with different colours can never map to
    each other).
    """
    g = _Indexed(struct)
    given = [0 if init_colors is None else int(init_colors.get(e, 0)) for e in struct.universe]
    seed_keys = [(given[i], g.ann[i]) for i in range(g.n)]
    order = sorted(set(seed_keys))
    remap = {k: i for i, k in enumerate(order)}
    init = [remap[k] for k in seed_keys]
    if len(order) == g.n:
        # a discrete colouring is already stable: no refinement, no search
        cert, _ = _serialize(g, init, init)
    else:
        cert, _ = _canon(g, init, list(init))
    return cert


def canonical_code(struct: FinStructure) -> bytes:
    """Plain canonical code; cached on the structure."""
    key = ("plain",)
    if key not in struct._codes:
        struct._codes[key] = certificate(struct)
    return struct._codes[key]


def code_over_base(struct: FinStructure, base: Iterable[int]) -> bytes:
    """Code of `struct` with base elements pinned pointwise.

    Base elements are coloured individually in sorted order, so two
    extensions of the same base compare equal exactly when an isomorphism
    fixes the base pointwise.
    """
    base_sorted = tuple(sorted(set(base)))
    key = ("over", base_sorted)
    if key not in struct._codes:
        colors = {e: i + 1 for i, e in enumerate(base_sorted)}
        struct._codes[key] = certificate(struct, colors)
    return struct._codes[key]


def pair_code(struct: FinStructure, base: Iterable[int]) -> bytes:
    """Code of the pair (base, struct) up to isomorphisms preserving the split."""
    base_sorted = tuple(sorted(set(base)))
    key = ("pair", base_sorted)
    if key not in struct._codes:
        colors = {e: 1 for e in base_sorted}
        struct._codes[key] = certificate(struct, colors)
    return struct._codes[key]
