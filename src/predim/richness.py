"""Fast exact satisfaction checks for weight-1 graph specs.

For a purely relational spec with all weights 1 and all arities 2, a member
of the nonnegative class is a pseudoforest: every component is a tree or
carries exactly one cycle.  Strength is `strongsets.graph_strong`, the
weight-1 engine, read off the structure's cached component table;
`Pseudoforest` answers obligations only, which decompose per component: the
anchored part hangs off the base as pendant trees, each free part goes into
a component of its own.  That turns obligation satisfaction into local
checks, which is what makes level-4 audits on structures with dozens of
elements tractable.

Everything here is exact and is cross-checked against the generic engines in
the test suite.  `Pseudoforest` and `met_fast` stay beside those engines
because they still pay: on a 2-vCPU machine with Python 3.11, the level-4
audits of the k=3 builds took 0.04-0.06 s at n=40 and 0.26-0.31 s at n=80
with them, deciding each run once per key, against 0.83-0.89 s and 7.1-8.2 s
with the generic engines alone (over the same strong-base walk).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .canonical import canonical_code
from .extensions import ExtensionClass
from .structures import FinStructure, find_embeddings
from .strongsets import graph_strong

# A rooted tree with labelled edges: its root's children, each as (the
# symbol of the instance joining it to the root, the subtree below it), in
# sorted order.  Equal rooted trees have equal tuples.
Tree = tuple[tuple[str, "Tree"], ...]


class Pseudoforest:
    """Component data for a weight-1 graph structure, read from the
    structure's cached component table (`FinStructure.components`), for a
    valid pseudoforest (`strongsets.valid_pseudoforest`): `builder` takes
    the generic route on any other structure.

    What depends on the structure alone is filled into its `_decided` slot,
    so a build's last scan and every audit of it share it: the components'
    induced structures, each free part's fitting components by part code,
    and the anchored part's verdicts per trees and (base element, its
    neighbours outside the base), which fix the element's branches over a
    strong base (see `met_fast`).  The slot holds nothing that refers back
    to the structure, so it makes no cycle.  The keys of each run of bases
    live here, with this object; plans depend on the class only (`plan_of`).
    """

    def __init__(self, struct: FinStructure):
        self.struct = struct
        self.comp_of, self.comp_elems, _, _ = struct.components()
        if struct._decided is None:
            struct._decided = ({}, {}, {})
        self._targets, self._fits, self._branches = struct._decided
        self._runs: dict[int, tuple] = {}

    def target(self, root: int) -> FinStructure:
        """The induced structure on the component of `root`, kept unless it
        is the whole structure."""
        elems = self.comp_elems[root]
        if len(elems) < self.struct.n and root not in self._targets:
            self._targets[root] = self.struct.restrict(elems)
        return self._targets.get(root, self.struct)

    def fitting_roots(self, part: FinStructure, part_code: bytes) -> tuple[int, ...]:
        """Components, in order, holding an induced copy of the (connected)
        part that is itself a valid chunk."""
        if part_code not in self._fits:
            # a connected image is strong in a tree component always, in a
            # unicyclic one when it holds the cycle
            strong = lambda m: graph_strong(self.struct, m.values())
            self._fits[part_code] = tuple([
                root for root in sorted(self.comp_elems)
                if find_embeddings(part, self.target(root), limit=1, compat=strong)
            ])
        return self._fits[part_code]

    def keys(self, bases: Sequence[tuple[int, ...]]) -> tuple[list[dict], dict]:
        """The keys of a run of bases of one shape, each with the positions
        of the bases that have it: per place, (the element there, its
        neighbours outside the base); and the components a base meets.  Kept
        for a run of more than one base, which every class of its shape
        reads; the run must not change meanwhile."""
        held = self._runs.get(id(bases), (None, None))
        if held[0] is bases:
            return held[1]
        adj, comp_of = self.struct.adjacency(), self.comp_of
        places: list[dict] = [{} for _ in bases[0]]
        comps: dict[frozenset[int], list[int]] = {}
        for i, A in enumerate(bases):
            for keys, a in zip(places, A):
                keys.setdefault((a, adj[a].difference(A)), []).append(i)
            comps.setdefault(frozenset(map(comp_of.__getitem__, A)), []).append(i)
        if len(bases) > 1:
            self._runs[id(bases)] = (bases, (places, comps))
        return places, comps

    def hangs(self, trees: Tree, u: int, nbrs: frozenset[int]) -> bool:
        """Do the rooted trees go below u into distinct elements of `nbrs`,
        neighbours of u, each along an instance of its symbol and with its
        subtree fitting below that neighbour, away from u?  Exact when the
        part of the structure below `nbrs` is a tree."""
        adj, inc = self.struct.adjacency(), self.struct.incidence()
        options = [
            [v for name, t in inc[u] if name == sym for v in t
             if v in nbrs and (not sub or self.hangs(sub, v, adj[v] - {u}))]
            for sym, sub in trees
        ]
        return _distinct(options)


def _distinct(options: list[list[int]]) -> bool:
    """Can one pick a different element from each list?"""
    order = sorted(options, key=len)
    used: set[int] = set()

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        for r in order[i]:
            if r not in used:
                used.add(r)
                if assign(i + 1):
                    return True
                used.discard(r)
        return False

    return assign(0)


def _pendant_places(cls: ExtensionClass, anchored: list[list[int]]):
    """Per place of the sorted base that anchored trees hang at, (the place,
    the trees); None unless each anchored component is a tree joined to the
    base by exactly one instance."""
    inc = cls.ext.incidence()
    hung: dict[int, list[tuple[str, Tree]]] = {}
    for comp in anchored:
        members = set(comp)
        inner, joins = set(), []
        for x in comp:
            for name, t in inc[x]:
                if members.issuperset(t):
                    inner.add((name, t))
                else:
                    joins.append((name, t, x))
        # connected with one instance fewer than elements: a tree, and no
        # pair in it carries two symbols
        if len(inner) != len(comp) - 1 or len(joins) != 1:
            return None
        name, t, root = joins[0]
        (b,) = set(t) - members
        hung.setdefault(cls.base.universe.index(b), []).append((name, _rooted(inc, inner, root, None)))
    return tuple((place, tuple(sorted(trees))) for place, trees in sorted(hung.items()))


def _rooted(inc, inner: set, u: int, parent: Optional[int]) -> Tree:
    """The tree of `inner` instances below u, away from `parent`."""
    return tuple(sorted(
        (name, _rooted(inc, inner, v, u)) for name, t in inc[u] if (name, t) in inner
        for v in t if v != u and v != parent
    ))


class _Plan(NamedTuple):
    """What checking a class needs: the trees its anchored part hangs at each
    place of the sorted base, as (place, trees) pairs over the places that
    have some (None when that part is not a pendant forest, see
    `_pendant_places`), and each free part with its canonical code.  Plans
    are shared by code, and nothing in one names an id of the class's base,
    so a transported class (same code, other ids) reads the same plan."""

    places: Optional[tuple[tuple[int, Tree], ...]]
    free_parts: tuple[tuple[FinStructure, bytes], ...]

    @staticmethod
    def of(cls: ExtensionClass) -> _Plan:
        # the new part's components, anchored (joined to the base) and free
        base, adj, anchored, free = set(cls.base.universe), cls.ext.adjacency(), [], []
        for comp in cls.ext.restrict(cls.new_elements).components()[1].values():
            (anchored if any(not base.isdisjoint(adj[x]) for x in comp) else free).append(comp)
        parts = tuple((part, canonical_code(part)) for part in map(cls.ext.restrict, free))
        return _Plan(_pendant_places(cls, anchored), parts)


_plans: dict[bytes, _Plan] = {}  # by class code, see `plan_of`


def plan_of(cls: ExtensionClass) -> _Plan:
    """The class's obligation plan, made once per class code and kept until
    `forget_plans`, which `builder.catalogue_walk` calls as it clears the
    catalogue: a plan lives as long as its class's entry there."""
    plan = _plans.get(cls.code)
    if plan is None:
        plan = _plans[cls.code] = _Plan.of(cls)
    return plan


forget_plans = _plans.clear


def met_fast(pf: Pseudoforest, cls: ExtensionClass, bases: Sequence[tuple[int, ...]]) -> list:
    """The bases of a run over which the class has no strong copy, in
    order: exact obligation satisfaction via the chunk decomposition.

    Each base must be a sorted tuple, strong in `pf.struct`.  The class may
    sit over any base of the same shape: its sorted base is pinned onto each
    base.  The image of the anchored part lives in the base's components;
    each free part needs its own base-free component (a disconnected trace
    is never strong), so the two checks are independent.  Both read the
    base only through its keys (`Pseudoforest.keys`): whether the free parts
    fit into distinct components outside the base's reads the set of
    components it meets, and the anchored part reads, at each place, the
    element there and its neighbours outside the base.  So the run is
    decided once per distinct key, and a base is unmet when one of its keys
    fails.

    The anchored part is decided on the base's pendant branches, with no
    search.  Lemma: let A be strong and C a component that A meets.  A is
    strong, so e(A & C) - |A & C| = e(C) - |C|.  For a graph, e - |.| is
    its cyclomatic number less its number of components, and a subgraph of
    C has at most C's cyclomatic number; so A & C is connected and holds
    C's cycle.  Contracting it leaves a tree, so every element of C outside
    A lies in exactly one branch: a tree joined to A by exactly one
    instance, at one base element a, through the branch's root r.  The
    branch is r's side of that instance in C, so a and r fix it.

    An induced image over A puts each new component K of the anchored part,
    being connected, inside one branch, which meets A by one instance; so K
    is a tree joined to the base by one instance (else the plan has no
    places, and every base is unmet), the trees hanging at one base element
    go into distinct branches there, and each enters its branch by the
    branch's root, along an instance of its own symbol, as a rooted subtree
    (`Pseudoforest.hangs`).  Conversely such a placement is induced, since a
    tree induces nothing more on a subtree and different branches are not
    joined, and its image X is strong: X & C is A & C with subtrees hung on
    it, connected and with C's cyclomatic number, X meets only A's
    components, and none is crowded (`valid_pseudoforest`).  Over a base
    that is not strong the lemma fails: a point on a cycle has a pendant
    image that misses the cycle.
    """
    plan = plan_of(cls)
    if plan.places is None or not bases:
        return list(bases)
    places, comps = pf.keys(bases)
    unmet: set[int] = set()
    if plan.free_parts:
        for roots, at in comps.items():
            if not _free_parts_fit(pf, plan, roots):
                unmet.update(at)
    for place, trees in plan.places:
        verdicts = pf._branches.setdefault(trees, {})
        for key, at in places[place].items():
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = pf.hangs(trees, *key)
            if not verdict:
                unmet.update(at)
    return [bases[i] for i in sorted(unmet)]


def _free_parts_fit(pf: Pseudoforest, plan: _Plan, roots: frozenset[int]) -> bool:
    """Do the plan's free parts go into distinct components outside `roots`,
    the components the base meets?"""
    return _distinct([
        [r for r in pf.fitting_roots(part, code) if r not in roots]
        for part, code in plan.free_parts
    ])
