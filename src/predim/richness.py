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
because they still pay: on a 2-core machine with Python 3.11, the level-4
audits of the k=3 builds took 0.10-0.11 s at n=40 and 0.48-0.59 s at n=80
with them, and 0.91-0.98 s and 8.0-9.6 s with the generic engines alone
(three runs each, over the same strong-base walk).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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
    structure's cached component table (`FinStructure.components`).

    `valid` is False when some component has more edges than vertices, i.e.
    the structure is outside the nonnegative class; `builder._obligation_test`
    takes the generic route then.

    Obligation plans are kept by class code in `plans`, which a builder
    passes from one approximation's Pseudoforest to the next (plans depend on
    the class only); targets and fits depend on the structure and stay here.
    So does the free parts' verdict, kept in `_free` by the components the
    base meets and then by class code.  That is sound because the code fixes
    the plan and so its free parts, and whether they fit into distinct
    components outside the base's reads nothing else of the base.  The
    anchored part's verdict is kept per base element in `_branches`, keyed
    by (the element, its neighbours outside the base, the trees the plan
    hangs there): over a strong base those neighbours are the roots of the
    element's branches, and each branch is fixed by its root and the element
    (see `met_fast`).  No state is kept per base.
    """

    def __init__(self, struct: FinStructure, plans: Optional[dict[bytes, _Plan]] = None):
        self.struct = struct
        self.comp_of, self.comp_elems, _, crowded = struct.components()
        self.valid = not crowded
        self.plans: dict[bytes, _Plan] = {} if plans is None else plans
        self._targets: dict[int, FinStructure] = {}
        self._fits: dict[bytes, tuple[int, ...]] = {}
        self._free: dict[tuple[int, ...], dict[bytes, bool]] = {}
        self._branches: dict[tuple[int, frozenset[int], Tree], bool] = {}

    def plan(self, cls: ExtensionClass) -> _Plan:
        """The class's obligation plan, computed once per class code."""
        plan = self.plans.get(cls.code)
        if plan is None:
            plan = self.plans[cls.code] = _Plan.of(cls)
        return plan

    def target(self, root: int) -> FinStructure:
        """The induced structure on the component of `root`."""
        if root not in self._targets:
            elems = self.comp_elems[root]
            self._targets[root] = self.struct.restrict(elems) if len(elems) < self.struct.n else self.struct
        return self._targets[root]

    def fitting_roots(self, part: FinStructure, part_code: bytes) -> tuple[int, ...]:
        """Components, in order, holding an induced copy of the (connected)
        part that is itself a valid chunk."""
        if part_code not in self._fits:
            fits = []
            for root in sorted(self.comp_elems):
                # a connected image is strong in a tree component always,
                # in a unicyclic one when it holds the cycle
                hits = find_embeddings(
                    part, self.target(root), limit=1,
                    compat=lambda m: graph_strong(self.struct, m.values()),
                )
                if hits:
                    fits.append(root)
            self._fits[part_code] = tuple(fits)
        return self._fits[part_code]

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


def _split_parts(cls: ExtensionClass, base: set[int]):
    """Connected components of the new part, anchored (joined to the base)
    and free."""
    adj = cls.ext.adjacency()
    anchored: list[list[int]] = []
    free: list[list[int]] = []
    for comp in cls.ext.restrict(cls.new_elements).components()[1].values():
        joined = any(not base.isdisjoint(adj[x]) for x in comp)
        (anchored if joined else free).append(comp)
    return anchored, free


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
        anchored, free = _split_parts(cls, set(cls.base.universe))
        parts = tuple((part, canonical_code(part)) for part in map(cls.ext.restrict, free))
        return _Plan(_pendant_places(cls, anchored), parts)


def met_fast(pf: Pseudoforest, base_ids: tuple[int, ...], cls: ExtensionClass) -> bool:
    """Exact obligation satisfaction via the chunk decomposition, for a
    strong base.

    `base_ids` must be strong in `pf.struct`.  The class may sit over any
    base of the same shape: its sorted base is pinned onto the sorted
    `base_ids`.  The image of the anchored part lives in the base's
    components; each free part needs its own base-free component (a
    disconnected trace is never strong), so the two checks are independent,
    and the free parts' verdict is kept per component set.

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
    places), the trees hanging at one base element go into distinct
    branches there, and each enters its branch by the branch's root, along
    an instance of its own symbol, as a rooted subtree (`Pseudoforest.hangs`).
    Conversely such a placement is induced, since a tree induces nothing
    more on a subtree and different branches are not joined, and its image
    X is strong: X & C is A & C with subtrees hung on it, connected and
    with C's cyclomatic number, X meets only A's components, and none is
    crowded (`pf.valid`).  Over a base that is not strong the lemma fails:
    a point on a cycle has a pendant image that misses the cycle.
    """
    plan = pf.plan(cls)
    if plan.places is None:
        return False
    if plan.free_parts:
        roots = tuple(sorted({pf.comp_of[a] for a in base_ids}))
        verdicts = pf._free.get(roots)
        if verdicts is None:
            verdicts = pf._free[roots] = {}
        if cls.code not in verdicts:
            verdicts[cls.code] = _free_parts_fit(pf, plan, roots)
        if not verdicts[cls.code]:
            return False
    if plan.places:
        base = sorted(base_ids)
        adj = pf.struct.adjacency()
        for place, trees in plan.places:
            a = base[place]
            key = (a, adj[a].difference(base), trees)
            verdict = pf._branches.get(key)
            if verdict is None:
                verdict = pf._branches[key] = pf.hangs(trees, a, key[1])
            if not verdict:
                return False
    return True


def _free_parts_fit(pf: Pseudoforest, plan: _Plan, roots: tuple[int, ...]) -> bool:
    """Do the plan's free parts go into distinct components outside `roots`,
    the components the base meets?"""
    return _distinct([
        [r for r in pf.fitting_roots(part, code) if r not in roots]
        for part, code in plan.free_parts
    ])
