"""Fast exact satisfaction checks for weight-1 graph specs.

For a purely relational spec with all weights 1 and all arities 2, a member
of the nonnegative class is a pseudoforest: every component is a tree or
carries exactly one cycle.  Strength is `strongsets.graph_strong`, the
weight-1 engine, read off the structure's cached component table;
`Pseudoforest` answers obligations only, which decompose per component: the
anchored part maps into the base's components, each free part into a
component of its own.  That turns obligation satisfaction into local checks,
which is what makes level-4 audits on structures with dozens of elements
tractable.

Everything here is exact and is cross-checked against the generic engines in
the test suite.  `Pseudoforest` and `met_fast` stay beside those engines
because they still pay: on a 2-core machine with Python 3.11, the level-4
audits of the k=3 builds took 0.37-0.51 s at n=40 and 2.6-2.9 s at n=80
with them, and 1.15-1.66 s and 10.3-11.5 s with the generic engines alone
(three runs each).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .canonical import canonical_code
from .extensions import ExtensionClass
from .structures import FinStructure, find_embeddings
from .strongsets import graph_strong


class Pseudoforest:
    """Component data for a weight-1 graph structure, read from the
    structure's cached component table (`FinStructure.components`).

    `valid` is False when some component has more edges than vertices, i.e.
    the structure is outside the nonnegative class; callers must fall back to
    the generic engines then.

    Obligation plans are kept by class code in `plans`, which a builder
    passes from one approximation's Pseudoforest to the next (plans depend on
    the class only); targets and fits depend on the structure and stay here.
    So does the free parts' verdict, kept in `_free` by the components the
    base meets and then by class code.  That is sound because the code fixes
    the plan and so its free parts, and whether they fit into distinct
    components outside the base's reads nothing else of the base.  No state
    is kept per base.
    """

    def __init__(self, struct: FinStructure, plans: Optional[dict[bytes, _Plan]] = None):
        self.struct = struct
        self.comp_of, self.comp_elems, _, crowded = struct.components()
        self.valid = not crowded
        self.plans: dict[bytes, _Plan] = {} if plans is None else plans
        self._targets: dict[tuple[int, ...], FinStructure] = {}
        self._fits: dict[bytes, tuple[int, ...]] = {}
        self._free: dict[tuple[int, ...], dict[bytes, bool]] = {}

    def plan(self, cls: ExtensionClass) -> _Plan:
        """The class's obligation plan, computed once per class code."""
        plan = self.plans.get(cls.code)
        if plan is None:
            plan = self.plans[cls.code] = _Plan.of(cls)
        return plan

    def target(self, roots: tuple[int, ...]) -> FinStructure:
        """The induced structure on the union of the given components."""
        if roots not in self._targets:
            elems = [e for r in roots for e in self.comp_elems[r]]
            self._targets[roots] = (
                self.struct.restrict(elems) if len(elems) < self.struct.n else self.struct
            )
        return self._targets[roots]

    def fitting_roots(self, part: FinStructure, part_code: bytes) -> tuple[int, ...]:
        """Components, in order, holding an induced copy of the (connected)
        part that is itself a valid chunk."""
        if part_code not in self._fits:
            fits = []
            for root in sorted(self.comp_elems):
                # a connected image is strong in a tree component always,
                # in a unicyclic one when it holds the cycle
                hits = find_embeddings(
                    part, self.target((root,)), limit=1,
                    compat=lambda m: graph_strong(self.struct, m.values()),
                )
                if hits:
                    fits.append(root)
            self._fits[part_code] = tuple(fits)
        return self._fits[part_code]


def _split_parts(cls: ExtensionClass, base: set[int]):
    """Connected components of the new part; anchored means joined to the base."""
    adj = cls.ext.adjacency()
    anchored: list[int] = []
    free: list[list[int]] = []
    for comp in cls.ext.restrict(cls.new_elements).components()[1].values():
        if any(not base.isdisjoint(adj[x]) for x in comp):
            anchored.extend(comp)
        else:
            free.append(comp)
    return sorted(anchored), free


class _Plan(NamedTuple):
    """What checking a class needs, in the coordinates of the class it was
    made from (`cls`; plans are shared by code, and a transported class has
    the same code over other ids): the base plus the anchored part (None when
    no new element touches the base), and each free part with its canonical
    code."""

    cls: ExtensionClass
    anchored: Optional[FinStructure]
    free_parts: tuple[tuple[FinStructure, bytes], ...]

    @staticmethod
    def of(cls: ExtensionClass) -> _Plan:
        base = set(cls.base.universe)
        anchored, free = _split_parts(cls, base)
        parts = tuple((part, canonical_code(part)) for part in map(cls.ext.restrict, free))
        return _Plan(cls, cls.ext.restrict(base | set(anchored)) if anchored else None, parts)


def met_fast(pf: Pseudoforest, base_ids: tuple[int, ...], cls: ExtensionClass) -> bool:
    """Exact obligation satisfaction via the chunk decomposition, for a
    strong base.

    `base_ids` must be strong in `pf.struct`.  The class may sit over any
    base of the same shape: its sorted base is pinned onto the sorted
    `base_ids`.  The image of the anchored part lives in the base's
    components; each free part needs its own base-free component (a
    disconnected trace is never strong), so the two searches are
    independent, and the free parts' verdict is kept per component set.

    Every induced image X of the anchored part over the base A is strong, so
    the anchored search tests no map.  Take a component C that A meets.  A
    is strong, so e(A & C) - |A & C| = e(C) - |C|.  For a graph, e - |.| is
    its cyclomatic number less its number of components, and a subgraph of
    C has at most C's cyclomatic number; so A & C is connected and has C's.
    Each element of X is joined to A inside X, since the part is anchored
    and the embedding induced, so X & C is connected, and its cyclomatic
    number lies between that of A & C and that of C: it equals both, and
    X & C passes the same test.  X meets only A's components (the target is
    their union), and no component is crowded (`pf.valid`), so
    `graph_strong` holds of X.  Over a base that is not strong this fails: a
    point on a cycle has a pendant image that misses the cycle.
    """
    plan = pf.plan(cls)
    roots = tuple(sorted({pf.comp_of[a] for a in base_ids}))
    if plan.free_parts:
        verdicts = pf._free.get(roots)
        if verdicts is None:
            verdicts = pf._free[roots] = {}
        if cls.code not in verdicts:
            verdicts[cls.code] = _free_parts_fit(pf, plan, roots)
        if not verdicts[cls.code]:
            return False
    if plan.anchored is None:
        return True
    fixed = plan.cls.base_map(base_ids)
    return bool(find_embeddings(plan.anchored, pf.target(roots), fixed=fixed, limit=1))


def _free_parts_fit(pf: Pseudoforest, plan: _Plan, roots: tuple[int, ...]) -> bool:
    """Do the plan's free parts go into distinct components outside `roots`,
    the components the base meets?"""
    cand_lists = [
        [r for r in pf.fitting_roots(part, code) if r not in roots]
        for part, code in plan.free_parts
    ]
    order = sorted(cand_lists, key=len)
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
