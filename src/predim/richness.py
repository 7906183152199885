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
because they still pay: the level-4 audit took 0.94 s at n=40 and 4.8 s at
n=80 with them, and 2.05 s and 15.4 s with the generic engines alone.
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
    """

    def __init__(self, struct: FinStructure, plans: Optional[dict[bytes, _Plan]] = None):
        self.struct = struct
        self.comp_of, self.comp_elems, _, crowded = struct.components()
        self.valid = not crowded
        self.plans: dict[bytes, _Plan] = {} if plans is None else plans
        self._targets: dict[tuple[int, ...], FinStructure] = {}
        self._fits: dict[bytes, tuple[int, ...]] = {}

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


def met_fast(
    pf: Pseudoforest,
    struct: FinStructure,
    base_ids: tuple[int, ...],
    cls: ExtensionClass,
) -> bool:
    """Exact obligation satisfaction via the chunk decomposition.

    `pf` describes `struct`.  The class may sit over any base of the same
    shape: its sorted base is pinned onto the sorted `base_ids`.  The image of
    the anchored part lives in the base's components; each free part needs
    its own base-free component (a disconnected trace is never strong), so
    the two searches are independent.
    """
    plan = pf.plan(cls)
    base_roots = {pf.comp_of[a] for a in base_ids}

    if plan.anchored is not None:
        target = pf.target(tuple(sorted(base_roots)))
        fixed = plan.cls.base_map(base_ids)

        def chunk_ok(mapping: dict[int, int]) -> bool:
            return graph_strong(struct, mapping.values())

        if not find_embeddings(plan.anchored, target, fixed=fixed, compat=chunk_ok, limit=1):
            return False

    if plan.free_parts:
        cand_lists: list[list[int]] = []
        for part, code in plan.free_parts:
            cands = [r for r in pf.fitting_roots(part, code) if r not in base_roots]
            if not cands:
                return False
            cand_lists.append(cands)
        order = sorted(range(len(cand_lists)), key=lambda i: len(cand_lists[i]))
        used: set[int] = set()

        def assign(i: int) -> bool:
            if i == len(order):
                return True
            for r in cand_lists[order[i]]:
                if r not in used:
                    used.add(r)
                    if assign(i + 1):
                        return True
                    used.discard(r)
            return False

        if not assign(0):
            return False
    return True
