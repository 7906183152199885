"""The weight-1 obligation check as it was before `richness.met_fast`
decided a whole run of bases at once, frozen as an oracle: one (base,
class) obligation per call, with no verdict kept between calls.  On every
run, `met_fast` must return exactly the bases this check finds unmet, in
order.
"""

from __future__ import annotations

from predim import ExtensionClass
from predim.richness import Pseudoforest, _distinct


def oracle_met(pf: Pseudoforest, base_ids: tuple[int, ...], cls: ExtensionClass) -> bool:
    """Does the class have a strong copy over `base_ids`, a strong base?"""
    plan = pf.plan(cls)
    if plan.places is None:
        return False
    if plan.free_parts:
        roots = {pf.comp_of[a] for a in base_ids}
        options = [[r for r in pf.fitting_roots(part, code) if r not in roots] for part, code in plan.free_parts]
        if not _distinct(options):
            return False
    base = sorted(base_ids)
    adj = pf.struct.adjacency()
    for place, trees in plan.places:
        a = base[place]
        if not pf.hangs(trees, a, adj[a].difference(base)):
            return False
    return True
