"""Free amalgamation over a shared base.

The free amalgam glues two structures along a common base and adds nothing
else: every instance lives inside one of the two factors.  Element ids of the
left factor survive verbatim; fresh ids are appended for the right factor's
new elements, in sorted order.
"""

from __future__ import annotations

from typing import NamedTuple

from .structures import Embedding, FinStructure


class AmalgamError(ValueError):
    """Incompatible amalgamation data."""


class AmalgamResult(NamedTuple):
    amalgam: FinStructure
    left: Embedding   # first factor into the amalgam (identity on ids)
    right: Embedding  # second factor into the amalgam
    base: Embedding   # base into the amalgam


def free_amalgam(e1: Embedding, e2: Embedding) -> AmalgamResult:
    """Free amalgam of the targets of `e1` and `e2` over their common source.

    Both embeddings must start at the same base structure.  Base annotations
    must agree through the two embeddings; factor annotations are carried
    verbatim.
    """
    if e1.source != e2.source:
        raise AmalgamError("the two embeddings must share their base structure")
    b1, b2 = e1.target, e2.target
    if b1.sig != b2.sig:
        raise AmalgamError("factors live over different signatures")
    e1.validate()
    e2.validate()
    base = e1.source
    for a in base.universe:
        if b1.annotation(e1[a]) != b2.annotation(e2[a]):
            raise AmalgamError(f"base element {a} carries conflicting annotations in the factors")

    # right factor: base part goes through the left copy, the rest gets fresh ids
    fresh = max(b1.universe, default=-1) + 1
    sigma2: dict[int, int] = {}
    joint = dict(zip((e2[a] for a in base.universe), (e1[a] for a in base.universe)))
    for e in b2.universe:
        if e in joint:
            sigma2[e] = joint[e]
        else:
            sigma2[e] = fresh
            fresh += 1

    new_elems = [sigma2[e] for e in b2.universe if e not in joint]
    # base-internal instances are already present via the left factor
    internal = b2.inside(set(joint))
    instances = {name: list(tuples) for name, tuples in b1.instances.items()}
    for name, ts in b2.instances.items():
        instances[name] += [tuple([sigma2[x] for x in t]) for t in ts if t not in internal[name]]
    annotations = dict(b1.annotations)
    for e in b2.universe:
        toks = b2.annotation(e)
        if toks and e not in joint:
            annotations[sigma2[e]] = toks

    amalg = FinStructure(b1.sig, list(b1.universe) + new_elems, instances, annotations)
    left = Embedding.make(b1, amalg, {e: e for e in b1.universe})
    right = Embedding.make(b2, amalg, sigma2)
    bemb = Embedding.make(base, amalg, {a: e1[a] for a in base.universe})
    return AmalgamResult(amalg, left, right, bemb)
