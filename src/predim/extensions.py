"""Extension classes: the ways a base can grow by a few elements, up to
isomorphism fixing the base pointwise.

A class is named by its pinned code (`code_over_base`): two candidates
without a linear component are the same class exactly when their codes are
equal, that is, when an isomorphism fixes the base pointwise and keeps
annotations verbatim (free, cardinality and uniform ranks depend only on
size).  Only when the spec carries a linear component are rank patterns
compared: candidates with the same relational shape are one class when some
base-fixing isomorphism keeps every component's rank pattern, so annotation
variants with the same rank behaviour collapse.

Enumeration lists only the classes with a strong base.  Dropping a
candidate instance (positive weight, touching a new element) never lowers δ
of a set and leaves δ(base) alone, so the candidate sets over which the base
is strong are closed under subsets, and a walk stops below the first that
fails.  For a submodular spec and A in the class, strong in the extension,
δ(X) ≥ δ(X∩A) + δ(X∪A) − δ(A) ≥ 0 for every X: the extension is in the
class.  A class records its representative structure, the relative
predimension, and whether it is minimal and prealgebraic (relative
predimension zero).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, NamedTuple, Sequence

from .canonical import code_over_base
from .predimension import LinearOracle, PredimensionSpec, SpecError, delta, rank_compat
from .structures import FinStructure, StructureError, find_embeddings
from .strongsets import in_class, strong_verdict

# Candidate instances past which enumeration refuses: its walk may visit
# all 2^n subsets of them.
CANDIDATE_LIMIT = 22


class ExtensionClass(NamedTuple):
    """One isomorphism class of extensions of a fixed base (enumerated ones have a strong base)."""

    base: FinStructure
    ext: FinStructure
    new_elements: tuple[int, ...]
    delta_over_base: Fraction
    minimal: bool
    prealgebraic: bool
    code: bytes

    @property
    def size(self) -> int:
        return self.ext.n

    def base_map(self, base_ids: Sequence[int]) -> dict[int, int]:
        """Pins this class's base onto a concrete base of the same shape.

        Elements are matched in sorted order; this is the one pinning
        convention, shared by `transport`, the obligation checks and the copy
        count.  The caller vouches that the concrete base has the same pointed
        code.
        """
        new = sorted(base_ids)
        if len(new) != len(self.base.universe):
            raise StructureError("base of different size")
        return dict(zip(self.base.universe, new))

    def transport(self, concrete_base: FinStructure) -> "ExtensionClass":
        """The same class over an isomorphic concrete base.

        The concrete base must have the same pointed code (elements matched
        in sorted order), which keeps every tag and the code valid; only
        ids change.  New elements are renumbered above the base's ids.
        """
        mapping = self.base_map(concrete_base.universe)
        start = max(concrete_base.universe, default=-1) + 1
        for i, e in enumerate(self.new_elements):
            mapping[e] = start + i
        ext = self.ext.relabel(mapping)
        return self._replace(
            base=concrete_base,
            ext=ext,
            new_elements=tuple(mapping[e] for e in self.new_elements),
        )


def _candidate_instances(sig, elems: Sequence[int], new: Sequence[int]):
    """All possible instances touching at least one new element."""
    newset = set(new)
    out = []
    for name, arity in sig.symbols:
        if sig.ordered:
            cands = product(elems, repeat=arity)
        else:
            cands = combinations(sorted(elems), arity)
        for t in cands:
            if newset.intersection(t):
                out.append((name, t))
    return out


def linear_extension_palette(prime: int) -> Callable:
    """Annotation options for new elements over an annotated base.

    Each new element may carry a fresh coordinate axis of its own, a copy of
    a base element's vector, or the zero vector.  Fresh axes sit beyond every
    base coordinate and are numbered by the new element's position, which
    keeps codes stable across enumerations.
    """

    def palette(base: FinStructure, new_elems: Sequence[int]) -> list[dict[int, tuple[str, ...]]]:
        width = base.annotation_width()
        total = width + len(new_elems)

        def pad(vals: Sequence[int]) -> tuple[str, ...]:
            vec = list(vals) + [0] * (total - len(vals))
            return tuple(str(v % prime) for v in vec)

        base_vectors = []
        seen = set()
        for e in sorted(base.universe):
            toks = base.annotation(e)
            vec = pad([int(t) for t in toks] if toks else [])
            if vec not in seen:
                seen.add(vec)
                base_vectors.append(vec)
        options_per_elem = []
        for i, e in enumerate(new_elems):
            fresh = [0] * (width + i) + [1]
            opts = [pad(fresh)]
            opts.extend(base_vectors)
            zero = pad([])
            if zero not in opts:
                opts.append(zero)
            options_per_elem.append(opts)
        out = []
        for combo in product(*options_per_elem):
            out.append({e: v for e, v in zip(new_elems, combo)})
        return out

    return palette


def enumerate_extensions(
    spec: PredimensionSpec,
    base: FinStructure,
    max_new: int,
) -> list[ExtensionClass]:
    """The extension classes of `base` by 1..max_new fresh elements with a
    strong base, so with an in-class extension; none over a base outside the
    class.

    New elements' annotations come from the spec.  With a linear matroid
    component, each new element takes every vector `linear_extension_palette`
    offers over the first such component's field (a fresh axis, a base
    vector, zero); without one, new elements carry no annotation.
    Deterministic: classes come out sorted by (number of new elements, code),
    each represented by its first candidate in (instance mask, annotation
    option) order.  `SpecError` refuses an invalid spec (the in-class lemma
    needs submodularity) and, before any walk, more than `CANDIDATE_LIMIT`
    candidate instances for some size.
    """
    if not spec.valid:
        raise SpecError("extension enumeration requires a submodular spec")
    sig, n = base.sig, base.n
    for m in range(1, max_new + 1):
        count = sum((n + m) ** a - n**a if sig.ordered else comb(n + m, a) - comb(n, a) for _, a in sig.symbols)
        if count > CANDIDATE_LIMIT:
            raise SpecError(f"extension enumeration refused: {count} candidate instances > {CANDIDATE_LIMIT}")
    if not in_class(spec, base):
        return []
    primes = [o.p for o, _ in spec.components if isinstance(o, LinearOracle)]
    palette = linear_extension_palette(primes[0]) if primes else None
    out: list[ExtensionClass] = []
    start = max(base.universe, default=-1) + 1
    fixed = {e: e for e in base.universe}
    for m in range(1, max_new + 1):
        new = tuple(range(start, start + m))
        cands = _candidate_instances(sig, list(base.universe) + list(new), new)
        passing: dict[int, tuple[dict, list[FinStructure]]] = {}  # mask -> (its instances, strong extensions)
        for ann in palette(base, new) if palette else [{}]:
            # down-closure: add candidates in index order, stop below a failure
            stack = [(0, 0, {})]  # (mask, first candidate it may add, its instances)
            while stack:
                mask, i, chosen = stack.pop()
                ext = base.extended(new, chosen, ann)
                if strong_verdict(spec, ext, base.universe):
                    passing.setdefault(mask, (chosen, []))[1].append(ext)
                    for j, (name, t) in enumerate(cands[i:], i):
                        stack.append((mask | 1 << j, j + 1, {**chosen, name: chosen.get(name, []) + [t]}))
        reps: dict[bytes, FinStructure] = {}
        shapes: dict[bytes, list[FinStructure]] = {}
        for mask in sorted(passing):
            chosen, exts = passing[mask]
            if palette:
                # a rank-compatible isomorphism is a relational one too
                mates = shapes.setdefault(code_over_base(base.extended(new, chosen), base.universe), [])
            for ext in exts:
                if palette:
                    # some base-fixing induced isomorphism keeps every rank pattern
                    if any(
                        find_embeddings(ext, other, fixed=fixed, compat=rank_compat(spec, ext, other), limit=1)
                        for other in mates
                    ):
                        continue
                    mates.append(ext)
                reps.setdefault(code_over_base(ext, base.universe), ext)
        kept = [_classify(spec, base, ext, new, code) for code, ext in reps.items()]
        out.extend(sorted(kept, key=lambda c: c.code))
    return out


def classify_extension(
    spec: PredimensionSpec,
    ext: FinStructure,
    base_ids: Sequence[int],
) -> ExtensionClass:
    """Tag a concrete base/extension pair as an extension class."""
    ids = frozenset(int(e) for e in base_ids)
    if not ids.issubset(ext.universe):
        raise StructureError("base ids must be elements of the extension")
    new = tuple(e for e in ext.universe if e not in ids)
    if not new:
        raise StructureError("the extension adds no elements over the base")
    base = ext.restrict(ids)
    return _classify(spec, base, ext, new, code_over_base(ext, ids))


def _classify(
    spec: PredimensionSpec,
    base: FinStructure,
    ext: FinStructure,
    new: tuple[int, ...],
    code: bytes,
) -> ExtensionClass:
    d = delta(spec, ext) - delta(spec, ext, base.universe)
    return ExtensionClass(
        base=base,
        ext=ext,
        new_elements=new,
        delta_over_base=d,
        minimal=is_minimal_extension(spec, ext, base.universe),
        prealgebraic=(d == 0),
        code=code,
    )


def is_minimal_extension(
    spec: PredimensionSpec, ext: FinStructure, base_ids: Sequence[int]
) -> bool:
    """Is the base strong in `ext` while every set strictly between them has
    larger predimension than `ext`, so that none of them is strong in it?"""
    if not strong_verdict(spec, ext, base_ids):
        return False
    base = frozenset(base_ids)
    new = [e for e in ext.universe if e not in base]
    d_ext = delta(spec, ext)
    for r in range(1, len(new)):
        for mid in combinations(new, r):
            if d_ext - delta(spec, ext, base | set(mid)) >= 0:
                return False
    return True
