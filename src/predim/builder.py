"""Approximation of the generic structure by scheduled free extensions.

Obligations at level k: for every strong subset A of the current structure
(|A| < k) and every extension class (A, B) with |B| <= k, B in the
nonnegative class, and A strong in B, some strong embedding of B over A must
exist.  The builder walks obligations in lexicographic order of
(|A|, |B|, class code, A), passes the first unmet one to the
approximation's discharge step, and stops the moment the first unmet
obligation does not fit the element budget.  That stopping rule makes
resume(n) twice identical to resume(2n).  `resume` is the one loop: the
generic build runs it with a free extension as its step, the collapsed build
(`collapse.build_collapsed`) with a free-or-embed step.  Obligations are
decided by the one run decider `_obligation_test` picks per structure:
`richness.met_fast` on a valid weight-1 pseudoforest, else `obligation_met`
per base.  `audit_richness` hands it each run whole and reads back the
unmet bases; `resume` hands it runs of one base, since it stops at the
first unmet one and a whole run would decide bases it never reaches.

No obligation is sorted.  The strong bases come grouped by `pinned_shape`,
each group in ids order (`strongsets.strong_subsets_by_shape`), and the
classes are looked up once per shape in the one catalogue (`classes_over`),
which the copy-cap checks of `collapse` share.  A code fixes its base's
shape, so each code belongs to one group, and running the classes of one
base size in (|B|, code) order, each over its whole group, is that order
(`_obligations`).  A build keeps the groups and adds only the new bases.

Satisfaction is monotone under free growth over strong bases (strong sets
stay strong, embeddings survive), so previously satisfied obligations are
cached and never rechecked.
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .extensions import ExtensionClass, enumerate_extensions
from .predimension import PredimensionSpec, rank_compat
from .richness import Pseudoforest, met_fast
from .structures import FinStructure, Signature, find_embeddings
from .strongsets import in_class, strong_subsets_by_shape, strong_verdict, valid_pseudoforest


def _obligation_test(
    spec: PredimensionSpec, struct: FinStructure, plans: Optional[dict] = None
) -> Callable[[ExtensionClass, Sequence[tuple[int, ...]]], list[tuple[int, ...]]]:
    """The one run decider for `struct`: given a class and strong bases of
    its shape in ids order, the unmet bases in order.  `met_fast` decides
    the run whole on a valid weight-1 pseudoforest (its plans kept in
    `plans`), else the generic `obligation_met` decides each base."""
    if valid_pseudoforest(spec, struct):
        return partial(met_fast, Pseudoforest(struct, plans))
    return lambda cls, bases: [A for A in bases if not obligation_met(spec, struct, A, cls)]


class BuilderError(ValueError):
    """Invalid builder input or state."""


class DischargeRecord(NamedTuple):
    step: int
    base: tuple[int, ...]
    code: bytes
    new_elements: tuple[int, ...]


class BlockedRecord(NamedTuple):
    base: tuple[int, ...]
    code: bytes
    needed: int


class RichnessReport(NamedTuple):
    k: int
    total: int
    satisfied: int
    unmet: tuple[tuple[tuple[int, ...], bytes], ...]

    @property
    def fraction(self) -> Fraction:
        if self.total == 0:
            return Fraction(1)
        return Fraction(self.satisfied, self.total)


# Catalogue entries kept between walks; a walk itself keeps every entry it
# reads, since it rereads them all on each pass.  A generic-k3 benchmark block
# reads 15 keys; the k=3 collapsed fusion build to 28 elements 268 (bound 3:
# 134 enumerated, each also filtered); the k=3 build under relational +
# linear5 to 60 elements 1268, to 120 elements 6052.
CATALOGUE_SIZE = 512


def classes_over(
    spec: PredimensionSpec, sig: Signature, shape: tuple, max_new: int, keep: Optional[Callable] = None
) -> tuple[ExtensionClass, ...]:
    """`enumerate_extensions` over the base with this `pinned_shape`, rebuilt
    on 0..|A|-1 from the shape alone; with `keep`, a module-level predicate,
    the classes it accepts, filtered from the same entry.  The catalogue
    lives as long as the process, up to the end of a `catalogue_walk` that
    leaves it too large; an entry depends on its key alone, so clearing
    changes only speed."""
    return _catalogue(spec, sig, shape, max_new, keep)


_open_walks = 0


@contextmanager
def catalogue_walk() -> Iterator[None]:
    """A `resume` call, an audit or a copy-cap scan: the outermost one clears
    the catalogue as it ends if it holds more than `CATALOGUE_SIZE` entries,
    so a walk enumerates each key once."""
    global _open_walks
    _open_walks += 1
    try:
        yield
    finally:
        _open_walks -= 1
        if not _open_walks and _catalogue.cache_info().currsize > CATALOGUE_SIZE:
            _catalogue.cache_clear()


@lru_cache(maxsize=None)
def _catalogue(spec, sig, shape, max_new, keep) -> tuple[ExtensionClass, ...]:
    if keep is not None:
        return tuple([cls for cls in _catalogue(spec, sig, shape, max_new, None) if keep(spec, cls)])
    annotations, instances = shape
    tokens = {place: toks for place, toks in enumerate(annotations) if toks}
    base = FinStructure(sig, range(len(annotations)), dict(zip(sig.names, instances)), tokens)
    return tuple(enumerate_extensions(spec, base, max_new))


def obligation_met(
    spec: PredimensionSpec,
    struct: FinStructure,
    base_ids: tuple[int, ...],
    cls: ExtensionClass,
) -> bool:
    """Does some strong embedding of the class exist over this base?

    The generic route, exact on any spec and any base; the class may sit
    over any base of the same shape (see `classes_over`).  The builder and
    the audit reach it through `_obligation_test`, which sends weight-1
    pseudoforests to `richness.met_fast` instead.
    """
    return strong_embedding(spec, struct, cls.ext, cls.base_map(base_ids)) is not None


def strong_embedding(
    spec: PredimensionSpec,
    struct: FinStructure,
    ext: FinStructure,
    fixed: dict[int, int],
) -> Optional[dict[int, int]]:
    """The first induced embedding of `ext` into `struct` extending `fixed`
    whose image is strong (and rank-compatible, with matroid components),
    or None."""
    rank_ok = rank_compat(spec, ext, struct)

    def ok(mapping: dict[int, int]) -> bool:
        return (rank_ok is None or rank_ok(mapping)) and strong_verdict(spec, struct, mapping.values())

    hits = find_embeddings(ext, struct, fixed=fixed, compat=ok, limit=1)
    return hits[0] if hits else None


def _obligations(
    spec: PredimensionSpec,
    sig: Signature,
    groups: dict[tuple, list[tuple[int, ...]]],
    k: int,
) -> Iterator[tuple[ExtensionClass, list[tuple[int, ...]]]]:
    """All obligations in (|A|, |B|, class code, A) order, as runs of one
    class over the strong bases of its shape, from those bases grouped by
    shape, each group in ids order (`strong_subsets_by_shape`)."""
    for asize in range(0, k):
        found = [
            (cls.size, cls.code, cls, bases)
            for shape, bases in groups.items() if len(bases[0]) == asize
            for cls in classes_over(spec, sig, shape, k - asize)
        ]
        found.sort(key=lambda f: f[:2])
        for _, _, cls, bases in found:
            yield cls, bases


def _annotation_shift(
    struct: FinStructure,
    ext: FinStructure,
    base_ids: tuple[int, ...],
    new_elems: tuple[int, ...],
    mapping: dict[int, int],
) -> dict[int, tuple[str, ...]]:
    """Move an extension's fresh annotation coordinates beyond the structure's.

    Extension annotations are relative: coordinates up to the base width refer
    to the base's span, later ones are the extension's own fresh axes.  On
    discharge the fresh block shifts past every coordinate in use, which
    keeps it independent of the whole ambient structure, not just the base.
    """
    if not ext.annotations:
        return {}
    base_width = max((len(ext.annotation(e)) for e in base_ids), default=0)
    ambient_width = struct.annotation_width()
    out = {}
    for e in new_elems:
        toks = ext.annotation(e)
        if not toks:
            continue
        head = list(toks[:base_width]) + ["0"] * max(0, base_width - len(toks))
        tail = list(toks[base_width:])
        out[mapping[e]] = tuple(head + ["0"] * (ambient_width - base_width) + tail)
    return out


def free_extend(
    struct: FinStructure,
    ext: FinStructure,
    base_ids: tuple[int, ...],
    targets: Optional[dict[int, int]] = None,
) -> tuple[FinStructure, dict[int, int]]:
    """Free amalgam of `struct` and `ext` over the base, with the extension's
    new elements landing on fresh ids (or on the given targets)."""
    new_elems = tuple(e for e in ext.universe if e not in base_ids)
    mapping = {e: e for e in base_ids}
    if targets is None:
        fresh = max(struct.universe, default=-1) + 1
        for i, e in enumerate(new_elems):
            mapping[e] = fresh + i
    else:
        mapping.update({e: targets[e] for e in new_elems})
    new_ids = tuple(mapping[e] for e in new_elems)
    old = ext.inside(ext._uset.difference(new_elems))
    new_instances = {
        name: [tuple([mapping[x] for x in t]) for t in ts if t not in old[name]]
        for name, ts in ext.instances.items()
    }
    annotations = _annotation_shift(struct, ext, base_ids, new_elems, mapping)
    return struct.extended(new_ids, new_instances, annotations), mapping


def discharge(ga: GenericApprox, base_ids: tuple[int, ...], cls: ExtensionClass) -> tuple[int, ...]:
    """Freely extend the current structure by the class over the base."""
    extended, mapping = free_extend(ga.current, cls.ext, base_ids)
    new_ids = tuple(mapping[e] for e in cls.new_elements)
    ga.grow(extended, new_ids)
    return new_ids


class GenericApprox:
    """Mutable build state: the structure so far, its strong bases grouped
    by shape, the satisfied obligations and the obligation plans.

    `step(ga, base_ids, cls)` realizes one unmet obligation, with the class
    already over `base_ids`, and returns the fresh element ids; the default
    is the free `discharge`.
    """

    def __init__(
        self,
        spec: PredimensionSpec,
        start: FinStructure,
        k: int,
        allowance: int,
        step: Callable[..., tuple[int, ...]] = discharge,
    ):
        if k < 1:
            raise BuilderError("level k must be at least 1")
        if not spec.valid:
            raise BuilderError("builder requires a valid spec")
        if not in_class(spec, start):
            raise BuilderError("start structure is outside the nonnegative class")
        self.spec = spec
        self.k = k
        self.allowance = allowance
        self.step = step
        self.current = start
        self.history: list[DischargeRecord] = []
        self.blocked: Optional[BlockedRecord] = None
        self._satisfied: set[tuple[tuple[int, ...], bytes]] = set()
        self._plans: dict = {}  # obligation plans by class code, for every Pseudoforest
        self._met = _obligation_test(spec, start, self._plans)
        self._strong = strong_subsets_by_shape(spec, start, k)

    def grow(self, struct: FinStructure, new_ids: tuple[int, ...]) -> None:
        """Move to `struct`, a free extension of the current structure by
        the elements `new_ids`."""
        self.current = struct
        self._met = _obligation_test(self.spec, struct, self._plans)
        # Only subsets meeting the fresh elements can change strength status;
        # everything else keeps its verdict, and its shape, under free growth.
        for shape, bases in strong_subsets_by_shape(self.spec, struct, self.k, set(new_ids)).items():
            for A in bases:
                if A:
                    insort(self._strong.setdefault(shape, []), A)


def build_generic(
    spec: PredimensionSpec,
    start: FinStructure,
    k: int,
    budget: int,
) -> GenericApprox:
    """Grow `start` by free extensions until every obligation at level k is
    met or the next discharge would push past `budget` elements."""
    return resume(GenericApprox(spec, start, k, budget), 0)


def resume(ga: GenericApprox, extra_budget: int) -> GenericApprox:
    """Raise the element allowance and pass the first unmet obligation to
    `ga.step` until none is left or the first one does not fit the
    allowance.  The one build loop: the builds run it with no extra budget."""
    if extra_budget < 0:
        raise BuilderError("extra budget must be nonnegative")
    ga.allowance += extra_budget
    ga.blocked = None
    with catalogue_walk():
        while True:
            runs = _obligations(ga.spec, ga.current.sig, ga._strong, ga.k)
            for A, cls in ((A, cls) for cls, bases in runs for A in bases):
                if (A, cls.code) not in ga._satisfied:
                    if ga._met(cls, (A,)):  # A is unmet
                        break
                    ga._satisfied.add((A, cls.code))
            else:
                return ga
            need = len(cls.new_elements)
            if ga.current.n + need > ga.allowance:
                ga.blocked = BlockedRecord(A, cls.code, need)
                return ga
            cls = cls.transport(ga.current.restrict(A))  # the catalogue's template onto A
            new_ids = ga.step(ga, A, cls)
            ga.history.append(DischargeRecord(len(ga.history), A, cls.code, new_ids))
            ga._satisfied.add((A, cls.code))


def audit_richness(
    spec: PredimensionSpec,
    struct: FinStructure,
    k: int,
) -> RichnessReport:
    """Count satisfied obligations at level k on a fixed structure; outside
    the class there are none: a strong A has delta(A & X) <= delta(X) < 0
    by submodularity, and no class extends a base outside the class."""
    if k < 1:
        raise BuilderError("level k must be at least 1")
    if not spec.valid:
        raise BuilderError("audit requires a valid spec")
    if not in_class(spec, struct):
        return RichnessReport(k, 0, 0, ())
    met = _obligation_test(spec, struct)
    groups = strong_subsets_by_shape(spec, struct, k)
    total = 0
    unmet = []
    with catalogue_walk():
        for cls, bases in _obligations(spec, struct.sig, groups, k):
            total += len(bases)
            unmet.extend([(A, cls.code) for A in met(cls, bases)])
    return RichnessReport(k=k, total=total, satisfied=total - len(unmet), unmet=tuple(unmet))
