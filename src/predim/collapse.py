"""Bounded-multiplicity building: mu bookkeeping, independent-copy counting,
and the collapsed builder.

A mu function assigns each bi-minimal prealgebraic extension class a cap on
how many independent strong copies of it a structure may carry.  Structures
respecting every cap form the bounded class; the collapsed builder keeps its
output inside it by going through a free-or-embed dichotomy instead of plain
free extension: a step is amalgamated freely only when the result stays
within the caps, otherwise the step must embed onto existing elements, and
the build fails loudly when it cannot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from .builder import GenericApprox, catalogue_walk, classes_over, free_extend, resume, strong_embedding
from .canonical import pinned_shape
from .extensions import ExtensionClass, enumerate_extensions, is_minimal_extension
from .predimension import PredimensionSpec, delta, rank_compat
from .structures import FinStructure, Record, find_embeddings
from .strongsets import closure, in_class, strong_subsets, strong_subsets_by_shape, strong_verdict


class MuError(ValueError):
    """Invalid mu function or mu-check input."""


class BiminimalError(ValueError):
    """No or ambiguous least sub-base for a prealgebraic extension."""


class ThriftyError(RuntimeError):
    """A collapsed build step can neither amalgamate freely nor embed."""


# default-value formulas: (new part size, total relation weight) -> value
def _linear(params: tuple[int, ...], m: int, weight: Fraction) -> int:
    a, b = params
    return a + b * m


def _weighted(params: tuple[int, ...], m: int, weight: Fraction) -> int:
    a, b, c = params
    return a + b * m + c * int(weight)


MU_FORMULAS: dict[str, tuple[int, Callable]] = {
    "linear": (2, _linear),
    "weighted": (3, _weighted),
}


class MuFunction(Record):
    """Copy caps per extension-class code, with a formula for absent codes.

    Values must stay at least 1: a zero cap would empty the bounded class.
    The default formula takes the number of new elements and the extension's
    total relation weight; the shipped default grows linearly in the former.
    """

    __slots__ = __match_args__ = ("table", "formula", "params")

    def __init__(
        self,
        table: tuple[tuple[bytes, int], ...] = (),
        formula: str = "linear",
        params: tuple[int, ...] = (8, 4),
    ):
        if formula not in MU_FORMULAS:
            raise MuError(f"unknown mu formula {formula!r}")
        arity, fn = MU_FORMULAS[formula]
        if len(params) != arity:
            raise MuError(f"formula {formula!r} takes {arity} parameters")
        if any(p < 0 for p in params) or fn(params, 1, Fraction(0)) < 1:
            raise MuError("mu values must stay at least 1")
        seen = set()
        for code, value in table:
            if value < 1:
                raise MuError("mu values must stay at least 1")
            if code in seen:
                raise MuError("duplicate code in mu table")
            seen.add(code)
        self._fill(table, formula, params)

    @staticmethod
    def from_dict(table: dict[bytes, int], **default) -> "MuFunction":
        return MuFunction(tuple(sorted(table.items())), **default)

    def lookup(self, code: bytes) -> Optional[int]:
        for c, v in self.table:
            if c == code:
                return v
        return None

    def value(self, cls: ExtensionClass) -> int:
        hit = self.lookup(cls.code)
        if hit is not None:
            return hit
        ext = cls.ext
        old = ext.inside(ext._uset.difference(cls.new_elements))
        weights = [ext.sig.weight(name) * (len(ts) - len(old[name])) for name, ts in ext.instances.items()]
        return MU_FORMULAS[self.formula][1](self.params, len(cls.new_elements), sum(weights, Fraction(0)))


DEFAULT_MU = MuFunction()


def biminimal_base(
    spec: PredimensionSpec,
    ext: FinStructure,
    base_ids: Iterable[int],
) -> tuple[int, ...]:
    """The least strong sub-base over which the new part (every element of
    `ext` outside the base) is minimal prealgebraic.  Unique for valid
    specs; ambiguity raises, and so does a base outside the class, before
    any walk (no class that `enumerate_extensions` lists sits over one)."""
    base = tuple(sorted(base_ids))
    new = tuple(sorted(set(ext.universe).difference(base)))
    within = ext.restrict(base)
    if not in_class(spec, within):
        raise BiminimalError("the base is outside the nonnegative class")
    qualifying = []
    for sub in strong_subsets(spec, within, len(base) + 1):
        # the new part must be prealgebraic and minimal over `sub` in the
        # induced structure on their union
        union = ext.restrict(sorted(set(sub) | set(new)))
        if delta(spec, union) == delta(spec, union, sub) and is_minimal_extension(spec, union, sub):
            qualifying.append(frozenset(sub))
    if not qualifying:
        raise BiminimalError(
            "no strong sub-base admits the new part as a minimal prealgebraic extension"
        )
    least = [s for s in qualifying if not any(t < s for t in qualifying)]
    if len(least) > 1:
        raise BiminimalError(
            f"ambiguous least sub-base: {sorted(tuple(sorted(s)) for s in least)}"
        )
    return tuple(sorted(least[0]))


def _biminimal(spec: PredimensionSpec, cls: ExtensionClass) -> bool:
    """Is the class minimal prealgebraic over its own base, its least sub-base?"""
    base = cls.base.universe
    return cls.prealgebraic and cls.minimal and biminimal_base(spec, cls.ext, base) == base


def enumerate_minimal_extensions(
    spec: PredimensionSpec,
    base: FinStructure,
    max_new: int,
) -> list[ExtensionClass]:
    """Minimal prealgebraic extension classes of the base whose least
    sub-base is the whole base."""
    return [cls for cls in enumerate_extensions(spec, base, max_new) if _biminimal(spec, cls)]


def count_independent_copies(
    spec: PredimensionSpec,
    struct: FinStructure,
    base_ids: Iterable[int],
    cls: ExtensionClass,
    cap: Optional[int] = None,
) -> int:
    """Largest family of copies of the class over the base whose new parts
    are pairwise disjoint and meet no common instance.

    A copy is an induced embedding fixing the base pointwise; over a strong
    base a prealgebraic copy is automatically strong.  The class may sit
    over any base of the same shape: its sorted base is pinned onto the
    sorted `base_ids`.  Exact clique search; `cap` allows an early exit once
    the count provably exceeds it.
    """
    base = sorted(base_ids)
    if (
        len(base) != cls.base.n
        or cls.base.sig != struct.sig
        or not struct._uset.issuperset(base)
        or pinned_shape(cls.base, cls.base.universe) != pinned_shape(struct, base)
    ):
        raise MuError("base does not match the class's base shape")
    fixed = cls.base_map(base)

    hits = find_embeddings(cls.ext, struct, fixed=fixed, compat=rank_compat(spec, cls.ext, struct))
    images = sorted(
        {frozenset(m[e] for e in cls.new_elements) for m in hits},
        key=lambda s: tuple(sorted(s)),
    )
    if not images:
        return 0
    # pairwise independence: image j misses image i and i's neighbours, so
    # the new parts are disjoint and no instance meets both
    adj = struct.adjacency()
    reach = [img.union(*(adj[x] for x in img)) for img in images]
    # branch and bound on an explicit stack: a frame is (copies chosen,
    # candidates left, next candidate); it is dropped once its candidates
    # cannot beat the best family, and the search stops once best > cap
    best = 0
    stack = [(0, list(range(len(images))), 0)]
    while stack:
        chosen, cand, idx = stack.pop()
        if chosen > best:
            best = chosen
        if cap is not None and best > cap:
            break
        if idx < len(cand) and chosen + len(cand) - idx > best:
            i = cand[idx]
            stack.append((chosen, cand, idx + 1))
            stack.append((chosen + 1, [j for j in cand[idx + 1:] if reach[i].isdisjoint(images[j])], 0))
    return best


class MuReport(NamedTuple):
    ok: bool
    violations: tuple[tuple[tuple[int, ...], bytes, int, int], ...]


def _ball(struct: FinStructure, seeds: Iterable[int], radius: int) -> set[int]:
    adj = struct.adjacency()
    out = set(seeds)
    frontier = out
    for _ in range(radius):
        frontier = {y for x in frontier for y in adj[x]} - out
        if not frontier:
            break
        out |= frontier
    return out


def _scans_locally(spec: PredimensionSpec) -> bool:
    """Can `mu_violations` keep to a ball?  Matroid components force a full scan."""
    return not spec.components


def mu_violations(
    spec: PredimensionSpec,
    mu: MuFunction,
    struct: FinStructure,
    bound: int,
    *,
    around: Optional[Iterable[int]] = None,
) -> tuple[tuple[tuple[int, ...], bytes, int, int], ...]:
    """Copy-cap violations over all strong bases and bi-minimal prealgebraic
    classes up to the size bound.

    With `around`, only bases that could see a changed count are rechecked:
    a copy is instance-connected to its base, so any new copy's base meets
    the given elements' adjacency ball of radius `bound` (the empty base is
    always rechecked).  Exact for relational specs; matroid components force
    the full scan.  The bi-minimal classes come from the catalogue
    (`builder.classes_over`), once per group of `strong_subsets_by_shape`,
    in one catalogue walk (`builder.catalogue_walk`).
    """
    if not in_class(spec, struct):
        raise MuError("structure outside the nonnegative class")
    allowed: Optional[set[int]] = None
    if around is not None and _scans_locally(spec):
        allowed = _ball(struct, around, bound)
    violations = []
    with catalogue_walk():
        for shape, bases in strong_subsets_by_shape(spec, struct, bound, near=allowed).items():
            classes = classes_over(spec, struct.sig, shape, bound - len(bases[0]), _biminimal)
            for base in bases:
                for cls in classes:
                    limit = mu.value(cls)
                    count = count_independent_copies(spec, struct, base, cls)
                    if count > limit:
                        violations.append((base, cls.code, count, limit))
    violations.sort(key=lambda v: (len(v[0]), v[0]))  # stable: each base's classes stay in order
    return tuple(violations)


def in_class_mu(
    spec: PredimensionSpec,
    mu: MuFunction,
    struct: FinStructure,
    bound: int,
) -> MuReport:
    """Does the structure respect every copy cap at this size bound?"""
    v = mu_violations(spec, mu, struct, bound)
    return MuReport(ok=not v, violations=v)


class ThriftyOutcome(NamedTuple):
    """Result of one free-or-embed step.

    `free` tells which horn was taken; `struct` is the (possibly unchanged)
    ambient structure, `mapping` sends the step's elements into it, and
    `violations` are the cap breaches that forced the embed horn.
    """

    free: bool
    struct: FinStructure
    mapping: tuple[tuple[int, int], ...]
    violations: tuple[tuple[tuple[int, ...], bytes, int, int], ...]


def thrifty_step(
    spec: PredimensionSpec,
    mu: MuFunction,
    struct: FinStructure,
    base_ids: tuple[int, ...],
    ext: FinStructure,
    *,
    bound: int,
    targets: Optional[dict[int, int]] = None,
    cross_check: bool = False,
) -> ThriftyOutcome:
    """Free-or-embed dichotomy for one minimal extension step.

    The free amalgam is kept when no copy cap breaks near the fresh
    elements; otherwise the extension must embed onto existing elements with
    a strong image, and failing both is an error.  `cross_check` also runs
    the full violation scan, where it differs from the local one (relational
    specs), and insists they agree.
    """
    base = tuple(sorted(base_ids))
    if not is_minimal_extension(spec, ext, base) or ext.n == len(base):
        raise ThriftyError("step is not a minimal extension over its base")
    if not strong_verdict(spec, struct, base):
        raise ThriftyError("step base is not strong in the ambient structure")
    extended, mapping = free_extend(struct, ext, base, targets)
    new_ids = tuple(mapping[e] for e in ext.universe if e not in set(base))
    viol = mu_violations(spec, mu, extended, bound, around=new_ids)
    if cross_check and _scans_locally(spec):
        full = mu_violations(spec, mu, extended, bound)
        if set(viol) != set(full):
            raise MuError(
                f"incremental mu-check disagrees with full recount: {viol} vs {full}"
            )
    if not viol:
        return ThriftyOutcome(
            free=True, struct=extended, mapping=tuple(sorted(mapping.items())),
            violations=(),
        )
    emb = strong_embedding(spec, struct, ext, {a: a for a in base})
    if emb is None:
        raise ThriftyError(
            f"cannot amalgamate freely (violations: {viol}) and no strong "
            f"embedding over base {base} exists"
        )
    return ThriftyOutcome(
        free=False, struct=struct, mapping=tuple(sorted(emb.items())),
        violations=viol,
    )


def _next_tower_step(
    spec: PredimensionSpec, ext: FinStructure, placed: set[int]
) -> tuple[int, ...]:
    """Least inclusion-minimal strong strict superset of the placed part, by
    (size, ids).  A smallest one equals the closure of the placed part plus
    any one of its new elements, so the closures over one unplaced element
    each hold every candidate."""
    steps = [closure(spec, ext, placed | {e}) for e in ext.universe if e not in placed]
    return min(steps, key=lambda s: (len(s), s))


def build_collapsed(
    spec: PredimensionSpec,
    mu: MuFunction,
    start: FinStructure,
    k: int,
    budget: int,
    *,
    bound: Optional[int] = None,
    cross_check: bool = False,
) -> GenericApprox:
    """Like the free builder, but every discharge runs through the
    free-or-embed dichotomy, one minimal tower step at a time, so the result
    keeps every copy cap.  Same schedule, same stopping rule; `resume`
    continues with the same step."""
    bound = k if bound is None else bound
    report = in_class_mu(spec, mu, start, bound)
    if not report.ok:
        raise MuError(f"start structure violates copy caps: {report.violations}")
    step = partial(_discharge_collapsed, mu=mu, bound=bound, cross_check=cross_check)
    return resume(GenericApprox(spec, start, k, budget, step), 0)


def _discharge_collapsed(
    ga: GenericApprox,
    base_ids: tuple[int, ...],
    cls: ExtensionClass,
    *,
    mu: MuFunction,
    bound: int,
    cross_check: bool,
) -> tuple[int, ...]:
    """Realize one obligation through minimal tower steps.

    Fresh ids are fixed up front to mirror the free discharge exactly, so an
    unconstrained mu reproduces the free build element for element.
    """
    spec = ga.spec
    ext = cls.ext
    everything = set(ext.universe)
    fresh = max(ga.current.universe, default=-1) + 1
    target_id = {e: fresh + i for i, e in enumerate(cls.new_elements)}
    mapping = {a: a for a in base_ids}
    placed = set(base_ids)
    added: list[int] = []
    while placed != everything:
        step = _next_tower_step(spec, ext, placed)
        step_new = [e for e in step if e not in placed]
        relabel = {e: mapping[e] for e in placed}
        relabel.update({e: target_id[e] for e in step_new})
        step_ext = ext.restrict(step).relabel(relabel)
        step_base = tuple(sorted(mapping[e] for e in placed))
        keep_ids = {relabel[e]: relabel[e] for e in step_new}
        out = thrifty_step(
            spec, mu, ga.current, step_base, step_ext,
            bound=bound, targets=keep_ids, cross_check=cross_check,
        )
        got = dict(out.mapping)
        for e in step_new:
            mapping[e] = got[relabel[e]]
        if out.free:
            new_concrete = tuple(mapping[e] for e in step_new)
            added.extend(new_concrete)
            ga.grow(out.struct, new_concrete)
        placed = set(step)
    return tuple(added)
