"""Seeded property audits shared by the CLI driver and the test suite.

Every audit takes an explicit `random.Random` plus a sample budget and
returns an AuditResult: how many checks ran, how many failed, and a
reproducible description of the first failure.  A zero budget yields a
vacuous result, which callers must report as such rather than as evidence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .amalgams import free_amalgam
from .geometry import check_exchange, dim, require_geometric
from .predimension import LinearOracle, PredimensionSpec, delta
from .sampling import random_structure, random_subset, random_vectors
from .strongsets import brute_force_is_strong, closure, in_class, is_strong
from .structures import Embedding, FinStructure, Record, Signature, graph_signature
from .textio import format_ids

StructSource = Callable[[random.Random], FinStructure]

# Pair density and vector width of the structures `structure_source` draws.
SOURCE_DENSITY = 0.35
SOURCE_WIDTH = 2

# Samples between fresh draws in the geometry audits; a source that returns
# one fixed structure consumes no randomness, so redrawing it changes nothing.
REDRAW_EVERY = 10

# Free elements past the base that `audit_oracle_equivalence` draws at most.
ORACLE_MAX_FREE = 12

# Draws from the source before `audit_amalgamation` gives up on finding a
# structure in the class; under some valid specs none is.
IN_CLASS_DRAWS = 1000


class AuditResult(NamedTuple):
    name: str
    checked: int
    violations: int
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def vacuous(self) -> bool:
        return self.checked == 0


class _Tally(Record):
    """Checks and failures of one audit, and the first failure's witness."""

    __slots__ = __match_args__ = ("name", "checked", "violations", "witness")
    __hash__ = None
    __setattr__ = object.__setattr__

    def __init__(self, name: str, checked: int = 0, violations: int = 0, witness: Optional[str] = None):
        self._fill(name, checked, violations, witness)

    def check(self, ok: bool, struct: FinStructure, witness: Callable[[], str]) -> None:
        self.checked += 1
        if not ok:
            self.violations += 1
            if self.witness is None:
                self.witness = f"{witness()} on {_sketch(struct)}"

    def result(self) -> AuditResult:
        return AuditResult(self.name, self.checked, self.violations, self.witness)


def _sketch(struct: FinStructure) -> str:
    """One-line reproduction aid for a witness report."""
    parts = [f"n={len(struct.universe)}"]
    for name in struct.sig.names:
        tuples = struct.instances.get(name, ())
        parts.append(f"{name}={';'.join(','.join(map(str, t)) for t in tuples)}")
    if struct.annotations:
        anns = ";".join(
            f"{e}:{','.join(struct.annotation(e))}" for e in sorted(struct.annotations)
        )
        parts.append(f"ann={anns}")
    return " ".join(parts)


def structure_source(
    spec: PredimensionSpec,
    *,
    weight: Fraction = Fraction(1),
    max_n: int = 10,
) -> StructSource:
    """Random structures matched to the spec: graphs when the relational part
    is on, bare annotated sets otherwise; vectors appear whenever a linear
    component needs them."""
    primes = [o.p for o, _ in spec.components if isinstance(o, LinearOracle)]
    sig = graph_signature(weight) if spec.relational else Signature(())

    def make(rng: random.Random) -> FinStructure:
        n = rng.randrange(1, max_n + 1)
        s = random_structure(rng, sig, n, SOURCE_DENSITY)
        if primes:
            return FinStructure(sig, s.universe, s.instances, random_vectors(rng, n, SOURCE_WIDTH, primes[0]))
        return s

    return make


# ---------------------------------------------------------------------------
# predimension laws


def audit_submodularity(
    spec: PredimensionSpec,
    source: StructSource,
    rng: random.Random,
    samples: int,
) -> AuditResult:
    """delta(X) + delta(Y) >= delta(X|Y) + delta(X&Y) on sampled pairs."""
    tally = _Tally("submodularity")
    for _ in range(samples):
        struct = source(rng)
        x = frozenset(random_subset(rng, struct.universe))
        y = frozenset(random_subset(rng, struct.universe))
        lhs = delta(spec, struct, x) + delta(spec, struct, y)
        rhs = delta(spec, struct, x | y) + delta(spec, struct, x & y)
        tally.check(lhs >= rhs, struct, lambda: f"X={format_ids(x)} Y={format_ids(y)} slack={lhs - rhs}")
    return tally.result()


def audit_strong_laws(
    spec: PredimensionSpec,
    source: StructSource,
    rng: random.Random,
    samples: int,
) -> AuditResult:
    """Transitivity and intersection-closure of self-sufficiency.

    Chains come from closures, so both premises hold by construction and
    every sample is a live instance of the law being tested.
    """
    tally = _Tally("strong-laws")
    for _ in range(samples):
        struct = source(rng)
        univ = struct.universe

        # transitivity: strong inside a strong set is strong outright
        b = closure(spec, struct, random_subset(rng, univ))
        a = closure(spec, struct, random_subset(rng, b), within=b)
        ok = is_strong(spec, struct, a).verdict
        tally.check(ok, struct, lambda: f"transitivity A={format_ids(a)} B={format_ids(b)}")

        # intersection of two strong sets is strong
        c = closure(spec, struct, random_subset(rng, univ))
        d = closure(spec, struct, random_subset(rng, univ))
        meet = frozenset(c) & frozenset(d)
        ok = is_strong(spec, struct, meet).verdict
        tally.check(ok, struct, lambda: f"intersection C={format_ids(c)} D={format_ids(d)}")
    return tally.result()


def audit_oracle_equivalence(
    spec: PredimensionSpec,
    source: StructSource,
    rng: random.Random,
    samples: int,
) -> AuditResult:
    """Routed strength engines against the exhaustive oracle.

    Verdict and deficiency must match exactly; a negative verdict's witness
    must attain the reported deficiency.
    """
    tally = _Tally("oracle-equivalence")
    for _ in range(samples):
        struct = source(rng)
        base = random_subset(rng, struct.universe)
        rest = [e for e in struct.universe if e not in set(base)]
        cap = min(len(rest), ORACLE_MAX_FREE)
        free = random_subset(rng, rest, k=rng.randrange(cap + 1)) if rest else ()
        within = tuple(sorted(set(base) | set(free)))
        fast = is_strong(spec, struct, base, within)
        slow = brute_force_is_strong(spec, struct, base, within)
        bad = fast.verdict != slow.verdict or fast.deficiency != slow.deficiency
        if not bad and not fast.verdict:
            d_base = delta(spec, struct, base)
            attained = delta(spec, struct, set(base) | set(fast.witness)) - d_base
            bad = attained != fast.deficiency
        tally.check(not bad, struct, lambda: (
            f"A={format_ids(base)} W={format_ids(within)} fast={fast.verdict}/{fast.deficiency} "
            f"brute={slow.verdict}/{slow.deficiency}"
        ))
    return tally.result()


# ---------------------------------------------------------------------------
# amalgamation


def _random_in_class(spec: PredimensionSpec, source: StructSource, rng: random.Random) -> FinStructure:
    for _ in range(IN_CLASS_DRAWS):
        struct = source(rng)
        if in_class(spec, struct):
            return struct
    raise ValueError(f"no structure in the class in {IN_CLASS_DRAWS} draws")


def _grow_factor(
    spec: PredimensionSpec,
    base: FinStructure,
    rng: random.Random,
    extra: int,
) -> Optional[FinStructure]:
    """Extend `base` by fresh elements plus sparse edges; None when the draw
    leaves the class or breaks the base's self-sufficiency."""
    fresh = max(base.universe, default=-1) + 1
    new = list(range(fresh, fresh + extra))
    elems = list(base.universe) + new
    name = base.sig.names[0]
    edges = {tuple(t) for t in base.instances.get(name, ())}
    for v in new:
        others = [e for e in elems if e != v]
        for u in rng.sample(others, min(len(others), rng.randrange(0, 3))):
            edges.add((min(u, v), max(u, v)))
    cand = FinStructure(base.sig, elems, {name: sorted(edges)}, base.annotations)
    if not in_class(spec, cand) or not is_strong(spec, cand, base.universe).verdict:
        return None
    return cand


def audit_amalgamation(
    spec: PredimensionSpec,
    source: StructSource,
    rng: random.Random,
    samples: int,
) -> AuditResult:
    """Free amalgams of in-class factors over a common strong base: the
    amalgam stays in the class, both factors sit strongly inside it, and
    predimension adds up with the base counted once.

    Relational specs with modular matroid components only: the factors'
    instance sets are disjoint over the base, but annotations are carried
    verbatim, with no independence over the base in a non-modular matroid.
    Raises ValueError, as for those specs, when `IN_CLASS_DRAWS` draws find
    no factor in the class.
    """
    if not spec.relational:
        raise ValueError("needs a relational spec")
    if not all(oracle.modular for oracle, _ in spec.components):
        raise ValueError("needs modular matroid components")
    tally = _Tally("amalgamation")
    attempts = 0
    while tally.checked < samples and attempts < 6 * samples:
        attempts += 1
        b1 = _random_in_class(spec, source, rng)
        seed_cap = min(len(b1.universe), 2)
        a = closure(spec, b1, random_subset(rng, b1.universe, k=rng.randrange(seed_cap + 1)))
        base = b1.restrict(a)
        b2 = _grow_factor(spec, base, rng, rng.randrange(1, 4))
        if b2 is None:
            continue
        ident = {e: e for e in a}
        res = free_amalgam(Embedding.make(base, b1, ident), Embedding.make(base, b2, ident))
        d = res.amalgam
        problems = []
        if not in_class(spec, d):
            problems.append("amalgam left the class")
        if not is_strong(spec, d, res.left.image).verdict:
            problems.append("left factor not strong")
        if not is_strong(spec, d, res.right.image).verdict:
            problems.append("right factor not strong")
        total = delta(spec, b1) + delta(spec, b2) - delta(spec, base)
        if delta(spec, d) != total:
            problems.append(f"delta {delta(spec, d)} != {total}")
        tally.check(not problems, d, lambda: f"{'; '.join(problems)} base={format_ids(a)}")
    return tally.result()


# ---------------------------------------------------------------------------
# geometry laws


def audit_exchange(
    spec: PredimensionSpec,
    source: StructSource,
    rng: random.Random,
    samples: int,
) -> AuditResult:
    """Exchange law on sampled (a, b, C) triples."""
    tally = _Tally("exchange")
    struct = None
    drawn_at = -1
    attempts = 0
    while tally.checked < samples and attempts < 4 * samples + 16:
        attempts += 1
        if struct is None or (tally.checked % REDRAW_EVERY == 0 and drawn_at != tally.checked):
            struct = source(rng)
            require_geometric(spec, struct)
            drawn_at = tally.checked
        if len(struct.universe) < 2:
            struct = None
            continue
        a, b = rng.sample(list(struct.universe), 2)
        pool = [e for e in struct.universe if e not in (a, b)]
        c = random_subset(rng, pool, k=rng.randrange(min(len(pool), 3) + 1))
        tally.check(check_exchange(spec, struct, a, b, c), struct, lambda: f"a={a} b={b} C={format_ids(c)}")
    return tally.result()


def audit_dim_additivity(
    spec: PredimensionSpec,
    source: StructSource,
    rng: random.Random,
    samples: int,
) -> AuditResult:
    """dim(XY/C) = dim(X/YC) + dim(Y/C) on sampled triples of subsets."""
    tally = _Tally("dim-additivity")
    struct = None
    for i in range(samples):
        if struct is None or i % REDRAW_EVERY == 0:
            struct = source(rng)
            require_geometric(spec, struct)
        univ = struct.universe
        x = set(random_subset(rng, univ, k=rng.randrange(min(len(univ), 3) + 1)))
        y = set(random_subset(rng, univ, k=rng.randrange(min(len(univ), 3) + 1)))
        c = set(random_subset(rng, univ, k=rng.randrange(min(len(univ), 3) + 1)))
        joint = dim(spec, struct, x | y, c)
        split = dim(spec, struct, x, y | c) + dim(spec, struct, y, c)
        tally.check(joint == split, struct, lambda: (
            f"X={format_ids(x)} Y={format_ids(y)} C={format_ids(c)} joint={joint} split={split}"
        ))
    return tally.result()
