"""Predimension evaluation: weighted instance counts plus matroid components.

The relational part of the predimension of a finite set X is

    |X| - sum over symbols R of weight(R) * (number of R-instances inside X)

and each matroid component contributes coefficient * rank(X).  All
arithmetic is exact (`fractions.Fraction`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Optional

from .structures import FinStructure, Record, StructureError


class SpecError(ValueError):
    """Invalid predimension specification or component data."""


# Elements past which a check over a full subset lattice with matroid ranks
# refuses: embedding rank patterns here, the brute strength oracle in
# strongsets.
LATTICE_LIMIT = 16

# Linear oracle moduli must lie below this; primality is checked by trial
# division, so the check stays under sqrt(2**31) steps.
MODULUS_LIMIT = 2**31


class MatroidOracle(ABC):
    """Rank function on subsets of a structure's universe.

    `modular` must be True only when rank is modular (rank(A) + rank(B) ==
    rank(A|B) + rank(A&B) for all A, B); negative coefficients are legal for
    modular components only, otherwise submodularity of the predimension
    breaks.
    """

    name: str = "?"
    modular: bool = False

    @abstractmethod
    def rank(self, struct: FinStructure, subset: frozenset[int]) -> Fraction:
        ...

    def pattern_subsets(self, struct: FinStructure) -> list[tuple[int, ...]]:
        """The subsets of the universe whose ranks an embedding of `struct`
        must keep: all of them, by size, refused beyond LATTICE_LIMIT
        elements (the exact contract, not a heuristic)."""
        if struct.n > LATTICE_LIMIT:
            raise SpecError(f"embedding rank check refused beyond {LATTICE_LIMIT} source elements")
        return [c for r in range(struct.n + 1) for c in combinations(struct.universe, r)]

    def __repr__(self):
        return f"{type(self).__name__}()"


class FreeOracle(Record, MatroidOracle):
    """Free matroid: every set is independent, rank(X) = |X|.  Modular, so it
    may carry a negative coefficient.  `name` is "free" or "cardinality"; the
    latter is the usual spelling for putting -|X| into a predimension whose
    relational part is switched off.  The two compare unequal."""

    __slots__ = __match_args__ = ("name",)
    modular = True

    def __init__(self, name: str = "free"):
        self._fill(name)

    def rank(self, struct, subset):
        return Fraction(len(subset))

    def pattern_subsets(self, struct):
        return []


class UniformOracle(Record, MatroidOracle):
    """Uniform matroid U_k: rank(X) = min(|X|, k).  Not modular."""

    __match_args__ = ("k",)
    __slots__ = __match_args__ + ("name",)
    modular = False

    def __init__(self, k: int):
        if k < 1:
            raise SpecError("uniform matroid needs k >= 1")
        self._fill(k, f"uniform{k}")

    def rank(self, struct, subset):
        return Fraction(min(len(subset), self.k))

    def pattern_subsets(self, struct):
        # Rank only depends on cardinality, which embeddings preserve.
        return []


class LinearOracle(Record, MatroidOracle):
    """Linear matroid over the prime field F_p, vectors read from annotations.

    An element's vector is its annotation token tuple, each token an integer
    mod p; shorter vectors are padded with zeros on the right.  Elements
    without an annotation are the zero vector.  Each element's tokens are
    parsed once per structure and p, when a rank first needs them, and kept
    in the structure's `_rows`; a non-integer token raises on every subset
    holding its element.  Not modular.
    """

    __match_args__ = ("p",)
    __slots__ = __match_args__ + ("name",)
    modular = False

    def __init__(self, p: int):
        if p >= MODULUS_LIMIT:
            raise SpecError(f"linear oracle modulus refused: it must be below {MODULUS_LIMIT}")
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise SpecError(f"linear oracle needs a prime modulus, got {p}")
        self._fill(p, f"linear{p}")

    def vector(self, struct: FinStructure, elem: int) -> tuple[int, ...]:
        """The element's vector mod p, padded to the annotation width (kept)."""
        rows = struct._rows.setdefault(self.p, {})
        if elem not in rows:
            toks = struct.annotation(elem)
            try:
                vals = tuple(int(t) % self.p for t in toks)
            except ValueError:
                raise SpecError(f"non-integer annotation token on element {elem}: {toks}")
            rows[elem] = vals + (0,) * (struct.annotation_width() - len(vals))
        return rows[elem]

    def rank(self, struct, subset):
        width = struct.annotation_width()
        if width == 0 or not subset:
            return Fraction(0)
        p = self.p
        rows = struct._rows.get(p, {})
        vecs = [rows.get(e) or self.vector(struct, e) for e in subset]
        # Clear each vector at the pivot columns so far, scaling instead of
        # dividing (a pivot row is 0 at the earlier pivots' columns); a
        # nonzero remainder is a new pivot row.  Full rank ends the search.
        pivots: list = []  # (column, entry there, row)
        for v in vecs:
            for c, g, row in pivots:
                f = v[c]
                if f:
                    v = [(x * g - f * y) % p for x, y in zip(v, row)]
            for c, x in enumerate(v):
                if x:
                    pivots.append((c, x, v))
                    break
            if len(pivots) == width:
                break
        return Fraction(len(pivots))


def oracle_by_name(name: str) -> MatroidOracle:
    """Oracle factory for spec files: free, cardinality, linear<p>, uniform<k>."""
    if name in ("free", "cardinality"):
        return FreeOracle(name)
    for prefix, make in (("linear", LinearOracle), ("uniform", UniformOracle)):
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isascii() and digits.isdigit():
            try:
                value = int(digits)
            except ValueError:  # past Python's limit on integer-string digits
                raise SpecError(f"matroid oracle parameter of {len(digits)} digits refused") from None
            return make(value)
    raise SpecError(f"unknown matroid oracle {name!r}")


class PredimensionSpec(NamedTuple):
    """Which terms enter the predimension.

    `relational` toggles the |X| - sum(weight * instance count) part; the
    per-symbol weights live on the structure's signature.  `components` are
    (oracle, coefficient) pairs.  Construction validates that every negative
    coefficient sits on a modular oracle; `make(..., allow_invalid=True)`
    records violations instead of raising, which keeps deliberately broken
    specs constructible for audits.
    """

    relational: bool = True
    components: tuple[tuple[MatroidOracle, Fraction], ...] = ()
    violations: tuple[str, ...] = ()

    @staticmethod
    def make(
        relational: bool = True,
        components: Iterable[tuple[MatroidOracle, Fraction]] = (),
        allow_invalid: bool = False,
    ) -> "PredimensionSpec":
        comps = tuple((oracle, Fraction(coef)) for oracle, coef in components)
        problems = []
        for oracle, coef in comps:
            if coef == 0:
                problems.append(f"component {oracle.name} has zero coefficient")
            if coef < 0 and not oracle.modular:
                problems.append(
                    f"component {oracle.name} is not modular but has negative coefficient {coef}"
                )
        if problems and not allow_invalid:
            raise SpecError("; ".join(problems))
        return PredimensionSpec(relational, comps, tuple(problems))

    @property
    def valid(self) -> bool:
        return not self.violations


def delta(spec: PredimensionSpec, struct: FinStructure, subset: Optional[Iterable[int]] = None) -> Fraction:
    """Predimension of `subset` inside `struct` (whole universe by default)."""
    if subset is None:
        sub = struct._uset
    else:
        sub = frozenset(int(e) for e in subset)
        stray = sub - struct._uset
        if stray:
            raise StructureError(f"delta over non-elements {sorted(stray)}")
    value = Fraction(0)
    if spec.relational:
        value += len(sub)
        for name, ts in struct.inside(sub).items():
            if ts:
                value -= struct.sig.weight(name) * len(ts)
    for oracle, coef in spec.components:
        value += coef * oracle.rank(struct, sub)
    return value


def rank_compat(
    spec: PredimensionSpec, source: FinStructure, target: FinStructure
) -> Optional[Callable[[dict[int, int]], bool]]:
    """The `find_embeddings` filter keeping the maps from `source` into
    `target` that respect every matroid component's rank pattern, or None
    when the spec has no components.  Each map stops at its first unequal
    rank; each source rank is taken once, when a map first needs it."""
    if not spec.components:
        return None
    checks = None
    ranks: list[Fraction] = []

    def compat(m: dict[int, int]) -> bool:
        nonlocal checks
        if checks is None:
            checks = [(o, c) for o, _ in spec.components for c in o.pattern_subsets(source)]
        for i, (o, c) in enumerate(checks):
            if i == len(ranks):
                ranks.append(o.rank(source, frozenset(c)))
            if o.rank(target, frozenset([m[e] for e in c])) != ranks[i]:
                return False
        return True

    return compat
