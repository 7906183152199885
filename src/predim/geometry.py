"""The pregeometry induced by the predimension.

Dimension of A over C is delta of the closure of A union C minus delta of the
closure of C, each read from the strength kernel's flow value
(`closure_delta`), not recounted.  The geometric closure gcl(B), the
elements of dimension zero over B, is the greatest minimizer of delta over
the supersets of B (`greatest_closure`).  Both notions need an
integer-valued predimension that gives single elements at most one unit, so
validity is checked up front on every query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .predimension import PredimensionSpec, delta
from .strongsets import closure_delta, greatest_closure
from .structures import FinStructure


class GeometryError(ValueError):
    """The spec or structure does not induce a pregeometry."""


def require_geometric(spec: PredimensionSpec, struct: FinStructure) -> None:
    """Integer-valued delta with singletons worth at most 1, on a valid spec.

    A singleton's rank is 0 or 1 in every component, so its delta is at most
    [relational] + sum of max(coef, 0); elements are checked one by one only
    when that bound is above 1."""
    if not spec.valid:
        raise GeometryError("pregeometry needs a valid (submodular) spec")
    for name in struct.sig.names:
        if struct.sig.weight(name).denominator != 1:
            raise GeometryError(f"weight of {name} is not an integer")
    for _, coef in spec.components:
        if coef.denominator != 1:
            raise GeometryError(f"component coefficient {coef} is not an integer")
    if spec.relational + sum(max(coef, 0) for _, coef in spec.components) > 1:
        for e in struct.universe:
            v = delta(spec, struct, (e,))
            if v > 1:
                raise GeometryError(f"element {e} has predimension {v} > 1")


def dim(
    spec: PredimensionSpec,
    struct: FinStructure,
    subset: Iterable[int],
    over: Iterable[int] = (),
) -> int:
    """Dimension of `subset` over `over` inside `struct`."""
    require_geometric(spec, struct)
    a = frozenset([int(e) for e in subset])
    c = frozenset([int(e) for e in over])
    value = closure_delta(spec, struct, a | c)[1] - closure_delta(spec, struct, c)[1]
    assert value.denominator == 1
    return int(value)


def gcl(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int] = (),
) -> tuple[int, ...]:
    """Every element of dimension zero over the base.  Minimizers of delta
    over the supersets of B are closed under union (submodularity), and e
    has dimension 0 exactly when one of them holds it, so gcl(B) is the
    greatest one."""
    require_geometric(spec, struct)
    return greatest_closure(spec, struct, base)


def check_exchange(
    spec: PredimensionSpec,
    struct: FinStructure,
    a: int,
    b: int,
    over: Iterable[int] = (),
) -> bool:
    """Exchange law: a depending on b over C (but not on C alone) forces b to
    depend on a over C.  True when the law holds on this triple."""
    require_geometric(spec, struct)
    c = frozenset([int(e) for e in over])
    known: dict[frozenset[int], Fraction] = {}  # delta(cl B), shared by the three tests

    def depends(e: int, on: frozenset[int]) -> bool:
        for s in (on, on | {e}):
            if s not in known:
                known[s] = closure_delta(spec, struct, s)[1]
        return known[on] == known[on | {e}]

    if not depends(a, c | {b}):
        return True
    if depends(a, c):
        return True
    return depends(b, c | {a})
