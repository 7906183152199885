"""The strong-base walk and the obligation order as they were before the
builder listed strong bases as unions of pieces and grouped them by shape,
frozen as oracles: every subset below the size bound is tested with
`graph_strong`, and the obligations are one (class code, base) pair per
obligation, sorted.  On weight-1 graph specs `strongsets.strong_subsets`
must return exactly the filter's list, and `builder._obligations` must run
the classes over their bases in exactly the sorted order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

from predim import ExtensionClass, FinStructure, PredimensionSpec
from predim.builder import classes_over
from predim.canonical import pinned_shape
from predim.strongsets import graph_strong


def oracle_strong_subsets(
    struct: FinStructure, below: int, near: Optional[set[int]] = None
) -> list[tuple[int, ...]]:
    """Strong subsets with fewer than `below` elements in (size, ids) order;
    with `near`, only the empty set and the subsets meeting `near`."""
    return [
        c for size in range(below) for c in combinations(struct.universe, size)
        if (near is None or not c or not near.isdisjoint(c)) and graph_strong(struct, c)
    ]


def oracle_obligations(
    spec: PredimensionSpec,
    struct: FinStructure,
    strong_sets: list[tuple[int, ...]],
    k: int,
) -> Iterator[tuple[tuple[int, ...], ExtensionClass]]:
    """All obligations in (|A|, |B|, class code, A) order."""
    for asize in range(0, k):
        bases = [A for A in strong_sets if len(A) == asize]
        per_bsize: dict[int, list[tuple[bytes, tuple[int, ...]]]] = {}
        by_code: dict[bytes, ExtensionClass] = {}  # one template per code: a code fixes its base's shape
        for A in bases:
            for cls in classes_over(spec, struct.sig, pinned_shape(struct, A), k - asize):
                per_bsize.setdefault(cls.size, []).append((cls.code, A))
                by_code[cls.code] = cls
        for bsize in sorted(per_bsize):
            for code, A in sorted(per_bsize[bsize]):
                yield A, by_code[code]
