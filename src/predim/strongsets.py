"""Self-sufficient (strong) subsets: verdicts, deficiencies, witnesses, closures.

A is strong within W when delta(X/A) >= 0 for every X between A and W.  The
deficiency of A is the minimum of delta(X/A) over nonempty X inside W minus A
(0 when there is nothing to add).  One router, `_minimum`, picks the engine
from the spec's profile, first match wins:

- monotone specs: a singleton scan (every set is strong);
- valid, purely relational specs: an exact min-cut reduction, any size;
- valid specs with matroid components: branch and bound over subsets, up to
  DFS_LIMIT (26) free elements;
- anything else: the brute-force oracle, up to BRUTE_LIMIT (20) free
  elements, LATTICE_LIMIT (16) when the spec has matroid components.

Past those sizes the router refuses with `SpecError` rather than degrade.
`is_strong`, `closure` and `strong_verdict` all go through it;
`strong_verdict` first answers monotone specs outright and decides weight-1
graph specs by a linear-time acyclicity test.  All engines return exact
rational values and agree with each other; the brute oracle exists so the
others can be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

import numpy as np

from .predimension import PredimensionSpec, SpecError, delta
from .structures import FinStructure, StructureError

# Free-element counts past which the exponential engines refuse.
LATTICE_LIMIT = 16  # full subset lattices with matroid ranks
BRUTE_LIMIT = 20  # the brute-force oracle
DFS_LIMIT = 26  # branch and bound on valid specs with matroid components


@dataclass(frozen=True)
class StrongReport:
    """Outcome of a strength check.

    `witness` is a violating set attaining the deficiency when the verdict is
    negative, None otherwise.  It is the inclusion-least minimizer on the
    min-cut and brute-force routes; on the branch-and-bound route it is some
    minimizer.  `closure` always absorbs the least one.
    """

    verdict: bool
    deficiency: Fraction
    witness: Optional[tuple[int, ...]] = None


def _check_sets(struct: FinStructure, base, within):
    b = frozenset(int(e) for e in base)
    w = frozenset(struct.universe) if within is None else frozenset(int(e) for e in within)
    if not w.issubset(struct.universe):
        raise StructureError("within-set contains non-elements")
    if not b.issubset(w):
        raise StructureError("base must be contained in the ambient set")
    return b, w


# ---------------------------------------------------------------------------
# scaled relational data


def _scaled_instances(struct: FinStructure, base: frozenset[int], within: frozenset[int]):
    """Instances inside `within` with at least one element outside `base`.

    Returns (list of (new-element frozenset, scaled weight), scale) with all
    weights integral after scaling.
    """
    denoms = [struct.sig.weight(name).denominator for name in struct.sig.names] or [1]
    q = lcm(*denoms)
    out = []
    for name in struct.sig.names:
        w = int(struct.sig.weight(name) * q)
        for t in sorted(struct.instances[name]):
            elems = set(t)
            if not within.issuperset(elems):
                continue
            new = frozenset(elems - base)
            if new:
                out.append((new, w))
    return out, q


def _popcount(arr: np.ndarray) -> np.ndarray:
    x = arr.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _relative_delta_table(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[np.ndarray, int]:
    """Scaled integer delta(X/base) for every X coded as a bitmask over `free`."""
    m = len(free)
    pos = {e: i for i, e in enumerate(free)}
    within = base | set(free)
    masks = np.arange(1 << m, dtype=np.int64)
    q = 1
    for _, coef in spec.components:
        q = lcm(q, coef.denominator)
    table = np.zeros(1 << m, dtype=np.int64)
    if spec.relational:
        insts, qr = _scaled_instances(struct, base, within)
        q = lcm(q, qr)
        table = q * _popcount(masks)
        for new, w in insts:
            mk = 0
            for e in new:
                mk |= 1 << pos[e]
            table[(masks & mk) == mk] -= (q // qr) * w
    if spec.components:
        ranks_base = {id(oracle): oracle.rank(struct, base) for oracle, _ in spec.components}
        for x in range(1 << m):
            sub = frozenset(base | {free[i] for i in range(m) if x >> i & 1})
            val = Fraction(0)
            for oracle, coef in spec.components:
                val += coef * (oracle.rank(struct, sub) - ranks_base[id(oracle)])
            table[x] += int(val * q)
    return table, q


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_is_strong(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
    *,
    bound: int = BRUTE_LIMIT,
) -> StrongReport:
    """Exhaustive check over every subset between base and the ambient set.

    Independent of the routed engines; refuses more than `bound` free
    elements rather than degrade into an approximation.
    """
    b, w = _check_sets(struct, base, within)
    free = sorted(w - b)
    m = len(free)
    if m > bound:
        raise SpecError(f"brute-force strength check refused: {m} free elements > bound {bound}")
    if spec.components and m > LATTICE_LIMIT:
        raise SpecError(
            f"brute-force strength check with matroid components refused beyond {LATTICE_LIMIT} free elements"
        )
    if m == 0:
        return StrongReport(True, Fraction(0))
    table, q = _relative_delta_table(spec, struct, b, free)
    best = int(table[1:].min())
    deficiency = Fraction(best, q)
    if deficiency >= 0:
        return StrongReport(True, deficiency)
    tied = np.nonzero(table == best)[0]
    order = np.lexsort((tied, _popcount(tied)))
    mask = int(tied[order[0]])
    witness = tuple(free[i] for i in range(m) if mask >> i & 1)
    return StrongReport(False, deficiency, witness)


def subset_tables(
    spec: PredimensionSpec,
    struct: FinStructure,
    within: Optional[Iterable[int]] = None,
    *,
    bound: int = LATTICE_LIMIT,
) -> tuple[list[int], np.ndarray, int, np.ndarray]:
    """Full subset lattice data for small ambient sets.

    Returns (elements, scaled delta table indexed by bitmask, scale, strong
    mask).  A set is strong within W exactly when no superset has smaller
    delta, so the strong mask falls out of a superset-minimum sweep.
    """
    _, w = _check_sets(struct, (), within)
    elems = sorted(w)
    n = len(elems)
    if n > bound:
        raise SpecError(f"subset tables refused: {n} elements > bound {bound}")
    table, q = _relative_delta_table(spec, struct, frozenset(), elems)
    supmin = table.copy()
    idx = np.arange(1 << n)
    for bit in range(n):
        lo = idx[(idx >> bit) & 1 == 0]
        supmin[lo] = np.minimum(supmin[lo], supmin[lo | (1 << bit)])
    strong = supmin >= table
    return elems, table, q, strong


def brute_closure(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
    *,
    bound: int = LATTICE_LIMIT,
    tables: Optional[tuple[list[int], np.ndarray, int, np.ndarray]] = None,
) -> tuple[int, ...]:
    """Closure by definition: intersect all strong supersets in the lattice.

    `tables` lets a caller reuse `subset_tables` output across many bases.
    """
    b, w = _check_sets(struct, base, within)
    if tables is None:
        tables = subset_tables(spec, struct, w, bound=bound)
    elems, _, _, strong = tables
    pos = {e: i for i, e in enumerate(elems)}
    bmask = 0
    for e in b:
        bmask |= 1 << pos[e]
    idx = np.arange(len(strong))
    sup = idx[((idx & bmask) == bmask) & strong]
    if sup.size == 0:
        raise SpecError("no strong superset exists; spec is not submodular")
    acc = int(np.bitwise_and.reduce(sup))
    if not strong[acc]:
        raise SpecError("no least strong superset; spec is not submodular")
    return tuple(sorted(e for e in elems if acc >> pos[e] & 1))


# ---------------------------------------------------------------------------
# min-cut engine (purely relational specs)


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.g: list[list[list[int]]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int) -> None:
        self.g[u].append([v, cap, len(self.g[v])])
        self.g[v].append([u, 0, len(self.g[u]) - 1])

    def maxflow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.g[u]:
                    if e[1] > 0 and level[e[0]] < 0:
                        level[e[0]] = level[u] + 1
                        queue.append(e[0])
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, f: int) -> int:
                if u == t:
                    return f
                while it[u] < len(self.g[u]):
                    e = self.g[u][it[u]]
                    if e[1] > 0 and level[e[0]] == level[u] + 1:
                        d = dfs(e[0], min(f, e[1]))
                        if d > 0:
                            e[1] -= d
                            self.g[e[0]][e[2]][1] += d
                            return d
                    it[u] += 1
                return 0

            while True:
                f = dfs(s, 1 << 62)
                if f == 0:
                    break
                flow += f

    def source_side_min(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for e in self.g[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    queue.append(e[0])
        return seen

    def source_side_max(self, t: int) -> set[int]:
        # complement of the residual nodes that still reach the sink
        reach = {t}
        rev: list[list[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            for e in self.g[u]:
                if e[1] > 0:
                    rev[e[0]].append(u)
        queue = [t]
        for v in queue:
            for u in rev[v]:
                if u not in reach:
                    reach.add(u)
                    queue.append(u)
        return set(range(self.n)) - reach


def _flow_min(
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[Fraction, tuple[int, ...], tuple[int, ...]]:
    """Exact minimum of delta(X/base) over ALL X (empty included) plus the
    inclusion-least and inclusion-greatest minimizers.

    Project-selection cut: paying q per selected element against the scaled
    weight of every instance whose new part is fully selected.
    """
    insts, q = _scaled_instances(struct, base, base | set(free))
    n = 2 + len(free) + len(insts)
    net = _Dinic(n)
    src, snk = 0, 1
    pos = {e: i for i, e in enumerate(free)}
    for i in range(len(free)):
        net.add(2 + i, snk, q)
    total = 0
    for j, (new, w) in enumerate(insts):
        node = 2 + len(free) + j
        net.add(src, node, w)
        total += w
        for e in sorted(new):
            net.add(node, 2 + pos[e], 1 << 62)
    cut = net.maxflow(src, snk)
    value = Fraction(cut - total, q)
    side_min = net.source_side_min(src)
    side_max = net.source_side_max(snk)
    lo = tuple(e for e in free if 2 + pos[e] in side_min)
    hi = tuple(e for e in free if 2 + pos[e] in side_max)
    return value, lo, hi


def _flow_nonempty_min(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min over nonempty X; witness is the inclusion-least minimizer
    when the min is negative (it is unique then, by submodularity)."""
    value, lo, hi = _flow_min(struct, base, free)
    if lo:
        return value, lo
    if value < 0:
        raise AssertionError("negative minimum with empty minimal minimizer")
    if hi:
        # a nonempty set also reaches 0
        return Fraction(0), ()
    # every nonempty set is strictly positive: force each element in turn
    best_val: Optional[Fraction] = None
    best_wit: tuple[int, ...] = ()
    d_base = delta(spec, struct, base)
    for e in free:
        rest = [x for x in free if x != e]
        val, lo2, _ = _flow_min(struct, base | {e}, rest)
        forced = delta(spec, struct, base | {e}) - d_base + val
        wit = tuple(sorted((e,) + lo2))
        if best_val is None or forced < best_val or (forced == best_val and (len(wit), wit) < (len(best_wit), best_wit)):
            best_val, best_wit = forced, wit
    assert best_val is not None
    return best_val, best_wit


# ---------------------------------------------------------------------------
# branch and bound (specs with matroid components)


def _dfs_min(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min of delta(X/base) over nonempty X, by subset search.

    Prunes with per-element marginals taken at the full set; those
    lower-bound every other marginal by submodularity, so this engine is only
    sound for valid specs.
    """
    if not spec.valid:
        raise SpecError("subset search requires a submodular spec; use the brute engine")
    d_base = delta(spec, struct, base)
    full = base | set(free)
    d_full = delta(spec, struct, full)
    marg = {e: min(Fraction(0), d_full - delta(spec, struct, full - {e})) for e in free}
    order = sorted(free, key=lambda e: (marg[e], e))
    suffix = [Fraction(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + marg[order[i]]

    best_val: list = [None]
    best_wit: list = [()]

    def rec(i: int, cur: set[int], d_cur: Fraction) -> None:
        if len(cur) > len(base) and (best_val[0] is None or d_cur < best_val[0]):
            best_val[0] = d_cur
            best_wit[0] = tuple(sorted(cur - base))
        if i == len(order):
            return
        if best_val[0] is not None and d_cur + suffix[i] >= best_val[0]:
            return
        e = order[i]
        cur.add(e)
        rec(i + 1, cur, delta(spec, struct, cur) - d_base)
        cur.discard(e)
        rec(i + 1, cur, d_cur)

    rec(0, set(base), Fraction(0))
    if best_val[0] is None:
        return Fraction(0), ()
    return best_val[0], best_wit[0]


# ---------------------------------------------------------------------------
# weight-1 graph fast verdict


def alpha_one_profile(spec: PredimensionSpec, struct: FinStructure) -> bool:
    """Purely relational, unordered, all arities 2, all weights 1."""
    if not spec.relational or spec.components or struct.sig.ordered:
        return False
    one = Fraction(1)
    return all(
        arity == 2 and struct.sig.weight(name) == one for name, arity in struct.sig.symbols
    )


def _components(
    vertices: Iterable[int], edges: list[tuple[int, int]]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Union-find over `edges`: each vertex's root, then the vertex and edge
    counts per root."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    root = {v: find(v) for v in parent}
    nverts: dict[int, int] = {}
    for r in root.values():
        nverts[r] = nverts.get(r, 0) + 1
    nedges: dict[int, int] = {}
    for u, _ in edges:
        nedges[root[u]] = nedges.get(root[u], 0) + 1
    return root, nverts, nedges


def _acyclic_verdict(struct: FinStructure, base: frozenset[int], within: frozenset[int]) -> bool:
    """Contract the base, drop its internal edges: strong iff the contracted
    vertex sits in an acyclic component and every other component has at most
    as many edges as vertices (parallel edges count)."""
    star = -1  # the contracted base, when nonempty
    edges = []
    for name in struct.sig.names:
        for t in struct.instances[name]:
            if not within.issuperset(t):
                continue
            u, v = t
            cu = star if u in base else u
            cv = star if v in base else v
            if cu == star and cv == star:
                continue
            edges.append((cu, cv))
    vertices = within - base | ({star} if base else set())
    root, nverts, nedges = _components(vertices, edges)
    star_root = root.get(star) if base else None
    return all(nedges.get(r, 0) <= nv - (r == star_root) for r, nv in nverts.items())


# ---------------------------------------------------------------------------
# public interface


def _minimum(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum of delta(X/base) over nonempty X inside `free`, with a
    minimizer when it is negative.  The one place an engine is chosen."""
    if spec.monotone:
        d_base = delta(spec, struct, base)
        return min(delta(spec, struct, base | {e}) - d_base for e in free), ()
    if spec.valid and spec.relational and not spec.components:
        return _flow_nonempty_min(spec, struct, base, free)
    if spec.valid and len(free) <= DFS_LIMIT:
        return _dfs_min(spec, struct, base, free)
    if len(free) <= BRUTE_LIMIT:
        rep = brute_force_is_strong(spec, struct, base, base | set(free))
        return rep.deficiency, rep.witness or ()
    raise SpecError("no exact engine can handle this spec at this size")


def is_strong(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> StrongReport:
    """Is `base` self-sufficient within the ambient set (whole universe by default)?

    The report always carries the exact deficiency.
    """
    b, w = _check_sets(struct, base, within)
    free = sorted(w - b)
    if not free:
        return StrongReport(True, Fraction(0))
    deficiency, witness = _minimum(spec, struct, b, free)
    if deficiency >= 0:
        return StrongReport(True, deficiency)
    return StrongReport(False, deficiency, witness)


def strong_verdict(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> bool:
    """Verdict-only strength check; skips deficiency work where possible."""
    b, w = _check_sets(struct, base, within)
    if not (w - b) or spec.monotone:
        return True
    if alpha_one_profile(spec, struct):
        return _acyclic_verdict(struct, b, w)
    return _minimum(spec, struct, b, sorted(w - b))[0] >= 0


def in_class(spec: PredimensionSpec, struct: FinStructure) -> bool:
    """Whether every subset has nonnegative predimension."""
    return strong_verdict(spec, struct, ())


def closure(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> tuple[int, ...]:
    """Least strong superset of `base` within the ambient set.

    Repeatedly absorbs the inclusion-least minimum-deficiency witness; by
    submodularity that witness lies inside every strong superset, so the
    result is the least one.
    """
    b, w = _check_sets(struct, base, within)
    if not spec.valid:
        raise SpecError("closure requires a submodular spec")
    cur = set(b)
    while True:
        free = sorted(w - cur)
        if not free:
            return tuple(sorted(cur))
        deficiency, witness = _minimum(spec, struct, frozenset(cur), free)
        if deficiency >= 0:
            return tuple(sorted(cur))
        if spec.components:
            # branch and bound returns some minimizer, not the least one
            witness = _least_minimizer(spec, struct, frozenset(cur), free, deficiency, witness)
        cur.update(witness)


def _least_minimizer(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
    target: Fraction,
    witness: tuple[int, ...],
) -> tuple[int, ...]:
    """Inclusion-least minimum-value set: drop every element some minimizer
    avoids (minimizers form a lattice, so the least one is their meet)."""
    pool = list(free)
    keep = set(witness)
    for e in sorted(keep):
        rest = [x for x in pool if x != e]
        if not rest:
            continue
        val, wit = _dfs_min(spec, struct, base, rest)
        if val == target:
            pool = rest
            keep = set(wit)
    return tuple(sorted(keep))
