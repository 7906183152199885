"""Self-sufficient (strong) subsets: verdicts, deficiencies, witnesses, closures.

A is strong within W when delta(X/A) >= 0 for every X between A and W.  The
deficiency of A is the minimum of delta(X/A) over nonempty X inside W minus A
(0 when there is nothing to add).

Every valid spec goes to one polynomial kernel: a max flow whose solved
network gives the exact minimum of delta(X/A) over all X, with its least
minimizer (`_Net`, built by `_network`), over the instances that
`FinStructure.inside` gives, sorted per symbol in signature order (as for
the brute oracle and `graph_strong`).  The routes:

- `closure` adds the least minimizer to the base, `greatest_closure` the
  greatest one (the geometric closure);
- `strong_verdict` asks whether it is empty, except on weight-1 graph specs
  (`alpha_one_profile`), where `graph_strong` decides from the structure's
  cached component table, on `struct.restrict(within)` given an ambient set;
- `strong_subsets` lists the small strong subsets: on a valid pseudoforest
  (`valid_pseudoforest`) as unions of connected pieces, one per component
  at most, with no strength test (`_graph_strong_subsets`), else by
  `strong_verdict` on each subset; `strong_subsets_by_shape` groups them,
  taking each walked set's shape from the instances its pieces carry;
- `is_strong` reports the exact deficiency: from the kernel for a valid spec
  (`_flow_nonempty_min`), from the brute-force oracle for an invalid one,
  which refuses with a `SpecError` past BRUTE_LIMIT (20) free elements, or
  LATTICE_LIMIT (16) when the spec has matroid components; an invalid
  spec's `strong_verdict` is its verdict.

Sessions.  For a modular spec (no non-modular matroid component) a
structure's `_sessions` maps the spec to None after its first
whole-universe query, which solves cold, and then to the root: the network
over the whole universe solved for the empty base.  A query with base B
copies the root's capacities, raises the source arc of each element of B
to infinity and augments: raising capacities keeps the flow feasible
(parametric flow, Gallo, Grigoriadis & Tarjan 1989), and the flow value is
delta of the closure, which `geometry` reads.  Queries inside a smaller
ambient set, and specs with non-modular matroid terms, leave the map alone
and solve a network contracted by the base cold: forced elements would
load the matroid copies, and those specs are asked about small fresh
structures, where a root solve costs more than the query.
`_flow_nonempty_min` forces each free element on a copy of the base's
solved state when every nonempty set is strictly positive.

All engines are exact; the brute oracle and the unrouted subset search
`_dfs_min` exist so the kernel can be checked against them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .predimension import LATTICE_LIMIT, PredimensionSpec, SpecError, delta
from .structures import FinStructure, StructureError

if TYPE_CHECKING:
    import numpy as np

# Free-element count past which the brute-force oracle refuses; with matroid
# components it refuses past LATTICE_LIMIT.
BRUTE_LIMIT = 20


class StrongReport(NamedTuple):
    """Outcome of a strength check.

    `witness` is None on a positive verdict.  On a negative one it is the
    inclusion-least set attaining the deficiency, on every route; an invalid
    spec may have no least one, and the brute oracle names the smallest, ties
    broken lexicographically.
    """

    verdict: bool
    deficiency: Fraction
    witness: Optional[tuple[int, ...]] = None


def _check_sets(struct: FinStructure, base, within):
    b = frozenset([int(e) for e in base])
    if within is None:
        w = struct._uset
    else:
        w = frozenset([int(e) for e in within])
        if not w.issubset(struct._uset):
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
    q = lcm(*[struct.sig.weight(name).denominator for name in struct.sig.names])
    out = []
    for name, ts in struct.inside(within).items():
        w = int(struct.sig.weight(name) * q)
        for t in sorted(ts):
            new = frozenset(t).difference(base)
            if new:
                out.append((new, w))
    return out, q


def _relative_delta_table(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[np.ndarray, int]:
    """Scaled integer delta(X/base) for every X coded as a bitmask over `free`."""
    import numpy as np
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
        table = q * np.bitwise_count(masks).astype(np.int64)
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
# reference oracles: brute force, and the subset search nothing routes to


def brute_force_is_strong(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> StrongReport:
    """Exhaustive check over every subset between base and the ambient set.

    Independent of the routed engines; refuses more than BRUTE_LIMIT free
    elements rather than degrade into an approximation.
    """
    import numpy as np
    b, w = _check_sets(struct, base, within)
    free = sorted(w - b)
    m = len(free)
    if m > BRUTE_LIMIT:
        raise SpecError(f"brute-force strength check refused: {m} free elements > bound {BRUTE_LIMIT}")
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
    order = np.lexsort((tied, np.bitwise_count(tied)))
    mask = int(tied[order[0]])
    witness = tuple(free[i] for i in range(m) if mask >> i & 1)
    return StrongReport(False, deficiency, witness)


def subset_tables(
    spec: PredimensionSpec,
    struct: FinStructure,
    within: Optional[Iterable[int]] = None,
) -> tuple[list[int], np.ndarray, int, np.ndarray]:
    """Full subset lattice data for small ambient sets.

    Returns (elements, scaled delta table indexed by bitmask, scale, strong
    mask).  A set is strong within W exactly when no superset has smaller
    delta, so the strong mask falls out of a superset-minimum sweep.
    """
    import numpy as np
    _, w = _check_sets(struct, (), within)
    elems = sorted(w)
    n = len(elems)
    if n > LATTICE_LIMIT:
        raise SpecError(f"subset tables refused: {n} elements > bound {LATTICE_LIMIT}")
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
    tables: Optional[tuple[list[int], np.ndarray, int, np.ndarray]] = None,
) -> tuple[int, ...]:
    """Closure by definition: intersect all strong supersets in the lattice.

    `tables` lets a caller reuse `subset_tables` output across many bases.
    """
    import numpy as np
    b, w = _check_sets(struct, base, within)
    if tables is None:
        tables = subset_tables(spec, struct, w)
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


def _dfs_min(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min of delta(X/base) over nonempty X, with some minimizer, by
    subset search; tests check the kernel against it past the brute range.

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
# independent-flow kernel (every valid spec)


_INF = 1 << 62


class _Net:
    """The kernel's network for delta(X/base), X inside `elems`, with its flow.

    Flat arc arrays: arc a runs into head[a] with residual capacity cap[a],
    its reverse is a ^ 1, and adj[u] lists the arcs out of node u.  Node 0
    is the source, node 1 the sink, node 2 + i the element elems[i], then
    one node per instance.  Arc force + 2*i runs from the source into node
    2 + i with capacity 0 until that element is forced into the set.
    tests[k] is the independence test of matroid copy k and loads[k] its
    loaded element nodes.  A warm copy shares everything but cap, loads and
    flow, so copying a solved state is one list slice.

    Once solved, value is the minimum of delta(X/base) over the X that hold
    every forced element, and `least` is the inclusion-least such X.
    """

    __slots__ = ("elems", "pos", "base", "q", "weight", "head", "adj", "force", "tests",
                 "cap", "loads", "flow", "least")

    @property
    def value(self) -> Fraction:
        return Fraction(self.flow - self.weight, self.q)

    def forced(self, elems: Iterable[int]) -> "_Net":
        """A solved copy with each element's source arc raised to infinity.

        Raising capacities keeps the flow feasible, so solving the copy only
        augments (parametric flow: Gallo, Grigoriadis & Tarjan 1989)."""
        net = _Net.__new__(_Net)
        net.elems, net.pos, net.base, net.q, net.weight = self.elems, self.pos, self.base, self.q, self.weight
        net.head, net.adj, net.force, net.tests = self.head, self.adj, self.force, self.tests
        net.cap, net.loads, net.flow = self.cap[:], self.loads[:], self.flow
        for e in elems:
            net.cap[self.force + 2 * self.pos[e]] = _INF
        return net.solve()

    def solve(self) -> "_Net":
        """Push to a maximum flow: blocking flows on the arcs, then unit
        augmenting paths through the copies' exchange arcs.  The last
        search from the source, which misses the sink, gives `least`."""
        while (level := self._levels())[1] >= 0:
            self.flow += self._blocking_flow(level)
        if self.tests:
            while 1 in (pred := _least_minimizer(self)):
                self._push(pred)
            self.least = tuple([e for v, e in enumerate(self.elems, 2) if v in pred])
        else:
            self.least = tuple([e for v, e in enumerate(self.elems, 2) if level[v] >= 0])
        return self

    def _levels(self) -> list[int]:
        """Breadth-first distances from the source over residual arcs, -1 for
        nodes not reached; stops once the sink has its distance."""
        head, adj, cap = self.head, self.adj, self.cap
        level = [-1] * len(adj)
        level[0] = 0
        queue = [0]
        for u in queue:
            nxt = level[u] + 1
            for a in adj[u]:
                if cap[a] and level[head[a]] < 0:
                    v = head[a]
                    level[v] = nxt
                    if v == 1:
                        return level
                    queue.append(v)
        return level

    def _blocking_flow(self, level: list[int]) -> int:
        """Dinic's blocking flow along `level`, on an explicit stack of arcs;
        a return to a node resumes at its current arc, copying nothing."""
        head, adj, cap = self.head, self.adj, self.cap
        rest, cur = [None] * len(adj), [-1] * len(adj)
        path: list[int] = []
        pushed = 0
        u = 0
        while True:
            if u == 1:
                f = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                pushed += f
                k = 0  # back to the tail of the first saturated arc
                while cap[path[k]]:
                    k += 1
                u = head[path[k] ^ 1]
                del path[k:]
                continue
            a, want = cur[u], level[u] + 1
            if a < 0 or not (cap[a] and level[head[a]] == want):
                rest[u] = arcs = rest[u] or iter(adj[u])  # the arcs past the current one
                for a in arcs:
                    if cap[a] and level[head[a]] == want:
                        break
                else:
                    if u == 0:
                        return pushed
                    level[u] = -1  # a dead end: drop it from the level graph
                    u = head[path.pop() ^ 1]
                    continue
                cur[u] = a
            path.append(a)
            u = head[a]

    def _push(self, pred: dict) -> None:
        """One unit along the path `_least_minimizer` traced to the sink."""
        cap, loads = self.cap, self.loads
        v = 1
        while v:
            u, via = pred[v]
            if via >= 0:
                cap[via] -= 1
                cap[via ^ 1] += 1
            else:  # u enters copy ~via, v leaves it (the sink is in no load)
                loads[~via] = loads[~via] - {v} | {u}
            v = u
        self.flow += 1


def _network(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> _Net:
    """The kernel's network for delta(X/base), X inside `free`, no flow yet.

    Scaled by q, delta(X/base) = f(X) - w(E[X]), E[X] being the instances
    whose new part lies in X.  f gives each element a modular capacity (the
    relational |X| plus the free and cardinality terms; a negative one
    becomes a singleton instance) plus q*c copies of each other component's
    matroid, contracted by the base.  The minimum is then a max flow from the
    instances into the elements that keeps each copy's load independent
    (Fujishige 1978), less the total instance weight.
    """
    q = lcm(*(coef.denominator for _, coef in spec.components))
    insts: list[tuple[frozenset[int], int]] = []
    cap = [0] * len(free)
    if spec.relational:
        rel, qr = _scaled_instances(struct, base, base | set(free))
        q = lcm(q, qr)
        insts, cap = [(new, w * (q // qr)) for new, w in rel], [q] * len(free)
    tests = []
    for oracle, coef in spec.components:
        r_base = oracle.rank(struct, base)
        if oracle.modular:
            for i, e in enumerate(free):
                cap[i] += int(q * coef * (oracle.rank(struct, base | {e}) - r_base))
            continue

        @cache
        def independent(nodes: frozenset[int], o=oracle, r=int(r_base)) -> bool:
            # in the matroid contracted by the base (ranks are integers); node 2 + i is free[i]
            return o.rank(struct, base.union(free[v - 2] for v in nodes)) == r + len(nodes)

        tests += [independent] * int(q * coef)
    insts += [(frozenset({e}), -c) for e, c in zip(free, cap) if c < 0]

    pos = {e: i for i, e in enumerate(free)}
    head: list[int] = []
    caps: list[int] = []
    adj: list[list[int]] = [[] for _ in range(2 + len(free) + len(insts))]

    def arc(u: int, v: int, c: int) -> None:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        caps.extend((c, 0))

    for i, c in enumerate(cap):
        arc(2 + i, 1, max(c, 0))
    for node, (new, w) in enumerate(insts, 2 + len(free)):
        arc(0, node, w)
        for e in sorted(new):
            arc(node, 2 + pos[e], _INF)
    force = len(head)
    for i in range(len(free)):
        arc(0, 2 + i, 0)

    net = _Net.__new__(_Net)
    net.elems, net.pos, net.base, net.q, net.weight = free, pos, base, q, sum(w for _, w in insts)
    net.head, net.adj, net.force, net.tests = head, adj, force, tests
    net.cap, net.loads, net.flow = caps, [frozenset()] * len(tests), 0
    return net


def _least_minimizer(net: _Net) -> dict:
    """Breadth-first search from the source (node 0) over the residual and
    exchange arcs; returns the predecessor of each node reached, as (node,
    arc) or (node, ~copy).  With the sink (node 1) among them they trace a
    shortest augmenting path, and shortest keeps each copy's load
    independent (the matroid-intersection exchange lemma); otherwise the
    element nodes reached are the least minimizer."""
    head, adj, cap = net.head, net.adj, net.cap
    end = 2 + len(net.elems)
    pred: dict = {0: None}
    queue = [0]
    for u in queue:
        for a in adj[u]:
            if cap[a] and head[a] not in pred:
                pred[head[a]] = (u, a)
                if head[a] == 1:
                    return pred
                queue.append(head[a])
        if not 2 <= u < end:
            continue
        for k, (independent, load) in enumerate(zip(net.tests, net.loads)):
            if u in load:
                continue
            if independent(load | {u}):
                pred[1] = (u, ~k)
                return pred
            for f in load:
                if f not in pred and independent(load - {f} | {u}):
                    pred[f] = (u, ~k)
                    queue.append(f)
    return pred


def _greatest_minimizer(net: _Net) -> tuple[int, ...]:
    """The inclusion-greatest minimizer of a solved network: its elements
    whose nodes no longer reach the sink (node 1) over residual and exchange
    arcs.  On a session copy it holds the forced base."""
    head, adj, cap = net.head, net.adj, net.cap
    elements = range(2, 2 + len(net.elems))
    reach = {1}
    queue = [1]
    for v in queue:
        # u -> v has capacity left on the reverse of v's arc to u
        found = [head[a] for a in adj[v] if cap[a ^ 1]]
        for independent, load in zip(net.tests, net.loads):
            if v == 1 or v in load:
                rest, seen = load - {v}, reach | load
                found += [u for u in elements if u not in seen and independent(rest | {u})]
        for u in found:
            if u not in reach:
                reach.add(u)
                queue.append(u)
    return tuple([e for v, e in enumerate(net.elems, 2) if v not in reach])


def _solved(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> _Net:
    """A solved network for delta(X/base), X inside `free`: a warm copy of
    the structure's session root with the base forced in when the spec is
    modular, base plus free is the whole universe and this is not the first
    such query, else a cold network contracted by the base."""
    if len(base) + len(free) == struct.n and all(o.modular for o, _ in spec.components):
        if struct._sessions is None:
            struct._sessions = {}
        root = struct._sessions.get(spec, False)  # False before the first query, None after it
        if root is None:
            root = struct._sessions[spec] = _network(spec, struct, frozenset(), list(struct.universe)).solve()
        if root is not False:
            return root.forced(base)
        struct._sessions[spec] = None
    return _network(spec, struct, base, free).solve()


def _flow_nonempty_min(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: frozenset[int],
    free: list[int],
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min over nonempty X; witness is the inclusion-least minimizer
    when the min is negative (it is unique then, by submodularity)."""
    net = _solved(spec, struct, base, free)
    value = net.value
    if net.base != base:  # a session copy: the base is forced in, not contracted
        value -= delta(spec, struct, base)
    lo = tuple([e for e in net.least if e not in base])
    if lo:
        return value, lo
    if value < 0:
        raise AssertionError("negative minimum with empty minimal minimizer")
    if any(e not in base for e in _greatest_minimizer(net)):
        return Fraction(0), ()  # the greatest minimizer holds a free element
    # every nonempty set is strictly positive: force each element in turn
    # on a copy of the solved state; each flow is min over X holding it
    best = min([net.forced((e,)).flow for e in free])
    return value + Fraction(best - net.flow, net.q), ()


# ---------------------------------------------------------------------------
# weight-1 graphs


def alpha_one_profile(spec: PredimensionSpec, struct: FinStructure) -> bool:
    """Purely relational, unordered, all arities 2, all weights 1."""
    if not spec.relational or spec.components or struct.sig.ordered:
        return False
    one = Fraction(1)
    return all(
        arity == 2 and struct.sig.weight(name) == one for name, arity in struct.sig.symbols
    )


def valid_pseudoforest(spec: PredimensionSpec, struct: FinStructure) -> bool:
    """A weight-1 graph spec (`alpha_one_profile`) with no crowded component
    (more edges than vertices): for that profile, membership in the class."""
    return alpha_one_profile(spec, struct) and not struct.components()[3]


def graph_strong(struct: FinStructure, elems: Iterable[int]) -> bool:
    """Is A = `elems` strong in a structure whose instances are all weight-1
    edges (parallel edges across symbols count)?  Exactly when every
    component C meeting it has e(C) - |C| = e(A & C) - |A & C| and every
    other component has e(C) <= |C|: contracting A & C inside C leaves a
    connected graph with cyclomatic number the difference of the two sides,
    and A is strong iff each contracted component is a tree.  Reads the
    structure's component table; costs the degrees of the elements."""
    comp_of, _, excess, crowded = struct.components()
    a_set = set(elems)
    cyclomatic: dict[int, int] = {}  # per component met, after contracting A
    for a in a_set:
        r = comp_of[a]
        cyclomatic[r] = cyclomatic.get(r, excess[r]) + 1
    for ts in struct.inside(a_set).values():  # less the edges closed inside A
        for t in ts:
            cyclomatic[comp_of[t[0]]] -= 1
    return not any(cyclomatic.values()) and crowded.issubset(cyclomatic)


# ---------------------------------------------------------------------------
# public interface


def is_strong(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> StrongReport:
    """Is `base` self-sufficient within the ambient set (whole universe by default)?

    The report always carries the exact deficiency: from the kernel for a
    valid spec, from the brute oracle otherwise.
    """
    b, w = _check_sets(struct, base, within)
    free = sorted(w - b)
    if not free:
        return StrongReport(True, Fraction(0))
    if not spec.valid:
        return brute_force_is_strong(spec, struct, b, w)
    deficiency, witness = _flow_nonempty_min(spec, struct, b, free)
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
    if not (w - b):
        return True
    if alpha_one_profile(spec, struct):
        return graph_strong(struct if len(w) == struct.n else struct.restrict(w), b)
    if spec.valid:  # strong exactly when the least minimizer adds nothing
        return b.issuperset(_solved(spec, struct, b, sorted(w - b)).least)
    return is_strong(spec, struct, b, w).verdict


def strong_subsets(
    spec: PredimensionSpec,
    struct: FinStructure,
    below: int,
    near: Optional[set[int]] = None,
) -> list[tuple[int, ...]]:
    """Strong subsets with fewer than `below` elements in (size, ids) order;
    with `near`, only the empty set and the subsets meeting `near`.
    A valid weight-1 pseudoforest lists them as unions of pieces
    (`_graph_strong_subsets`), every other structure filters every subset
    by `strong_verdict`."""
    return [c for c, _ in _listed(spec, struct, below, near)]


def strong_subsets_by_shape(
    spec: PredimensionSpec,
    struct: FinStructure,
    below: int,
    near: Optional[set[int]] = None,
) -> dict[tuple, list[tuple[int, ...]]]:
    """`strong_subsets` grouped by shape (`FinStructure.shape` of the
    sorted set, which is `canonical.pinned_shape`, fed the walk's
    instances on a valid pseudoforest), each group in ids order."""
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for c, found in _listed(spec, struct, below, near):
        groups.setdefault(struct.shape(c, found), []).append(c)
    return groups


def _listed(spec: PredimensionSpec, struct: FinStructure, below: int, near: Optional[set[int]]):
    """`strong_subsets`, each with the instances inside it from the
    weight-1 walk, else with None."""
    if valid_pseudoforest(spec, struct):
        return _graph_strong_subsets(struct, below, near)
    return [
        (c, None) for size in range(below) for c in combinations(struct.universe, size)
        if (near is None or not c or not near.isdisjoint(c)) and strong_verdict(spec, struct, c)
    ]


def _pieces(struct: FinStructure, elems: list[int], size: int, excess: int) -> list[tuple]:
    """The connected subsets of one component with at most `size` elements
    and the component's excess (instances less elements), sorted, each with
    the (symbol, instance) pairs inside it.  Each is grown once from its
    least element, through the neighbours of each added element that no
    earlier one reaches (ESU: Wernicke, IEEE/ACM TCBB 3(4), 2006); an added
    element brings the instances joining it to the piece."""
    adj, inc = struct.adjacency(), struct.incidence()
    out: list[tuple[tuple[int, ...], tuple]] = []
    if size < 1:
        return out

    def grow(sub: tuple[int, ...], ext: list[int], reach: frozenset[int], found: tuple) -> None:
        if len(found) - len(sub) == excess:
            out.append((tuple(sorted(sub)), found))
        if len(sub) < size:
            for i, w in enumerate(ext):
                more = [u for u in adj[w] if u > sub[0] and u not in reach]
                joins = tuple([e for e in inc[w] if e[1][0] in sub or e[1][1] in sub])
                grow(sub + (w,), ext[i + 1:] + more, reach | adj[w], found + joins)

    for v in elems:
        grow((v,), [u for u in adj[v] if u > v], adj[v] | {v}, ())
    return out


def _graph_strong_subsets(
    struct: FinStructure, below: int, near: Optional[set[int]]
) -> list[tuple[tuple[int, ...], tuple]]:
    """`strong_subsets` on a valid pseudoforest, with no strength test, each
    set with the (symbol, instance) pairs inside it, its pieces' pairs
    joined.

    By `graph_strong`, with no crowded component, A is strong exactly when,
    in each component C it meets, A & C has C's excess.  For a graph,
    e - |.| is its cyclomatic number less its number of components, and a
    subgraph of C has at most C's cyclomatic number, so that holds exactly
    when A & C is connected with C's cyclomatic number.  So the strong sets
    are the unions of such pieces (`_pieces`), one from each of some
    components.  The components with a piece meeting `near` are joined
    first, so a union that can no longer meet it stops."""
    _, comp_elems, excess, _ = struct.components()
    met = (lambda p: True) if near is None else (lambda p: not near.isdisjoint(p))
    comps = []
    for r, elems in comp_elems.items():
        # a component missing `near` joins only beside a piece that meets it: leave that piece room
        room = below - 1 if near is None or not near.isdisjoint(elems) else below - 2
        pieces = _pieces(struct, elems, room, excess[r])
        comps.append((not any(met(p) for p, _ in pieces), r, pieces))
    comps.sort()
    by_size: list[list] = [[] for _ in range(below)]  # (component position, piece, pairs, meets `near`)
    for pos, (_, _, pieces) in enumerate(comps):
        for p, found in pieces:
            by_size[len(p)].append((pos, p, found, met(p)))
    starts = [[row[0] for row in rows] for rows in by_size]
    last_near = max([pos for pos, c in enumerate(comps) if not c[0]], default=-1)
    listed: list[list] = [[] if size else [((), ())] for size in range(below)]  # by size

    def join(start: int, acc: tuple[int, ...], inner: tuple, left: int, hit: bool) -> None:
        for size in range(1, left + 1):
            rows = by_size[size]
            for i in range(bisect_left(starts[size], start), len(rows)):
                pos, piece, found, meets = rows[i]
                if not (hit or pos <= last_near):
                    break
                union, pairs, reached = acc + piece, inner + found, hit or meets
                if reached:
                    listed[len(union)].append((tuple(sorted(union)), pairs))
                if size < left and (reached or pos < last_near):
                    join(pos + 1, union, pairs, left - size, reached)

    join(0, (), (), below - 1, near is None)
    return [entry for rows in listed for entry in sorted(rows)]  # sets differ: pairs never compare


def in_class(spec: PredimensionSpec, struct: FinStructure) -> bool:
    """Whether every subset has nonnegative predimension."""
    return strong_verdict(spec, struct, ())


def _closure_net(spec: PredimensionSpec, struct: FinStructure, base, within=None):
    """The checked base and its network solved over the ambient set."""
    b, w = _check_sets(struct, base, within)
    if not spec.valid:
        raise SpecError("closure requires a submodular spec")
    return b, _solved(spec, struct, b, sorted(w - b))


def closure(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
    within: Optional[Iterable[int]] = None,
) -> tuple[int, ...]:
    """Least strong superset of `base` within the ambient set: the base plus
    the inclusion-least minimizer of delta(X/base), which by submodularity
    lies inside every strong superset."""
    b, net = _closure_net(spec, struct, base, within)
    return tuple(sorted(b.union(net.least)))


def closure_delta(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
) -> tuple[tuple[int, ...], Fraction]:
    """The closure of `base` in the whole universe and its predimension,
    read from the kernel's flow value rather than recounted."""
    b, net = _closure_net(spec, struct, base)
    value = net.value
    if net.base:  # contracted by the base, so the value is relative to it
        value += delta(spec, struct, b)
    return tuple(sorted(b.union(net.least))), value


def greatest_closure(
    spec: PredimensionSpec,
    struct: FinStructure,
    base: Iterable[int],
) -> tuple[int, ...]:
    """The base plus the inclusion-greatest minimizer of delta(X/base) in
    the whole universe: the elements cut off from the sink of the base's
    solved network."""
    b, net = _closure_net(spec, struct, base)
    return tuple(sorted(b.union(_greatest_minimizer(net))))
