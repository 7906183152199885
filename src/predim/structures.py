"""Finite relational structures: signatures, instances, annotations, embeddings.

predim's records are `typing.NamedTuple`s, or slotted `Record` subclasses
where they derive state, validate, extend a base class or mutate; the
stdlib's record decorator would cost every process the import of `inspect`
and one `exec` per class.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional, Sequence


class StructureError(ValueError):
    """Malformed signature, structure, instance, or embedding."""


class Record:
    """Equality, hash and repr over the fields named in `__match_args__`, for
    slotted records; assignment is refused, and `__init__` sets the slots in
    order through `_fill`.  A mutable record sets `__hash__ = None` and
    `__setattr__ = object.__setattr__`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other is self:  # as the field tuples would agree; hot in `find_embeddings`
            return True
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


class Signature(Record):
    """A finite relational signature.

    `symbols` lists (name, arity) pairs.  `weights` optionally assigns a
    positive rational weight to a symbol; unlisted symbols weigh 1.  `ordered`
    selects tuple semantics for the whole signature: unordered instances are
    sets of pairwise distinct elements, ordered instances are raw tuples and
    may repeat elements.
    """

    __match_args__ = ("symbols", "weights", "ordered")
    # lookups derived from the fields; not part of equality, hash or repr
    __slots__ = __match_args__ + ("names", "_arity", "_weight")

    def __init__(
        self,
        symbols: tuple[tuple[str, int], ...] = (),
        weights: tuple[tuple[str, Fraction], ...] = (),
        ordered: bool = False,
    ):
        names = [name for name, _ in symbols]
        if len(set(names)) != len(names):
            raise StructureError("duplicate relation symbol name")
        for name, arity in symbols:
            if not name or any(ch.isspace() for ch in name):
                raise StructureError(f"bad relation symbol name: {name!r}")
            if arity < 1:
                raise StructureError(f"relation {name} must have positive arity")
        seen = set()
        for name, weight in weights:
            if name not in dict(symbols):
                raise StructureError(f"weight given for unknown symbol {name}")
            if name in seen:
                raise StructureError(f"duplicate weight for symbol {name}")
            seen.add(name)
            if not isinstance(weight, Fraction) or weight <= 0:
                raise StructureError(f"weight of {name} must be a positive Fraction")
        # weight 1 is the default; drop explicit entries so equal signatures
        # compare equal no matter how they were written down
        if any(w == 1 for _, w in weights):
            weights = tuple((n, w) for n, w in weights if w != 1)
        self._fill(symbols, weights, ordered, tuple(names), dict(symbols), dict(weights))

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise StructureError(f"unknown relation symbol {name}") from None

    def weight(self, name: str) -> Fraction:
        if name in self._weight:
            return self._weight[name]
        self.arity(name)  # raises on unknown symbol
        return Fraction(1)


GRAPH_SIG = Signature((("E", 2),))


def graph_signature(weight: Fraction = Fraction(1)) -> Signature:
    if weight == 1:
        return GRAPH_SIG
    return Signature((("E", 2),), (("E", weight),))


def _normalize_instance(sig: Signature, name: str, elems: Sequence[int]) -> tuple[int, ...]:
    arity = sig.arity(name)
    tup = tuple(int(e) for e in elems)
    if len(tup) != arity:
        raise StructureError(f"instance of {name} has {len(tup)} elements, arity is {arity}")
    if sig.ordered:
        return tup
    if len(set(tup)) != arity:
        raise StructureError(f"unordered instance of {name} repeats an element: {tup}")
    return tuple(sorted(tup))


class FinStructure:
    """A finite structure over a fixed relational signature.

    Elements are integers.  Instances are kept in normal form (sorted tuples
    of distinct elements under unordered semantics, raw tuples under ordered
    semantics).  An annotation attaches an ordered tuple of string tokens to
    an element; matroid rank oracles interpret the tokens, the relational
    part ignores them.  Which instances lie inside a set is answered by
    `inside`, for delta, `restrict`, `Embedding.validate` and the kernel;
    `find_embeddings` checks each placed element against `incidence()`.
    """

    __slots__ = (
        "sig", "universe", "instances", "annotations", "_uset", "_index", "_comps", "_width",
        "_rows", "_sessions", "_decided",
    )

    def __init__(
        self,
        sig: Signature,
        universe: Iterable[int] = (),
        instances: Optional[Mapping[str, Iterable[Sequence[int]]]] = None,
        annotations: Optional[Mapping[int, Sequence[str]]] = None,
    ):
        uni = [int(e) for e in universe]
        uset = set(uni)
        if len(uset) != len(uni):
            raise StructureError("duplicate element in universe")
        inst: dict[str, frozenset[tuple[int, ...]]] = {name: frozenset() for name in sig.names}
        for name, tuples in (instances or {}).items():
            if name not in inst:
                raise StructureError(f"instances given for unknown symbol {name}")
            normed = frozenset(_normalize_instance(sig, name, t) for t in tuples)
            for t in normed:
                missing = set(t) - uset
                if missing:
                    raise StructureError(f"instance {t} of {name} uses non-elements {sorted(missing)}")
            inst[name] = normed
        ann: dict[int, tuple[str, ...]] = {}
        for elem, tokens in (annotations or {}).items():
            e = int(elem)
            if e not in uset:
                raise StructureError(f"annotation on non-element {e}")
            toks = tuple(str(t) for t in tokens)
            if not toks:
                raise StructureError(f"empty annotation on element {e}")
            for tok in toks:
                if not tok or any(ch.isspace() for ch in tok):
                    raise StructureError(f"bad annotation token {tok!r} on element {e}")
            ann[e] = toks
        self._set_slots(sig, tuple(sorted(uset)), frozenset(uset), inst, ann)

    @classmethod
    def _trusted(
        cls,
        sig: Signature,
        universe: tuple[int, ...],
        instances: dict[str, frozenset[tuple[int, ...]]],
        annotations: dict[int, tuple[str, ...]],
    ) -> "FinStructure":
        """A structure from parts already in normal form, without any check.

        Only for parts derived from a checked structure: a sorted universe,
        normalised instances inside it keyed in signature order, and checked
        annotations on its elements.
        """
        self = object.__new__(cls)
        self._set_slots(sig, universe, frozenset(universe), instances, annotations)
        return self

    def _set_slots(
        self,
        sig: Signature,
        universe: tuple[int, ...],
        uset: frozenset[int],
        instances: dict[str, frozenset[tuple[int, ...]]],
        annotations: dict[int, tuple[str, ...]],
    ) -> None:
        """Set every slot: the checked parts, and empty caches."""
        self.sig = sig
        self.universe = universe
        self._uset = uset
        self.instances = instances
        self.annotations = annotations
        self._index = None
        self._comps = None
        self._width: Optional[int] = None
        self._rows: dict = {}  # p -> {element: its vector mod p}, filled by LinearOracle.vector
        self._sessions: Optional[dict] = None  # strength sessions per spec, see strongsets
        self._decided: Optional[tuple] = None  # weight-1 obligation tables, see richness.Pseudoforest

    # -- basic views ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.universe)

    def __contains__(self, elem: int) -> bool:
        return elem in self._uset

    def __len__(self) -> int:
        return len(self.universe)

    def count(self, name: str) -> int:
        return len(self.instances[name])

    def all_instances(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        for name in self.sig.names:
            for t in sorted(self.instances[name]):
                yield name, t

    def annotation(self, elem: int) -> tuple[str, ...]:
        return self.annotations.get(elem, ())

    def _key(self):
        return (
            self.sig,
            self.universe,
            tuple((name, self.instances[name]) for name in self.sig.names),
            tuple(sorted(self.annotations.items())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinStructure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}:{len(self.instances[name])}" for name in self.sig.names)
        return f"FinStructure(n={self.n}, {counts})"

    # -- derived structures -----------------------------------------------

    def inside(self, subset: AbstractSet[int]) -> Mapping[str, frozenset[tuple[int, ...]]]:
        """Per symbol, in signature order, the instances inside `subset`, a set
        of elements: the structure's own sets for the whole universe, else
        read off `incidence()`, each instance once at its first element."""
        if len(subset) == len(self.universe):
            return self.instances
        found: dict[str, list] = {name: [] for name in self.sig.names}
        inc = self.incidence()
        for e in subset:
            for name, t in inc[e]:
                if t[0] == e and subset.issuperset(t):
                    found[name].append(t)
        for name, ts in found.items():
            found[name] = frozenset(ts)
        return found

    def shape(self, order: Sequence[int], found: Optional[Iterable[tuple[str, tuple[int, ...]]]] = None) -> tuple:
        """The annotations along `order`, then per symbol in signature order
        the sorted instances inside `order`, each element renamed to its
        place: the induced structure on `order` as a hashable key.  `found`,
        when given, lists the (symbol, instance) pairs inside `order`, each
        once, and spares the scan for them."""
        place = {v: p for p, v in enumerate(order)}.__getitem__
        norm = tuple if self.sig.ordered else sorted
        if found is None:
            inside = self.inside(set(order))
        else:
            inside = {name: [] for name in self.sig.names}
            for name, t in found:
                inside[name].append(t)
        ann = self.annotations.get
        return (
            tuple([ann(v, ()) for v in order]),
            tuple(tuple(sorted([tuple(norm(map(place, t))) for t in inside[name]])) for name in self.sig.names),
        )

    def restrict(self, subset: Iterable[int]) -> "FinStructure":
        """Induced substructure on `subset` (must consist of elements)."""
        sub = set(int(e) for e in subset)
        stray = sub - self._uset
        if stray:
            raise StructureError(f"restrict to non-elements {sorted(stray)}")
        uni = tuple(sorted(sub))
        ann = {e: self.annotations[e] for e in uni if e in self.annotations}
        return FinStructure._trusted(self.sig, uni, self.inside(sub), ann)

    def relabel(self, mapping: Mapping[int, int]) -> "FinStructure":
        """Rename elements by an injective map defined on the whole universe."""
        if set(mapping) != set(self.universe):
            raise StructureError("relabel map must be defined exactly on the universe")
        if len(set(mapping.values())) != len(mapping):
            raise StructureError("relabel map must be injective")
        inst = {
            name: [tuple(mapping[e] for e in t) for t in tuples]
            for name, tuples in self.instances.items()
        }
        ann = {mapping[e]: toks for e, toks in self.annotations.items()}
        return FinStructure(self.sig, mapping.values(), inst, ann)

    def extended(
        self,
        new_elements: Iterable[int] = (),
        new_instances: Optional[Mapping[str, Iterable[Sequence[int]]]] = None,
        new_annotations: Optional[Mapping[int, Sequence[str]]] = None,
    ) -> "FinStructure":
        """Copy with extra elements, instances, and annotations added."""
        new_elems = [int(e) for e in new_elements]
        clash = set(new_elems) & self._uset
        if clash:
            raise StructureError(f"extension reuses existing elements {sorted(clash)}")
        inst: dict[str, list] = {name: list(tuples) for name, tuples in self.instances.items()}
        for name, tuples in (new_instances or {}).items():
            inst.setdefault(name, []).extend(tuples)
        ann = dict(self.annotations)
        for e, toks in (new_annotations or {}).items():
            if int(e) in ann and tuple(toks) != ann[int(e)]:
                raise StructureError(f"conflicting annotation for element {e}")
            ann[int(e)] = toks
        return FinStructure(self.sig, list(self.universe) + new_elems, inst, ann)

    def _indexed(self):
        """(adjacency, incidence), computed on first use and kept."""
        if self._index is None:
            adj: dict[int, set[int]] = {e: set() for e in self.universe}
            inc: dict[int, list[tuple[str, tuple[int, ...]]]] = {e: [] for e in self.universe}
            for name, t in self.all_instances():
                uniq = set(t)
                for a in uniq:
                    adj[a].update(uniq)
                    inc[a].append((name, t))
            self._index = (
                MappingProxyType({e: frozenset(nbrs - {e}) for e, nbrs in adj.items()}),
                MappingProxyType({e: tuple(ts) for e, ts in inc.items()}),
            )
        return self._index

    def components(self) -> tuple[dict[int, int], dict[int, list[int]], dict[int, int], frozenset[int]]:
        """(component of each element, named by its least element; each
        component's sorted elements; each component's instances less its
        elements; the components where that is positive), computed from the
        index on first use and kept (read-only)."""
        if self._comps is None:
            adj = self.adjacency()
            comp_of: dict[int, int] = {}
            elems_of: dict[int, list[int]] = {}
            excess: dict[int, int] = {}
            for root in self.universe:
                if root in comp_of:
                    continue
                comp_of[root] = root
                elems = [root]
                for x in elems:
                    for y in adj[x]:
                        if y not in comp_of:
                            comp_of[y] = root
                            elems.append(y)
                elems.sort()
                elems_of[root] = elems
                excess[root] = sum(map(len, self.inside(set(elems)).values())) - len(elems)
            crowded = frozenset([r for r, c in excess.items() if c > 0])
            self._comps = (comp_of, elems_of, excess, crowded)
        return self._comps

    def annotation_width(self) -> int:
        """Tokens in the longest annotation, 0 without any (cached)."""
        if self._width is None:
            self._width = max((len(t) for t in self.annotations.values()), default=0)
        return self._width

    def adjacency(self) -> Mapping[int, frozenset[int]]:
        """Element co-occurrence graph over all instances (read-only, cached)."""
        return self._indexed()[0]

    def incidence(self) -> Mapping[int, tuple[tuple[str, tuple[int, ...]], ...]]:
        """Per element, the instances containing it in `all_instances` order
        (read-only, cached)."""
        return self._indexed()[1]


class Embedding(Record):
    """An induced embedding between structures over the same signature.

    Induced means instance preservation in both directions: the image of the
    source is a substructure of the target isomorphic to the source via the
    map.  Annotation agreement is not part of this notion; rank oracles apply
    their own compatibility check on top.
    """

    __match_args__ = ("source", "target", "pairs")
    # the pairs as a lookup; not part of equality, hash or repr
    __slots__ = __match_args__ + ("_map",)

    def __init__(self, source: FinStructure, target: FinStructure, pairs: tuple[tuple[int, int], ...]):
        self._fill(source, target, pairs, dict(pairs))

    @staticmethod
    def make(source: FinStructure, target: FinStructure, mapping: Mapping[int, int]) -> "Embedding":
        emb = Embedding(source, target, tuple(sorted((int(a), int(b)) for a, b in mapping.items())))
        emb.validate()
        return emb

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def __getitem__(self, elem: int) -> int:
        return self._map[elem]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(b for _, b in self.pairs)

    def apply(self, t: Sequence[int]) -> tuple[int, ...]:
        out = tuple(self._map[e] for e in t)
        return out if self.source.sig.ordered else tuple(sorted(out))

    def validate(self) -> None:
        if self.source.sig != self.target.sig:
            raise StructureError("embedding across different signatures")
        m = self.mapping
        if set(m) != set(self.source.universe):
            raise StructureError("embedding must be defined exactly on the source universe")
        if len(set(m.values())) != len(m):
            raise StructureError("embedding must be injective")
        if not set(m.values()).issubset(self.target._uset):
            raise StructureError("embedding hits non-elements of the target")
        inside = self.target.inside(set(m.values()))
        for name in self.source.sig.names:
            mapped = {self.apply(t) for t in self.source.instances[name]}
            if mapped - inside[name]:
                raise StructureError(f"embedding loses an instance of {name}")
            if inside[name] - mapped:
                raise StructureError(f"embedding image has an extra instance of {name}")



def find_embeddings(
    source: FinStructure,
    target: FinStructure,
    *,
    fixed: Optional[Mapping[int, int]] = None,
    compat: Optional[Callable[[dict[int, int]], bool]] = None,
    limit: Optional[int] = None,
) -> list[dict[int, int]]:
    """All induced embeddings of `source` into `target`, in a fixed order.

    `fixed` pins part of the map (typically a common base, pointwise).  Free
    source elements are assigned in sorted order; target candidates are tried
    in sorted order, so the result list order is deterministic.  `compat` filters
    completed maps (rank-oracle compatibility goes here).  `limit` stops the
    search once that many embeddings are found.
    """
    if source.sig != target.sig:
        raise StructureError("embedding search across different signatures")
    fixed = {int(a): int(b) for a, b in (fixed or {}).items()}
    for a, b in fixed.items():
        if a not in source._uset:
            raise StructureError(f"fixed point {a} is not a source element")
        if b not in target._uset:
            raise StructureError(f"fixed image {b} is not a target element")
    if len(set(fixed.values())) != len(fixed):
        raise StructureError("fixed part of embedding is not injective")

    free = [e for e in source.universe if e not in fixed]
    ordered = source.sig.ordered
    source_inc = source.incidence()
    target_adj, target_inc = target._indexed()
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def place(a: int, b: int) -> bool:
        # Map a to b and keep the map when it is still induced: the source
        # instances at a with every element assigned land on target
        # instances, and are as many as the target instances at b inside the
        # image.  The map is injective, so these are then the same instances.
        assignment[a] = b
        used.add(b)
        closed = 0
        for name, t in source_inc[a]:
            image = [assignment.get(x) for x in t]
            if None in image:
                continue
            if (tuple(image) if ordered else tuple(sorted(image))) not in target.instances[name]:
                return False
            closed += 1
        return closed == len([t for _, t in target_inc[b] if used.issuperset(t)])

    def unassign(a: int) -> None:
        used.discard(assignment.pop(a))

    # The fixed part enters one pair at a time and is checked like the rest.
    for a, b in fixed.items():
        if not place(a, b):
            return []

    results: list[dict[int, int]] = []
    if not free:
        if compat is None or compat(assignment):
            results.append(assignment)
        return results

    def candidates(a: int) -> Iterator[int]:
        # Every instance at a must land on a target instance, so an image of
        # a co-occurs with the image of each assigned co-member.
        anchors = {assignment[x] for _, t in source_inc[a] for x in t if x in assignment}
        # anchors are used, so leaving them out of the pool changes nothing
        pool = sorted(frozenset.intersection(*(target_adj[b] for b in anchors))) if anchors else target.universe
        if source.n == target.n:  # an induced embedding is onto, an isomorphism: it keeps incidence counts
            return (b for b in pool if len(target_inc[b]) == len(source_inc[a]))
        return iter(pool)

    # Depth-first over the free elements with an explicit stack of candidate
    # iterators, one per assigned step, so long sources cannot exhaust the
    # interpreter's recursion limit.
    last = len(free) - 1
    stack = [candidates(free[0])]
    while stack:
        step = len(stack) - 1
        a = free[step]
        for b in stack[-1]:
            if b in used:
                continue
            if place(a, b):
                break
            unassign(a)
        else:
            stack.pop()
            if stack:
                unassign(free[step - 1])
            continue
        if step < last:
            stack.append(candidates(free[step + 1]))
            continue
        final = dict(assignment)
        if compat is None or compat(final):
            results.append(final)
            if limit is not None and len(results) >= limit:
                return results
        unassign(a)
    return results
