"""The extension-class walk as it was before enumeration pruned, frozen as an
oracle: every one of the 2^c candidate-instance masks is built and coded, and
each class carries two more tags, whether its base is strong and whether its
extension is in the nonnegative class.  `enumerate_extensions` must return
exactly the classes with both tags set, in the same order, with the same
representatives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple, Sequence

from predim import FinStructure, LinearOracle, PredimensionSpec, SpecError, code_over_base, delta, find_embeddings
from predim.extensions import is_minimal_extension
from predim.predimension import rank_compat
from predim.strongsets import in_class, strong_verdict

CANDIDATE_LIMIT = 22


class OracleClass(NamedTuple):
    base: FinStructure
    ext: FinStructure
    new_elements: tuple[int, ...]
    delta_over_base: Fraction
    base_strong: bool
    ext_in_class: bool
    minimal: bool
    prealgebraic: bool
    code: bytes


def _candidate_instances(sig, elems: Sequence[int], new: Sequence[int]):
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


def oracle_palette(prime: int):
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


def oracle_extensions(spec: PredimensionSpec, base: FinStructure, max_new: int) -> list[OracleClass]:
    """All extension classes of `base` by 1..max_new fresh elements, tagged."""
    primes = [o.p for o, _ in spec.components if isinstance(o, LinearOracle)]
    palette = oracle_palette(primes[0]) if primes else None
    out: list[OracleClass] = []
    start = max(base.universe, default=-1) + 1
    fixed = {e: e for e in base.universe}
    for m in range(1, max_new + 1):
        new = tuple(range(start, start + m))
        cands = _candidate_instances(base.sig, list(base.universe) + list(new), new)
        if len(cands) > CANDIDATE_LIMIT:
            raise SpecError(
                f"extension enumeration refused: {len(cands)} candidate instances > {CANDIDATE_LIMIT}"
            )
        ann_options = palette(base, new) if palette else [{}]
        reps: dict[bytes, FinStructure] = {}
        shapes: dict[bytes, list[FinStructure]] = {}
        for mask in range(1 << len(cands)):
            chosen: dict[str, list] = {}
            for i, (name, t) in enumerate(cands):
                if mask >> i & 1:
                    chosen.setdefault(name, []).append(t)
            plain = base.extended(new, chosen)
            plain_code = code_over_base(plain, base.universe)
            if spec.components:
                mates = shapes.setdefault(plain_code, [])
            for ann in ann_options:
                ext = base.extended(new, chosen, ann) if ann else plain
                if spec.components:
                    if any(_same_rank_pattern(spec, ext, other, fixed) for other in mates):
                        continue
                    mates.append(ext)
                reps.setdefault(plain_code if ext is plain else code_over_base(ext, base.universe), ext)
        kept = [_classify(spec, base, ext, new, code) for code, ext in reps.items()]
        out.extend(sorted(kept, key=lambda c: c.code))
    return out


def _same_rank_pattern(spec, ext, other, fixed) -> bool:
    return bool(find_embeddings(ext, other, fixed=fixed, compat=rank_compat(spec, ext, other), limit=1))


def _classify(spec, base, ext, new, code) -> OracleClass:
    d = delta(spec, ext) - delta(spec, ext, base.universe)
    minimal = is_minimal_extension(spec, ext, base.universe)
    base_strong = minimal or strong_verdict(spec, ext, base.universe)
    return OracleClass(
        base=base,
        ext=ext,
        new_elements=new,
        delta_over_base=d,
        base_strong=base_strong,
        ext_in_class=in_class(spec, ext),
        minimal=minimal,
        prealgebraic=(d == 0),
        code=code,
    )
