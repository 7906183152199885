"""Command-line front end over the flat-file grammars.

One verb per run.  Reports are sorted `key<TAB>value` lines on stdout, with
rationals printed as reduced `p/q`.  Verbs that emit a structure write it to
`--out` when given; otherwise the structure text goes to stdout with the
report prefixed as `#` comment lines, so the combined output still parses as
a structure file.

`main` loads `--spec` (pure relational without it) and then the
`structure` argument before any verb runs, so a verb reads both from its
parsed arguments.  Only `audit-all` accepts a spec that is not submodular.

Exit status: 0 on success, 1 when a property check comes back negative, 2 on
usage, parse, or precondition errors.  `--threads` (default 1) is accepted
and ignored: nothing runs in parallel.  The `--seed` of `build` and
`collapse-build` is accepted but does not change the deterministic schedule.

Every run is a fresh process that compiles what it imports, so a module is
imported at the top of this file only when every verb needs it; any other
layer is imported inside the verbs that run it, and `main` looks the
refusal classes of those layers up on the package only when an exception
reaches them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

import predim

from .predimension import PredimensionSpec, SpecError, delta
from .structures import Embedding, FinStructure, Signature, StructureError, graph_signature
from .textio import (
    ParseError,
    ascii_int,
    format_ids,
    parse_map,
    parse_mu,
    parse_spec,
    parse_structure,
    report_text,
    serialize_map,
    serialize_structure,
)

if TYPE_CHECKING:
    from .audits import AuditResult


class UsageError(Exception):
    """Bad flags or unreadable/malformed input files."""


# ---------------------------------------------------------------------------
# input plumbing


T = TypeVar("T")

# the spec of a verb run without --spec
_RELATIONAL = PredimensionSpec.make(relational=True)


def _load(parse: Callable[[str], T], path: Optional[str], default: Optional[T] = None) -> T:
    """The file at `path` read by `parse`, or `default` without a path; a
    parse error becomes a usage error naming the file."""
    if path is None:
        return default
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror or e}")
    try:
        return parse(text)
    except ParseError as e:
        raise UsageError(f"{path}: {e}")


def _parse_ids(text: str) -> tuple[int, ...]:
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(ascii_int(tok))
        except ValueError:
            raise UsageError(f"expected an element id, got {tok!r}")
    return tuple(out)


def _ids(args, name: str, absent=None):
    """The ids the flag `--name` gives, checked to be elements of the
    structure; `absent` when the flag is not given."""
    text = getattr(args, name)
    if text is None:
        return absent
    ids = _parse_ids(text)
    missing = [e for e in ids if e not in args.structure]
    if missing:
        raise UsageError(f"--{name} mentions non-elements {missing}")
    return ids


def _start(spec: PredimensionSpec, path: Optional[str], weight: Fraction = Fraction(1)) -> FinStructure:
    """The build seed at `path`; without one, an empty graph for relational
    specs and an empty annotated set otherwise (relations would only inflate
    the class count)."""
    if path:
        return _load(parse_structure, path)
    if spec.relational:
        return FinStructure(graph_signature(weight), (), {"E": []})
    return FinStructure(Signature(()), (), {})


def _emit(facts: dict, struct: Optional[FinStructure] = None, out: Optional[str] = None) -> None:
    report = report_text(facts)
    if struct is not None and out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize_structure(struct))
    elif struct is not None:
        report = "".join(f"# {line}\n" for line in report.splitlines()) + serialize_structure(struct)
    sys.stdout.write(report)


# ---------------------------------------------------------------------------
# verbs


def _cmd_delta(args) -> int:
    value = delta(args.spec, args.structure, _ids(args, "subset"))
    print(f"{value.numerator}/{value.denominator}")
    return 0


def _cmd_strong(args) -> int:
    from .strongsets import is_strong

    rep = is_strong(args.spec, args.structure, _ids(args, "base"), _ids(args, "within"))
    facts = {"verdict": rep.verdict, "deficiency": rep.deficiency}
    if rep.witness is not None:
        facts["witness"] = format_ids(rep.witness)
    _emit(facts)
    return 0 if rep.verdict else 1


def _cmd_closure(args) -> int:
    from .strongsets import closure

    _emit({"closure": format_ids(closure(args.spec, args.structure, _ids(args, "base"), _ids(args, "within")))})
    return 0


def _cmd_check_class(args) -> int:
    from .strongsets import in_class, is_strong

    ok = in_class(args.spec, args.structure)
    facts = {"in-class": ok}
    if not ok:
        rep = is_strong(args.spec, args.structure, ())
        facts["deficiency"] = rep.deficiency
        facts["witness"] = format_ids(rep.witness)
    _emit(facts)
    return 0 if ok else 1


def _cmd_dim(args) -> int:
    from .geometry import dim

    _emit({"dim": dim(args.spec, args.structure, _ids(args, "of"), _ids(args, "over", ()))})
    return 0


def _cmd_gcl(args) -> int:
    from .geometry import gcl

    _emit({"gcl": format_ids(gcl(args.spec, args.structure, _ids(args, "of", ())))})
    return 0


def _cmd_amalgamate(args) -> int:
    from .amalgams import free_amalgam

    base = _load(parse_structure, args.base)
    left = _load(parse_structure, args.left)
    right = _load(parse_structure, args.right)
    lmap = _load(parse_map, args.left_map)
    rmap = _load(parse_map, args.right_map)
    try:
        e1 = Embedding.make(base, left, lmap)
        e2 = Embedding.make(base, right, rmap)
    except StructureError as e:
        raise UsageError(f"embedding map rejected: {e}")
    res = free_amalgam(e1, e2)
    pos = {e: i for i, e in enumerate(sorted(res.amalgam.universe))}
    facts = {"n": len(res.amalgam.universe)}
    for a, b in res.left.pairs:
        facts[f"map.left.{a:05d}"] = pos[b]
    for a, b in res.right.pairs:
        facts[f"map.right.{a:05d}"] = pos[b]
    _emit(facts, res.amalgam, args.out)
    return 0


def _richness_facts(spec: PredimensionSpec, struct: FinStructure, k: int, ga=None) -> dict:
    """The level-k richness report on `struct` and its size, plus how the
    build `ga` that grew it ended."""
    from .builder import audit_richness

    rep = audit_richness(spec, struct, k)
    facts = {"k": rep.k, "n": len(struct.universe), "satisfied": rep.satisfied, "total": rep.total}
    if rep.total:
        facts["fraction"] = Fraction(rep.satisfied, rep.total)
    for i, (ids, code) in enumerate(rep.unmet):
        facts[f"unmet.{i:05d}"] = f"{format_ids(ids)} {code.hex()}"
    if ga is not None:
        facts["blocked"] = ga.blocked is not None
        facts["discharged"] = len(ga.history)
    return facts


def _cmd_build(args) -> int:
    from .builder import build_generic

    ga = build_generic(args.spec, _start(args.spec, args.start), args.k, args.budget)
    _emit(_richness_facts(args.spec, ga.current, args.k, ga), ga.current, args.out)
    return 0


def _cmd_audit(args) -> int:
    facts = _richness_facts(args.spec, args.structure, args.k)
    _emit(facts, args.structure, args.out)
    return 0 if facts["satisfied"] == facts["total"] else 1


def _audit_facts(facts: dict, results: list[AuditResult], prefix: str = "") -> None:
    """Each audit's counts and witness, flagged vacuous (with a warning):
    all at once when none of them checked anything, else each one that
    checked nothing."""
    for res in results:
        facts[f"{prefix}{res.name}.checked"] = res.checked
        facts[f"{prefix}{res.name}.violations"] = res.violations
        if res.witness:
            facts[f"{prefix}{res.name}.witness"] = res.witness
    if not any(res.checked for res in results):
        facts["vacuous"] = True
        print("warning: zero sample budgets, every audit is vacuous", file=sys.stderr)
        return
    for res in results:
        if not res.checked:
            facts[f"{prefix}{res.name}.vacuous"] = True
            print(f"warning: the {res.name} audit checked nothing and is vacuous", file=sys.stderr)


def _cmd_exchange_audit(args) -> int:
    import random

    from .audits import audit_dim_additivity, audit_exchange

    rng = random.Random(args.seed)
    source = lambda _rng: args.structure
    ex = audit_exchange(args.spec, source, rng, args.samples)
    ad = audit_dim_additivity(args.spec, source, rng, args.samples)
    facts: dict = {}
    _audit_facts(facts, [ex, ad])
    _emit(facts)
    return 1 if ex.violations or ad.violations else 0


def _cmd_enumerate_min(args) -> int:
    from .collapse import enumerate_minimal_extensions
    from .extensions import enumerate_extensions

    base = args.structure
    if args.biminimal:
        classes = enumerate_minimal_extensions(args.spec, base, args.max_new)
    else:
        classes = [c for c in enumerate_extensions(args.spec, base, args.max_new) if c.minimal]
    facts = {"classes": len(classes)}
    for i, c in enumerate(classes):
        p = f"class.{i:05d}."
        facts[p + "code"] = c.code.hex()
        facts[p + "new"] = len(c.new_elements)
        facts[p + "delta"] = c.delta_over_base
        facts[p + "minimal"] = c.minimal
        facts[p + "prealgebraic"] = c.prealgebraic
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        bpos = {e: i for i, e in enumerate(sorted(base.universe))}
        with open(os.path.join(args.out_dir, "base.structure"), "w", encoding="utf-8") as fh:
            fh.write(serialize_structure(base))
        for i, c in enumerate(classes):
            epos = {e: j for j, e in enumerate(sorted(c.ext.universe))}
            stem = os.path.join(args.out_dir, f"class{i:05d}")
            with open(stem + ".ext", "w", encoding="utf-8") as fh:
                fh.write(serialize_structure(c.ext))
            with open(stem + ".map", "w", encoding="utf-8") as fh:
                fh.write(serialize_map({bpos[e]: epos[e] for e in base.universe}))
    _emit(facts)
    return 0


def _cmd_check_mu(args) -> int:
    from .collapse import DEFAULT_MU, in_class_mu

    mu = _load(parse_mu, args.mu, DEFAULT_MU)
    rep = in_class_mu(args.spec, mu, args.structure, args.bound)
    facts = {"ok": rep.ok, "violations": len(rep.violations)}
    for i, (ids, code, count, limit) in enumerate(rep.violations):
        facts[f"violation.{i:05d}"] = f"{format_ids(ids)} {code.hex()} {count} {limit}"
    _emit(facts)
    return 0 if rep.ok else 1


def _cmd_count_copies(args) -> int:
    from .collapse import count_independent_copies
    from .extensions import classify_extension

    ext = _load(parse_structure, args.ext)
    cls = classify_extension(args.spec, ext, _parse_ids(args.base))
    count = count_independent_copies(args.spec, args.structure, _ids(args, "base"), cls, cap=args.cap)
    _emit({"count": count})
    return 0


def _cmd_collapse_build(args) -> int:
    from .collapse import DEFAULT_MU, build_collapsed, in_class_mu

    mu = _load(parse_mu, args.mu, DEFAULT_MU)
    start = _start(args.spec, args.start)
    bound = args.bound if args.bound is not None else args.k
    ga = build_collapsed(
        args.spec,
        mu,
        start,
        args.k,
        args.budget,
        bound=bound,
        cross_check=args.cross_check,
    )
    facts = _richness_facts(args.spec, ga.current, args.k, ga)
    mu_rep = in_class_mu(args.spec, mu, ga.current, bound)
    facts["mu-ok"] = mu_rep.ok
    facts["mu-violations"] = len(mu_rep.violations)
    _emit(facts, ga.current, args.out)
    return 0 if mu_rep.ok else 1


def _mu_build_audit(spec: PredimensionSpec, weight: Fraction, samples: int) -> AuditResult:
    """Collapsed build honors its caps: tight pendant cap when weights allow,
    incremental checking cross-checked against the full recount throughout,
    and a final full membership audit."""
    from .audits import AuditResult
    from .collapse import MuFunction, ThriftyError, build_collapsed, in_class_mu
    from .extensions import classify_extension

    if samples == 0:
        return AuditResult("mu", 0, 0)
    sig = graph_signature(weight)
    table = ()
    if weight == 1:
        ext = FinStructure(sig, (0, 1), {"E": [(0, 1)]})
        pendant = classify_extension(spec, ext, (0,))
        table = ((pendant.code, 3),)
    mu = MuFunction(table=table)
    try:
        ga = build_collapsed(
            spec, mu, _start(spec, None, weight), 2, 14, bound=3, cross_check=True
        )
    except ThriftyError as e:
        return AuditResult("mu", 1, 1, f"thrifty failure: {e}")
    rep = in_class_mu(spec, mu, ga.current, 3)
    witness = None
    if rep.violations:
        ids, code, count, limit = rep.violations[0]
        witness = f"{format_ids(ids)} {code.hex()} count={count} limit={limit}"
    return AuditResult("mu", 1, len(rep.violations), witness)


def _cmd_audit_all(args) -> int:
    import random

    from .audits import (
        audit_amalgamation,
        audit_dim_additivity,
        audit_exchange,
        audit_oracle_equivalence,
        audit_strong_laws,
        audit_submodularity,
        structure_source,
    )

    spec = args.spec
    try:
        weight = Fraction(args.weight)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --weight {args.weight!r}")
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    rng = random.Random(args.seed)
    n = args.samples
    facts: dict = {}
    results: list[AuditResult] = []

    def skip(name: str, why: str) -> None:
        facts[f"audit.{name}.note"] = f"skipped: {why}"

    source = structure_source(spec, weight=weight, max_n=args.max_n)
    results.append(audit_submodularity(spec, source, rng, n))
    if not spec.valid:
        for name in ("strong-laws", "oracle-equivalence", "amalgamation", "exchange", "dim-additivity", "mu"):
            skip(name, "spec not submodular")
    else:
        results.append(audit_strong_laws(spec, source, rng, n // 2))
        results.append(audit_oracle_equivalence(spec, source, rng, n))
        try:
            results.append(audit_amalgamation(spec, source, rng, n // 4))
        except ValueError as e:
            skip("amalgamation", str(e))
        try:
            results.append(audit_exchange(spec, source, rng, n // 2))
            results.append(audit_dim_additivity(spec, source, rng, n // 2))
        except predim.GeometryError as e:
            skip("exchange", str(e))
            skip("dim-additivity", str(e))
        if spec.relational:
            results.append(_mu_build_audit(spec, weight, n))
        else:
            skip("mu", "needs a relational spec")
    _audit_facts(facts, results, "audit.")
    failed = any(res.violations for res in results)
    facts["ok"] = not failed
    _emit(facts)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing


def _uint(text: str) -> int:
    try:
        value = ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def _seed_value(text: str) -> int:
    value = _uint(text)
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError("seeds are 64-bit unsigned integers")
    return value


def _build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with only `verb`'s sub-parser, or with every verb's when
    `verb` is None or names none (help, a typo, an empty command line)."""
    parser = argparse.ArgumentParser(
        prog="predim",
        description="Predimension toolkit: strength, closures, amalgams, generic builds, audits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def add(name: str, func, help: str, *, spec=True, structure=True, need=None, ids=""):
        """A verb's parser, or None when only another verb's is declared:
        `--spec` unless `spec` is false, `--threads`, `structure` unless
        `structure` is false, the required id flag `need`, the id flags `ids`."""
        if verb not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if spec:
            p.add_argument("--spec", metavar="FILE", help="predimension spec file (default: pure relational)")
        p.add_argument("--threads", type=_uint, default=1, help="accepted and ignored (nothing runs in parallel)")
        if structure:
            p.add_argument("structure")
        if need:
            p.add_argument(need, required=True, metavar="IDS")
        for flag in ids.split():
            p.add_argument(flag, metavar="IDS")
        return p

    def grow(name: str, func, help: str, *, capped=False):
        """A growth verb's parser, or None like `add`; `capped` adds `--mu` and `--bound`."""
        if p := add(name, func, help, structure=False):
            p.add_argument("--k", type=_uint, required=True)
            p.add_argument("--budget", type=_uint, required=True)
            p.add_argument("--seed", type=_seed_value, default=0, help="accepted; the schedule is deterministic")
            if capped:
                p.add_argument("--mu", metavar="FILE")
                p.add_argument("--bound", type=_uint)
            p.add_argument("--start", metavar="FILE")
            p.add_argument("--out", metavar="FILE")
        return p

    add("delta", _cmd_delta, "predimension of a structure or subset", ids="--subset")
    add("strong", _cmd_strong, "is the base self-sufficient in the ambient set", need="--base", ids="--within")
    add("closure", _cmd_closure, "least strong superset of the base", need="--base", ids="--within")
    add("check-class", _cmd_check_class, "does every subset have nonnegative predimension")
    add("dim", _cmd_dim, "geometric dimension of a subset over another", need="--of", ids="--over")
    add("gcl", _cmd_gcl, "geometric closure of a subset", ids="--of")

    if p := add("amalgamate", _cmd_amalgamate, "free amalgam of two factors over a base",
                spec=False, structure=False):
        p.add_argument("base")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--left-map", required=True, metavar="FILE")
        p.add_argument("--right-map", required=True, metavar="FILE")
        p.add_argument("--out", metavar="FILE")

    grow("build", _cmd_build, "grow a generic approximation by free extensions")

    if p := add("audit", _cmd_audit, "count satisfied extension obligations at level k"):
        p.add_argument("--k", type=_uint, required=True)
        p.add_argument("--out", metavar="FILE")

    if p := add("exchange-audit", _cmd_exchange_audit, "exchange and additivity laws on sampled triples"):
        p.add_argument("--samples", type=_uint, default=200)
        p.add_argument("--seed", type=_seed_value, default=0)

    if p := add("enumerate-min", _cmd_enumerate_min, "minimal extension classes of a base structure"):
        p.add_argument("--max-new", type=_uint, required=True)
        p.add_argument("--biminimal", action="store_true", help="prealgebraic classes least over this base")
        p.add_argument("--out-dir", metavar="DIR")

    if p := add("check-mu", _cmd_check_mu, "copy-count caps hold everywhere"):
        p.add_argument("--mu", metavar="FILE")
        p.add_argument("--bound", type=_uint, required=True)

    if p := add("count-copies", _cmd_count_copies, "independent strong copies of an extension over a base"):
        p.add_argument("--ext", required=True, metavar="FILE")
        p.add_argument("--base", required=True, metavar="IDS")
        p.add_argument("--cap", type=_uint)

    if p := grow(
        "collapse-build", _cmd_collapse_build, "grow inside the capped class via free-or-embed steps", capped=True
    ):
        p.add_argument("--cross-check", action="store_true", help="recount caps from scratch at every step")

    if p := add("audit-all", _cmd_audit_all, "seeded property audits, consolidated", structure=False):
        p.add_argument("--samples", type=_uint, default=200)
        p.add_argument("--seed", type=_seed_value, default=0)
        p.add_argument("--weight", default="1", help="relation weight for sampled structures (p/q)")
        p.add_argument("--max-n", type=_uint, default=10)

    return parser if sub.choices else _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        if hasattr(args, "spec"):
            parse = partial(parse_spec, allow_invalid=args.verb == "audit-all")
            args.spec = _load(parse, args.spec, _RELATIONAL)
        if hasattr(args, "structure"):
            args.structure = _load(parse_structure, args.structure)
        return args.func(args)
    except (UsageError, ParseError, StructureError, SpecError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        # running out of stack or memory is a refusal, not a failed property
        print(f"error: input too large ({type(e).__name__})", file=sys.stderr)
        return 2
    # The refusals of layers only some verbs load.  An except clause is
    # evaluated only when an exception reaches it, and looking one of these
    # classes up on the package loads its layer, so they come last.
    except predim.ThriftyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (predim.BuilderError, predim.MuError, predim.BiminimalError, predim.AmalgamError,
            predim.GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
