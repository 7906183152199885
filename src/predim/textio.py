"""Flat-file grammars and report formatting.

Structure files:
    universe <n>                      elements are 0..n-1, n <= UNIVERSE_LIMIT
    rel <name> <arity> <p>/<q>        one per symbol, weight as a fraction
    tup <name> <e1> ... <ek>          one per instance
    ann <element> <token> [token...]  oracle annotations
Spec files:
    component relational on|off
    component matroid <oracle-name> <p>/<q>
Mu files:
    mu <hex-code> <int>
    mu-default <formula-id> <params...>
`#` starts a comment everywhere; parsing is strict and unknown directives are
errors with line numbers.  Every integer, in a count, an id, a value or either
side of a fraction, is `-?[0-9]+` in ASCII digits: no `+` sign, no `_`
separators, no other digits.

Machine reports are sorted `key<TAB>value` lines; rationals always print as
`p/q` with q > 0 in lowest terms, integers included (`n/1`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .predimension import PredimensionSpec, SpecError, oracle_by_name
from .structures import FinStructure, Signature, StructureError

if TYPE_CHECKING:
    from .collapse import MuFunction


# Largest universe a structure file may declare; elements are built eagerly.
UNIVERSE_LIMIT = 1 << 16


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def ascii_int(token: str) -> int:
    """The integer spelled `-?[0-9]+` in ASCII digits, else ValueError."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def _parse_fraction(line: int, token: str) -> Fraction:
    parts = token.split("/")
    if len(parts) != 2:
        raise ParseError(line, f"expected a fraction p/q, got {token!r}")
    try:
        num, den = ascii_int(parts[0]), ascii_int(parts[1])
    except ValueError:
        raise ParseError(line, f"expected a fraction p/q, got {token!r}")
    if den <= 0:
        raise ParseError(line, f"fraction denominator must be positive: {token!r}")
    return Fraction(num, den)


def _parse_int(line: int, token: str, what: str) -> int:
    try:
        return ascii_int(token)
    except ValueError:
        raise ParseError(line, f"expected an integer {what}, got {token!r}")


def parse_structure(text: str) -> FinStructure:
    n = None
    rels: list[tuple[str, int]] = []
    weights: list[tuple[str, Fraction]] = []
    arities: dict[str, int] = {}
    tuples: dict[str, list[tuple[int, ...]]] = {}
    anns: dict[int, tuple[str, ...]] = {}
    for lineno, parts in _content_lines(text):
        head = parts[0]
        if head == "universe":
            if n is not None:
                raise ParseError(lineno, "duplicate universe line")
            if len(parts) != 2:
                raise ParseError(lineno, "universe takes exactly one count")
            n = _parse_int(lineno, parts[1], "universe size")
            if not 0 <= n <= UNIVERSE_LIMIT:
                raise ParseError(lineno, f"universe size must be between 0 and {UNIVERSE_LIMIT}")
        elif head == "rel":
            if len(parts) != 4:
                raise ParseError(lineno, "rel takes name, arity, and weight")
            name = parts[1]
            if name in arities:
                raise ParseError(lineno, f"duplicate symbol {name!r}")
            arity = _parse_int(lineno, parts[2], "arity")
            weight = _parse_fraction(lineno, parts[3])
            if arity < 1:
                raise ParseError(lineno, "arity must be positive")
            if weight <= 0:
                raise ParseError(lineno, "weights must be positive")
            arities[name] = arity
            rels.append((name, arity))
            weights.append((name, weight))
            tuples[name] = []
        elif head == "tup":
            if len(parts) < 2:
                raise ParseError(lineno, "tup needs a symbol name")
            name = parts[1]
            if name not in arities:
                raise ParseError(lineno, f"instance of undeclared symbol {name!r}")
            elems = tuple(_parse_int(lineno, t, "element id") for t in parts[2:])
            if len(elems) != arities[name]:
                raise ParseError(
                    lineno,
                    f"instance of {name!r} has {len(elems)} elements, arity is {arities[name]}",
                )
            if len(set(elems)) != len(elems):
                raise ParseError(lineno, f"instance repeats an element: {elems}")
            tuples[name].append(elems)
        elif head == "ann":
            if len(parts) < 3:
                raise ParseError(lineno, "ann needs an element and at least one token")
            elem = _parse_int(lineno, parts[1], "element id")
            if elem in anns:
                raise ParseError(lineno, f"duplicate annotation for element {elem}")
            anns[elem] = tuple(parts[2:])
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if n is None:
        raise ParseError(1, "missing universe line")
    for name, ts in tuples.items():
        for t in ts:
            bad = [e for e in t if not 0 <= e < n]
            if bad:
                raise ParseError(1, f"instance {t} of {name!r} uses out-of-range ids {bad}")
    for elem in anns:
        if not 0 <= elem < n:
            raise ParseError(1, f"annotation for out-of-range element {elem}")
    sig = Signature(tuple(rels), tuple(weights))
    return FinStructure(sig, range(n), tuples, anns)


def serialize_structure(struct: FinStructure) -> str:
    """Emit the structure with elements renumbered 0..n-1 in sorted order."""
    if struct.sig.ordered:
        raise StructureError("the structure file format has no ordered semantics")
    pos = {e: i for i, e in enumerate(struct.universe)}
    lines = [f"universe {struct.n}"]
    for name, arity in struct.sig.symbols:
        lines.append(f"rel {name} {arity} {format_fraction(struct.sig.weight(name))}")
    for name, _ in struct.sig.symbols:
        for t in sorted(tuple(sorted(pos[e] for e in inst)) for inst in struct.instances[name]):
            lines.append(f"tup {name} " + " ".join(str(e) for e in t))
    for e in struct.universe:
        toks = struct.annotation(e)
        if toks:
            lines.append(f"ann {pos[e]} " + " ".join(toks))
    return "\n".join(lines) + "\n"


def parse_spec(text: str, allow_invalid: bool = False) -> PredimensionSpec:
    relational = None
    components = []
    for lineno, parts in _content_lines(text):
        if parts[0] != "component":
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
        if len(parts) < 2:
            raise ParseError(lineno, "component needs a kind")
        kind = parts[1]
        if kind == "relational":
            if len(parts) != 3 or parts[2] not in ("on", "off"):
                raise ParseError(lineno, "component relational takes on|off")
            if relational is not None:
                raise ParseError(lineno, "duplicate relational component line")
            relational = parts[2] == "on"
        elif kind == "matroid":
            if len(parts) != 4:
                raise ParseError(lineno, "component matroid takes oracle name and coefficient")
            try:
                oracle = oracle_by_name(parts[2])
            except SpecError as exc:
                raise ParseError(lineno, str(exc))
            coef = _parse_fraction(lineno, parts[3])
            components.append((oracle, coef))
        else:
            raise ParseError(lineno, f"unknown component kind {kind!r}")
    if relational is None:
        raise ParseError(1, "missing 'component relational on|off' line")
    return PredimensionSpec.make(
        relational=relational, components=components, allow_invalid=allow_invalid
    )


def serialize_spec(spec: PredimensionSpec) -> str:
    lines = [f"component relational {'on' if spec.relational else 'off'}"]
    for oracle, coef in spec.components:
        lines.append(f"component matroid {oracle.name} {format_fraction(coef)}")
    return "\n".join(lines) + "\n"


def parse_mu(text: str) -> MuFunction:
    # collapse (and the builder under it) loads only when a mu file is read
    from .collapse import MU_FORMULAS, MuError, MuFunction

    table: dict[bytes, int] = {}
    default: tuple = ()  # (formula, params) once a mu-default line sets them
    for lineno, parts in _content_lines(text):
        if parts[0] == "mu":
            if len(parts) != 3:
                raise ParseError(lineno, "mu takes a hex code and a value")
            try:
                code = bytes.fromhex(parts[1])
            except ValueError:
                raise ParseError(lineno, f"bad hex code {parts[1]!r}")
            if code in table:
                raise ParseError(lineno, "duplicate mu code")
            table[code] = _parse_int(lineno, parts[2], "mu value")
        elif parts[0] == "mu-default":
            if default:
                raise ParseError(lineno, "duplicate mu-default line")
            if len(parts) < 2:
                raise ParseError(lineno, "mu-default takes a formula id and parameters")
            formula = parts[1]
            if formula not in MU_FORMULAS:
                raise ParseError(lineno, f"unknown mu formula {formula!r}")
            default = (formula, tuple(_parse_int(lineno, t, "formula parameter") for t in parts[2:]))
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    try:
        return MuFunction(tuple(sorted(table.items())), *default)
    except MuError as exc:
        raise ParseError(1, str(exc))


def serialize_mu(mu: MuFunction) -> str:
    lines = [f"mu-default {mu.formula} " + " ".join(str(p) for p in mu.params)]
    for code, value in mu.table:
        lines.append(f"mu {code.hex()} {value}")
    return "\n".join(lines) + "\n"


def parse_map(text: str) -> dict[int, int]:
    """Element map file: one `<source> <target>` pair per line."""
    out: dict[int, int] = {}
    for lineno, parts in _content_lines(text):
        if len(parts) != 2:
            raise ParseError(lineno, "map lines carry exactly two integers")
        src = _parse_int(lineno, parts[0], "map source")
        dst = _parse_int(lineno, parts[1], "map target")
        if src in out:
            raise ParseError(lineno, f"element {src} mapped twice")
        out[src] = dst
    return out


def serialize_map(mapping: Mapping[int, int]) -> str:
    return "".join(f"{a} {b}\n" for a, b in sorted(mapping.items()))


def format_fraction(value) -> str:
    fr = Fraction(value)
    return f"{fr.numerator}/{fr.denominator}"


def format_ids(ids: Iterable[int]) -> str:
    return "[" + " ".join(str(e) for e in sorted(ids)) + "]"


def report_text(facts: Mapping[str, object]) -> str:
    """One sorted `key<TAB>value` line per fact."""
    lines = []
    for key in sorted(facts):
        value = facts[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, Fraction):
            value = format_fraction(value)
        lines.append(f"{key}\t{value}")
    return "\n".join(lines) + "\n"
