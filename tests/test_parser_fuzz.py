"""Derandomized fuzzing of the flat-file parsers.

Every input either raises `ParseError` or parses to a value that survives a
serialize/parse round trip.  Inputs are raw text, and directive-shaped
documents in which up to three tokens are swapped for random, huge,
negative, non-ASCII-digit, fraction, hex or keyword tokens.  Integer tokens,
in files and in the CLI's id and count flags, are `-?[0-9]+` in ASCII or an
error.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from predim import (
    ParseError,
    SpecError,
    parse_map,
    parse_mu,
    parse_spec,
    parse_structure,
    serialize_map,
    serialize_mu,
    serialize_spec,
    serialize_structure,
)
from predim.cli import main
from predim.textio import UNIVERSE_LIMIT

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)

_small = st.integers(0, 4).map(str)
_names = st.sampled_from(["E", "F", "R"])
_weights = st.sampled_from(["1/1", "1/2", "2/3", "3/1"])
_ints = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([UNIVERSE_LIMIT, UNIVERSE_LIMIT + 1, 2**31 - 1, 2**31 + 11, 10**30]),
).map(str)
_weird = st.one_of(
    _ints,
    st.sampled_from(["9" * 4301, "-" + "7" * 5000, "1" + "0" * 400]),
    st.sampled_from(["٣", "１", "²", "½", "1٠", "-١", "+2", "1_0", "0x1f"]),
    st.tuples(st.integers(-3, 4), st.integers(-2, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["1//2", "x/1", "/", "1/"]),
    st.binary(max_size=4).map(bytes.hex) | st.sampled_from(["0", "abc", "zz", "AB"]),
    st.sampled_from(["universe", "rel", "tup", "ann", "component", "relational", "matroid",
                     "on", "off", "mu", "mu-default", "linear", "weighted", "free"]),
    st.sampled_from(["linear", "uniform"]).flatmap(
        lambda w: st.sampled_from(["4", "0", "٣", "9" * 4301, "9" * 400, "1000000000000000003"]).map(
            lambda t: w + t
        )
    ),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=4),
)


@st.composite
def _shaped(draw, head, line):
    """A document of token rows with up to three tokens swapped for weird ones."""
    rows = [draw(head)] + draw(st.lists(line, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r]) - 1))
        rows[r][c] = draw(_weird)
    if draw(st.booleans()):
        rows.reverse()
    return "\n".join(" ".join(row) for row in rows) + "\n"


def _inputs(head, line):
    return st.one_of(st.text(max_size=60), _shaped(head, line))


_structures = _inputs(
    st.tuples(st.just("universe"), _small).map(list),
    st.one_of(
        st.tuples(st.just("rel"), _names, st.integers(1, 3).map(str), _weights).map(list),
        st.tuples(st.just("tup"), _names, st.lists(_small, min_size=1, max_size=3)).map(
            lambda t: [t[0], t[1], *t[2]]
        ),
        st.tuples(st.just("ann"), _small, st.lists(_small | _names, min_size=1, max_size=3)).map(
            lambda t: [t[0], t[1], *t[2]]
        ),
    ),
)
_specs = _inputs(
    st.tuples(st.just("component"), st.just("relational"), st.sampled_from(["on", "off"])).map(list),
    st.tuples(
        st.just("component"),
        st.just("matroid"),
        st.sampled_from(["free", "cardinality", "linear2", "linear5", "uniform1", "uniform2"]),
        st.sampled_from(["1/1", "1/2", "-1/1", "0/1", "-2/3"]),
    ).map(list),
)
_mus = _inputs(
    st.tuples(
        st.just("mu-default"),
        st.sampled_from(["linear", "weighted"]),
        st.lists(_small, min_size=2, max_size=3),
    ).map(lambda t: [t[0], t[1], *t[2]]),
    st.tuples(st.just("mu"), st.binary(min_size=1, max_size=4).map(bytes.hex), st.integers(0, 9).map(str)).map(
        list
    ),
)
_maps = _inputs(
    st.lists(_ints, min_size=2, max_size=2),
    st.lists(_ints, min_size=2, max_size=2),
)


def _round_trips(parse, serialize, text: str) -> None:
    try:
        value = parse(text)
    except ParseError:
        return
    assert parse(serialize(value)) == value


@FUZZ
@given(_structures)
def test_fuzz_parse_structure(text):
    _round_trips(parse_structure, serialize_structure, text)


@FUZZ
@given(_specs)
def test_fuzz_parse_spec(text):
    def lenient(t):
        return parse_spec(t, allow_invalid=True)

    _round_trips(lenient, serialize_spec, text)
    # the strict parse differs only in refusing specs with recorded violations
    try:
        spec = parse_spec(text)
    except ParseError:
        return
    except SpecError:
        assert not lenient(text).valid
        return
    assert parse_spec(serialize_spec(spec)) == spec


@FUZZ
@given(_mus)
def test_fuzz_parse_mu(text):
    _round_trips(parse_mu, serialize_mu, text)


@FUZZ
@given(_maps)
def test_fuzz_parse_map(text):
    _round_trips(parse_map, serialize_map, text)


# integer-shaped tokens: an optional sign, then ASCII digits, other decimal
# digits (Arabic-Indic, fullwidth, ...) and `_` separators
_int_tokens = st.tuples(
    st.sampled_from(["", "-", "+"]),
    st.text(
        alphabet=st.characters(whitelist_categories=("Nd",)) | st.sampled_from("0123456789_"),
        min_size=1,
        max_size=4,
    ),
).map("".join)


@FUZZ
@given(_int_tokens)
def test_fuzz_integer_tokens_are_ascii(tok):
    # a map entry and a spec coefficient, read back as the integer or refused
    reads = (
        (parse_map, f"{tok} 0\n", lambda m: next(iter(m))),
        (
            lambda t: parse_spec(t, allow_invalid=True),
            f"component relational on\ncomponent matroid free {tok}/1\n",
            lambda spec: spec.components[0][1],
        ),
    )
    for parse, text, value in reads:
        if re.fullmatch(r"-?[0-9]+", tok):
            assert value(parse(text)) == int(tok)
        else:
            with pytest.raises(ParseError):
                parse(text)


@pytest.mark.parametrize("tok", ["\u0660", "\u0663", "\uff11", "+2", "1_0", "\u00b2", "1\u0660"])
def test_structure_integer_fields_refuse_non_ascii(tok):
    docs = [
        f"universe {tok}\n",
        f"universe 3\nrel E {tok} 1/1\n",
        f"universe 3\nrel E 2 {tok}/1\n",
        f"universe 3\nrel E 2 1/{tok}\n",
        f"universe 3\nrel E 2 1/1\ntup E 0 {tok}\n",
        f"universe 3\nann {tok} 1\n",
    ]
    for doc in docs:
        with pytest.raises(ParseError):
            parse_structure(doc)
    for doc in (f"mu ab {tok}\n", f"mu-default linear 8 {tok}\n"):
        with pytest.raises(ParseError):
            parse_mu(doc)


@pytest.fixture
def twelve(tmp_path):
    path = tmp_path / "twelve.structure"
    # twelve elements, so that `1_0` read as 10 would name one
    path.write_text("universe 12\nrel E 2 1/1\ntup E 0 1\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "{f}", "--subset", "\u0660 1"],
        ["delta", "{f}", "--subset", "+0,1_0"],
        ["closure", "{f}", "--base", "\u0662", "--threads", "1"],
        ["closure", "{f}", "--base", "0", "--threads", "\uff11"],
        ["strong", "{f}", "--base", "0", "--within", "0 \uff12"],
        ["dim", "{f}", "--of", "1", "--over", "\u0660"],
        ["gcl", "{f}", "--of", "+1"],
        ["audit", "{f}", "--k", "\u0663"],
        ["exchange-audit", "{f}", "--seed", "1_0"],
    ],
    ids=[
        "delta-subset-arabic",
        "delta-subset-sign-underscore",
        "closure-base-arabic",
        "closure-threads-fullwidth",
        "strong-within-fullwidth",
        "dim-over-arabic",
        "gcl-of-sign",
        "audit-k-arabic",
        "exchange-audit-seed-underscore",
    ],
)
def test_cli_integer_flags_refuse_non_ascii(twelve, capsys, argv):
    try:
        rc = main([a.replace("{f}", twelve) for a in argv])
    except SystemExit as exc:  # argparse rejects a bad count flag
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err
