"""Derandomized fuzzing of the flat-file parsers.

Every input either raises `ParseError` or parses to a value that survives a
serialize/parse round trip.  Inputs are raw text, and directive-shaped
documents in which up to three tokens are swapped for random, huge,
negative, non-ASCII-digit, fraction, hex or keyword tokens.
"""

from __future__ import annotations

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
