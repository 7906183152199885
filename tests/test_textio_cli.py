from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from predim import (
    FinStructure,
    MuFunction,
    ParseError,
    Signature,
    canonical_code,
    classify_extension,
    parse_map,
    parse_mu,
    parse_spec,
    parse_structure,
    report_text,
    serialize_map,
    serialize_mu,
    serialize_spec,
    serialize_structure,
)
from predim.audits import IN_CLASS_DRAWS
from predim.cli import main
from predim.textio import UNIVERSE_LIMIT

from conftest import graph, spec_alpha, spec_fusion, vectors

F = Fraction

K3_TEXT = """\
universe 3
rel E 2 1/1
tup E 0 1
tup E 1 2
tup E 0 2
"""

ALPHA_SPEC = "component relational on\n"
FUSION_SPEC = """\
component relational off
component matroid linear5 1/1
component matroid free 1/1
component matroid cardinality -1/1
"""


def test_structure_roundtrip():
    g = graph(4, [(0, 1), (1, 2)], weight=F(2, 3))
    again = parse_structure(serialize_structure(g))
    assert again == g
    v = vectors((1, 0), (0, 1))
    assert parse_structure(serialize_structure(v)) == v


def test_structure_parse_frozen_example():
    k3 = parse_structure(K3_TEXT)
    assert k3 == graph(3, [(0, 1), (1, 2), (0, 2)])


def test_structure_serializer_renumbers():
    g = graph(3, [(0, 1), (1, 2)]).relabel({0: 10, 1: 20, 2: 30})
    assert parse_structure(serialize_structure(g)) == graph(3, [(0, 1), (1, 2)])


def test_structure_serializer_refuses_ordered():
    sig = Signature((("R", 2),), ordered=True)
    s = FinStructure(sig, (0, 1), {"R": [(1, 0)]})
    with pytest.raises(Exception):
        serialize_structure(s)


def test_structure_parse_errors_carry_line_numbers():
    bad = "universe 2\nrel E 2 1/1\ntup E 0 5\n"
    with pytest.raises(ParseError) as info:
        parse_structure(bad)
    assert "out-of-range" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_structure("universe 1\nuniverse 2\n")
    assert "line 2" in str(info.value)
    with pytest.raises(ParseError):
        parse_structure("rel E 2 1/1\n")  # no universe
    with pytest.raises(ParseError):
        parse_structure("universe 2\ntup E 0 1\n")  # undeclared symbol
    with pytest.raises(ParseError):
        parse_structure("universe 2\nrel E 2 0/1\n")  # nonpositive weight
    with pytest.raises(ParseError):
        parse_structure("universe 2\nwhatever\n")


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nuniverse 2\nrel E 2 1/1\n  # indented comment\ntup E 0 1\n"
    assert parse_structure(text) == graph(2, [(0, 1)])


def test_spec_roundtrip_and_errors():
    spec = parse_spec(FUSION_SPEC)
    assert spec == spec_fusion()
    assert parse_spec(serialize_spec(spec)) == spec
    assert serialize_spec(spec) == FUSION_SPEC
    assert parse_spec(ALPHA_SPEC) == spec_alpha()
    with pytest.raises(ParseError):
        parse_spec("component matroid free 1/1\n")  # missing relational line
    with pytest.raises(ParseError):
        parse_spec("component relational maybe\n")
    with pytest.raises(ParseError):
        parse_spec("component relational on\ncomponent matroid linear9 1/1\n")
    # invalid combinations parse only when explicitly allowed
    from predim import SpecError

    bent = "component relational on\ncomponent matroid uniform2 -1/1\n"
    with pytest.raises(SpecError):
        parse_spec(bent)
    spec = parse_spec(bent, allow_invalid=True)
    assert not spec.valid


def test_mu_roundtrip_and_errors():
    mu = MuFunction.from_dict({b"ab": 3}, formula="linear", params=(2, 1))
    again = parse_mu(serialize_mu(mu))
    assert again == mu
    with pytest.raises(ParseError):
        parse_mu("mu zz 3\n")  # bad hex
    with pytest.raises(ParseError):
        parse_mu("mu 6162 0\n")  # zero cap
    with pytest.raises(ParseError):
        parse_mu("mu-default nope\n")


def test_map_roundtrip_and_errors():
    m = {3: 7, 1: 2}
    assert parse_map(serialize_map(m)) == m
    with pytest.raises(ParseError):
        parse_map("1 2 3\n")
    with pytest.raises(ParseError):
        parse_map("1 2\n1 5\n")


def test_report_text_format():
    out = report_text({"b": F(1, 2), "a": True, "c": 7})
    assert out == "a\ttrue\nb\t1/2\nc\t7\n"


# -- command-line driver ----------------------------------------------------


@pytest.fixture
def files(tmp_path):
    k3 = tmp_path / "k3.structure"
    k3.write_text(K3_TEXT)
    k4 = tmp_path / "k4.structure"
    k4.write_text(serialize_structure(graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])))
    spec = tmp_path / "alpha.spec"
    spec.write_text(ALPHA_SPEC)
    fusion = tmp_path / "fusion.spec"
    fusion.write_text(FUSION_SPEC)
    return tmp_path


def test_cli_delta(files, capsys):
    assert main(["delta", "--spec", str(files / "alpha.spec"), str(files / "k3.structure")]) == 0
    assert capsys.readouterr().out == "0/1\n"


def test_cli_delta_subset(files, capsys):
    rc = main(
        ["delta", "--spec", str(files / "alpha.spec"), "--subset", "0,1", str(files / "k3.structure")]
    )
    assert rc == 0
    assert capsys.readouterr().out == "1/1\n"


def test_cli_strong_and_closure(files, capsys):
    rc = main(
        ["strong", "--spec", str(files / "alpha.spec"), "--base", "0", str(files / "k4.structure")]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict\tfalse" in out
    assert "deficiency\t-3/1" in out
    assert "witness\t[1 2 3]" in out
    rc = main(
        ["closure", "--spec", str(files / "alpha.spec"), "--base", "0", str(files / "k4.structure")]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "closure\t[0 1 2 3]" in out


def test_cli_check_class(files, capsys):
    assert main(["check-class", "--spec", str(files / "alpha.spec"), str(files / "k3.structure")]) == 0
    out = capsys.readouterr().out
    assert "in-class\ttrue" in out
    assert main(["check-class", "--spec", str(files / "alpha.spec"), str(files / "k4.structure")]) == 1
    out = capsys.readouterr().out
    assert "in-class\tfalse" in out
    assert "witness\t[0 1 2 3]" in out


def test_cli_structure_output_embeds_report(files, capsys):
    rc = main(
        [
            "build",
            "--spec",
            str(files / "alpha.spec"),
            "--k",
            "2",
            "--budget",
            "20",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # report rides along as comments, so the stream still parses
    built = parse_structure(out)
    assert built.n == 4
    assert "# fraction\t1/1" in out


def test_cli_build_out_file(files, tmp_path, capsys):
    dest = tmp_path / "out.structure"
    rc = main(
        [
            "build",
            "--spec",
            str(files / "alpha.spec"),
            "--k",
            "2",
            "--budget",
            "20",
            "--out",
            str(dest),
        ]
    )
    assert rc == 0
    report = capsys.readouterr().out
    assert "fraction\t1/1" in report
    assert "#" not in report
    assert parse_structure(dest.read_text()).n == 4


def test_cli_audit(files, capsys):
    rc = main(
        [
            "audit",
            "--spec",
            str(files / "alpha.spec"),
            "--k",
            "2",
            str(files / "k3.structure"),
        ]
    )
    assert rc == 1  # triangle alone misses most level-2 obligations
    out = capsys.readouterr().out
    assert "satisfied" in out and "unmet.00000" in out


def test_cli_amalgamate(files, tmp_path, capsys):
    base = tmp_path / "base.structure"
    base.write_text("universe 1\nrel E 2 1/1\n")
    pend = tmp_path / "pend.structure"
    pend.write_text("universe 2\nrel E 2 1/1\ntup E 0 1\n")
    lmap = tmp_path / "l.map"
    lmap.write_text("0 0\n")
    rc = main(
        [
            "amalgamate",
            str(base),
            str(pend),
            str(pend),
            "--left-map",
            str(lmap),
            "--right-map",
            str(lmap),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    star = parse_structure(out)
    assert star.n == 3
    assert star.count("E") == 2
    assert "# map.right.00001\t2" in out


def test_cli_check_mu(files, tmp_path, capsys):
    spec = spec_alpha()
    pend_code = classify_extension(spec, graph(2, [(0, 1)]), [0]).code
    mu = tmp_path / "tight.mu"
    mu.write_text(f"mu-default linear 8 4\nmu {pend_code.hex()} 2\n")
    star = tmp_path / "star.structure"
    star.write_text(serialize_structure(graph(4, [(0, 1), (0, 2), (0, 3)])))
    rc = main(
        [
            "check-mu",
            "--spec",
            str(files / "alpha.spec"),
            "--mu",
            str(mu),
            "--bound",
            "2",
            str(star),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "ok\tfalse" in out
    assert "violation.00000\t[0]" in out
    # K4 is outside the class: precondition failure, not a violation
    rc = main(
        [
            "check-mu",
            "--spec",
            str(files / "alpha.spec"),
            "--mu",
            str(mu),
            "--bound",
            "2",
            str(files / "k4.structure"),
        ]
    )
    assert rc == 2


def test_cli_count_copies(files, tmp_path, capsys):
    star = tmp_path / "star.structure"
    star.write_text(serialize_structure(graph(4, [(0, 1), (0, 2), (0, 3)])))
    ext = tmp_path / "pend.structure"
    ext.write_text("universe 2\nrel E 2 1/1\ntup E 0 1\n")
    rc = main(
        [
            "count-copies",
            "--spec",
            str(files / "alpha.spec"),
            "--base",
            "0",
            "--ext",
            str(ext),
            str(star),
        ]
    )
    assert rc == 0
    assert "count\t3" in capsys.readouterr().out


@pytest.mark.parametrize("cap, count", [(None, 5), (2, 3), (9, 5)])
def test_cli_count_copies_stops_past_the_cap(files, tmp_path, capsys, cap, count):
    # past N copies the count stops and reports N + 1
    star = tmp_path / "star5.structure"
    star.write_text(serialize_structure(graph(6, [(0, leaf) for leaf in range(1, 6)])))
    ext = tmp_path / "pend.structure"
    ext.write_text("universe 2\nrel E 2 1/1\ntup E 0 1\n")
    argv = ["count-copies", "--spec", str(files / "alpha.spec"), "--base", "0", "--ext", str(ext), str(star)]
    assert main(argv + ([] if cap is None else ["--cap", str(cap)])) == 0
    assert capsys.readouterr().out == f"count\t{count}\n"


def test_cli_exit_codes_for_bad_input(files, tmp_path, capsys):
    # missing file
    assert main(["delta", "--spec", str(files / "alpha.spec"), str(tmp_path / "nope")]) == 2
    capsys.readouterr()
    # unparseable structure
    bad = tmp_path / "bad.structure"
    bad.write_text("universe x\n")
    assert main(["delta", "--spec", str(files / "alpha.spec"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.structure" in err
    # bad ids
    assert (
        main(["delta", "--spec", str(files / "alpha.spec"), "--subset", "0,9", str(files / "k3.structure")])
        == 2
    )
    capsys.readouterr()
    # usage errors from argparse
    with pytest.raises(SystemExit) as info:
        main(["delta"])
    assert info.value.code == 2
    capsys.readouterr()


def test_cli_invalid_spec_guard(files, tmp_path, capsys):
    bent = tmp_path / "bent.spec"
    bent.write_text("component relational on\ncomponent matroid uniform2 -1/1\n")
    assert main(["delta", "--spec", str(bent), str(files / "k3.structure")]) == 2
    capsys.readouterr()
    # audit-all accepts it and reports the submodularity break
    rc = main(
        [
            "audit-all",
            "--spec",
            str(bent),
            "--samples",
            "200",
            "--seed",
            "3",
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "audit.submodularity.violations" in out
    assert "audit.strong-laws.note\tskipped: spec not submodular" in out


def test_cli_audit_all_clean(files, capsys):
    rc = main(["audit-all", "--spec", str(files / "alpha.spec"), "--samples", "60", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok\ttrue" in out
    assert "audit.submodularity.checked\t60" in out


def test_cli_audit_all_zero_samples_warns(files, capsys):
    rc = main(["audit-all", "--spec", str(files / "alpha.spec"), "--samples", "0"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "vacuous\ttrue" in captured.out
    assert "vacuous" in captured.err


def test_cli_exchange_audit_zero_samples_is_vacuous(files, capsys):
    argv = ["exchange-audit", "--spec", str(files / "alpha.spec"), "--samples", "0", str(files / "k3.structure")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "dim-additivity.checked\t0\ndim-additivity.violations\t0\n"
        "exchange.checked\t0\nexchange.violations\t0\nvacuous\ttrue\n"
    )
    assert captured.err == "warning: zero sample budgets, every audit is vacuous\n"


def test_cli_audit_refuses_level_zero(files, capsys):
    assert main(["audit", "--spec", str(files / "alpha.spec"), "--k", "0", str(files / "k3.structure")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: level k must be at least 1\n"


def test_cli_audit_all_refuses_max_n_zero(files, capsys):
    # the sampled structures need at least one element
    rc = main(["audit-all", "--spec", str(files / "alpha.spec"), "--max-n", "0", "--samples", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: --max-n must be at least 1\n"


def test_cli_threads_do_not_change_output(files, capsys, monkeypatch):
    argv = ["audit-all", "--spec", str(files / "alpha.spec"), "--samples", "80", "--seed", "7"]
    assert main(argv + ["--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert main(argv + ["--threads", "4"]) == 0
    four = capsys.readouterr().out
    assert one == four
    monkeypatch.setenv("PREDIM_THREADS", "8")
    assert main(argv) == 0
    assert capsys.readouterr().out == one


def test_cli_gcl_and_dim(files, capsys):
    rc = main(
        ["dim", "--spec", str(files / "alpha.spec"), "--of", "0", str(files / "k3.structure")]
    )
    assert rc == 0
    assert "dim\t0" in capsys.readouterr().out
    rc = main(
        ["gcl", "--spec", str(files / "alpha.spec"), "--of", "0", str(files / "k3.structure")]
    )
    assert rc == 0
    assert "gcl\t[0 1 2]" in capsys.readouterr().out


def test_cli_geometry_refusal_is_a_usage_error(tmp_path, capsys):
    # a half-weight edge gives no integer delta, so no pregeometry
    half = tmp_path / "half.structure"
    half.write_text("universe 2\nrel E 2 1/2\ntup E 0 1\n")
    for verb in ("dim", "gcl"):
        assert main([verb, str(half), "--of", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weight of E is not an integer\n"


def test_cli_enumerate_min(files, tmp_path, capsys):
    point = tmp_path / "point.structure"
    point.write_text("universe 1\nrel E 2 1/1\n")
    outdir = tmp_path / "classes"
    rc = main(
        [
            "enumerate-min",
            "--spec",
            str(files / "alpha.spec"),
            "--max-new",
            "2",
            "--biminimal",
            "--out-dir",
            str(outdir),
            str(point),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "classes\t1" in out
    ext = parse_structure((outdir / "class00000.ext").read_text())
    assert ext.n == 2 and ext.count("E") == 1


def test_cli_collapse_build_and_roundtrip(files, tmp_path, capsys):
    spec = spec_alpha()
    pend_code = classify_extension(spec, graph(2, [(0, 1)]), [0]).code
    mu = tmp_path / "mu3.mu"
    mu.write_text(f"mu-default linear 8 4\nmu {pend_code.hex()} 3\n")
    start = tmp_path / "edge.structure"
    start.write_text("universe 2\nrel E 2 1/1\ntup E 0 1\n")
    dest = tmp_path / "collapsed.structure"
    rc = main(
        [
            "collapse-build",
            "--spec",
            str(files / "alpha.spec"),
            "--mu",
            str(mu),
            "--start",
            str(start),
            "--k",
            "2",
            "--budget",
            "14",
            "--bound",
            "2",
            "--cross-check",
            "--out",
            str(dest),
        ]
    )
    assert rc == 0
    report = capsys.readouterr().out
    assert "mu-ok\ttrue" in report
    built = parse_structure(dest.read_text())
    # serialization canonicalizes ids but preserves the structure
    assert canonical_code(parse_structure(serialize_structure(built))) == canonical_code(built)


@pytest.mark.parametrize(
    "oracle",
    ["linear" + "9" * 400, "uniform" + "9" * 5000, "linear1000000000000000003"],
    ids=["linear-400-digits", "uniform-5000-digits", "linear-19-digits"],
)
def test_cli_refuses_oversized_oracle_names(files, tmp_path, capsys, oracle):
    # an oversized modulus or parameter is a parse error, not a traceback or
    # a trial division that never ends
    one = tmp_path / "one.structure"
    one.write_text("universe 1\n")
    spec = tmp_path / "big.spec"
    spec.write_text(f"component relational on\ncomponent matroid {oracle} 1/1\n")
    assert main(["delta", "--spec", str(spec), str(one)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_universe_cap():
    with pytest.raises(ParseError) as info:
        parse_structure(f"universe {UNIVERSE_LIMIT + 1}\n")
    assert "line 1" in str(info.value)


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_cli_exhausted_resources_exit_2(files, capsys, monkeypatch, exc):
    # exit 1 means a checked property failed; running out of stack or memory
    # is a refusal, reported in one line
    def boom(args):
        raise exc()

    monkeypatch.setattr("predim.cli._cmd_delta", boom)
    assert main(["delta", "--spec", str(files / "alpha.spec"), str(files / "k3.structure")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# Refusals raised by layers that only some verbs load, each run as
# `python -m predim.cli` in a fresh interpreter, so that `main` must catch
# a class whose module the run has not imported up front.
REFUSALS = [
    # BuilderError: the start structure is outside the class
    (["build", "--start", "k4.structure", "--k", "2", "--budget", "4"], 2,
     "start structure is outside the nonnegative class"),
    # MuError inside parse_mu, reported as a bad --mu file
    (["check-mu", "star.structure", "--bound", "2", "--mu", "zero.mu"], 2,
     "zero.mu: line 1: mu values must stay at least 1"),
    # MuError: K4 is outside the class, a precondition of check-mu
    (["check-mu", "k4.structure", "--bound", "2"], 2, "structure outside the nonnegative class"),
    # AmalgamError: the factors annotate the base element differently
    (["amalgamate", "point.structure", "left.structure", "right.structure", "--left-map", "l.map",
      "--right-map", "l.map"], 2, "base element 0 carries conflicting annotations in the factors"),
    # ThriftyError: with every cap at 1, a level-3 step can neither
    # amalgamate freely nor embed
    (["collapse-build", "--k", "3", "--budget", "12", "--mu", "one.mu", "--bound", "3"], 1,
     "cannot amalgamate freely (violations: "),
]


@pytest.mark.parametrize(
    "argv, rc, message", REFUSALS, ids=[f"{r[0][0]}-{i}" for i, r in enumerate(REFUSALS)]
)
def test_cli_refusals_in_a_fresh_interpreter(tmp_path, argv, rc, message):
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a)])
    (tmp_path / "k4.structure").write_text(serialize_structure(k4))
    (tmp_path / "star.structure").write_text(serialize_structure(graph(4, [(0, 1), (0, 2), (0, 3)])))
    (tmp_path / "zero.mu").write_text("mu-default linear 0 0\n")
    (tmp_path / "one.mu").write_text("mu-default linear 1 0\n")
    (tmp_path / "point.structure").write_text("universe 1\nrel E 2 1/1\n")
    (tmp_path / "left.structure").write_text("universe 1\nrel E 2 1/1\nann 0 1 0\n")
    (tmp_path / "right.structure").write_text("universe 1\nrel E 2 1/1\nann 0 0 1\n")
    (tmp_path / "l.map").write_text("0 0\n")
    done = _fresh_cli(tmp_path, argv, 120)
    assert done.returncode == rc, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), done.stderr


def _fresh_cli(cwd, argv, timeout):
    """`python -m predim.cli argv` in a fresh interpreter, killed after
    `timeout` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "predim.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


# An 8-element tree.  Its outputs were captured from the enumeration that
# walked and coded every candidate-instance mask and then filtered the
# classes; the pruned walk must give them byte for byte.  The full walk took
# over 30 s for each `enumerate-min` case.
TREE_TEXT = "universe 8\nrel E 2 1/1\n" + "".join(
    f"tup E {a} {b}\n" for a, b in ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7))
)
TREE_PINS = [
    (["audit", "tree.structure", "--k", "5"], 1, 108157,
     "9d8bbe86c51f096462d043cbd80d1c82b393539de04eed7d7cc3f6e584ade538", 60),
    (["enumerate-min", "tree.structure", "--max-new", "2"], 0, 3514,
     "57b7544db6ee69bcee556bd0e558855cc52729fdac07f7914e9ad1f82c383666", 10),
    (["enumerate-min", "tree.structure", "--max-new", "2", "--biminimal"], 0, 10,
     "d711822a479f2a097e470c33a5663739b7cbad00d0a7c616be6996c416c24e7b", 10),
]


@pytest.mark.parametrize("argv, rc, size, sha, timeout", TREE_PINS, ids=["audit", "enumerate-min", "biminimal"])
def test_cli_tree_outputs_are_pinned(tmp_path, argv, rc, size, sha, timeout):
    (tmp_path / "tree.structure").write_text(TREE_TEXT)
    done = _fresh_cli(tmp_path, argv, timeout)
    assert (done.returncode, done.stderr) == (rc, "")
    out = done.stdout.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, sha)


def test_cli_enumerate_min_refuses_before_walking(tmp_path):
    # 27 candidate edges for 3 new elements over the tree; the refusal comes
    # before the smaller sizes are walked
    (tmp_path / "tree.structure").write_text(TREE_TEXT)
    done = _fresh_cli(tmp_path, ["enumerate-min", "tree.structure", "--max-new", "6"], 10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: extension enumeration refused: 27 candidate instances > 22\n"


def test_cli_audit_all_skips_amalgamation_for_non_modular_components(tmp_path, capsys):
    # copied annotations are not independent over the base, so a non-modular
    # rank need not add over a free amalgam; the audit is skipped, not failed
    mixed = tmp_path / "mixed.spec"
    mixed.write_text(ALPHA_SPEC + "component matroid linear3 1/2\ncomponent matroid uniform2 1/2\n")
    assert main(["audit-all", "--spec", str(mixed), "--samples", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "audit.amalgamation.note\tskipped: needs modular matroid components\n" in out
    assert "ok\ttrue\n" in out
    free = tmp_path / "free.spec"
    free.write_text(ALPHA_SPEC + "component matroid free 1/1\n")
    assert main(["audit-all", "--spec", str(free), "--samples", "20", "--seed", "1"]) == 0
    assert "audit.amalgamation.checked\t5\n" in capsys.readouterr().out


def test_cli_audit_all_skips_amalgamation_when_no_draw_is_in_the_class(tmp_path, capsys):
    # every nonempty set has delta < 0, so no drawn structure is in the class;
    # the amalgamation audit gives up after a fixed number of draws
    spec = tmp_path / "empty-class.spec"
    spec.write_text(ALPHA_SPEC + "component matroid cardinality -3/1\n")

    def timeout(signum, frame):
        raise TimeoutError("audit-all did not finish in 60 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        rc = main(["audit-all", "--spec", str(spec), "--samples", "4", "--seed", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert rc == 0
    out = capsys.readouterr().out
    assert f"audit.amalgamation.note\tskipped: no structure in the class in {IN_CLASS_DRAWS} draws\n" in out
    assert "ok\ttrue\n" in out


# Every verb on small inputs, plus two refusals, run from the inputs'
# directory so that argv holds no absolute path.  One SHA-256 over
# (argv, exit code, stdout) of all cases pins the whole CLI surface; it was
# computed on the code before `main` took over loading the inputs.
CLI_SURFACE = [
    ["delta", "k3.structure"],
    ["delta", "k3.structure", "--subset", "0,1"],
    ["delta", "--spec", "fusion.spec", "vec.structure"],
    ["strong", "star.structure", "--base", "0,1", "--within", "0,1,2"],
    ["strong", "k4.structure", "--base", "0"],
    ["closure", "star.structure", "--base", "1"],
    ["check-class", "star.structure"],
    ["check-class", "k4.structure"],
    ["dim", "star.structure", "--of", "1,2", "--over", "0"],
    ["gcl", "star.structure", "--of", "0"],
    ["amalgamate", "point.structure", "pend.structure", "pend.structure", "--left-map", "l.map",
     "--right-map", "l.map"],
    ["build", "--k", "2", "--budget", "8"],
    ["audit", "star.structure", "--k", "1"],
    ["exchange-audit", "star.structure", "--samples", "10", "--seed", "2"],
    ["enumerate-min", "point.structure", "--max-new", "2"],
    ["check-mu", "star.structure", "--bound", "2", "--mu", "tight.mu"],
    ["count-copies", "star.structure", "--base", "0", "--ext", "pend.structure"],
    ["collapse-build", "--k", "2", "--budget", "8", "--mu", "tight.mu", "--bound", "2"],
    ["audit-all", "--samples", "8", "--seed", "1"],
    ["delta", "k3.structure", "--subset", "0,9"],
    ["delta", "nope.structure"],
]
CLI_SURFACE_SHA256 = "de2f6d4d4e87b8fa2bf503476405adf5196d01f02afee2956e3a378ca86a7608"


def test_cli_surface_is_pinned(tmp_path, monkeypatch, capsys):
    (tmp_path / "k3.structure").write_text(K3_TEXT)
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a)])
    (tmp_path / "k4.structure").write_text(serialize_structure(k4))
    (tmp_path / "star.structure").write_text(serialize_structure(graph(4, [(0, 1), (0, 2), (0, 3)])))
    (tmp_path / "point.structure").write_text("universe 1\nrel E 2 1/1\n")
    (tmp_path / "pend.structure").write_text("universe 2\nrel E 2 1/1\ntup E 0 1\n")
    (tmp_path / "vec.structure").write_text("universe 3\nann 0 1 0\nann 1 0 1\nann 2 1 1\n")
    (tmp_path / "fusion.spec").write_text(FUSION_SPEC)
    (tmp_path / "l.map").write_text("0 0\n")
    pend_code = classify_extension(spec_alpha(), graph(2, [(0, 1)]), [0]).code
    (tmp_path / "tight.mu").write_text(f"mu-default linear 8 4\nmu {pend_code.hex()} 2\n")
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in CLI_SURFACE:
        rc = main(argv)
        digest.update(repr((argv, rc, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == CLI_SURFACE_SHA256


VERB_NAMES = (
    "delta strong closure check-class dim gcl amalgamate build audit exchange-audit enumerate-min "
    "check-mu count-copies collapse-build audit-all"
).split()
# Help and usage errors: the bare program, the top-level help, an unknown
# verb, each verb's help, and each verb with a required flag left out.  One
# SHA-256 over (argv, exit code, stdout, stderr) of all cases pins argparse's
# output at a fixed terminal width.
CLI_USAGE = [[], ["--help"], ["nope"]] + [[verb, "--help"] for verb in VERB_NAMES] + [
    ["strong", "k3.structure"],
    ["closure", "k3.structure", "--within", "0"],
    ["dim", "k3.structure"],
    ["amalgamate", "k3.structure", "k3.structure", "k3.structure", "--left-map", "l.map"],
    ["build", "--k", "2"],
    ["audit", "k3.structure"],
    ["enumerate-min", "k3.structure"],
    ["check-mu", "k3.structure"],
    ["count-copies", "k3.structure", "--base", "0"],
    ["collapse-build", "--budget", "8"],
]
CLI_USAGE_SHA256 = "9bfcd6631b33f20467929e91b966189f3d26cab6c686f307430567675973b630"


def test_cli_help_and_usage_errors_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in CLI_USAGE:
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        digest.update(repr((argv, info.value.code, out, err)).encode())
    assert digest.hexdigest() == CLI_USAGE_SHA256
