"""How `predim` imports: every name a module imports is used in that
module, the package's public names load from their submodules on first use,
each CLI verb loads only the layers it runs, no module imports
`dataclasses`, and private names cross modules only where listed.

The unused-import check reads the sources with stdlib `ast`, imports inside
functions included.  The package `__init__` imports no submodule; its public
names are a table that its `__getattr__` reads.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import predim

SRC = Path(__file__).resolve().parent.parent / "src" / "predim"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import outside `__future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return used


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]
    assert not unused, unused


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Callable, Optional\n\ndef f(x: 'Optional[int]'): return x\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "Callable"}


# The public names of the package.
PUBLIC = """
    AmalgamError AmalgamResult AuditResult BiminimalError BlockedRecord BuilderError DEFAULT_MU
    DischargeRecord Embedding ExtensionClass FinStructure FreeOracle GenericApprox GeometryError
    LinearOracle MatroidOracle MuError MuFunction MuReport ParseError PredimensionSpec
    RichnessReport Signature SpecError StrongReport StructureError ThriftyError ThriftyOutcome
    UniformOracle audit_amalgamation audit_dim_additivity audit_exchange audit_oracle_equivalence
    audit_richness audit_strong_laws audit_submodularity biminimal_base brute_closure
    brute_force_is_strong build_collapsed build_generic canonical_code check_exchange
    classify_extension closure code_over_base count_independent_copies delta dim
    enumerate_extensions enumerate_minimal_extensions find_embeddings format_fraction format_ids
    free_amalgam free_extend gcl in_class in_class_mu is_strong linear_extension_palette
    mu_violations obligation_met oracle_by_name pair_code parse_map parse_mu parse_spec
    parse_structure report_text require_geometric resume serialize_map serialize_mu serialize_spec
    serialize_structure strong_verdict structure_source thrifty_step
""".split()


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 79
    assert sorted(predim.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        module = importlib.import_module(f"predim.{predim._SOURCE[name]}")
        assert getattr(predim, name) is getattr(module, name), name
    star: dict = {}
    exec("from predim import *", star)
    assert set(PUBLIC) <= star.keys()
    assert all(star[n] is getattr(predim, n) for n in PUBLIC)
    assert set(PUBLIC) <= set(dir(predim))
    with pytest.raises(AttributeError):
        predim.no_such_name
    assert predim.__version__ == "0.1.0"


# The layers a query verb never runs; `build` runs builder and what it imports.
UNUSED_BY_QUERIES = {
    f"predim.{m}" for m in "audits builder collapse extensions canonical richness amalgams sampling".split()
}
UNUSED_BY_BUILD = {"predim.audits", "predim.collapse", "predim.amalgams", "predim.sampling", "predim.geometry"}
# Only `dim` and `gcl` run the geometry layer, and `delta` runs no strength search.
UNUSED_BY_STRENGTH = UNUSED_BY_QUERIES | {"predim.geometry"}
UNUSED_BY_DELTA = UNUSED_BY_STRENGTH | {"predim.strongsets"}
# Costly stdlib and third-party modules no verb here needs; `random` may come
# with the interpreter's site set-up, so what counts is what the verb adds.
UNUSED_BY_ALL = {"numpy", "dataclasses", "inspect", "random"}

VERB_RUN = """\
import sys
before = set(sys.modules)
import predim
assert not [m for m in sys.modules if m.startswith("predim.")], "import predim loaded a submodule"
from predim.cli import main
rc = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(rc)
"""

VERBS = [
    (["delta", "star.structure"], UNUSED_BY_DELTA),
    (["strong", "star.structure", "--base", "0"], UNUSED_BY_STRENGTH),
    (["closure", "star.structure", "--base", "1"], UNUSED_BY_STRENGTH),
    (["check-class", "k4.structure"], UNUSED_BY_STRENGTH),
    (["dim", "star.structure", "--of", "1,2", "--over", "0"], UNUSED_BY_QUERIES),
    (["gcl", "star.structure", "--of", "0"], UNUSED_BY_QUERIES),
    (["build", "--k", "2", "--budget", "8", "--out", "built.structure"], UNUSED_BY_BUILD),
]


@pytest.mark.parametrize("argv, unused", VERBS, ids=[argv[0] for argv, _ in VERBS])
def test_each_verb_loads_only_its_layers(tmp_path, argv, unused):
    # a fresh interpreter per verb: in this process every module is loaded
    (tmp_path / "star.structure").write_text("universe 4\nrel E 2 1/1\ntup E 0 1\ntup E 0 2\ntup E 0 3\n")
    k4 = "".join(f"tup E {a} {b}\n" for a in range(4) for b in range(a + 1, 4))
    (tmp_path / "k4.structure").write_text("universe 4\nrel E 2 1/1\n" + k4)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", VERB_RUN, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode in (0, 1) and not done.stderr, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split())
    assert "predim.structures" in loaded
    assert not loaded & (unused | UNUSED_BY_ALL), sorted(loaded & (unused | UNUSED_BY_ALL))


def _modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules a source imports, inside functions too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    # also covers the verbs not run above: check-mu, collapse-build, audit-all
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    found = [name for name, tree in trees.items() if "dataclasses" in _modules(tree)]
    assert not found, found


def test_no_private_name_crosses_modules():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module != "__future__":
                source = node.module.split(".")[-1]
                found |= {(path.stem, source, a.name) for a in node.names if a.name.startswith("_")}
    assert not found, found
