"""Regenerate the pinned inputs and reference answers in data/.

    python3 perfbench/make_refs.py [generic] [pregeometry] [matroid] [cli]

With no arguments every file is rewritten.  Reference answers come from the
brute-force oracles (matroid pool), from the deterministic builds (generic
and pregeometry pins) and from the CLI itself (cli pool, cross-checked
against the library where the library gives the same value).  Rewriting a
file changes what the benchmark accepts as correct, so do it only when the
intended outputs change, and say so where the change is reviewed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import predim  # noqa: E402
from predim.sampling import random_sparse_graph  # noqa: E402
from predim.strongsets import subset_tables  # noqa: E402

from workloads import (  # noqa: E402
    CLI_FILES, DATA, GenericK3, _edge, cli_argv, matroid_spec, pool_structure,
)

POOL_SEED = 1008
POOL_SIZE = 120
POOL_SIZES = range(6, 17)  # structures of up to 16 elements
POOL_BASES = 4
POOL_DENSITY = 0.2


def _write(name: str, payload: dict) -> None:
    DATA.mkdir(exist_ok=True)
    with open(DATA / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {DATA / name}")


def make_generic() -> None:
    spec = predim.PredimensionSpec.make(relational=True)
    digests = {}
    for n in GenericK3.CANON_SIZES:
        struct = predim.build_generic(spec, _edge(), k=3, budget=n).current
        assert struct.n == n
        digests[str(n)] = hashlib.sha256(predim.canonical_code(struct)).hexdigest()
    _write("generic.json", {"canonical_sha256": digests})


def make_pregeometry() -> None:
    spec = predim.PredimensionSpec.make(relational=True)
    struct = predim.build_generic(spec, _edge(), k=3, budget=GenericK3.BUDGET).current
    pins = {str(e): list(predim.gcl(spec, struct, (e,))) for e in struct.universe}
    _write("pregeometry.json", {"gcl": pins})


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def make_matroid() -> None:
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(POOL_SIZE):
        name = "linear5" if i % 2 == 0 else "uniform2"
        n = rng.choice(POOL_SIZES)
        edges = [[a, b] for a in range(n) for b in range(a + 1, n) if rng.random() < POOL_DENSITY]
        entry = {"spec": name, "n": n, "edges": edges}
        if name == "linear5":
            entry["vectors"] = [[rng.randrange(5) for _ in range(3)] for _ in range(n)]
        entry["bases"] = [sorted(rng.sample(range(n), rng.randrange(4))) for _ in range(POOL_BASES)]
        spec = matroid_spec(name)
        struct = pool_structure(entry)
        tables = subset_tables(spec, struct)
        entry["closure"] = [list(predim.brute_closure(spec, struct, b, tables=tables)) for b in entry["bases"]]
        entry["is_strong"] = []
        for b in entry["bases"]:
            rep = predim.brute_force_is_strong(spec, struct, b)
            entry["is_strong"].append({
                "verdict": rep.verdict,
                "deficiency": _frac(rep.deficiency),
                "witness": None if rep.witness is None else list(rep.witness),
            })
        entry["in_class"] = predim.brute_force_is_strong(spec, struct, ()).verdict
        pool.append(entry)
        print(f"pool[{i}] {name} n={n}", flush=True)
    _write("matroid_pool.json", {
        "seed": POOL_SEED, "density": POOL_DENSITY, "sizes": [min(POOL_SIZES), max(POOL_SIZES)],
        "pool": pool,
    })


CLI_SPECS = {"lin5.spec": "component relational on\ncomponent matroid linear5 1/1\n"}

CLI_COMMANDS = {
    "delta": [
        ["delta", "@g12.structure"],
        ["delta", "@g12.structure", "--subset", "0,1,2,3"],
        ["delta", "@cyc.structure"],
        ["delta", "--spec", "@lin5.spec", "@lin.structure"],
    ],
    "strong": [
        ["strong", "@g12.structure", "--base", "0"],
        ["strong", "@g12.structure", "--base", "0,1,2"],
        ["strong", "@cyc.structure", "--base", "0"],
        ["strong", "--spec", "@lin5.spec", "@lin.structure", "--base", "1,2"],
    ],
    "closure": [
        ["closure", "@g12.structure", "--base", "0"],
        ["closure", "@g12.structure", "--base", "3,7"],
        ["closure", "@tree.structure", "--base", "0,5"],
        ["closure", "--spec", "@lin5.spec", "@lin.structure", "--base", "0"],
    ],
    "check-class": [
        ["check-class", "@g12.structure"],
        ["check-class", "@cyc.structure"],
        ["check-class", "@tree.structure"],
        ["check-class", "--spec", "@lin5.spec", "@lin.structure"],
    ],
    "dim": [
        ["dim", "@g12.structure", "--of", "0,1", "--over", "2"],
        ["dim", "@g12.structure", "--of", "5"],
        ["dim", "@tree.structure", "--of", "0", "--over", "1"],
        ["dim", "@tree.structure", "--of", "2,3,4"],
    ],
    "build": [
        ["build", "--k", "2", "--budget", "12"],
        ["build", "--k", "3", "--budget", "10"],
        ["build", "--k", "3", "--budget", "12"],
    ],
}


def _cli_files() -> dict[str, str]:
    sig = predim.sampling.graph_signature()
    g12 = random_sparse_graph(random.Random(2026), 12, 4)
    cyc = predim.FinStructure(sig, range(6), {"E": [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]})
    tree = predim.FinStructure(sig, range(8), {"E": [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7)]})
    vec_rng = random.Random(5)
    lin = predim.FinStructure(
        sig, range(8), {"E": [(0, 1), (2, 3), (4, 5)]},
        {e: tuple(str(vec_rng.randrange(5)) for _ in range(3)) for e in range(8)},
    )
    files = {name: predim.serialize_structure(s) for name, s in
             (("g12.structure", g12), ("cyc.structure", cyc), ("tree.structure", tree),
              ("lin.structure", lin))}
    files.update(CLI_SPECS)
    return files


def make_cli() -> None:
    files = _cli_files()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    CLI_FILES.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (CLI_FILES / name).write_text(text, encoding="utf-8")
        print(f"wrote {CLI_FILES / name}")
    commands = {}
    for verb, variants in CLI_COMMANDS.items():
        commands[verb] = []
        for argv in variants:
            proc = subprocess.run([sys.executable, "-m", "predim.cli", *cli_argv(argv)],
                                  cwd=DATA, env=env, capture_output=True, check=False)
            assert proc.returncode in (0, 1), (argv, proc.stderr)
            commands[verb].append({"argv": argv, "rc": proc.returncode,
                                   "stdout": proc.stdout.decode("utf-8")})
    _cross_check_cli(files, commands)
    _write("cli_pool.json", {"commands": commands})


def _cross_check_cli(files: dict[str, str], commands: dict) -> None:
    """The pinned CLI answers agree with direct library calls."""
    structs = {k: predim.parse_structure(v) for k, v in files.items() if k.endswith(".structure")}
    specs = {k: predim.parse_spec(v) for k, v in files.items() if k.endswith(".spec")}
    default = predim.PredimensionSpec.make(relational=True)
    for verb in ("delta", "closure", "check-class"):
        for cmd in commands[verb]:
            argv = cmd["argv"]
            spec = specs[argv[argv.index("--spec") + 1][1:]] if "--spec" in argv else default
            path = next(a[1:] for a in argv if a.startswith("@") and a.endswith(".structure"))
            s = structs[path]
            if verb == "delta":
                sub = None
                if "--subset" in argv:
                    sub = [int(x) for x in argv[argv.index("--subset") + 1].split(",")]
                v = predim.delta(spec, s, sub)
                assert cmd["stdout"] == f"{v.numerator}/{v.denominator}\n", cmd
            elif verb == "closure":
                base = [int(x) for x in argv[argv.index("--base") + 1].split(",")]
                got = predim.closure(spec, s, base)
                assert cmd["stdout"] == "closure\t" + predim.format_ids(got) + "\n", cmd
            else:
                assert cmd["rc"] == (0 if predim.in_class(spec, s) else 1), cmd


SECTIONS = {
    "generic": make_generic,
    "pregeometry": make_pregeometry,
    "matroid": make_matroid,
    "cli": make_cli,
}


if __name__ == "__main__":
    for section in sys.argv[1:] or list(SECTIONS):
        SECTIONS[section]()
