"""Every per-layer name in BENCHMARK.json points at something predim still has.

A name is a traced path plus a field (`calls`, `self_s`, ...).  Without the
field it must resolve, attribute by attribute, to a module of `predim` or to
a function or method in one that is not a generator, since the tracer times
calls and a generator's body runs after its call returns.  The function must
be defined in the module it is named under: the tracer skips a function a
module only imports.  `trace.*` names are the tracer's own figures.  The
file is only read.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _unresolved(names: list[str]) -> list[str]:
    """The names that point at nothing the tracer can time."""
    bad = []
    for name in names:
        module, *attrs = name.rsplit(".", 1)[0].split(".")
        if module == "trace":
            continue
        try:
            obj = importlib.import_module(f"predim.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            bad.append(name)
            continue
        if not inspect.ismodule(obj) and (
            not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj) or obj.__module__ != f"predim.{module}"
        ):
            bad.append(name)
    return bad


def test_every_traced_name_resolves():
    bad = _unresolved([row["name"] for row in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]])
    assert not bad, bad


def test_the_check_sees_an_imported_function():
    # builder only imports strong_subsets, so the tracer times it under strongsets
    names = ["builder.strong_subsets.calls", "strongsets.strong_subsets.calls"]
    assert _unresolved(names) == ["builder.strong_subsets.calls"]
