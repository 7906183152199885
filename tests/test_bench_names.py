"""Every per-layer name in BENCHMARK.json points at something predim still has.

A name is a traced path plus a field (`calls`, `self_s`, ...).  Without the
field it must resolve, attribute by attribute, to a module of `predim` or to
a function or method in one that is not a generator, since the tracer times
calls and a generator's body runs after its call returns.  `trace.*` names
are the tracer's own figures.  The file is only read.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_every_traced_name_resolves():
    bad = []
    for row in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        module, *attrs = row["name"].rsplit(".", 1)[0].split(".")
        if module == "trace":
            continue
        try:
            obj = importlib.import_module(f"predim.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            bad.append(row["name"])
            continue
        if not inspect.ismodule(obj) and (not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj)):
            bad.append(row["name"])
    assert not bad, bad
