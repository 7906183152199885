"""Per-layer tracing of the predim package, done entirely from outside it.

`Tracer.install()` swaps every traced function for a wrapper by rebinding
module and class attributes at runtime; `Tracer.restore()` puts the original
objects back.  No source file of predim is touched.  A function imported
into other modules (``from .richness import met_fast``) is rebound in each
of them, so calls between modules are seen too.

Each wrapper keeps a stack of open calls.  A call's self time is its
duration minus the durations of the traced calls it made, so the self times
of all traced functions add up to the traced wall time (less the time spent
outside any traced call).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from typing import Callable

# Modules of src/predim whose public functions are traced.  amalgams is
# deliberately left out (no workload calls it); audits and sampling hold
# test helpers that the workloads reach only in set-up, if at all.
MODULES = (
    "structures", "predimension", "canonical", "strongsets", "extensions",
    "richness", "builder", "collapse", "geometry", "textio", "cli",
)

# Private functions traced in addition to the public ones: the strength
# engines, so their routing shows as call counts.
PRIVATE = {
    "strongsets": ("_flow_nonempty_min", "_dfs_min", "_least_minimizer"),
}

# Methods traced, by module and class.
METHODS = {
    "structures": {"FinStructure": ("__init__", "restrict", "relabel", "extended")},
    "richness": {"Pseudoforest": ("__init__",)},
    "extensions": {"ExtensionClass": ("transport",)},
    "predimension": {"LinearOracle": ("rank",)},
}


# The traced function whose results are counted as free steps or steps that
# needed an embedding.
THRIFTY_STEP = "collapse.thrifty_step"


class Tracer:
    """Call counts and self time per traced function, and the number of
    free thrifty steps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.free_steps = 0
        self._stack: list[float] = []
        self._active = [True]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper that times `fn` under `name`."""
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, self.clock
        active = self._active
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        count_free = name == THRIFTY_STEP

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += duration - child
                if stack:
                    stack[-1] += duration
            if count_free and result.free:
                self.free_steps += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, Callable]]:
        """Traced module-level functions, keyed by identity."""
        out = {}
        for short in MODULES:
            mod = importlib.import_module(f"predim.{short}")
            extra = PRIVATE.get(short, ())
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                # a wrapper would time only the creation of a generator
                if inspect.isgeneratorfunction(val):
                    continue
                out[id(val)] = (f"{short}.{attr}", val)
        return out

    def _set(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every traced function in every loaded predim module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "predim" or n.startswith("predim."))]
        try:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and id(val) in wrappers:
                        self._set(mod, attr, wrappers[id(val)])
            for short, classes in METHODS.items():
                mod = importlib.import_module(f"predim.{short}")
                for cls_name, methods in classes.items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        fn = cls.__dict__[meth]
                        self._set(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))
        except BaseException:
            self.restore()
            raise

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside this block run untimed and uncounted."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every patch currently applied."""
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------

    def total(self, name: str, field: str) -> float:
        return (self.calls if field == "calls" else self.self_s)[name]

    def free_frac(self) -> float:
        """Share of thrifty steps that were free; 0 when there were none."""
        steps = self.calls.get(THRIFTY_STEP, 0)
        return self.free_steps / steps if steps else 0.0

    def module_self_s(self, short: str) -> float:
        prefix = f"{short}."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

