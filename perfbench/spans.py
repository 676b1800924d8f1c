"""Span tracing of museb's public functions, installed from outside the package.

A name imported with ``from .x import f`` is bound separately in every module
that imports it, so each wrapper replaces the original in every ``museb``
namespace that holds it.  Spans carry a parent link; self time is a span's
duration minus that of its direct children.  ``matspace`` is not traced: its
helpers are bound by name in their callers and show up in their self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

TRACED_MODULES = ("construct", "compose", "verify", "familyfile", "search", "trio", "cli")


def _gram_shape(args, kwargs, result):
    f, g = args[0], args[1]
    return {"shape": (len(f), f.d * f.dprime, len(g)), "checks": result.checks_run}


def _family_shape(args, kwargs, result):
    return {"n": len(args[0]), "checks": result.checks_run}


def _checks(args, kwargs, result):
    return {"checks": result.checks_run}


def _out_bytes(args, kwargs, result):
    return {"bytes": sum(fam.elements.nbytes for fam in result)}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]
    return {"bytes": os.path.getsize(path)}


def _pairs(args, kwargs, result):
    return {"pairs": result.pairs}


def _subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"cmd": argv[0] if argv else ""}


# Shapes and sizes recorded at span end, from which the computed counts follow.
HOOKS = {
    "verify.check_mu_pair": _gram_shape,
    "verify.check_sebk": _family_shape,
    "verify.check_museb_set": _checks,
    "compose.tensor_families": _out_bytes,
    "familyfile.save_family_set": _file_bytes,
    "familyfile.load_family_set": _file_bytes,
    "search.closure_sweep": _pairs,
    "cli.main": _subcommand,
}


class Tracer:
    """Records spans [name, parent, start, end, info] while ``recording`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for layer in TRACED_MODULES:
            mod = importlib.import_module(f"museb.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sys.modules.items() if n == "museb" or n.startswith("museb.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._patches):
            setattr(ns, attr, val)
        self._patches.clear()

    def bindings(self) -> list[str]:
        """Every ``module.attribute`` that currently holds a wrapper."""
        return sorted(f"{ns.__name__}.{attr}" for ns, attr, _ in self._patches)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return wrapper


def summarize(spans: list[list]) -> dict:
    """Per-name inclusive time, self time and call count for one op's spans.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + dur
    return {"incl": incl, "self": self_s, "calls": calls}
