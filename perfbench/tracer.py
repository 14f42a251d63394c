"""Span tracing of capsec's layers from outside the package.

Each layer's public function is replaced, by identity, in every ``capsec.*``
module namespace (and body class) that binds it, by a wrapper that records a
span.  Spans are aggregated in memory per name: call count, total time and
self time, where self time is the span's duration minus the time covered by
its child spans.  Leaving the ``active()`` block restores the originals.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute); functions are patched wherever capsec binds them
LAYER_FUNCTIONS = (
    ("sections.section", "capsec.sections", "section"),
    ("sections.cap_volume", "capsec.sections", "cap_volume"),
    ("sections.hyperplane_chart", "capsec.sections", "hyperplane_chart"),
    ("functional.evaluate", "capsec.functional", "evaluate"),
    ("solver.solve", "capsec.solver", "solve"),
    ("families.random_instance", "capsec.families", "random_instance"),
    ("reporting.dump_report", "capsec.reporting", "dump_report"),
)
# private solver stages: wrapped only if present, reported as absent otherwise
STAGE_FUNCTIONS = (
    ("solver.gradient_stage", "capsec.solver", "_gradient_stage"),
    ("solver.polish", "capsec.solver", "_polish"),
    ("solver.classify", "capsec.solver", "_classify"),
)
# scipy calls counted only where capsec.sections makes them
SECTIONS_ONLY = (
    ("sections.qhull", "ConvexHull"),
    ("sections.qhull", "HalfspaceIntersection"),
    ("sections.linprog", "linprog"),
)
BODY_METHODS = ("support", "touch_point")


def capsec_modules():
    return [m for name, m in sorted(sys.modules.items()) if (name == "capsec" or name.startswith("capsec.")) and m]


def body_classes():
    from capsec import bodies

    return [c for c in vars(bodies).values() if isinstance(c, type) and issubclass(c, bodies.ConvexBody)]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.section_methods = defaultdict(int)
        self.absent = []
        self._child_s = []  # per open span: time covered by its children
        self._patches = []  # (namespace owner, attribute, original)
        self.originals = {}  # id(original) -> original, for coverage checks

    def _wrap(self, name, fn, on_result=None):
        calls, total_s, self_s, child_s = self.calls, self.total_s, self.self_s, self._child_s

        def span(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = child_s.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - covered
                if child_s:
                    child_s[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        span.__wrapped__ = fn
        return span

    def _count_section(self, sec):
        self.section_methods[sec.method.value] += 1
        if sec.degenerate:
            self.section_methods["degenerate"] += 1

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        self.originals[id(original)] = original
        for mod in capsec_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        self.absent = []
        for name, modname, attr in LAYER_FUNCTIONS + STAGE_FUNCTIONS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            on_result = self._count_section if name == "sections.section" else None
            self._patch_everywhere(original, self._wrap(name, original, on_result))
        sections = importlib.import_module("capsec.sections")
        for name, attr in SECTIONS_ONLY:
            original = getattr(sections, attr)
            self.originals[id(original)] = original
            self._patch(sections, attr, self._wrap(name, original))
        for cls in body_classes():
            for attr in BODY_METHODS:
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self.originals[id(original)] = original
                    self._patch(cls, attr, self._wrap(f"bodies.{attr}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def unwrapped_references(self):
        """Names in capsec namespaces still bound to an original layer function."""
        found = []
        for mod in capsec_modules():
            for attr, value in vars(mod).items():
                if id(value) in self.originals and self.originals[id(value)] is value:
                    if mod.__name__ != "capsec.sections" and attr in {a for _, a in SECTIONS_ONLY}:
                        continue  # scipy names bound outside sections are not counted as sections work
                    found.append(f"{mod.__name__}.{attr}")
        for cls in body_classes():
            for attr in BODY_METHODS:
                value = cls.__dict__.get(attr)
                if value is not None and id(value) in self.originals:
                    found.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return found
