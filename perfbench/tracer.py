"""Span tracing by attribute wrapping, from outside the evtforce package.

``Tracer.install`` replaces every public module-level function of the
evtforce modules with a wrapper that records a span (name, parent span,
start, end, workload tag, grad mode) and an optional measured quantity
(flops, bytes, events).  The same wrapper replaces the function wherever
another evtforce module imported it by name (``cli`` importing
``build_dataset``, ``training`` importing ``forward``), so every call path
is seen.  ``restore`` puts every original attribute back.

Names a metric asks for but the package no longer defines are reported in
``missing`` rather than raising, so a refactor that deletes a public
function keeps the benchmark running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("events", "frames", "synth", "autodiff", "vit", "training", "cli")


def load_modules() -> dict:
    """Import the evtforce modules the tracer wraps, keyed by short name."""
    return {m: importlib.import_module(f"evtforce.{m}") for m in MODULES}


def namespaces(modules: dict) -> list:
    """The wrapped modules plus the package, which re-exports their names."""
    return [importlib.import_module("evtforce"), *modules.values()]


def public_functions(modules: dict) -> dict:
    """Map 'module.name' to each public function a module defines itself."""
    found = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                found[f"{short}.{name}"] = obj
    return found


def function_attributes(modules: dict) -> dict:
    """Identity of every function-valued attribute, for restore checks."""
    return {
        (ns.__name__, name): id(obj)
        for ns in namespaces(modules)
        for name, obj in vars(ns).items()
        if callable(obj) and not inspect.isclass(obj)
    }


def _matmul_flops(args, kwargs, result):
    a, b = args[0].data, args[1].data
    rows = 1
    for n in a.shape[:-1]:
        rows *= n
    return 2.0 * rows * a.shape[-1] * b.shape[-1]


def _gelu_bytes(args, kwargs, result):
    return 2.0 * args[0].data.nbytes


def _events_out(args, kwargs, result):
    return float(len(result[0]))


def _events_in(args, kwargs, result):
    return float(len(args[0]))


def _file_bytes(path_arg):
    def measure(args, kwargs, result):
        return float(os.path.getsize(args[path_arg]))

    return measure


# Quantities computed per call from argument shapes or results; a span
# for one of these names carries the value in its last field.
MEASURES = {
    "autodiff.matmul": _matmul_flops,
    "autodiff.gelu": _gelu_bytes,
    "synth.synthesize_recording": _events_out,
    "frames.accumulate_frame": _events_in,
    "events.write_events": _file_bytes(1),
    "events.read_events": _file_bytes(0),
}


# A span's parent is -1 at the top level; grad is the autodiff grad mode at
# entry; measured is the MEASURES quantity or None.
SPAN_FIELDS = ("id", "parent", "name", "start_s", "end_s", "tag", "grad", "measured")


class Tracer:
    """Records spans of evtforce calls while installed."""

    def __init__(self, modules: dict, expected=()):
        self.modules = modules
        self.functions = public_functions(modules)
        self.missing = sorted(set(expected) - set(self.functions))
        grad = getattr(modules["autodiff"], "is_grad_enabled", None)
        self._grad_enabled = grad if grad is not None else (lambda: None)
        self._saved: list = []
        self._stack: list[int] = []
        self._next_id = 0
        self.tag = ""
        self.spans: list[tuple] = []  # one tuple per span, fields as SPAN_FIELDS

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        clock = time.perf_counter
        grad_enabled = self._grad_enabled
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = self._next_id
            self._next_id = sid + 1
            grad = grad_enabled()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            value = measure(args, kwargs, result) if measure else None
            spans.append((sid, parent, name, start, end, self.tag, grad, value))
            return result

        return traced

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        for ns in namespaces(self.modules):
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def restore(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: the field names, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)


class StepClock:
    """The one wrap an untraced run keeps: a timestamp at each return of
    ``training.adam_step``, so step times are measured between optimizer
    updates without touching anything else."""

    def __init__(self, training_module):
        self.module = training_module
        self.times: list[float] = []
        self._original = None

    def install(self) -> None:
        original = self.module.adam_step
        clock = time.perf_counter
        times = self.times

        @functools.wraps(original)
        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            times.append(clock())
            return result

        self._original = original
        self.module.adam_step = stamped

    def restore(self) -> None:
        if self._original is not None:
            self.module.adam_step = self._original
            self._original = None


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover."""
    child = {}
    for sid, parent, _n, start, end, *_ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {s[0]: (s[4] - s[3]) - child.get(s[0], 0.0) for s in spans}
