"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every name inside the
package that refers to it, so in-package callers (``engine`` calling
``lift``, ``rsa`` calling ``engine.eval_exact``, ``scope.free_vars``
recursing) go through the wrapper too.  ``restore`` puts every original
back.  Spans (name, start, end, parent) live in flat arrays in memory and
are reduced to per-layer numbers once, at the end.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

# (layer, module, function names); layer names are the package's modules.
TARGETS = (
    ("dsl", "quantale.dsl", ("parse_world", "parse_prop", "parse_scenario")),
    ("scope", "quantale.scope", ("validate", "topological_order", "free_vars")),
    ("model", "quantale.model", ("lift",)),
    ("quant", "quantale.quant", ("shape_value", "threshold_partition")),
    ("engine", "quantale.engine",
     ("eval_exact", "eval_mc", "eval_naive", "eval_generic_fast")),
    ("rsa", "quantale.rsa",
     ("meaning", "meaning_matrix", "literal_listener", "pragmatic_speaker",
      "pragmatic_listener")),
    ("cli", "quantale.cli", ("main",)),
)
METHODS = (("model", "quantale.model", "SituationModel", ("marginal",)),)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.meaning_keys: set = set()
        self.op_tag = 0
        self.peak_alloc = 0  # bytes; only while tracemalloc is tracing
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        # bit 1: no enclosing span of the same layer; bit 2: of the same name
        self.outer.append((0 if self._depth[layer] else 1) | (0 if self._depth[name] else 2))
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[layer] += 1
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "ExplosionGuard":
                self.counts["engine.guard_trips"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self._depth[layer] -= 1
            self._depth[name] -= 1
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        self._observe(name, args, kwargs, result)
        return result

    def op(self, fn, *args):
        """Run one benchmark operation under a root span named ``op``."""
        self.op_tag += 1
        return self.call("op", fn, args, {})

    def _observe(self, name, args, kwargs, result):
        if name.startswith("dsl."):
            self.counts["dsl.bytes"] += len(args[0]) if args else len(kwargs["text"])
        elif name == "model.lift":
            scheme = args[1] if len(args) > 1 else kwargs["scheme"]
            key = "independent" if scheme.value == "independent" else "coupled"
            self.counts[f"model.lift.configs.{key}"] += len(result.configurations)
        elif name == "engine.eval_mc":
            self.counts["engine.eval_mc.samples"] += result.samples
        elif name == "rsa.meaning":
            utterance, state = args[1], args[2]
            self.meaning_keys.add((self.op_tag, utterance.id, state.id))

    # --- installing ------------------------------------------------------------

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _replace(self, original, replacement):
        """Point every name in the package that refers to ``original`` at
        ``replacement``, remembering each one for ``restore``."""
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "quantale" or name.startswith("quantale.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for layer, module, functions in TARGETS:
            for fname in functions:
                original = getattr(sys.modules[module], fname)
                self._replace(original, self._wrap(f"{layer}.{fname}", original))
        for layer, module, cls_name, methods in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for mname in methods:
                original = cls.__dict__[mname]
                self._patches.append((cls, mname, original))
                setattr(cls, mname, self._wrap(f"{layer}.{mname}", original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def track_alloc(self):
        """Wrap ``eval_exact`` so each call's tracemalloc peak is kept."""
        original = sys.modules["quantale.engine"].eval_exact

        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_alloc = max(self.peak_alloc, peak)

        self._replace(original, wrapper)

    # --- reduction ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, time and self time per span name and per layer.

        ``s`` counts only spans with no enclosing span of the same name (or,
        for a layer, of the same layer), so recursion and nested calls are
        not counted twice.  Self time is a span's duration minus the time
        its child spans cover.
        """
        names = self.names
        nid = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        flags = np.asarray(self.outer, dtype=np.int8)
        layer_of = [n.split(".", 1)[0] for n in names]
        out = {}
        for key in sorted(set(names) | set(layer_of)):
            by_name = key in names
            ids = [names.index(key)] if by_name else [k for k, lay in enumerate(layer_of) if lay == key]
            sel = np.isin(nid, ids)
            top = sel & ((flags & (2 if by_name else 1)) != 0)
            out[key] = {
                "calls": int(sel.sum()),
                "s": float(dur[top].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out
