"""Span tracer installed into a workload process from outside srblab.

Nothing under src/ is edited: the tracer rebinds names.  A function is
wrapped where another srblab module reaches it, found by reading each
module's imports:

- ``from .stats import linear_fit`` in response rebinds
  ``response.linear_fit``;
- ``from . import maps`` in cli, followed by ``maps.iterate(...)``, rebinds
  ``maps.iterate`` in the module that defines it.

Calls inside one module are not intercepted, so a private helper counts
toward its caller's self time; ``tangent._clv_sweep`` is timed where
response imports it, while compute_clvs keeps its own sweep as self time.

Three hot leaves are counted rather than recorded one span per call: the
step, jacobian and param_derivative callables of every family that
``maps.get_family`` builds, and ``numpy.linalg.qr``.  Each leaf keeps
calls, points (matrices for QR) and seconds per (name, parent span).
Their seconds are their own self time and count as child time of that
span.

``installed`` holds the name of every span and leaf actually wrapped, so a
metric whose function was renamed or moved can be told from one that was
not called.

With ``memory=True`` each span also records its tracemalloc peak above the
traced memory at entry; numpy reports its buffers to tracemalloc.  That
pass skips the leaves, whose bookkeeping would dominate the peaks' cost.
"""
from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("maps", "tangent", "measure", "stats", "response", "tangency",
           "pade", "cli")


def _points(x, core):
    return math.prod(np.shape(x)[:-core])


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        # [id, parent id, name, start, end, peak bytes]; id 0 is the root
        self.spans = []
        self.leaves = {}              # (name, parent id) -> [calls, points, s]
        self.installed = set()
        self._stack = [0]
        self._mem = [[0, 0]]          # per open span: [base, running peak]

    def span(self, name, fn):
        spans, stack, mem = self.spans, self._stack, self._mem
        memory = self.memory
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, 0.0, 0.0, 0]
            spans.append(rec)
            stack.append(rec[0])
            if memory:
                cur, peak = tracemalloc.get_traced_memory()
                mem[-1][1] = max(mem[-1][1], peak)
                tracemalloc.reset_peak()
                mem.append([cur, cur])
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                if memory:
                    _, peak = tracemalloc.get_traced_memory()
                    base, high = mem.pop()
                    high = max(high, peak)
                    rec[5] = high - base
                    mem[-1][1] = max(mem[-1][1], high)
                    tracemalloc.reset_peak()

        return traced

    def leaf(self, name, fn, arg, core):
        """Count calls, points and seconds of a hot callable; `arg` is the
        index of the batched argument and `core` its trailing core rank."""
        leaves, stack = self.leaves, self._stack
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            key = (name, stack[-1])
            acc = leaves.get(key)
            if acc is None:
                acc = leaves[key] = [0, 0, 0.0]
            acc[0] += 1
            acc[1] += _points(args[arg], core)
            acc[2] += dt
            return out

        return traced

    # ------------------------------------------------------------------

    def install(self):
        """Wrap srblab's cross-module calls for the rest of the process."""
        mods = {n: importlib.import_module(f"srblab.{n}") for n in MODULES}
        maps = mods["maps"]
        if not self.memory:
            np.linalg.qr = self.leaf("numpy.linalg.qr", np.linalg.qr, 0, 2)
            build = maps.get_family

            @functools.wraps(build)
            def get_family(*args, **kwargs):
                fam = build(*args, **kwargs)
                return dataclasses.replace(fam, **{
                    f: self.leaf(f"maps.{f}", getattr(fam, f), 1, 1)
                    for f in ("step", "jacobian", "param_derivative")})

            maps.get_family = get_family

        for owner, attr, name in cross_module_calls(mods):
            setattr(owner, attr, self.span(name, getattr(owner, attr)))
        cli = mods["cli"]
        cli.run = self.span("cli.run", cli.run)

    # ------------------------------------------------------------------

    def self_times(self):
        children = defaultdict(float)
        for sid, parent, _, t0, t1, _ in self.spans:
            children[parent] += t1 - t0
        for (_, parent), (_, _, secs) in self.leaves.items():
            children[parent] += secs
        return {sid: t1 - t0 - children[sid]
                for sid, _, _, t0, t1, _ in self.spans}

    def summary(self):
        """Per name: calls, self_s, points (leaves), peak_alloc_mb (spans)."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0,
                                   "peak_alloc_mb": 0.0})
        selfs = self.self_times()
        for sid, _, name, _, _, peak in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += selfs[sid]
            row["peak_alloc_mb"] = max(row["peak_alloc_mb"], peak / 2**20)
        for (name, _), (calls, points, secs) in self.leaves.items():
            row = out[name]
            row["calls"] += calls
            row["points"] += points
            row["self_s"] += secs
        return dict(out)

    def write_jsonl(self, path):
        selfs = self.self_times()
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, peak in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": t0, "end": t1, "self_s": selfs[sid]}
                if self.memory:
                    rec["peak_alloc_mb"] = peak / 2**20
                fh.write(json.dumps(rec) + "\n")
            for (name, parent), (calls, points, secs) in self.leaves.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "points": points,
                                     "seconds": secs}) + "\n")


def cross_module_calls(mods):
    """(owner module, attribute, span name) for every srblab function that
    one module reaches in another, read from the modules' import statements."""
    found = set()
    for mod in mods.values():
        tree = ast.parse(inspect.getsource(mod))
        aliases = {}                  # local name -> srblab module
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    if alias.name in mods:
                        aliases[local] = mods[alias.name]
                elif node.module in mods:
                    src = mods[node.module]
                    if _is_function_of(getattr(src, alias.name, None), src):
                        found.add((mod, local, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                src = aliases[node.value.id]
                if _is_function_of(getattr(src, node.attr, None), src):
                    short = src.__name__.rsplit(".", 1)[1]
                    found.add((src, node.attr, f"{short}.{node.attr}"))
    return found


def _is_function_of(obj, module):
    return inspect.isfunction(obj) and obj.__module__ == module.__name__
