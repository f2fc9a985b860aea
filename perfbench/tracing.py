"""Span recorder that times pan's layers from outside the package.

``install`` replaces every public function of the layer modules, and every
name another pan module bound to one of them (``pan.backbone.conv2d``,
``pan.fusion.linear``, ...), with a timing wrapper for the duration of a
``with`` block, then puts the originals back. ``src/`` is never edited.

Each call records one span: its name, start, end, parent span and op id.
Spans live in flat typed arrays so a traced run with hundreds of thousands
of calls stays small, and are written out when the run ends. A span made
through a re-bound name is named ``<defining module>.<function>@<caller>``,
so ``layers.linear@fusion`` counts the linear calls made by ``fusion``.

Probes turn a wrapped call's arguments and result into per-op counts
(points in, pillar count, distance evaluations, samples, bytes read).
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

# synth only makes inputs, safety is closed-form, cli and tensor are thin
# wrappers: none of them is timed
LAYER_MODULES = ("pillars", "backbone", "layers", "fusion", "metrics", "io")

OP_SPAN = "bench.op"


class Recorder:
    """In-memory spans and per-op counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op_of = array.array("i")
        self.op = -1  # the op the next spans belong to; -1 is set-up
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, values: dict) -> None:
        into = self.counts.setdefault(self.op, {})
        for key, value in values.items():
            into[key] = into.get(key, 0) + value

    def arrays(self) -> dict:
        """The spans as columns, with each span's self time."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": start, "end": end, "parent": parent,
            "op": np.frombuffer(self.op_of, dtype=np.int32).copy(),
            "dur": dur, "self": dur - children,
        }

    def rollup(self) -> dict:
        """Per op and span name: calls, inclusive ms and self ms."""
        cols = self.arrays()
        table: dict[int, dict[str, dict]] = {}
        keys = np.stack([cols["op"], cols["name"]], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        calls = np.bincount(inverse, minlength=len(uniq))
        incl = np.bincount(inverse, weights=cols["dur"], minlength=len(uniq))
        self_t = np.bincount(inverse, weights=cols["self"], minlength=len(uniq))
        for (op, nid), n, inc, slf in zip(uniq.tolist(), calls, incl, self_t):
            table.setdefault(op, {})[self.names[nid]] = {
                "calls": int(n), "ms": 1e3 * float(inc), "self_ms": 1e3 * float(slf),
            }
        return table


def _wrap(rec: Recorder, fn, span_name: str, probe):
    name_id = rec.name_id(span_name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if probe is not None:
            rec.count(probe(args, kwargs, result))
        return result

    return wrapper


def public_functions(module) -> dict:
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


@contextlib.contextmanager
def install(rec: Recorder, probes: dict | None = None):
    """Wrap the layers' public functions for the duration of the block.

    ``probes`` maps a defining span name such as ``"metrics.match_frame"``
    to ``f(args, kwargs, result) -> {counter: value}``.
    """
    probes = probes or {}
    originals: dict[int, tuple[str, object]] = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"pan.{short}")
        for name, fn in public_functions(module).items():
            originals[id(fn)] = (f"{short}.{name}", fn)
    patched = []
    for short in LAYER_MODULES:
        module = importlib.import_module(f"pan.{short}")
        for attr, obj in list(vars(module).items()):
            if id(obj) not in originals:  # originals stay alive, so ids are unique
                continue
            span_name, fn = originals[id(obj)]
            defining = span_name.split(".", 1)[0]
            site = span_name if defining == short else f"{span_name}@{short}"
            setattr(module, attr, _wrap(rec, fn, site, probes.get(span_name)))
            patched.append((module, attr, fn))
    try:
        yield rec
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)


def arg(args, kwargs, pos: int, name: str):
    """A wrapped call's argument by position or keyword."""
    return args[pos] if len(args) > pos else kwargs[name]
