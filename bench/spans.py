"""Span tracer for the benchmark's traced run.

The tracer replaces public functions of a package with wrappers that record
one span per call: its name, start, end and the span that was open when the
call began. Spans are kept in flat arrays while the run goes on and are
summarised once it has ended. The package's source is not edited: a wrapper
is installed under every module attribute that holds the original function,
because modules such as ``isfl.federation`` import the functions they call by
name, and every original is put back afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced callable, ``attr`` (``func`` or ``Class.method``) of ``module``.

    ``on_return(tracer, args, kwargs, result, seconds)`` and
    ``on_raise(tracer, exc)`` run after the span has closed, so
    ``tracer.current()`` then names the caller's span.
    """

    module: str
    attr: str
    on_return: Callable | None = None
    on_raise: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Spans as parallel arrays: name id, parent index, start and end time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def current(self) -> str | None:
        """Name of the innermost open span, or None outside every span."""
        return self.names[self.name_id[self._open[-1]]] if self._open else None

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def exit(self, idx: int) -> float:
        now = self.clock()
        self.end[idx] = now
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")
        return now - self.start[idx]

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(idx)
                if target.on_raise is not None and isinstance(exc, Exception):
                    target.on_raise(self, exc)
                raise
            seconds = self.exit(idx)
            if target.on_return is not None:
                target.on_return(self, args, kwargs, result, seconds)
            return result

        return traced


def _owner_and_attr(target: Target):
    """The object whose attribute holds the target, or None if it is gone."""
    owner = sys.modules.get(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None, attr
    return owner, attr


@contextmanager
def installed(tracer: Tracer, targets: list[Target], package: str):
    """Wrap every target while the block runs; yields the names not found.

    A plain function is replaced under each attribute of each loaded
    ``package`` module that holds it. A method is replaced on its class, and
    a classmethod keeps its descriptor. Every original is restored on exit.
    """
    patches: list[tuple[object, str, object]] = []
    not_found: list[str] = []
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    try:
        for target in targets:
            owner, attr = _owner_and_attr(target)
            if owner is None:
                not_found.append(target.name)
                continue
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(tracer.wrap(target, raw.__func__))
                else:
                    wrapped = tracer.wrap(target, raw)
                sites = [(owner, attr)]
            else:
                wrapped = tracer.wrap(target, raw)
                sites = [
                    (module, alias)
                    for module in (modules if owner in modules else [owner, *modules])
                    for alias, value in list(vars(module).items())
                    if value is raw
                ]
            for site, alias in sites:
                patches.append((site, alias, raw))
                setattr(site, alias, wrapped)
        yield not_found
    finally:
        for site, alias, raw in reversed(patches):
            setattr(site, alias, raw)


@dataclass
class SpanStats:
    calls: int
    self_s: float
    wall_s: float     # time under outermost spans of this name


def _outermost(parent: np.ndarray, key: np.ndarray) -> np.ndarray:
    """True where no ancestor span has the same key as the span itself."""
    nested = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        nested[live] |= key[anc[live]] == key[live]
        anc[live] = parent[anc[live]]
    return ~nested


def _group(labels, key, parent, dur, self_t) -> dict[str, SpanStats]:
    top = _outermost(parent, key)
    calls = np.bincount(key, minlength=len(labels))
    selfs = np.bincount(key, weights=self_t, minlength=len(labels))
    walls = np.bincount(key[top], weights=dur[top], minlength=len(labels))
    return {
        label: SpanStats(int(calls[i]), float(selfs[i]), float(walls[i]))
        for i, label in enumerate(labels)
    }


def summarize(tracer: Tracer) -> tuple[dict[str, SpanStats], dict[str, SpanStats]]:
    """Per-name and per-layer statistics; a layer is the name's first part.

    Self time is a span's duration minus the durations of its direct
    children. Wall time counts only spans with no ancestor of the same name
    (or layer), so nested calls are not counted twice.
    """
    if tracer._open:
        raise RuntimeError("cannot summarize while spans are open")
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32).astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child

    layers = sorted({n.split(".", 1)[0] for n in tracer.names})
    layer_of = np.array([layers.index(n.split(".", 1)[0]) for n in tracer.names], dtype=np.int64)
    return (
        _group(tracer.names, name_id, parent, dur, self_t),
        _group(layers, layer_of[name_id], parent, dur, self_t),
    )
