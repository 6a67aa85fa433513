"""Host-time span tracer, applied from outside the program.

Records one span (name, layer, start, end, parent) per call that
crosses into a layer, in memory, with ``perf_counter``. Two kinds of
span, both created only by wrappers this file installs:

* **entry-point spans** around the dotted names in ``layers.py``;
* **callback spans** around every callback handed to the scheduler or
  to ``SimNode.set_timer``, labelled with the layer of the module that
  *defines* the callback — so timers and coroutine resumptions land in
  their own layer, not in the event loop's.

A call that stays inside the layer already on top of the stack is not
a crossing: it is counted (``call_counts``) but opens no span, which is
how nested same-layer spans merge. A layer's self time is the duration
of its spans minus the duration of their direct children.

Wrappers cost a Python frame and two clock reads per crossing, so
call-heavy layers are inflated; shares are for ranking layers and for
before/after on the *same* tracer, not absolute truth. The end-to-end
metrics always come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from time import perf_counter
from typing import Any, Callable, Iterable

from layers import ENTRY_POINTS, LAYERS, OTHER, layer_of_module

#: Entry points that take a callback the scheduler will fire later:
#: dotted name -> how the callback is passed. ``"positional"`` is
#: ``(self, when, fn, *args)``; ``"items"`` is ``(self, [(delay, fn,
#: args), ...])``.
CALLBACK_TAKERS = {
    "repro.sim.events.Scheduler.schedule": "positional",
    "repro.sim.events.Scheduler.schedule_at": "positional",
    "repro.sim.events.Scheduler.push_many": "items",
    "repro.sim.node.SimNode.set_timer": "positional",
}


def resolve(dotted: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted name; raises LookupError."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for attr in parts[split:-1]:
                owner = getattr(owner, attr)
            getattr(owner, parts[-1])
        except AttributeError:
            break
        return owner, parts[-1]
    raise LookupError(dotted)


def _call(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, layers: Iterable[str] = LAYERS) -> None:
        self.layers = list(layers)
        self._layer_ids = {name: i for i, name in enumerate(self.layers)}
        #: Span-name table: index -> name / layer id / total calls
        #: (crossings and same-layer nested calls alike).
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.call_counts: list[int] = []
        self._name_ids: dict[str, int] = {}
        # One row per span, column-wise: 26 bytes a span, so a
        # multi-million-span run stays in the low hundreds of MB.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # [open span index, its layer id]; a list so wrappers mutate it
        # without attribute lookups on self.
        self._top = [-1, -1]
        self._root = -1
        self._fire_by_module: dict[str, Callable[..., Any]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(self._layer_ids[layer])
            self.call_counts.append(0)
        return nid

    def add_span(
        self, name: str, layer: str, start: float, end: float, parent: int = -1
    ) -> int:
        """Append one finished span; returns its index."""
        index = len(self.span_name)
        self.span_name.append(self.name_id(name, layer))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        return index

    def begin(self) -> None:
        """Open the root span: the traced run starts now."""
        self._root = self.add_span("run", OTHER, 0.0, 0.0)
        self._top[:] = [self._root, self._layer_ids[OTHER]]
        self.span_start[self._root] = perf_counter()

    def end(self) -> None:
        """Close the root span: the traced run ends now."""
        self.span_end[self._root] = perf_counter()
        self._top[:] = [-1, -1]

    def _wrap(self, fn: Callable[..., Any], nid: int) -> Callable[..., Any]:
        """``fn`` inside a span named ``nid`` whenever the call crosses layers."""
        lid = self.name_layer[nid]
        counts = self.call_counts
        top = self._top
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[nid] += 1
            if top[1] == lid:
                return fn(*args, **kwargs)
            parent, parent_layer = top
            index = len(names)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            top[0] = index
            top[1] = lid
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                top[0] = parent
                top[1] = parent_layer

        return wrapper

    def _dispatch(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Fire one scheduler callback inside a span of its own layer."""
        try:
            fire = self._fire_by_module[fn.__module__]
        except (KeyError, AttributeError):
            fire = self._fire_for(fn)
        return fire(fn, *args)

    def _fire_for(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        # A partial reports module "functools", which is never cached,
        # so it is unwrapped here on every firing.
        while isinstance(fn, functools.partial):
            fn = fn.func
        module = getattr(fn, "__module__", None) or type(fn).__module__
        fire = self._fire_by_module.get(module)
        if fire is None:
            nid = self.name_id(f"callback:{module}", layer_of_module(module))
            fire = self._fire_by_module[module] = self._wrap(_call, nid)
        return fire

    def _with_callback_spans(
        self, fn: Callable[..., Any], how: str
    ) -> Callable[..., Any]:
        """``fn`` with the callback(s) it is handed routed through ``_dispatch``."""
        dispatch = self._dispatch
        if how == "positional":
            def rewritten(self_: Any, when: float, cb: Any, *cb_args: Any) -> Any:
                return fn(self_, when, dispatch, cb, *cb_args)
        else:
            def rewritten(self_: Any, items: Iterable[tuple]) -> Any:
                return fn(
                    self_,
                    [(delay, dispatch, (cb, *cb_args)) for delay, cb, cb_args in items],
                )
        return functools.wraps(fn)(rewritten)

    # ------------------------------------------------------------------
    # Installing / removing wrappers
    # ------------------------------------------------------------------
    def install(self, entry_points: dict[str, tuple[str, ...]] = ENTRY_POINTS) -> None:
        """Wrap every resolvable entry point; list the rest in ``missing``."""
        for layer, dotted_names in entry_points.items():
            for dotted in dotted_names:
                try:
                    targets = self._expand(dotted)
                except LookupError:
                    self.missing.append(dotted)
                    continue
                for owner, attr, name in targets:
                    self._patch(owner, attr, name, layer)

    def _expand(self, dotted: str) -> list[tuple[Any, str, str]]:
        """``[(owner, attr, span name)]``; ``X.*`` -> X's own public functions."""
        if not dotted.endswith(".*"):
            owner, attr = resolve(dotted)
            return [(owner, attr, dotted)]
        cls_name = dotted[:-2]
        owner, attr = resolve(cls_name)
        cls = getattr(owner, attr)
        return [
            (cls, name, f"{cls_name}.{name}")
            for name, value in vars(cls).items()
            if isinstance(value, (types.FunctionType, classmethod, staticmethod))
            and not name.startswith("_")
        ]

    def _patch(self, owner: Any, attr: str, name: str, layer: str) -> None:
        if isinstance(owner, type):
            # Wrap where the function is defined, so an inherited name
            # is wrapped once on its base, not shadowed on the subclass.
            owner = next((c for c in owner.__mro__ if attr in vars(c)), None)
            raw = vars(owner)[attr] if owner else None
        else:
            raw = getattr(owner, attr)
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if not isinstance(fn, types.FunctionType):
            self.missing.append(name)
            return
        how = CALLBACK_TAKERS.get(name)
        wrapper = self._wrap(
            self._with_callback_spans(fn, how) if how else fn,
            self.name_id(name, layer),
        )
        if isinstance(owner, type):
            self._set(owner, attr, raw, kind(wrapper) if kind else wrapper)
            return
        # A module-level function: rebind the name in every loaded
        # module of the package that imported it by value.
        package = owner.__name__.partition(".")[0]
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] != package:
                continue
            for alias, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, alias, fn, wrapper)

    def _set(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per layer: self time, share of the root span, crossings."""
        n_layers = len(self.layers)
        self_s = [0.0] * n_layers
        crossings = [0] * n_layers
        total = 0.0
        name_layer = self.name_layer
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for index in range(len(names)):
            duration = ends[index] - starts[index]
            layer = name_layer[names[index]]
            self_s[layer] += duration
            parent = parents[index]
            if parent < 0:
                total += duration
                crossings[layer] += 1
                continue
            parent_layer = name_layer[names[parent]]
            self_s[parent_layer] -= duration
            if parent_layer != layer:
                crossings[layer] += 1
        return {
            layer: {
                "self_s": self_s[i],
                "share": self_s[i] / total if total else 0.0,
                "calls": crossings[i],
            }
            for i, layer in enumerate(self.layers)
        }

    def calls(self, suffix: str) -> int:
        """Total calls of every span name ending in ``suffix``."""
        return sum(
            count
            for name, count in zip(self.names, self.call_counts)
            if name.endswith(suffix)
        )

    def dump_spans(self, path: str, limit: int = 100_000) -> None:
        """Write the first ``limit`` spans as JSON lines, for inspection."""
        with open(path, "w") as out:
            for index in range(min(limit, len(self.span_name))):
                nid = self.span_name[index]
                out.write(json.dumps({
                    "id": index,
                    "name": self.names[nid],
                    "layer": self.layers[self.name_layer[nid]],
                    "start": self.span_start[index],
                    "end": self.span_end[index],
                    "parent": self.span_parent[index],
                }) + "\n")
