"""Per-layer self-time attribution, installed from outside the package.

The traced run wraps each layer's public entry points — module
functions, class methods and the callables held by the objective
registry — with timing shims, without editing ``src/repro``.  One
layer is one module's concern (``occupancy``, ``fingerprint``,
``binary`` ...); :data:`LAYERS` below is the whole table.

Each wrapped call opens a *frame*.  Frames chain through a
``ContextVar``, which asyncio tasks and ``asyncio.to_thread`` copy, so a
server request's children are credited to it even when they run in a
worker thread.  A frame's *self* time is its duration minus the
durations of its direct children, so self times never double count and
their sum over every layer equals the summed duration of the outermost
(root) frames.  For the client process the roots cover the timed loop
except the benchmark's own bookkeeping, which is reported as
``unattributed``.

Garbage-collector pauses are timed separately through ``gc.callbacks``.
They overlap the layer frames (a collection runs inside whichever call
allocated), so ``gc.pause_ms`` is an overlay, not part of the partition.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> entry points, as ``"module:attr"`` (a module function,
#: patched wherever it was imported by name) or ``"module:Class.attr"``
#: (a method, patched on the class that defines it).  The registry
#: callables (normalize/fingerprint/solve/verify) are wrapped separately
#: in :func:`_wrap_registry`.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "occupancy.first_fit": (
        "repro.core.occupancy:OccupancyEngine.first_fit",
        "repro.core.occupancy:RingOccupancy.first_fit",
        "repro.core.occupancy:DemandOccupancy.first_fit",
    ),
    "verify": (
        "repro.minbusy.base:check_result",
        "repro.capacity.demands:validate_demand_schedule",
        "repro.core.schedule:Schedule.validate",
        "repro.rect.schedule2d:RectSchedule.validate",
    ),
    "executors": (
        "repro.engine.executors:SerialExecutor.run",
        "repro.engine.executors:AsyncQueueExecutor._submit",
        "repro.engine.executors:AsyncQueueExecutor._run_one",
        "repro.engine.executors:_solve_task",
        "repro.engine.engine:_solve_uncached",
    ),
    "rebuild": (
        "repro.engine.engine:serve_hit",
        "repro.engine.engine:_schedule_for",
        "repro.api.remote:result_from_doc",
    ),
    "io.to_doc": (
        "repro.io:objective_instance_to_dict",
        "repro.io:instance_to_dict",
    ),
    "io.from_doc": ("repro.io:objective_instance_from_dict",),
    "binary.encode": (
        "repro.service.binary:encode_binary",
        "repro.service.binary:intern_frame",
    ),
    "binary.decode": ("repro.service.binary:decode_payload",),
    "tiers.probe": (
        "repro.engine.tiers:TieredCache.get",
        "repro.engine.tiers:TieredCache.get_many",
    ),
    "tiers.install": (
        "repro.engine.tiers:TieredCache.put",
        "repro.engine.tiers:TieredCache.put_many",
    ),
    "repair": (
        "repro.engine.repair:RepairTier.get",
        "repro.engine.repair:RepairTier.get_many",
        "repro.engine.repair:RepairTier.put",
        "repro.engine.repair:RepairTier.put_many",
    ),
    "store.put": (
        "repro.engine.store:ResultStore.put",
        "repro.engine.store:ResultStore.put_many",
    ),
    "store.get": (
        "repro.engine.store:ResultStore.get",
        "repro.engine.store:ResultStore.get_many",
    ),
    # Client-side request glue and the socket round trip.
    "api": (
        "repro.api.session:Session.solve",
        "repro.api.remote:RemoteSession.solve",
    ),
    "client.rtt": ("repro.service.client:ServiceClient.request",),
    # The server's per-request coroutine: its self time is everything a
    # request costs the server outside the layers above.
    "server": ("repro.service.server:SolveServer._dispatch",),
}

#: Families whose ``solve`` gets its own ``algorithm.<family>`` layer;
#: the rest share ``algorithm.other``.
ALGORITHM_FAMILIES = ("minbusy", "capacity", "ring", "rect2d")

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Accumulates per-layer self time and call counts.

    Totals live in per-thread dictionaries (each written only by its
    own thread), so the hot path takes no lock; :meth:`snapshot` sums
    them.  Call it while the traced process is quiescent — between
    requests of the closed loop — and subtract two snapshots to scope
    the numbers to a phase.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._all: List[Dict[str, Any]] = []
        self._register = threading.Lock()
        self._gc_started = 0.0

    def _acc(self) -> Dict[str, Any]:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = {
                "self": defaultdict(float),
                "calls": defaultdict(int),
                "root": 0.0,
                "gc_pause": 0.0,
                "gc_gen2": 0,
            }
            self._local.acc = acc
            with self._register:
                self._all.append(acc)
        return acc

    def _close(self, frame: _Frame, parent: Optional[_Frame], dt: float) -> None:
        acc = self._acc()
        acc["self"][frame.layer] += dt - frame.child
        if parent is None:
            acc["root"] += dt
        else:
            parent.child += dt
        if parent is None or parent.layer != frame.layer:
            acc["calls"][frame.layer] += 1

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """A timing shim for ``fn`` reporting into ``layer``."""
        if getattr(fn, "__perfbench_layer__", None) is not None:
            return fn
        close = self._close
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def shim(*args: Any, **kwargs: Any) -> Any:
                parent = _CURRENT.get()
                frame = _Frame(layer)
                token = _CURRENT.set(frame)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    _CURRENT.reset(token)
                    close(frame, parent, dt)

        else:

            @functools.wraps(fn)
            def shim(*args: Any, **kwargs: Any) -> Any:
                parent = _CURRENT.get()
                frame = _Frame(layer)
                token = _CURRENT.set(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    _CURRENT.reset(token)
                    close(frame, parent, dt)

        shim.__perfbench_layer__ = layer
        return shim

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        acc = self._acc()
        acc["gc_pause"] += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            acc["gc_gen2"] += 1

    def snapshot(self) -> Dict[str, Any]:
        """Totals so far: per-layer self seconds and calls, root seconds,
        GC pause seconds and full collections."""
        out: Dict[str, Any] = {
            "self_s": defaultdict(float),
            "calls": defaultdict(int),
            "root_s": 0.0,
            "gc_pause_s": 0.0,
            "gc_gen2": 0,
        }
        with self._register:
            accs = list(self._all)
        for acc in accs:
            for layer, value in list(acc["self"].items()):
                out["self_s"][layer] += value
            for layer, value in list(acc["calls"].items()):
                out["calls"][layer] += value
            out["root_s"] += acc["root"]
            out["gc_pause_s"] += acc["gc_pause"]
            out["gc_gen2"] += acc["gc_gen2"]
        out["self_s"] = dict(out["self_s"])
        out["calls"] = dict(out["calls"])
        return out


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` of two :meth:`Tracer.snapshot` documents."""
    layers = set(after["self_s"]) | set(before["self_s"])
    return {
        "self_s": {
            k: after["self_s"].get(k, 0.0) - before["self_s"].get(k, 0.0)
            for k in sorted(layers)
        },
        "calls": {
            k: after["calls"].get(k, 0) - before["calls"].get(k, 0)
            for k in sorted(set(after["calls"]) | set(before["calls"]))
        },
        "root_s": after["root_s"] - before["root_s"],
        "gc_pause_s": after["gc_pause_s"] - before["gc_pause_s"],
        "gc_gen2": after["gc_gen2"] - before["gc_gen2"],
    }


def _patch_function(module_name: str, attr: str, shim: Callable) -> None:
    """Replace a module function everywhere it was imported by name."""
    original = getattr(sys.modules[module_name], attr)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, shim)


def _wrap_registry(tracer: Tracer) -> None:
    from dataclasses import replace

    from repro.core.registry import REGISTRY
    from repro.engine.objectives import ensure_registered

    ensure_registered()
    for spec in REGISTRY.specs():
        family = (
            spec.name if spec.name in ALGORITHM_FAMILIES else "other"
        )
        REGISTRY.register(
            replace(
                spec,
                normalize=tracer.wrap("registry.normalize", spec.normalize),
                fingerprint=tracer.wrap("fingerprint", spec.fingerprint),
                solve=tracer.wrap(f"algorithm.{family}", spec.solve),
                verify=(
                    tracer.wrap("verify", spec.verify)
                    if spec.verify is not None
                    else None
                ),
            )
        )


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`LAYERS` and the registry.

    Call it once per process, before the first solve.
    """
    modules = {target.split(":")[0] for targets in LAYERS.values() for target in targets}
    for module_name in sorted(modules):
        importlib.import_module(module_name)
    _wrap_registry(tracer)
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, path = target.split(":")
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, tracer.wrap(layer, vars(cls)[attr]))
            else:
                shim = tracer.wrap(layer, getattr(module, path))
                _patch_function(module_name, path, shim)
    gc.callbacks.append(tracer._on_gc)
