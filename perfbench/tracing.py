"""Coarse span recorder for the benchmark's traced run.

The benchmark never edits ``src/``: a traced run swaps wrappers onto the
public entry points of each layer (topology constructors, warm start, converge, each
SPF and batch-SPF call, each FIB load or delta, each fair-share solve,
each trial), records a span per call, and puts the originals back when
the run ends.  Per-packet and per-event work is not wrapped; it is read
from the counters the program already keeps.  The one exception is
``transport``, whose entry points run per segment: those calls are
aggregated into per-name totals (self time included) but not kept as
individual spans, and their cost shows up in ``trace.overhead_s``.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Time in no layer span (the experiment functions, the
benchmark's own code) is ``trace.unattributed_s``: the self time of the
root span and of the ``experiment`` spans, which mark a campaign trial's
body so that the experiment code it runs is not charged to ``campaign``.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> the module layer its self time is charged to
LAYERS = {
    "topology": "topology",
    "dataplane": "dataplane",
    "fib": "net.fib",
    "routing": "routing",
    "sim": "sim.engine",
    "flow": "sim.flow",
    "transport": "transport",
    "workloads": "workloads",
    "campaign": "campaign",
}

#: (module, attribute, span name or None for capture-only, capture key)
#: A function imported by name into other modules is replaced there too.
PATCH_POINTS: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("repro.topology.fattree", "fat_tree", "topology.build", None),
    ("repro.core.f2tree", "f2tree", "topology.build", None),
    ("repro.dataplane.network", "Network.__init__", "dataplane.build", "network"),
    ("repro.experiments.common", "Bundle.converge", "routing.converge", None),
    ("repro.sim.flow.warmstart", "warm_start_linkstate", "routing.warmstart", None),
    ("repro.sim.flow.warmstart", "BatchRouteOracle.__init__", None, "oracle"),
    ("repro.routing.spf_batch", "batch_compute_routes", "routing.batch_spf", None),
    ("repro.routing.spf_incremental", "IncrementalSpfEngine.compute", "routing.spf", None),
    ("repro.sim.flow.warmstart", "OracleSpfEngine.compute", "routing.spf", None),
    ("repro.routing.linkstate", "LinkStateProtocol._install_pending",
     "routing.fib_download", None),
    ("repro.net.fib", "Fib.bulk_load", "fib.bulk_load", "bulk_load"),
    ("repro.net.fib", "Fib.apply_delta", "fib.apply_delta", None),
    ("repro.sim.engine", "Simulator.run", "sim.run", "sim"),
    ("repro.sim.flow.model", "FluidTrafficModel.__init__", "flow.build", "model"),
    ("repro.sim.flow.model", "FluidTrafficModel._recompute", "flow.recompute", None),
    ("repro.sim.flow.fairshare", "max_min_rates", "flow.solver", None),
    ("repro.sim.flow.model", "FluidTrafficModel._resolve", "flow.path_resolve", None),
    ("repro.transport.tcp", "TcpConnection.handle_segment", "transport.tcp", None),
    ("repro.transport.tcp", "TcpConnection._on_rto", "transport.tcp", None),
    ("repro.transport.apps", "PacedTcpSender._tick", "transport.tcp", None),
    ("repro.transport.udp", "UdpSender._tick", "transport.udp", None),
    ("repro.transport.udp", "UdpSink._on_packet", "transport.udp", None),
    ("repro.workloads.flow_partition_aggregate",
     "FlowPartitionAggregateWorkload.schedule", "workloads.schedule", "requests"),
    ("repro.workloads.flow_partition_aggregate",
     "FlowPartitionAggregateWorkload._launch_request", "workloads.launch", None),
    ("repro.workloads.flow_partition_aggregate",
     "FlowPartitionAggregateWorkload.collect", "workloads.collect", None),
    ("repro.workloads.flow_partition_aggregate",
     "FlowBackgroundTraffic.schedule", "workloads.schedule", None),
    ("repro.workloads.flow_partition_aggregate",
     "FlowBackgroundTraffic._launch_flow", "workloads.launch", None),
    ("repro.workloads.flow_partition_aggregate",
     "FlowBackgroundTraffic.collect", "workloads.collect", None),
    ("repro.campaign.runner", "run_campaign", "campaign.run", None),
    ("repro.campaign.runner", "execute_trial", "campaign.trial", None),
)

#: spans entered per packet or segment: totals only, no span records
AGGREGATED = frozenset({"transport.tcp", "transport.udp"})

ROOT_SPAN = "bench.rep"
#: a campaign trial's body (the experiment functions a trial kind runs)
TRIAL_BODY_SPAN = "experiment.trial"


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Patches:
    """Attribute swaps that :meth:`restore` undoes, newest first."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def attr(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        owned = attr in vars(owner)
        setattr(owner, attr, wrapper)

        def undo() -> None:
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def point(
        self, module_name: str, attribute: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Wrap ``module.attribute`` with ``make(original)``; a module
        function is also replaced wherever it was imported by name."""
        owner, attr, original = _resolve(module_name, attribute)
        wrapper = make(original)
        if isinstance(owner, type):
            self.attr(owner, attr, original, wrapper)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.attr(module, key, original, wrapper)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


#: a set-up window opens at a topology constructor and closes when the
#: fabric's control plane is converged (warm start or event-driven)
SETUP_OPEN = (
    ("repro.topology.fattree", "fat_tree"),
    ("repro.core.f2tree", "f2tree"),
)
SETUP_CLOSE = (
    ("repro.sim.flow.warmstart", "warm_start_linkstate"),
    ("repro.experiments.common", "Bundle.converge"),
)


class SetupClock:
    """Times set-up inside an untraced run: the host seconds from each
    topology build to the end of that fabric's warm start or converge,
    summed over the fabrics the run builds, read from ``now``."""

    def __init__(self, now: Callable[[], float]) -> None:
        self.now = now
        self.setup_s = 0.0
        self._opened: Optional[float] = None
        self._patches = Patches()

    def install(self) -> None:
        clock = self

        def opening(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if clock._opened is None:
                    clock._opened = clock.now()
                return fn(*args, **kwargs)
            return wrapper

        def closing(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                try:
                    return fn(*args, **kwargs)
                finally:
                    if clock._opened is not None:
                        clock.setup_s += clock.now() - clock._opened
                        clock._opened = None
            return wrapper

        for module_name, attribute in SETUP_OPEN:
            self._patches.point(module_name, attribute, opening)
        for module_name, attribute in SETUP_CLOSE:
            self._patches.point(module_name, attribute, closing)

    def uninstall(self) -> None:
        self._patches.restore()


class Tracer:
    """Records spans while the wrappers of :meth:`install` are in place.

    Spans live in memory (``records``: name, start, end, parent index)
    and are written out by :meth:`dump` after the run.
    """

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        #: name -> [calls, total seconds (outermost only), self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: objects seen by capture hooks, keyed by capture key
        self.captured: Dict[str, Dict[int, Any]] = {}
        self.entries_loaded = 0
        self.queue_depth_max = 0
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {}
        self._patches = Patches()

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> List[float]:
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        if name in AGGREGATED:
            index = parent
        else:
            index = len(self.records)
            self.records.append([name, 0.0, 0.0, int(parent)])
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [time.perf_counter(), 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[float]) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        start, child, index = frame
        duration = end - start
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:  # a span nested in its own name is not counted twice
            total[1] += duration
        total[2] += duration - child
        if stack:
            stack[-1][1] += duration
        if name not in AGGREGATED:
            record = self.records[int(index)]
            record[1] = start
            record[2] = end

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame)

    def _wrap(
        self, fn: Callable[..., Any], name: Optional[str], capture: Optional[str]
    ) -> Callable[..., Any]:
        seen = self.captured.setdefault(capture, {}) if capture else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if seen is not None:
                seen.setdefault(id(args[0]), args[0])
                if capture == "bulk_load":  # Fib.bulk_load(self, entries)
                    tracer.entries_loaded += len(args[1])
            if name is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        return wrapper

    # -------------------------------------------------------- patching

    def install(self) -> None:
        """Swap every patch point (and the event-queue push) for a
        recording wrapper; :meth:`uninstall` restores the originals."""
        for module_name, attribute, name, capture in PATCH_POINTS:
            self._patches.point(
                module_name, attribute,
                functools.partial(self._wrap, name=name, capture=capture),
            )
        tracer = self

        def trial_body(lookup: Callable[[str], Any]) -> Callable[[str], Any]:
            # the runner a trial kind resolves to, wrapped in its own span
            @functools.wraps(lookup)
            def wrapper(kind: str) -> Any:
                return functools.partial(tracer.span, TRIAL_BODY_SPAN, lookup(kind))
            return wrapper

        self._patches.point("repro.campaign.runner", "trial_runner", trial_body)
        engine = importlib.import_module("repro.sim.engine")
        push = heapq.heappush

        def tracked_push(queue: List[Any], entry: Any) -> None:
            push(queue, entry)
            if len(queue) > tracer.queue_depth_max:
                tracer.queue_depth_max = len(queue)

        self._patches.attr(engine, "_heappush", engine._heappush, tracked_push)

    def uninstall(self) -> None:
        self._patches.restore()

    def objects(self, capture: str) -> List[Any]:
        return list(self.captured.get(capture, {}).values())

    # -------------------------------------------------------- results

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def self_s_by_layer(self) -> Dict[str, float]:
        """Self seconds per span-name prefix (one per layer)."""
        out: Dict[str, float] = {prefix: 0.0 for prefix in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            prefix = name.split(".", 1)[0]
            if prefix in out:
                out[prefix] += self_s
        return out

    def unattributed_s(self) -> float:
        """Self seconds of every span outside the layers (the root span
        and the campaign trials' bodies)."""
        return float(sum(
            self_s for name, (_, _, self_s) in self.totals.items()
            if name.split(".", 1)[0] not in LAYERS
        ))

    def dump(self, path: pathlib.Path) -> None:
        """Write every recorded span (name, start, end, parent) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({record[0] for record in self.records})
        ids = {name: i for i, name in enumerate(names)}
        origin = self.records[0][1] if self.records else 0.0
        body = {
            "names": names,
            "layers": LAYERS,
            "spans": [
                [ids[name], round(start - origin, 9), round(end - origin, 9), parent]
                for name, start, end, parent in self.records
            ],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(body, separators=(",", ":")))
        tmp.replace(path)
