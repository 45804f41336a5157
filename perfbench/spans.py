"""Span tracer that instruments the reproduction from outside.

:func:`install` swaps the module-level bindings that callers look up at
call time (``repro.core.flow.randomize_netlist``, ``ArtifactStore.load``,
the ``fn`` of each registry entry, ...) for timing wrappers, and
:meth:`Tracer.restore` puts the originals back.  Nothing under ``src/`` is
edited, so an untraced run executes exactly the program a user runs.

Every wrapped call pushes a frame on a per-thread stack.  A call records a
span (id, parent, trace id, name, thread, start, end) unless it is one of
the hot bindings called thousands of times per pass (``compile_plan``,
``materialize_into``); those only add to their layer's counters.  Either
way its duration is charged to the enclosing frame, so a layer's self time
is its duration minus the time of the wrapped calls nested inside it.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    trace: str
    name: str
    thread: str
    start_ns: int
    end_ns: int


@dataclass
class LayerStat:
    """Counters of one traced name."""

    calls: int = 0
    #: Inclusive time, counted at the outermost frame of the name only, so
    #: a recursive call is not counted twice.
    total_ns: int = 0
    #: Time not covered by wrapped calls nested inside.
    self_ns: int = 0


class Tracer:
    """In-memory spans and per-name counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stats: Dict[str, LayerStat] = {}
        #: Quantities observed on results (swaps, open connections, bytes).
        self.observed: Dict[str, float] = {}
        #: Label of the job in flight; spans record it as their trace id.
        self.trace_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, record: bool) -> Tuple[list, Optional[list]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if record:
            span_id: Optional[int] = next(self._ids)
        else:
            span_id = parent[0] if parent is not None else None
        frame = [span_id, name, 0]  # [span id, name, nested wrapped ns]
        stack.append(frame)
        return frame, parent

    def _exit(self, frame: list, parent: Optional[list], record: bool,
              start: int, end: int) -> None:
        stack = self._stack()
        stack.pop()
        duration = end - start
        name = frame[1]
        if parent is not None:
            parent[2] += duration
        outermost = all(other[1] != name for other in stack)
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = LayerStat()
            stat.calls += 1
            stat.self_ns += duration - frame[2]
            if outermost:
                stat.total_ns += duration
            if record:
                self.spans.append(Span(
                    frame[0], parent[0] if parent is not None else None,
                    self.trace_id, name, threading.current_thread().name,
                    start, end,
                ))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             record: bool = True) -> Any:
        frame, parent = self._enter(name, record)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, parent, record, start, time.perf_counter_ns())

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame, parent = self._enter(name, True)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(frame, parent, True, start, time.perf_counter_ns())

    def observe(self, key: str, amount: float) -> None:
        with self._lock:
            self.observed[key] = self.observed.get(key, 0) + amount

    # -- queries -------------------------------------------------------------

    def self_seconds(self, prefix: str) -> float:
        return sum(stat.self_ns for name, stat in self.stats.items()
                   if name.startswith(prefix)) / 1e9

    def covered_seconds(self, start_ns: int, end_ns: int) -> float:
        """Length of the union of root-span intervals inside a window."""
        intervals = sorted(
            (max(span.start_ns, start_ns), min(span.end_ns, end_ns))
            for span in self.spans if span.parent is None
        )
        covered = 0
        reach = start_ns
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered / 1e9

    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write every span and counter as JSON."""
        payload = {
            **extra,
            "spans": [span._asdict() for span in self.spans],
            "layers": {name: dataclasses.asdict(stat)
                       for name, stat in sorted(self.stats.items())},
            "observed": self.observed,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True))

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *, record: bool = True,
             observe: Optional[Callable[[Any, tuple], None]] = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        traced wrapper; ``observe(result, args)`` runs after each call,
        outside the timed interval."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs, record)
            if observe is not None:
                observe(result, args)
            return result

        self._patches.append((owner, attr, original))
        _assign(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _assign(owner, attr, original)


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    elif dataclasses.is_dataclass(owner) and not isinstance(owner, type):
        # Registry entries are frozen dataclasses held by reference.
        object.__setattr__(owner, attr, value)
    else:
        setattr(owner, attr, value)


def _entry_bytes(store: Any, key: str) -> int:
    payload = store.payload_path(key)
    if payload is None:
        return 0
    return sum(path.stat().st_size for path in payload.parent.iterdir())


def install(tracer: Tracer) -> None:
    """Wrap every binding the benchmark's layers are measured at."""
    from repro.api import workspace
    from repro.api.registry import ATTACKS, DEFENSES, METRICS, ensure_builtins
    from repro.circuits import registry as circuits_registry
    from repro.core import flow, lifting, randomizer, restore
    from repro.defenses import (
        layout_randomization,
        pin_swapping,
        placement_perturbation,
        routing_blockage,
        routing_perturbation,
        synergistic,
    )
    from repro.experiments import runner, table4_placement_schemes
    from repro.layout import layout
    from repro.layout.arrays import RoutingArrays
    from repro.metrics import security
    from repro.netlist import engine
    from repro.store import ArtifactStore

    ensure_builtins()
    wrap = tracer.wrap

    # circuits: the workspace's netlist generation, and the store's
    # fingerprint-check regeneration (a function-local import).
    wrap(workspace, "get_benchmark", "circuits.generate")
    wrap(circuits_registry, "get_benchmark", "circuits.generate")

    # netlist: plan compiles are counted by distinct plan objects returned.
    # Plans are unhashable dataclasses: key them by id, held weakly.
    plans: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()

    def new_plan(plan: Any, _args: tuple) -> None:
        if plans.get(id(plan)) is not plan:
            plans[id(plan)] = plan
            tracer.observe("netlist.plan_compiles", 1)

    wrap(engine, "compile_plan", "netlist.compile_plan", record=False,
         observe=new_plan)
    wrap(randomizer, "output_error_rate", "netlist.oer[randomizer]")
    wrap(security, "output_error_rate", "netlist.oer[metrics]")
    wrap(security, "hamming_distance", "netlist.hd[metrics]")

    # core: the paper's own flow, at the bindings protect() calls.
    wrap(flow, "randomize_netlist", "core.randomize",
         observe=lambda result, _a: tracer.observe("core.swaps", result.num_swaps))
    wrap(flow, "build_protected_layout", "core.restore")
    wrap(flow, "build_naive_lifted_layout", "core.lift")
    wrap(flow, "evaluate_ppa", "core.ppa_eval")
    wrap(flow, "static_timing_analysis", "timing.sta")
    wrap(flow, "estimate_power", "timing.power")
    wrap(restore, "legalize_correction_cells", "core.legalize")
    wrap(lifting, "legalize_correction_cells", "core.legalize")

    # layout: place/route at every caller's binding.
    wrap(layout, "place", "layout.place")
    wrap(layout, "route", "layout.route")
    wrap(layout, "place_batch", "layout.place_batch")
    wrap(layout, "route_batch", "layout.route_batch")
    wrap(restore, "place", "layout.place")
    wrap(restore, "route_connections_batch", "layout.route")
    for module in (layout_randomization, pin_swapping, placement_perturbation,
                   routing_blockage, routing_perturbation, synergistic):
        wrap(module, "place", "layout.place")
        wrap(module, "route", "layout.route")
    wrap(RoutingArrays, "materialize_into", "layout.materialize", record=False)

    # sm: FEOL extraction at the workspace and at Table 4's own loop.
    def feol(view: Any, _args: tuple) -> None:
        tracer.observe("sm.open_connections", len(view.open_connections))

    wrap(workspace, "extract_feol", "sm.extract_feol", observe=feol)
    wrap(table4_placement_schemes, "extract_feol", "sm.extract_feol", observe=feol)

    # registries: attacks, metrics and scheme builders.
    for name in ATTACKS.names():
        wrap(ATTACKS.get(name), "fn", f"attacks.{name}")
    for name in METRICS.names():
        scope = METRICS.get(name).extra.get("scope")
        layer = "metrics.security" if scope == "attack" else "metrics.layout"
        wrap(METRICS.get(name), "fn", f"{layer}[{name}]")
    for name in DEFENSES.names():
        if name == "proposed":
            layer = "core.protect"
        elif name == "original":
            layer = "api.build_original"
        else:
            layer = f"defenses.build[{name}]"
        wrap(DEFENSES.get(name), "fn", layer)

    # store: bytes are read off the entry directory after the call.
    def saved(installed: bool, args: tuple) -> None:
        if installed:
            tracer.observe("store.bytes_written", _entry_bytes(args[0], args[1]))

    def loaded(build: Any, args: tuple) -> None:
        if build is not None:
            tracer.observe("store.bytes_read", _entry_bytes(args[0], args[1]))

    wrap(ArtifactStore, "save", "store.save", observe=saved)
    wrap(ArtifactStore, "load", "store.load", observe=loaded)

    # api and experiments: the public entry points.
    wrap(workspace.Workspace, "run_sweeps", "api.run_sweeps")
    wrap(workspace.Workspace, "run_scenarios", "api.run_scenarios")
    for name in list(runner.EXPERIMENTS):
        wrap(runner.EXPERIMENTS, name, f"experiments.{name}")
