"""The benchmark's workloads, each driving the public API as a user would.

Every workload runs *passes*.  A pass runs the workload's job on empty
caches (the cold job), then the same job again on the caches the cold job
left behind (the warm job), and returns a :class:`PassResult`: timings,
operation counts, workspace counters and the job's output in a plain,
comparable form.  All work is serial and in one process (``jobs=1``): the
``repro.exec`` process pool is left out on purpose, see ``NOTES.md``.

``paper_grid``
    ``run_all(quick_config(), jobs=1)`` with ``seed=<seed>``: the in-process
    form of ``repro run all --quick``.  Warm job: ``run_all`` again on the
    same default workspace.
``proposed_sweep``
    ``Workspace.run_sweeps`` over the paper's ``proposed`` scheme on c1908,
    seeds ``<seed> .. <seed>+7``.  Warm job: the same call again.
``store_service``
    ``ScenarioService`` over a ``Workspace`` backed by a fresh artefact
    store, driven by one closed-loop HTTP client; the warm job is the same
    POST to a fresh service and workspace on the same store directory.

``SIZES["tiny"]`` shrinks every job for the self-test.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import hashlib
import http.client
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Job sizes: "full" is what the benchmark measures, "tiny" what the
#: self-test runs.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "paper_grid": {},
        "proposed_sweep": {
            "benchmark": "c1908", "swap_fraction_steps": [0.05, 0.10],
            "split_layers": [3, 4, 5], "num_patterns": 1024, "seeds": 8,
        },
        "store_service": {"benchmark": "superblue12", "scale": 0.01, "seeds": 16},
    },
    "tiny": {
        "paper_grid": {
            "iscas_benchmarks": ("c432",), "superblue_benchmarks": ("superblue18",),
            "num_patterns": 64, "iscas_swap_fractions": (0.05,),
        },
        "proposed_sweep": {
            "benchmark": "c432", "swap_fraction_steps": [0.05],
            "split_layers": [4], "num_patterns": 64, "seeds": 2,
        },
        "store_service": {"benchmark": "superblue18", "scale": 0.0025, "seeds": 2},
    },
}

#: The in-memory warm job takes milliseconds.  Its time swings up to 2x
#: from one second to the next with the share of time the host takes the
#: CPU away, so after an untraced pass it repeats for this long, and
#: ``warm_job_s`` is the median of all its timings.
WARM_SECONDS = 8.0

#: Seconds one result long-poll may hold the connection.
_LONG_POLL_S = 120

try:  # glibc only; elsewhere freed heap simply stays with the process
    _LIBC: Optional[ctypes.CDLL] = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float
    cpu_s: float
    cold_job_s: float
    warm_job_s: float
    #: Scenario executions (memoized replays are not executions).
    scenarios: int
    #: Operations attempted and failed: scenario executions and HTTP
    #: requests; failed output checks are added by the caller.
    attempted: int
    failed: int
    #: Workspace counters summed over the workspaces the pass used.
    stats: Dict[str, int]
    #: The cold job's output, in plain comparable form.
    output: Any
    #: Mismatches the workload itself detected (warm vs cold, etc.).
    mismatches: List[str] = field(default_factory=list)
    #: perf_counter_ns at the start and end of the pass.
    window_ns: tuple = (0, 0)
    loadavg: Dict[str, List[float]] = field(default_factory=dict)
    #: Client-side HTTP measurements (store_service only).
    service: Dict[str, Any] = field(default_factory=dict)


def strip_elapsed(value: Any) -> Any:
    """Drop wall-clock ``elapsed_s`` fields, recursively."""
    if isinstance(value, dict):
        return {k: strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, (list, tuple)):
        return [strip_elapsed(v) for v in value]
    return value


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form (floats at full precision)."""
    raw = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _sum_stats(*stats: Dict[str, int]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for one in stats:
        for key, value in one.items():
            total[key] = total.get(key, 0) + value
    return total


def _release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS, so a pass's peak
    memory does not stack on what earlier passes left in the allocator."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


class _Meter:
    """Wall, CPU and load average over one pass."""

    def __init__(self) -> None:
        _release_memory()
        self.load_start = list(os.getloadavg())
        self.cpu0 = _cpu_seconds()
        self.t0 = time.perf_counter_ns()
        self.last = self.t0

    def lap(self) -> float:
        now = time.perf_counter_ns()
        lap, self.last = (now - self.last) / 1e9, now
        return lap

    def finish(self, **fields: Any) -> PassResult:
        end = time.perf_counter_ns()
        return PassResult(
            wall_s=(end - self.t0) / 1e9,
            cpu_s=_cpu_seconds() - self.cpu0,
            window_ns=(self.t0, end),
            loadavg={"start": self.load_start, "end": list(os.getloadavg())},
            **fields,
        )


def _warm_median(replay: Callable[[], Any], first_s: float) -> float:
    """Median time of the warm job: its run inside the pass, then repeats
    for ``WARM_SECONDS`` outside the pass."""
    samples = [first_s]
    end = time.perf_counter() + WARM_SECONDS
    while time.perf_counter() < end:
        start = time.perf_counter()
        replay()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _label(tracer, job: str) -> None:
    """Tag the spans that follow with the job they belong to."""
    if tracer is not None:
        tracer.trace_id = job


def table_rows(tables: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Each table's columns and rows as plain JSON data (titles carry run
    times under ``run_all``, so they are left out)."""
    def plain(cell: Any) -> Any:
        if hasattr(cell, "item") and not isinstance(cell, (int, float, str)):
            cell = cell.item()
        if cell is None or isinstance(cell, (bool, int, float, str)):
            return cell
        return str(cell)

    return {
        name: {"columns": list(table.columns),
               "rows": [[plain(cell) for cell in row] for row in table.rows]}
        for name, table in tables.items()
    }


# ---------------------------------------------------------------------------


class PaperGrid:
    name = "paper_grid"

    def __init__(self, seed: int, work_dir: Path, size: str = "full") -> None:
        from repro.experiments.runner import quick_config

        self.config = dataclasses.replace(
            quick_config(), seed=seed, **SIZES[size]["paper_grid"])

    def run_pass(self, tracer=None) -> PassResult:
        from repro.api.workspace import default_workspace, reset_default_workspace
        from repro.experiments.runner import run_all

        reset_default_workspace()
        _label(tracer, "cold")
        meter = _Meter()
        cold = table_rows(run_all(self.config, jobs=1))
        cold_s = meter.lap()
        _label(tracer, "warm")
        warm = table_rows(run_all(self.config, jobs=1))
        warm_s = meter.lap()
        stats = default_workspace().stats()
        result = meter.finish(
            cold_job_s=cold_s, warm_job_s=warm_s,
            scenarios=stats["scenario_misses"],
            attempted=stats["scenario_misses"], failed=0,
            stats=stats, output=cold,
        )
        if warm != cold:
            result.mismatches.append("warm run_all tables differ from cold")
        if tracer is None:
            result.warm_job_s = _warm_median(
                lambda: run_all(self.config, jobs=1), warm_s)
        return result

    def digests(self, output: Dict[str, Any]) -> Dict[str, str]:
        return {name: digest(table) for name, table in output.items()}

    def check(self, output: Any) -> List[str]:
        return []


class ProposedSweep:
    name = "proposed_sweep"

    def __init__(self, seed: int, work_dir: Path, size: str = "full") -> None:
        from repro.api.spec import ScenarioSpec

        params = SIZES[size]["proposed_sweep"]
        self.seeds = list(range(seed, seed + params["seeds"]))
        self.spec = ScenarioSpec.from_dict({
            "benchmark": params["benchmark"],
            "scheme": "proposed",
            "scheme_params": {"swap_fraction_steps": params["swap_fraction_steps"]},
            "layouts": ["original", "protected"],
            "split_layers": params["split_layers"],
            "attacks": ["proximity"],
            "metrics": ["security", "ppa_overheads"],
            "num_patterns": params["num_patterns"],
            "seeds": {"start": seed, "count": params["seeds"]},
        })

    def run_pass(self, tracer=None) -> PassResult:
        from repro.api.workspace import Workspace

        workspace = Workspace(store=None)
        _label(tracer, "cold")
        meter = _Meter()
        cold = workspace.run_sweeps([self.spec], jobs=1)[0]
        cold_s = meter.lap()
        _label(tracer, "warm")
        warm = workspace.run_sweeps([self.spec], jobs=1)[0]
        warm_s = meter.lap()
        stats = workspace.stats()
        output = strip_elapsed(cold.to_dict())
        result = meter.finish(
            cold_job_s=cold_s, warm_job_s=warm_s,
            scenarios=stats["scenario_misses"],
            attempted=stats["scenario_misses"],
            failed=len(cold.failures) + len(warm.failures),
            stats=stats, output=output,
        )
        if strip_elapsed(warm.to_dict()) != output:
            result.mismatches.append("warm sweep differs from cold")
        if tracer is None:
            result.warm_job_s = _warm_median(
                lambda: workspace.run_sweeps([self.spec], jobs=1), warm_s)
        return result

    def digests(self, output: Any) -> Dict[str, str]:
        return {"sweep": digest(output)}

    def check(self, output: Any) -> List[str]:
        if output.get("seeds") != self.seeds or output.get("failures"):
            return [f"sweep seeds {output.get('seeds')} != {self.seeds}"]
        return []


class StoreService:
    name = "store_service"

    def __init__(self, seed: int, work_dir: Path, size: str = "full") -> None:
        params = SIZES[size]["store_service"]
        self.work_dir = work_dir
        self.num_seeds = params["seeds"]
        self.body = {
            "benchmark": params["benchmark"],
            "scheme": "original",
            "scale": params["scale"],
            "netlist_seed": seed,
            "seeds": {"start": 0, "count": params["seeds"]},
            "metrics": ["distances", "wirelength_layers", "via_counts"],
        }
        self._reference: Optional[Any] = None
        self._passes = 0

    def reference(self) -> Any:
        """The in-process ``Workspace.run_sweeps`` result in its JSON form,
        which is how CI compares it with the wire result (computed once,
        outside any timed pass)."""
        if self._reference is None:
            from repro.api.spec import ScenarioSpec
            from repro.api.workspace import Workspace

            _release_memory()
            sweep = Workspace(store=None).run_sweeps(
                [ScenarioSpec.from_dict(self.body)], jobs=1)[0]
            self._reference = strip_elapsed(json.loads(json.dumps(sweep.to_dict())))
            del sweep
            _release_memory()
        return self._reference

    def _job(self, store_dir: Path, tracer, phase: str) -> Dict[str, Any]:
        """Start a service on ``store_dir``, run the job, stop it."""
        from repro.api.workspace import Workspace
        from repro.service import ScenarioService

        span = tracer.span if tracer is not None else (lambda _name: nullcontext())
        _label(tracer, phase)
        workspace = Workspace(store=store_dir)
        service = ScenarioService(workspace, jobs=1).start()
        requests = failed = 0
        try:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=_LONG_POLL_S + 60)
            try:
                raw = json.dumps(self.body).encode("utf-8")
                start = time.perf_counter_ns()
                with span("service.post"):
                    conn.request("POST", "/v1/jobs", body=raw,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    posted = json.loads(response.read())
                accepted = time.perf_counter_ns()
                requests += 1
                body: Dict[str, Any] = {}
                if response.status == 201:
                    job_id = posted["job"]["id"]
                    while True:
                        with span("service.result"):
                            conn.request(
                                "GET",
                                f"/v1/jobs/{job_id}/result?wait={_LONG_POLL_S}")
                            response = conn.getresponse()
                            body = json.loads(response.read())
                        requests += 1
                        if response.status != 202:
                            break
                done = time.perf_counter_ns()
                if response.status != 200 or "result" not in body:
                    failed += 1
            finally:
                conn.close()
        finally:
            service.stop()
        return {
            "job_s": (done - start) / 1e9,
            "accept_s": (accepted - start) / 1e9,
            "requests": requests,
            "failed": failed,
            "stats": workspace.stats(),
            "result": strip_elapsed(body.get("result")),
        }

    def run_pass(self, tracer=None) -> PassResult:
        self._passes += 1
        store_dir = self.work_dir / f"store-{self._passes}"
        meter = _Meter()
        try:
            cold = self._job(store_dir, tracer, "cold")
            # The warm service stands for a fresh process: the cold one's
            # garbage must not linger into the warm job's peak memory.
            _release_memory()
            warm = self._job(store_dir, tracer, "warm")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        scenarios = cold["stats"]["scenario_misses"] + warm["stats"]["scenario_misses"]
        requests = cold["requests"] + warm["requests"]
        result = meter.finish(
            cold_job_s=cold["job_s"], warm_job_s=warm["job_s"],
            scenarios=scenarios, attempted=scenarios + requests,
            failed=cold["failed"] + warm["failed"],
            stats=_sum_stats(cold["stats"], warm["stats"]),
            output=cold["result"],
            service={
                "requests": requests,
                "accept_s": [cold["accept_s"], warm["accept_s"]],
                "job_s": {"cold": cold["job_s"], "warm": warm["job_s"]},
            },
        )
        if warm["result"] != cold["result"]:
            result.mismatches.append("warm job result differs from cold")
        if warm["stats"]["builds_run"] != 0:
            result.mismatches.append(
                f"warm job ran {warm['stats']['builds_run']} builds, expected 0")
        if warm["stats"]["store_hits"] != self.num_seeds:
            result.mismatches.append(
                f"warm job had {warm['stats']['store_hits']} store hits, "
                f"expected {self.num_seeds}")
        return result

    def digests(self, output: Any) -> Dict[str, str]:
        return {"job": digest(output)}

    def check(self, output: Any) -> List[str]:
        if output != self.reference():
            return ["service result differs from in-process run_sweeps"]
        return []


WORKLOADS = {cls.name: cls for cls in (PaperGrid, ProposedSweep, StoreService)}
