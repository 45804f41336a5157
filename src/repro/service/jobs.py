"""Job manager: content-addressed async jobs over a shared Workspace.

A job is one ``ScenarioSpec`` run as a seed sweep (single-seed specs count
as one-seed sweeps, exactly like ``repro run``).  Jobs are addressed by
the canonical spec hash + error policy, so concurrent identical requests
collapse to **one** job — the first request creates it, later ones fan in
as subscribers (``JobRecord.requests`` counts them).  Below that, the
Workspace's own in-flight build dedup guarantees a build key is computed
at most once even across *distinct* overlapping jobs.

Progress flows from the Workspace's listener hook: every build/store/
scenario event relevant to the job (filtered by build key, per-seed spec
hash, or seed-batch label prefix) is appended to the job's event log and
driven through its :class:`~repro.service.schemas.JobStateMachine`.
Streams (ndjson/SSE) replay the log and block on the job's condition
variable for more.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.spec import ScenarioSpec
from repro.api.workspace import (
    Workspace,
    build_label,
    default_jobs,
    default_workspace,
)
from repro.exec.errors import ExecError, ScenarioError
from repro.service.schemas import (
    InvalidTransition,
    JobRecord,
    JobStateMachine,
    job_id_for,
)

__all__ = ["Job", "JobManager", "MAX_FINISHED_JOBS"]

log = logging.getLogger("repro")

#: Terminal jobs kept in the job table; past it the least recently finished
#: are evicted (their ids then 404, and resubmitting creates a fresh job).
#: Queued and running jobs are never evicted.
MAX_FINISHED_JOBS = 256


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _client_jobs(value: Any) -> int:
    """Validate a client-chosen worker count; clamp it to the CPU ceiling."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {value!r}")
    return min(value, default_jobs())


def _wire_failure(record: Any) -> Dict[str, Any]:
    data = record.to_dict() if hasattr(record, "to_dict") else dict(record)
    data.pop("traceback_text", None)
    return data


class Job:
    """One content-addressed sweep job and its live event log."""

    def __init__(self, spec: ScenarioSpec, *, on_error: str, jobs: int,
                 on_finish: Optional[Callable[["Job"], None]] = None):
        spec_hash = spec.content_hash()
        self.spec = spec
        #: Runs once the job is terminal, before any waiter wakes.
        self.on_finish = on_finish
        self.machine = JobStateMachine()
        self.record = JobRecord(
            id=job_id_for(spec_hash, on_error),
            spec=spec.to_dict(),
            spec_hash=spec_hash,
            kind="sweep" if spec.seeds is not None else "scenario",
            jobs=jobs,
            on_error=on_error,
            created_utc=_utc_now(),
        )
        self.cond = threading.Condition()
        self.events: List[Dict[str, Any]] = []
        self.result: Optional[Any] = None          # SweepResult
        self.result_dict: Optional[Dict[str, Any]] = None
        # Progress-event filter targets: the per-seed build keys and spec
        # hashes this job expects, plus the label prefix its seed-batch
        # chunks carry ("c17:original:" matches both "…:seed3" singles and
        # "…:seeds[0,1,2]" chunks).
        singles = spec.expand_seeds()
        self.expected_keys = frozenset(s.build_key() for s in singles)
        self.seed_hashes = frozenset(s.content_hash() for s in singles)
        self.label_prefixes = frozenset(
            build_label(s).rsplit(":seed", 1)[0] + ":" for s in singles
        )

    # -- event log ---------------------------------------------------------

    def matches(self, fields: Dict[str, Any]) -> bool:
        if fields.get("key") in self.expected_keys:
            return True
        if fields.get("spec_hash") in self.seed_hashes:
            return True
        label = fields.get("label")
        if isinstance(label, str):
            return any(label.startswith(p) for p in self.label_prefixes)
        return False

    def append_event(self, kind: str, fields: Dict[str, Any]) -> None:
        with self.cond:
            if self.machine.state in ("done", "failed", "partial"):
                return  # late straggler from a shared build; log is sealed
            try:
                self.machine.apply(kind)
            except (InvalidTransition, ValueError):
                log.warning("job %s: dropped event %r in state %s",
                            self.record.id, kind, self.machine.state)
                return
            entry = {"seq": len(self.events), "event": kind}
            entry.update(fields)
            self.events.append(entry)
            self.record.events = len(self.events)
            self.record.state = self.machine.state
            progress = self.record.progress
            progress[kind] = progress.get(kind, 0) + 1
            self.cond.notify_all()

    def finish(self, state_event: str, *, failures: List[Any],
               error: Optional[Dict[str, Any]] = None,
               result: Optional[Any] = None) -> None:
        """Seal the job: record failures/result, drive the terminal event."""
        with self.cond:
            self.record.failures = [_wire_failure(f) for f in failures]
            self.record.error = error
            # The machine decides done-vs-partial off its own failure count;
            # reconcile with the authoritative sweep outcome first.
            self.machine.failures = len(self.record.failures)
            try:
                self.machine.apply(state_event)
            except InvalidTransition:
                pass  # already terminal (e.g. error after error)
            if result is not None:
                self.result = result
                self.result_dict = result.to_dict()
            entry = {"seq": len(self.events), "event": state_event,
                     "state": self.machine.state}
            self.events.append(entry)
            self.record.events = len(self.events)
            self.record.state = self.machine.state
            self.record.finished_utc = _utc_now()
            if self.on_finish is not None:
                self.on_finish(self)
            self.cond.notify_all()

    @property
    def terminal(self) -> bool:
        return self.record.state in ("done", "failed", "partial")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while not self.terminal:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self.cond.wait(remaining if remaining is not None else 1.0)
            return True

    def events_since(self, start: int) -> List[Dict[str, Any]]:
        with self.cond:
            return list(self.events[start:])


class JobManager:
    """Runs jobs on a shared Workspace through a small worker pool."""

    def __init__(self, workspace: Optional[Workspace] = None, *,
                 jobs: Optional[int] = None, on_error: Optional[str] = None,
                 max_workers: int = 4):
        self.workspace = workspace if workspace is not None else default_workspace()
        self.default_jobs = jobs
        self.default_on_error = on_error
        self._jobs: Dict[str, Job] = {}
        #: Ids of terminal jobs, least recently finished first.
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job")
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=True)

    # -- submission --------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Tuple[Job, bool]:
        """Submit a request body; returns ``(job, created)``.

        ``payload`` is either a bare ``ScenarioSpec`` dict or an envelope
        ``{"spec": {...}, "on_error": "skip"|"raise", "jobs": N}``.  A
        request whose (canonical spec hash, on_error) matches a known job
        joins it instead of creating a second one — including jobs that
        already finished, which is exactly the warm-cache replay path.
        A client ``jobs`` must be an integer >= 1 and is clamped to
        :func:`~repro.api.workspace.default_jobs`; the job id ignores it.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if "spec" in payload and "benchmark" not in payload:
            spec_data = payload["spec"]
            on_error = payload.get("on_error", self.default_on_error) or "raise"
            requested = payload.get("jobs")
            if requested is None:
                jobs = int(self.default_jobs or 1)
            else:
                jobs = _client_jobs(requested)
        else:
            spec_data = payload
            on_error = self.default_on_error or "raise"
            jobs = int(self.default_jobs or 1)
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', "
                             f"got {on_error!r}")
        if not isinstance(spec_data, dict):
            raise ValueError("spec must be a JSON object")
        spec = ScenarioSpec.from_dict(spec_data)
        spec.validate()
        job_id = job_id_for(spec.content_hash(), on_error)
        # Lock order is job.cond -> self._lock (a finishing job retires
        # itself under its condition), so no job condition is taken here.
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is None:
                if self._closed:
                    raise RuntimeError("job manager is shut down")
                job = Job(spec, on_error=on_error, jobs=jobs,
                          on_finish=self._retire)
                self._jobs[job_id] = job
        if existing is not None:
            with existing.cond:
                existing.record.requests += 1
            return existing, False
        self._executor.submit(self._run, job)
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- execution ---------------------------------------------------------

    def _run(self, job: Job) -> None:
        record = job.record

        def listener(fields: Dict[str, Any]) -> None:
            event = fields.get("event")
            if not isinstance(event, str) or not job.matches(fields):
                return
            payload = {k: v for k, v in fields.items() if k != "event"}
            job.append_event(event, payload)

        with job.cond:
            record.started_utc = _utc_now()
        start = time.perf_counter()
        self.workspace.add_progress_listener(listener)
        try:
            sweep = self.workspace.run_sweeps(
                [job.spec], jobs=record.jobs, on_error=record.on_error,
            )[0]
        except ScenarioError as error:
            self.workspace.remove_progress_listener(listener)
            job.finish("error", failures=list(error.failures), error={
                "error_type": type(error).__name__,
                "message": str(error),
                "spec_hash": error.spec_hash,
            })
        except ExecError as error:
            self.workspace.remove_progress_listener(listener)
            job.finish("error", failures=list(getattr(error, "failures", [])),
                       error={
                           "error_type": type(error).__name__,
                           "message": str(error),
                       })
        except Exception as error:  # noqa: BLE001 - job must reach terminal
            self.workspace.remove_progress_listener(listener)
            log.warning("job %s: unexpected failure", record.id, exc_info=True)
            job.finish("error", failures=[], error={
                "error_type": type(error).__name__,
                "message": str(error),
            })
        else:
            self.workspace.remove_progress_listener(listener)
            for failure in sweep.failures:
                job.append_event("seed_failed", _wire_failure(failure))
            job.finish("finished", failures=list(sweep.failures),
                       result=sweep)
        finally:
            with job.cond:
                record.elapsed_s = time.perf_counter() - start

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished; evict the oldest past the bound."""
        with self._lock:
            self._finished[job.record.id] = None
            while len(self._finished) > MAX_FINISHED_JOBS:
                evicted, _ = self._finished.popitem(last=False)
                del self._jobs[evicted]
