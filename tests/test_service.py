"""Differential contract harness for the HTTP scenario service.

Every request runs through both the wire (a real ``ScenarioService`` on an
ephemeral port, real ``http.client`` connections) and the in-process
``Workspace`` API, and the results must be **bit-identical** (only wall
clocks stripped).  The same holds under injected faults: a chaos plan
replayed through the service recovers to exactly the fault-free result,
partial jobs carry the ``--keep-going`` taxonomy in a 206 body, and
unrecoverable jobs surface the PR-5 failure taxonomy in a 500 body.
"""

from __future__ import annotations

import hashlib
import json
import http.client
import math
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import ScenarioSpec
from repro.api.workspace import Workspace, default_jobs
from repro.exec import FaultPlan, RetryPolicy
from repro.service import ScenarioService
from repro.service import jobs as jobs_module
from repro.service.schemas import validate_job_dict
from repro.store import ArtifactStore

SPEC = {
    "benchmark": "c17",
    "scheme": "original",
    "metrics": ["distances"],
    "seeds": [0, 1, 2],
}


# -- wire helpers ----------------------------------------------------------


def request(service: ScenarioService, method: str, path: str,
            body: Optional[Any] = None, headers: Optional[Dict[str, str]] = None,
            ) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw
    finally:
        conn.close()


def submit_and_wait(service: ScenarioService, spec: Dict[str, Any],
                    ) -> Tuple[int, Any]:
    status, created = request(service, "POST", "/v1/jobs", body=spec)
    assert status in (200, 201), created
    job_id = created["job"]["id"]
    return request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")


def strip_elapsed(value: Any) -> Any:
    """Recursively drop wall-clock fields; everything else must be identical."""
    if isinstance(value, dict):
        return {k: strip_elapsed(v) for k, v in value.items()
                if k != "elapsed_s"}
    if isinstance(value, list):
        return [strip_elapsed(v) for v in value]
    return value


@pytest.fixture()
def service():
    svc = ScenarioService(Workspace(store=None)).start()
    yield svc
    svc.stop()


# -- basic endpoints -------------------------------------------------------


def test_health_and_registry(service):
    status, health = request(service, "GET", "/v1/health")
    assert status == 200
    assert health["status"] == "ok"
    assert "builds_run" in health["workspace"]
    status, registry = request(service, "GET", "/v1/registry")
    assert status == 200
    assert "original" in registry["schemes"]
    assert "proximity" in registry["attacks"]
    assert "distances" in registry["metrics"]


def test_unknown_job_404(service):
    status, body = request(service, "GET", "/v1/jobs/nope")
    assert status == 404
    assert "unknown job" in body["error"]


def test_invalid_spec_400(service):
    status, body = request(service, "POST", "/v1/jobs",
                           body={"benchmark": "no-such-circuit"})
    assert status == 400
    assert "invalid spec" in body["error"]
    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Length": "9"})
        assert conn.getresponse().status == 400
    finally:
        conn.close()


def _post_with_length(service: ScenarioService, length: str) -> Tuple[int, Any]:
    """POST a header-only request claiming ``length`` body bytes.

    No body follows, so a server that tried to read one would stall until
    the client timeout instead of answering.
    """
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_negative_content_length_400(service):
    status, body = _post_with_length(service, "-5")
    assert status == 400
    assert "Content-Length" in body["error"]
    # The service keeps serving.
    assert request(service, "GET", "/v1/health")[0] == 200


def test_oversized_body_413_before_reading(service):
    from repro.service.app import MAX_BODY_BYTES

    status, body = _post_with_length(service, str(MAX_BODY_BYTES + 1))
    assert status == 413
    assert str(MAX_BODY_BYTES) in body["error"]
    # A body of exactly the limit is read (and rejected only as bad JSON).
    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=b" " * (MAX_BODY_BYTES - 1) + b"{")
        assert conn.getresponse().status == 400
    finally:
        conn.close()


def test_unbounded_seed_sweep_400(service):
    status, body = request(service, "POST", "/v1/jobs", body={
        **SPEC, "seeds": {"start": 0, "count": 10**9}})
    assert status == 400
    assert "limit" in body["error"]


@pytest.mark.parametrize("jobs", [0, -1, "2", 2.5, [2], True])
def test_invalid_client_jobs_400(service, jobs):
    status, body = request(service, "POST", "/v1/jobs",
                           body={"spec": SPEC, "jobs": jobs})
    assert status == 400
    assert "jobs must be an integer >= 1" in body["error"]
    assert service.manager.list_jobs() == []


def test_huge_client_jobs_clamped_to_cpu_ceiling(service):
    status, created = request(service, "POST", "/v1/jobs",
                              body={"spec": SPEC, "jobs": 100000})
    assert status == 201
    assert created["job"]["jobs"] == default_jobs()
    job_id = created["job"]["id"]
    status, wire = request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    assert status == 200 and wire["status"] == "done"
    # The job id ignores ``jobs``: the bare spec joins the same job.
    status, joined = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 200 and joined["job"]["id"] == job_id
    local = Workspace(store=None).run_sweeps(
        [ScenarioSpec.from_dict(SPEC)])[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)


def test_unknown_route_404(service):
    status, _body = request(service, "GET", "/v1/frobnicate")
    assert status == 404


# -- differential: HTTP == in-process -------------------------------------


def test_sweep_bit_identical_to_workspace(service):
    """The headline contract: wire results == in-process results, bitwise."""
    status, wire = submit_and_wait(service, SPEC)
    assert status == 200
    assert wire["status"] == "done"
    assert wire["job"]["state"] == "done"

    local = Workspace(store=None).run_sweeps(
        [ScenarioSpec.from_dict(SPEC)])[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)
    # Exactly the sweep's three builds ran server-side.
    assert service.manager.workspace.stats()["builds_run"] == 3


def test_single_seed_spec_runs_as_one_seed_sweep(service):
    spec = {k: v for k, v in SPEC.items() if k != "seeds"}
    spec["seed"] = 1
    status, wire = submit_and_wait(service, spec)
    assert status == 200
    local = Workspace(store=None).run_sweep(
        ScenarioSpec.from_dict(spec)).to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)
    assert wire["job"]["kind"] == "scenario"


def test_chaos_replay_recovers_bit_identical():
    """A fault plan injected server-side must not change the answer.

    seed1's first build attempt fails; with retries the service job still
    converges to the exact fault-free in-process result — the recovery
    contract survives the wire.
    """
    ws = Workspace(store=None, chaos=FaultPlan(fail_first=1, match="seed1"),
                   retry=RetryPolicy(max_attempts=3))
    svc = ScenarioService(ws).start()
    try:
        status, wire = submit_and_wait(svc, SPEC)
        assert status == 200
        assert wire["status"] == "done"
    finally:
        svc.stop()
    fault_free = Workspace(store=None).run_sweeps(
        [ScenarioSpec.from_dict(SPEC)])[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(fault_free)


def test_partial_job_maps_to_206_with_keep_going_body():
    """Losing a seed under on_error="skip" is the HTTP twin of exit 3."""
    chaos = FaultPlan(fail_first=99, match="seed2")
    svc = ScenarioService(Workspace(store=None, chaos=chaos)).start()
    try:
        status, wire = submit_and_wait(
            svc, {"spec": SPEC, "on_error": "skip"})
    finally:
        svc.stop()
    assert status == 206
    assert wire["status"] == "partial"
    assert wire["skipped"] == 1
    assert wire["job"]["state"] == "partial"
    [failure] = wire["failures"]
    assert failure["seed"] == 2
    assert failure["error_type"] == "ChaosFailure"
    assert "traceback_text" not in failure
    # The surviving seeds aggregate honestly and bit-identically to the
    # in-process skip-mode sweep under the same fault plan.
    local_ws = Workspace(store=None, chaos=chaos)
    local = local_ws.run_sweeps(
        [ScenarioSpec.from_dict(SPEC)], on_error="skip")[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)
    assert wire["result"]["seeds"] == [0, 1]
    assert wire["result"]["failed_seeds"] == [2]


def test_failed_job_maps_to_500_with_taxonomy_body():
    """An unrecoverable job surfaces the PR-5 taxonomy machine-readably."""
    svc = ScenarioService(
        Workspace(store=None, chaos=FaultPlan(fail_first=99, match="c17"))
    ).start()
    try:
        status, wire = submit_and_wait(svc, SPEC)
    finally:
        svc.stop()
    assert status == 500
    assert wire["status"] == "failed"
    assert wire["error_type"] == "BuildError"
    assert wire["message"]
    assert wire["job"]["state"] == "failed"
    assert wire["job"]["error"]["error_type"] == "BuildError"


# -- job records and streaming ---------------------------------------------


def test_job_record_validates_against_schema(service):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 201
    job_id = created["job"]["id"]
    assert validate_job_dict(created["job"]) == []
    request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    status, record = request(service, "GET", f"/v1/jobs/{job_id}")
    assert status == 200
    assert validate_job_dict(record) == []
    assert record["state"] == "done"
    status, listing = request(service, "GET", "/v1/jobs")
    assert status == 200
    assert [r["id"] for r in listing["jobs"]] == [job_id]


def test_events_stream_ndjson(service):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    job_id = created["job"]["id"]
    # Stream from the start while the job runs: the connection must hold
    # open until the job seals, then deliver a complete, ordered log.
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        events = [json.loads(line) for line in
                  response.read().decode("utf-8").strip().splitlines()]
    finally:
        conn.close()
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[-1]["event"] == "finished"
    assert events[-1]["state"] == "done"
    kinds = {e["event"] for e in events}
    assert "build_completed" in kinds
    assert "scenario_completed" in kinds
    # Replay with a cursor: ?start=N returns exactly the suffix.
    status, raw = request(service, "GET",
                          f"/v1/jobs/{job_id}/events?start={len(events) - 2}")
    tail = [json.loads(line) for line in
            raw.decode("utf-8").strip().splitlines()]
    assert tail == events[-2:]


def test_events_stream_sse(service):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    job_id = created["job"]["id"]
    request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events",
                     headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "text/event-stream"
        text = response.read().decode("utf-8")
    finally:
        conn.close()
    frames = [f for f in text.split("\n\n") if f.strip()]
    assert all(f.startswith("event: ") for f in frames)
    payloads = [json.loads(f.split("data: ", 1)[1]) for f in frames]
    assert payloads[-1]["event"] == "finished"


def test_result_long_poll_202_while_pending():
    """?wait long-polls; a job blocked on a build reports 202 pending."""
    ws = Workspace(store=None)
    svc = ScenarioService(ws).start()
    spec = {k: v for k, v in SPEC.items() if k != "seeds"}
    spec["seed"] = 0
    key = ScenarioSpec.from_dict(spec).build_key()
    # Hold the build hostage: claim its in-flight slot so the job blocks.
    owned, foreign = ws._claim_builds([key])
    assert owned == [key]
    try:
        status, created = request(svc, "POST", "/v1/jobs", body=spec)
        job_id = created["job"]["id"]
        status, body = request(svc, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 202
        assert body["status"] == "pending"
    finally:
        ws._release_builds([key])
    status, body = request(svc, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    assert status == 200
    svc.stop()


# -- store over the wire ---------------------------------------------------


def test_store_endpoints_serve_manifest_and_verifiable_payload(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    svc = ScenarioService(Workspace(store=store)).start()
    try:
        status, wire = submit_and_wait(svc, SPEC)
        assert status == 200
        status, catalogue = request(svc, "GET", "/v1/store")
        assert status == 200
        keys = [e["key"] for e in catalogue["entries"]]
        expected = sorted(
            s.build_key() for s in ScenarioSpec.from_dict(SPEC).expand_seeds())
        assert keys == expected
        key = keys[0]
        status, manifest = request(svc, "GET", f"/v1/store/{key}/manifest")
        assert status == 200
        assert manifest["key"] == key
        assert manifest["manifest"]["build_key"] == key
        assert manifest["payload_url"] == f"/v1/store/{key}/payload"
        status, payload = request(svc, "GET", f"/v1/store/{key}/payload")
        assert status == 200
        # The wire payload is checksum-verifiable against the manifest.
        assert hashlib.sha256(payload).hexdigest() == manifest["payload_sha256"]
        assert len(payload) == manifest["payload_bytes"]
        status, _b = request(svc, "GET", "/v1/store/feedface/manifest")
        assert status == 404
    finally:
        svc.stop()


def test_warm_store_serves_job_without_building(tmp_path):
    """A second service over the same store answers without one build."""
    store_dir = tmp_path / "store"
    first = ScenarioService(Workspace(store=ArtifactStore(store_dir))).start()
    try:
        status, _wire = submit_and_wait(first, SPEC)
        assert status == 200
        baseline = _wire
    finally:
        first.stop()
    cold_ws = Workspace(store=ArtifactStore(store_dir))
    second = ScenarioService(cold_ws).start()
    try:
        status, wire = submit_and_wait(second, SPEC)
        assert status == 200
    finally:
        second.stop()
    assert cold_ws.stats()["builds_run"] == 0
    assert cold_ws.stats()["store_hits"] == 3
    assert strip_elapsed(wire["result"]) == strip_elapsed(baseline["result"])


def test_resubmitting_a_finished_job_joins_it(service):
    status, first = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 201
    job_id = first["job"]["id"]
    request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    runs_before = service.manager.workspace.stats()["builds_run"]
    status, again = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 200
    assert again["created"] is False
    assert again["job"]["id"] == job_id
    assert again["job"]["requests"] == 2
    status, body = request(service, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert service.manager.workspace.stats()["builds_run"] == runs_before


# -- bounded job table -----------------------------------------------------


def _seed_spec(seed: int) -> Dict[str, Any]:
    return {**{k: v for k, v in SPEC.items() if k != "seeds"}, "seed": seed}


def test_finished_jobs_evicted_least_recently_finished_first(service, monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
    ids = []
    for seed in range(3):
        status, wire = submit_and_wait(service, _seed_spec(seed))
        assert status == 200
        ids.append(wire["job"]["id"])
    status, body = request(service, "GET", f"/v1/jobs/{ids[0]}")
    assert status == 404
    assert "unknown job" in body["error"]
    for job_id in ids[1:]:
        assert request(service, "GET", f"/v1/jobs/{job_id}")[0] == 200
    assert [job.record.id for job in service.manager.list_jobs()] == ids[1:]

    # The evicted spec comes back as a fresh job, which evicts the next oldest.
    status, again = request(service, "POST", "/v1/jobs", body=_seed_spec(0))
    assert status == 201
    assert again["created"] is True
    assert again["job"]["id"] == ids[0]
    assert again["job"]["requests"] == 1
    status, _body = request(service, "GET", f"/v1/jobs/{ids[0]}/result?wait=120")
    assert status == 200
    assert request(service, "GET", f"/v1/jobs/{ids[1]}")[0] == 404
    assert request(service, "GET", f"/v1/jobs/{ids[2]}")[0] == 200


def test_running_jobs_are_never_evicted(monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
    ws = Workspace(store=None)
    svc = ScenarioService(ws).start()
    held = _seed_spec(9)
    key = ScenarioSpec.from_dict(held).build_key()
    owned, _foreign = ws._claim_builds([key])
    assert owned == [key]
    try:
        status, created = request(svc, "POST", "/v1/jobs", body=held)
        assert status == 201
        held_id = created["job"]["id"]
        for seed in range(3):
            assert submit_and_wait(svc, _seed_spec(seed))[0] == 200
        status, record = request(svc, "GET", f"/v1/jobs/{held_id}")
        assert status == 200
        assert record["state"] not in ("done", "failed", "partial")
        assert len(svc.manager.list_jobs()) == 2  # the held job + one finished
    finally:
        ws._release_builds([key])
    status, _body = request(svc, "GET", f"/v1/jobs/{held_id}/result?wait=120")
    assert status == 200
    assert [job.record.id for job in svc.manager.list_jobs()] == [held_id]
    svc.stop()


# -- trust boundary: malformed numbers never drop the connection ----------


def _post_raw(service: ScenarioService, raw: bytes,
              timeout: float = 10) -> Tuple[int, Any]:
    """POST ``raw`` verbatim (``json.dumps`` cannot spell ``1e400``)."""
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=timeout)
    try:
        conn.request("POST", "/v1/jobs", body=raw,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.parametrize("raw", [
    b'{"benchmark": "c432", "seeds": {"start": 0, "count": 1e400}}',
    b'{"benchmark": "c432", "seeds": [1e400]}',
    b'{"benchmark": "c432", "seeds": [1.5]}',
    b'{"benchmark": "c432", "seeds": {"start": 0, "count": 2.9}}',
    b'{"benchmark": "c432", "seeds": {"start": 0.5, "count": 2}}',
    b'{"benchmark": "c432", "seeds": [true, 2]}',
    b'{"benchmark": "c432", "seed": 1e400}',
    b'{"benchmark": "c432", "seed": 2.5}',
    b'{"benchmark": "c432", "seed": false}',
    b'{"benchmark": "c432", "netlist_seed": 1e400}',
    b'{"benchmark": "c432", "scale": NaN}',
    b'{"benchmark": "c432", "scale": Infinity}',
    b'{"benchmark": "c432", "scale": 0}',
    b'{"benchmark": "c432", "scale": -0.01}',
    b'{"benchmark": "c432", "scale": true}',
    b'{"benchmark": "c432", "split_layers": [1e400]}',
    b'{"benchmark": "c432", "split_layers": [4.5]}',
])
def test_non_integral_or_non_finite_numbers_400(service, raw):
    status, body = _post_raw(service, raw)
    assert status == 400, body
    assert "invalid spec" in body["error"]
    assert service.manager.list_jobs() == []


def test_integral_floats_hash_like_ints():
    as_int = ScenarioSpec.from_dict({**SPEC, "seed": 3})
    as_float = ScenarioSpec.from_dict({**SPEC, "seed": 3.0})
    assert as_float.seed == 3 and isinstance(as_float.seed, int)
    assert as_float.content_hash() == as_int.content_hash()
    ranged = ScenarioSpec.from_dict({**SPEC, "seeds": {"start": 0.0, "count": 3.0}})
    assert ranged.content_hash() == ScenarioSpec.from_dict(SPEC).content_hash()


@pytest.mark.parametrize("query", [
    "wait=abc", "wait=-1", "wait=nan", "wait=inf", "wait=1e400",
])
def test_malformed_result_wait_400(service, query):
    status, created = request(service, "POST", "/v1/jobs", body=_seed_spec(0))
    job_id = created["job"]["id"]
    status, body = request(service, "GET", f"/v1/jobs/{job_id}/result?{query}")
    assert status == 400
    assert "wait" in body["error"]
    assert request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")[0] == 200


@pytest.mark.parametrize("query", ["start=abc", "start=-3", "start=1.5",
                                   "start=1" + "0" * 400])
def test_malformed_events_start_400(service, query):
    status, _wire = submit_and_wait(service, _seed_spec(0))
    assert status == 200
    job_id = _wire["job"]["id"]
    status, body = request(service, "GET", f"/v1/jobs/{job_id}/events?{query}")
    assert status == 400
    assert "start" in body["error"]


# -- Hypothesis wire fuzz --------------------------------------------------

FUZZ_SPEC = {"benchmark": "c17", "scheme": "original", "metrics": ["distances"]}

#: Generous per-request bound: every fuzzed request is answered from
#: validation, the job table or the (read-only) store, never from a build.
FUZZ_TIMEOUT_S = 20.0


@pytest.fixture(scope="module")
def fuzz_service(tmp_path_factory):
    """A live service over a read-only store holding one finished c17 build.

    Accepted fuzzed specs fail fast on the read-only store instead of
    building; ``FUZZ_SPEC`` is answered from the store, so the query fuzz
    has a finished job to poll and stream.
    """
    store_dir = tmp_path_factory.mktemp("fuzz_store")
    Workspace(store=ArtifactStore(store_dir)).run_sweeps(
        [ScenarioSpec.from_dict(FUZZ_SPEC)])
    svc = ScenarioService(
        Workspace(store=ArtifactStore(store_dir, readonly=True))).start()
    status, wire = submit_and_wait(svc, FUZZ_SPEC)
    assert status == 200, wire
    svc.fuzz_job_id = wire["job"]["id"]
    yield svc
    svc.stop()


#: JSON scalar spellings, including ones ``json.dumps`` never emits
#: (``1e400``, ``NaN``), integral and non-integral floats and bools.
_JSON_SCALARS = st.one_of(
    st.sampled_from([
        "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "false",
        "null", "0", "-1", "1.5", "2.9", "3.0", "1e18", "-0.0",
        "123456789012345678901234567890", '"c17"', '"c432"', '"original"',
        '"proposed"', '"protected"', '"proximity"', '"distances"', '""',
    ]),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=8).map(json.dumps),
)


def _render_list(items) -> str:
    return "[" + ",".join(items) + "]"


def _render_object(fields) -> str:
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in fields.items()) + "}"


#: Any JSON text: scalars and nested lists/objects of them.
_JSON_TEXT = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(_render_list),
        st.dictionaries(st.sampled_from(["start", "count", "name", "params", "x"]),
                        children, max_size=3).map(_render_object),
    ),
    max_leaves=8,
)

#: Field values shaped like the real thing (so the fuzz reaches the number
#: parsing behind the container checks) or arbitrary JSON.
_SHAPED = {
    "seeds": st.one_of(
        st.lists(_JSON_SCALARS, min_size=1, max_size=3).map(_render_list),
        st.fixed_dictionaries({"count": _JSON_SCALARS},
                              optional={"start": _JSON_SCALARS}).map(_render_object),
    ),
    "split_layers": st.lists(_JSON_SCALARS, max_size=3).map(_render_list),
    "layouts": st.lists(_JSON_SCALARS, max_size=2).map(_render_list),
    "attacks": st.lists(_JSON_SCALARS, max_size=2).map(_render_list),
    "metrics": st.lists(_JSON_SCALARS, max_size=2).map(_render_list),
    "scheme_params": st.dictionaries(
        st.sampled_from(["swap_fraction", "seed", "x"]), _JSON_SCALARS,
        max_size=2).map(_render_object),
}
_FIELDS = ("benchmark", "scheme", "scheme_params", "scale", "layouts",
           "split_layers", "attacks", "metrics", "num_patterns", "seed",
           "seeds", "netlist_seed", "bogus")


def _field_value(name: str):
    return st.one_of(_SHAPED.get(name, _JSON_SCALARS), _JSON_TEXT)


_SPEC_FIELDS = st.lists(st.sampled_from(_FIELDS), unique=True, max_size=4).flatmap(
    lambda names: st.tuples(*(_field_value(n) for n in names)).map(
        lambda values: {"benchmark": '"c17"', **dict(zip(names, values))}))

#: Request bodies: bare specs, ``{"spec", "on_error", "jobs"}`` envelopes
#: and arbitrary JSON.
_BODIES = st.one_of(
    _SPEC_FIELDS.map(_render_object),
    st.tuples(_SPEC_FIELDS, _JSON_TEXT, _JSON_SCALARS).map(
        lambda t: _render_object({"spec": _render_object(t[0]),
                                  "on_error": t[1], "jobs": t[2]})),
    _JSON_TEXT,
)


def _assert_answered(status: int, body: Any, elapsed: float) -> None:
    assert elapsed < FUZZ_TIMEOUT_S
    assert 200 <= status < 300 or 400 <= status < 500, (status, body)


def _assert_accepted_spec_is_sane(spec: Dict[str, Any]) -> None:
    """An accepted spec carries integer seeds and a finite positive scale."""
    def integral(value):
        return isinstance(value, int) and not isinstance(value, bool)

    assert integral(spec["seed"]), spec
    assert spec["seeds"] is None or all(integral(s) for s in spec["seeds"]), spec
    assert spec["netlist_seed"] is None or integral(spec["netlist_seed"]), spec
    scale = spec["scale"]
    assert scale is None or (not isinstance(scale, bool)
                             and math.isfinite(scale) and scale > 0), spec


def _fuzz_post(service: ScenarioService, raw: bytes) -> None:
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=FUZZ_TIMEOUT_S)
    start = time.perf_counter()
    try:
        conn.request("POST", "/v1/jobs", body=raw,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        # A complete response: the declared length arrived in full.
        assert len(body) == int(response.getheader("Content-Length"))
        _assert_answered(response.status, body,
                         time.perf_counter() - start)
        if response.status < 300:
            _assert_accepted_spec_is_sane(json.loads(body)["job"]["spec"])
    finally:
        conn.close()


_FUZZ_SETTINGS = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])

_QUERY_VALUES = st.one_of(
    st.sampled_from(["abc", "-3", "-0", "0", "1", "2.5", "1e400", "nan", "inf",
                     "-inf", "1" + "0" * 400, " 7 ", "0x10", "", "1e-300",
                     "3_0"]),
    st.text(max_size=12),
)


@_FUZZ_SETTINGS
@given(text=_BODIES)
def test_wire_fuzz_post_bodies_get_2xx_or_4xx(fuzz_service, text):
    _fuzz_post(fuzz_service, text.encode("utf-8"))
    assert request(fuzz_service, "GET", "/v1/health")[0] == 200


@_FUZZ_SETTINGS
@given(endpoint=st.sampled_from(["result", "events"]),
       name=st.sampled_from(["wait", "start", "x"]),
       raw=_QUERY_VALUES, sse=st.booleans())
def test_wire_fuzz_query_strings_get_2xx_or_4xx(fuzz_service, endpoint, name,
                                                raw, sse):
    headers = {"Accept": "text/event-stream"} if sse else {}
    path = f"/v1/jobs/{fuzz_service.fuzz_job_id}/{endpoint}?{name}={quote(raw)}"
    conn = http.client.HTTPConnection(
        fuzz_service.host, fuzz_service.port, timeout=FUZZ_TIMEOUT_S)
    start = time.perf_counter()
    try:
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        body = response.read()  # streams end once the finished job is sealed
        _assert_answered(response.status, body, time.perf_counter() - start)
    finally:
        conn.close()
