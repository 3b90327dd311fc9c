"""End-to-end service tests over real HTTP: two clients, one fleet.

The live-service suite boots the full stack — sharded store, fair
scheduler with worker threads, asyncio HTTP front end — on an ephemeral
port and drives it with blocking :class:`ServiceClient`\\ s, pinning the
acceptance contracts: cross-client dedup, byte-identity with
library-mode execution, typed 429 backpressure, and a server that
shrugs off mid-stream disconnects.
"""

from __future__ import annotations

import http.client
import json
import pickle

import pytest

from repro.engine.session import SimulationSession
from repro.engine.store import ShardedResultStore
from repro.service.api import serve_in_thread
from repro.service.client import ServiceClient, ServiceError
from repro.service.requests import (
    VDD_MARGIN,
    JobRequest,
    RequestError,
    resolve,
)
from repro.service.scheduler import ServiceScheduler


class TestVddBound:
    """The Vdd override admits (0, VDD_MARGIN x nominal] volts only."""

    def test_limit_derives_from_the_node(self):
        from repro.tech.node import ptm32

        limit = ptm32().vdd_nominal * VDD_MARGIN
        JobRequest("adpcm_c", 10, 0, mode="hp", vdd=limit)
        with pytest.raises(RequestError, match="vdd"):
            JobRequest("adpcm_c", 10, 0, mode="hp", vdd=limit * 1.001)

    @pytest.mark.parametrize(
        "vdd", [1000.0, 50.0, float("inf"), float("nan"), 0.0, -1.0]
    )
    def test_rejected_values_name_vdd(self, vdd):
        with pytest.raises(RequestError, match="vdd"):
            JobRequest.from_dict(
                {"benchmark": "adpcm_c", "trace_length": 10, "seed": 0,
                 "vdd": vdd}
            )

    @pytest.mark.parametrize("vdd", [0.2, 0.35, 1.0, 1.1])
    def test_in_range_overrides_resolve(self, vdd):
        job = resolve(JobRequest("adpcm_c", 10, 0, mode="hp", vdd=vdd))
        assert job.operating_point.vdd == vdd


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    """The full stack: store + started scheduler + HTTP thread."""
    store = ShardedResultStore(tmp_path_factory.mktemp("fleet-store"))
    scheduler = ServiceScheduler(store, workers=2, queue_capacity=64)
    scheduler.start()
    handle = serve_in_thread(scheduler)
    yield handle, scheduler
    handle.close()
    scheduler.stop()


@pytest.fixture()
def stalled_service():
    """A service whose jobs never execute (workers=0): stream fodder."""
    scheduler = ServiceScheduler(workers=0, queue_capacity=4)
    handle = serve_in_thread(scheduler, poll_interval=0.01)
    yield handle, scheduler
    handle.close()


def client_for(handle, tenant: str) -> ServiceClient:
    return ServiceClient(handle.host, handle.port, tenant=tenant)


class TestEndpoints:
    def test_healthz(self, live_service):
        handle, _ = live_service
        assert client_for(handle, "probe").healthy()

    def test_stats_shape(self, live_service):
        handle, _ = live_service
        stats = client_for(handle, "probe").stats()
        assert "scheduler" in stats and "queue_depth" in stats
        assert "dedup_fraction" in stats["scheduler"]
        assert stats["store"]["scratch_files"] == 0

    def test_unknown_path_is_404(self, live_service):
        handle, _ = live_service
        with pytest.raises(ServiceError) as excinfo:
            client_for(handle, "probe")._get("/v1/nonsense")
        assert excinfo.value.status == 404

    def test_submit_requires_post(self, live_service):
        handle, _ = live_service
        with pytest.raises(ServiceError) as excinfo:
            client_for(handle, "probe")._get("/v1/submit")
        assert excinfo.value.status == 405

    def test_bad_submissions_are_400(self, live_service):
        handle, _ = live_service
        client = client_for(handle, "probe")
        for body in (
            None,  # no tenant, no requests
            {"tenant": "probe"},  # no requests
            {
                "tenant": "probe",
                "requests": [{"benchmark": "no_such", "trace_length": 10,
                              "seed": 0}],
            },  # unknown benchmark
        ):
            status, payload = client._request("POST", "/v1/submit", body)
            assert status == 400
            assert payload["error"] == "bad_request"

    @pytest.mark.parametrize(
        "vdd", [1000.0, 50.0, 1.6, float("inf"), float("nan"), 0.0, -0.3]
    )
    def test_out_of_range_vdd_is_400_naming_vdd(self, live_service, vdd):
        """A Vdd far above nominal used to be admitted: 1 kV overflowed
        the leakage model and retried to ``failed``, 50 V "succeeded"
        with an EPI of 1e83 J."""
        handle, _ = live_service
        client = client_for(handle, "probe")
        body = {
            "tenant": "probe",
            "requests": [{"benchmark": "adpcm_c", "trace_length": 10,
                          "seed": 0, "mode": "hp", "vdd": vdd}],
        }
        status, payload = client._request("POST", "/v1/submit", body)
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "vdd" in payload["detail"]

    def test_unknown_job_is_404(self, live_service):
        handle, _ = live_service
        with pytest.raises(ServiceError) as excinfo:
            client_for(handle, "probe").poll("f" * 64)
        assert excinfo.value.status == 404

    def test_stream_requires_keys(self, live_service):
        handle, _ = live_service
        with pytest.raises(ServiceError) as excinfo:
            list(client_for(handle, "probe").stream([]))
        assert excinfo.value.status == 400


class TestFleet:
    def test_two_clients_dedup_and_byte_identity(
        self, live_service, tiny_requests
    ):
        """The acceptance path: overlapping sweeps from two tenants.

        Both clients converge on identical completed results; the
        overlap never executes twice; and every payload a client
        unpickles is byte-identical to serial library-mode execution.
        """
        handle, scheduler = live_service
        alice = client_for(handle, "alice")
        bob = client_for(handle, "bob")
        alice_keys = alice.submit_all(tiny_requests)
        bob_keys = bob.submit_all(tiny_requests[2:])
        assert bob_keys == alice_keys[2:]
        states = alice.wait(alice_keys, timeout=120.0)
        assert set(states.values()) == {"done"}
        # Cross-client dedup: the 8-job overlap was served from memo,
        # store, or in-flight attachment — never executed again.
        assert scheduler.stats.executed <= len(tiny_requests)
        fraction = scheduler.stats.dedup_fraction
        assert fraction >= len(tiny_requests[2:]) / (
            len(tiny_requests) + len(tiny_requests[2:])
        )
        # Byte-identity with library-mode execution, per job.
        with SimulationSession(jobs=1) as session:
            local = session.run_jobs(
                [resolve(request) for request in tiny_requests]
            )
        for key, result in zip(alice_keys, local):
            expected = pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL
            )
            assert bob.result_bytes(key) == expected
        # The metrics attachment is consistent with the real result.
        payload = alice.poll(alice_keys[0], with_result=True)
        assert payload["metrics"]["epi"] == pytest.approx(local[0].epi)
        assert payload["metrics"]["instructions"] == (
            local[0].timing.instructions
        )

    def test_stream_reports_each_key_once_done(
        self, live_service, tiny_requests
    ):
        handle, _ = live_service
        client = client_for(handle, "stream-reader")
        keys = client.submit_all(tiny_requests[:4])
        events = list(client.stream(keys))
        assert events[-1] == {
            "event": "complete",
            "done": len(set(keys)),
            "total": len(set(keys)),
        }
        per_key = [event for event in events if "key" in event]
        assert {event["key"] for event in per_key} == set(keys)
        # Order-independent payloads: every per-key event names its key
        # and state; the final state of each key is "done".
        final = {event["key"]: event["state"] for event in per_key}
        assert set(final.values()) == {"done"}

    def test_unknown_stream_keys_terminate_immediately(
        self, live_service
    ):
        handle, _ = live_service
        events = list(client_for(handle, "probe").stream(["a" * 64]))
        assert events[0]["state"] == "unknown"
        assert events[-1]["event"] == "complete"


class TestBackpressureHTTP:
    def test_full_batch_shed_is_429_with_retry_after(
        self, stalled_service, tiny_requests
    ):
        handle, _scheduler = stalled_service
        client = client_for(handle, "greedy")
        # Fill the stalled queue (capacity 4), then overflow it.
        status, tickets = client.submit(tiny_requests[:4])
        assert status == 200
        assert all(t["state"] == "queued" for t in tickets)
        status, tickets = client.submit(tiny_requests[4:6])
        assert status == 429
        assert all(
            t["state"] == "shed" and t["reason"] == "saturated"
            for t in tickets
        )
        assert all(t["retry_after"] > 0 for t in tickets)
        # The raw response carries the Retry-After header too.
        connection = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10.0
        )
        try:
            connection.request(
                "POST",
                "/v1/submit",
                body=json.dumps(
                    {
                        "tenant": "greedy",
                        "requests": [
                            request.to_dict()
                            for request in tiny_requests[6:8]
                        ],
                    }
                ),
            )
            response = connection.getresponse()
            assert response.status == 429
            assert float(response.headers["Retry-After"]) > 0
            response.read()
        finally:
            connection.close()

    def test_partial_shed_is_200_with_typed_tickets(
        self, stalled_service, tiny_requests
    ):
        handle, _scheduler = stalled_service
        client = client_for(handle, "mixed")
        status, tickets = client.submit(tiny_requests[:6])
        assert status == 200
        states = [ticket["state"] for ticket in tickets]
        assert states[:4] == ["queued"] * 4
        assert states[4:] == ["shed"] * 2
        assert {ticket.get("reason") for ticket in tickets[4:]} == {
            "saturated"
        }

    def test_submit_all_recovers_after_drain(
        self, stalled_service, tiny_requests
    ):
        """The polite client retries shed jobs as capacity frees up."""
        handle, scheduler = stalled_service
        client = client_for(handle, "patient")
        client.submit(tiny_requests[:4])  # saturate

        drained = []

        def drain_one(delay):
            # Injected sleep: each backoff round pumps one queued job.
            drained.append(scheduler.run_next(now=0.0))

        patient = ServiceClient(
            handle.host, handle.port, tenant="patient", sleep=drain_one
        )
        keys = patient.submit_all(tiny_requests[4:8], max_attempts=20)
        assert len(keys) == 4
        assert any(drained)


class TestDisconnects:
    def test_mid_stream_disconnect_leaves_server_healthy(
        self, stalled_service, tiny_requests
    ):
        handle, scheduler = stalled_service
        client = client_for(handle, "flaky")
        _status, tickets = client.submit(tiny_requests[:2])
        keys = [ticket["key"] for ticket in tickets]
        # Open a stream over never-finishing jobs, read one event, and
        # hang up without draining it.
        stream = client.stream(keys)
        first = next(stream)
        assert first["state"] == "queued"
        stream.close()
        # The server shrugs: health, stats and fresh streams all work,
        # and the scheduler state is untouched.
        assert client.healthy()
        assert client.stats()["queue_depth"] == 2
        replacement = client.stream(keys)
        assert next(replacement)["state"] == "queued"
        replacement.close()

    def test_concurrent_stream_survives_peer_disconnect(
        self, stalled_service, tiny_requests
    ):
        handle, scheduler = stalled_service
        client = client_for(handle, "pair")
        _status, tickets = client.submit(tiny_requests[:1])
        key = tickets[0]["key"]
        surviving = client.stream([key])
        assert next(surviving)["state"] == "queued"
        # A second client connects and vanishes mid-stream.
        casualty = client.stream([key])
        next(casualty)
        casualty.close()
        # Completing the job reaches the surviving stream.
        scheduler.run_next(now=0.0)
        events = list(surviving)
        assert events[-1]["event"] == "complete"
        assert any(
            event.get("state") == "done"
            for event in events
            if "key" in event
        )
