"""The sharded serving tier: byte-identity, resilience, aggregation.

Most tests drive :class:`ShardedApp.handle` directly (real worker
processes, no sockets -- the HTTP transport has its own suite); one
end-to-end test goes through :class:`ShardedServer` + the real client.
The two pivotal claims:

* batch responses are byte-identical to a direct ``run_batch`` for ANY
  shard count, and
* SIGKILLing a shard mid-batch loses nothing -- the slot respawns, the
  successor replays the dead worker's journal, and the batch completes
  with identical bytes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.server import ReproClient, ServerConfig
from repro.service import (
    FAULTS_GUARD_ENV,
    BatchEngine,
    EngineConfig,
    injected_faults,
    parse_request,
)
from repro.shard import (
    HotKeyTracker,
    RespawnPolicy,
    ShardedApp,
    ShardedServer,
    ownership_delta,
    rendezvous_shard,
    routing_key,
    wait_for_pid_change,
)
from repro.shard.router import _ReshardState

REQUESTS = [
    {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096},
    {"kind": "fusion", "m": 96, "k": 64, "l": 80, "n": 72,
     "buffer_elems": 16384},
    {"kind": "sweep_point", "m": 32, "k": 32, "l": 32, "buffer_elems": 1024},
    "this line is not json",
    {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096},
    {"kind": "intra", "m": 40, "k": 24, "l": 56, "buffer_elems": 8192},
]


def direct_jsonl(payloads):
    engine = BatchEngine(EngineConfig(jobs=2))
    return engine.run_batch(
        [p if isinstance(p, str) else parse_request(p) for p in payloads]
    ).to_jsonl()


def ndjson_body(payloads):
    return "\n".join(
        p if isinstance(p, str) else json.dumps(p) for p in payloads
    ).encode("utf-8")


def make_app(tmp_path, shards, **overrides):
    config = ServerConfig(
        port=0, jobs=1, journal_path=str(tmp_path / "tier.journal")
    )
    app = ShardedApp(config, shards=shards, health_interval=0.2, **overrides)
    return app.start()


def post_batch(app, payloads):
    return app.handle(
        "POST",
        "/v1/analyze",
        {},
        {"content-type": "application/x-ndjson"},
        ndjson_body(payloads),
        "test-client",
    )


# ----------------------------------------------------------------------
# Byte-identity across shard counts
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_batch_matches_direct_run(self, tmp_path, shards):
        expected = direct_jsonl(REQUESTS)
        app = make_app(tmp_path, shards)
        try:
            response = post_batch(app, REQUESTS)
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip("\n") == expected
        finally:
            app.close()
        records = [json.loads(line) for line in expected.split("\n")]
        assert [r["index"] for r in records] == list(range(len(REQUESTS)))

    def test_single_mode_record(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            response = app.handle(
                "POST",
                "/v1/analyze",
                {},
                {"content-type": "application/json"},
                json.dumps(REQUESTS[0]).encode("utf-8"),
                "test-client",
            )
            assert response.status == 200
            record = json.loads(response.body.decode("utf-8"))
        finally:
            app.close()
        assert record == json.loads(direct_jsonl([REQUESTS[0]]))

    def test_routing_is_cache_affine(self, tmp_path):
        # The same request must land on the same shard, so the second
        # submission is answered entirely from shard-local caches.  (No
        # journal here: with one enabled, repeats are journal *replays*
        # rather than cache hits, which is covered elsewhere.)
        app = ShardedApp(
            ServerConfig(port=0, jobs=1), shards=3, health_interval=0.2
        ).start()
        try:
            first = post_batch(app, REQUESTS)
            second = post_batch(app, REQUESTS)
            assert first.body == second.body
            # 6 payloads: 4 unique cacheable + 1 duplicate + 1 parse
            # error; everything cacheable is a hit the second time.
            assert int(second.headers["X-Repro-Cached"]) >= 4
        finally:
            app.close()

    def test_bad_body_is_a_400_not_a_dispatch(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            # b"[" * 50000 nests past the JSON decoder's recursion limit.
            for body in (b"", b"[" * 50000):
                response = app.handle(
                    "POST", "/v1/analyze", {}, {}, body, "test-client"
                )
                assert response.status == 400, body[:8]
        finally:
            app.close()


# ----------------------------------------------------------------------
# Kill-one-shard resilience
# ----------------------------------------------------------------------
class TestShardDeath:
    def test_sigkill_mid_batch_completes_byte_identical(self, tmp_path):
        payloads = [
            {"kind": "intra", "m": 48 + i, "k": 24, "l": 32,
             "buffer_elems": 8192}
            for i in range(10)
        ]
        expected = direct_jsonl(payloads)
        victim_index = rendezvous_shard(routing_key(payloads[0]), 3)
        with injected_faults("delay:intra:seconds=0.1", export_env=True):
            app = make_app(tmp_path, 3)
            try:
                outcome = {}

                def run():
                    outcome["response"] = post_batch(app, payloads)

                runner = threading.Thread(target=run)
                runner.start()
                time.sleep(0.4)
                victim = app.supervisor.handles[victim_index]
                old_pid = victim.pid
                os.kill(old_pid, signal.SIGKILL)
                runner.join(timeout=60.0)
                assert not runner.is_alive(), "batch hung after shard kill"
                response = outcome["response"]
                assert response.status == 200
                assert (
                    response.body.decode("utf-8").rstrip("\n") == expected
                )
                assert victim.pid != old_pid
                assert victim.generation >= 1
                assert app.supervisor.snapshot()["respawns"] >= 1
            finally:
                app.close()

    def test_idle_shard_death_is_healed_by_the_monitor(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            victim = app.supervisor.handles[1]
            old_pid = victim.pid
            os.kill(old_pid, signal.SIGKILL)
            new_pid = wait_for_pid_change(
                app.supervisor, 1, old_pid, timeout=15.0
            )
            assert new_pid is not None and new_pid != old_pid
            # The healed tier still serves its full keyspace.
            response = post_batch(app, REQUESTS)
            assert response.status == 200
        finally:
            app.close()

    def test_successor_replays_the_dead_workers_journal(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            # Complete a batch so every touched shard journals results.
            assert post_batch(app, REQUESTS).status == 200
            target = app.supervisor.handles[
                rendezvous_shard(routing_key(REQUESTS[0]), 2)
            ]
            old_pid = target.pid
            os.kill(old_pid, signal.SIGKILL)
            assert wait_for_pid_change(
                app.supervisor, target.index, old_pid, timeout=15.0
            )
            assert target.started_replay >= 1
        finally:
            app.close()


# ----------------------------------------------------------------------
# Aggregation + readiness
# ----------------------------------------------------------------------
class TestAggregation:
    def test_stats_merge_counters_and_latency(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            assert post_batch(app, REQUESTS).status == 200
            stats = app.stats_dict()
        finally:
            app.close()
        assert stats["config"]["shards"] == 2
        assert stats["serving"]["requests_served"] == len(REQUESTS)
        # Both shards got a slice of the batch, so the merged reservoir
        # saw one analyze execution per shard.
        assert stats["latency"]["count"] >= 1
        assert stats["cache"]["misses"] >= 4
        assert stats["shards"]["count"] == 2
        assert stats["shards"]["ready"] == 2
        details = stats["shards"]["shards"]
        assert {d["label"] for d in details} == {"shard-0", "shard-1"}
        assert all("stats" in d for d in details)
        # Per-shard journals are private and live under the shard detail.
        assert all(
            d["stats"]["journal"]["path"].endswith(d["label"])
            for d in details
        )

    def test_metrics_exposition_has_shard_gauges(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            assert post_batch(app, REQUESTS).status == 200
            response = app.handle(
                "GET", "/metrics", {}, {}, b"", "test-client"
            )
        finally:
            app.close()
        text = response.body.decode("utf-8")
        assert 'repro_shard_up{shard="shard-0"} 1' in text
        assert 'repro_shard_up{shard="shard-1"} 1' in text
        assert "repro_shards_total 2" in text
        assert "repro_latency_seconds_count" in text

    def test_readyz_degrades_while_a_slot_respawns(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            ready = app.handle("GET", "/readyz", {}, {}, b"", "c")
            assert ready.status == 200
            assert json.loads(ready.body)["status"] == "ok"
            # Simulate a mid-respawn slot (the monitor races real kills).
            app.supervisor.handles[1].state = "respawning"
            degraded = app.handle("GET", "/readyz", {}, {}, b"", "c")
            assert degraded.status == 200
            payload = json.loads(degraded.body)
            assert payload["status"] == "degraded"
            assert payload["shards"]["ready"] == 1
            app.supervisor.handles[1].state = "ready"
        finally:
            app.close()

    def test_draining_rejects_new_analyze_calls(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            app.begin_drain()
            response = post_batch(app, REQUESTS[:1])
            assert response.status == 503
            assert "Retry-After" in response.headers
            ready = app.handle("GET", "/readyz", {}, {}, b"", "c")
            assert ready.status == 503
        finally:
            app.close()


# ----------------------------------------------------------------------
# Crash-loop containment, rerouting, and stall escalation
# ----------------------------------------------------------------------
class TestContainmentAndReroute:
    TIGHT_POLICY = RespawnPolicy(
        backoff_base=0.05,
        backoff_max=0.5,
        max_rapid_deaths=2,
        death_window=10.0,
        failed_retry_interval=1.0,
    )

    def _kill_until_contained(self, app, victim_index, budget=6):
        """SIGKILL the slot's worker until containment quarantines it."""
        handle = app.supervisor.handles[victim_index]
        for _ in range(budget):
            pid = handle.pid
            if handle.state == "failed":
                return True
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if handle.state == "failed" or (
                    handle.state == "ready" and handle.pid != pid
                ):
                    break
                time.sleep(0.02)
        return handle.state == "failed"

    def test_crash_loop_contained_keys_reroute_then_recover(self, tmp_path):
        expected = direct_jsonl(REQUESTS)
        app = make_app(
            tmp_path, 3, respawn_policy=self.TIGHT_POLICY, op_timeout=30.0
        )
        victim_index = rendezvous_shard(routing_key(REQUESTS[0]), 3)
        try:
            handle = app.supervisor.handles[victim_index]
            assert self._kill_until_contained(app, victim_index), (
                f"slot never quarantined: state={handle.state!r} after "
                f"{handle.respawns} respawns"
            )
            assert handle.contained == 1

            # readyz tells the truth about the quarantined slot.
            ready = app.handle("GET", "/readyz", {}, {}, b"", "c")
            payload = json.loads(ready.body)
            assert payload["status"] == "degraded"
            failed_slots = [
                slot
                for slot in payload["degraded_slots"]
                if slot["state"] == "failed"
            ]
            assert failed_slots and failed_slots[0]["shard"] == victim_index
            assert {"shard", "state", "generation", "respawns"} <= set(
                failed_slots[0]
            )

            # The failed slot's keys reroute to survivors: the batch
            # still completes byte-identical to a fault-free run.  (No
            # reroute counter bump here -- a quarantined slot is
            # excluded up front, before the first dispatch attempt.)
            response = post_batch(app, REQUESTS)
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip("\n") == expected

            # Recovery: the monitor re-admits the slot after the retry
            # interval, and it serves its keyspace again.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if handle.state == "ready":
                    break
                time.sleep(0.05)
            assert handle.state == "ready", "failed slot never recovered"
            response = post_batch(app, REQUESTS)
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip("\n") == expected
        finally:
            app.close()

    def test_all_slots_failed_is_503_not_a_hang(self, tmp_path):
        app = make_app(tmp_path, 2, respawn_policy=self.TIGHT_POLICY)
        try:
            for handle in app.supervisor.handles:
                handle.state = "failed"
            response = post_batch(app, REQUESTS[:1])
            assert response.status == 503
            assert "Retry-After" in response.headers
            for handle in app.supervisor.handles:
                handle.state = "ready"
        finally:
            app.close()

    def test_stalled_shard_is_escalated_not_waited_out(self, tmp_path):
        expected = direct_jsonl(REQUESTS)
        app = make_app(tmp_path, 3, op_timeout=1.0)
        victim_index = rendezvous_shard(routing_key(REQUESTS[0]), 3)
        try:
            handle = app.supervisor.handles[victim_index]
            stalled_pid = handle.pid
            os.kill(stalled_pid, signal.SIGSTOP)
            try:
                # Dispatch must not hang on the silent worker: the recv
                # timeout escalates it (kill + respawn) and the retry
                # serves the slice from the successor, byte-identical.
                response = post_batch(app, REQUESTS)
            finally:
                try:
                    os.kill(stalled_pid, signal.SIGCONT)
                except OSError:
                    pass
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip("\n") == expected
            assert handle.timeouts >= 1
            assert handle.pid != stalled_pid
        finally:
            app.close()


# ----------------------------------------------------------------------
# End to end over real sockets
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_client_batch_over_http_matches_direct(self, tmp_path):
        config = ServerConfig(
            port=0, jobs=1, journal_path=str(tmp_path / "e2e.journal")
        )
        with ShardedServer(config, shards=3) as server:
            with ReproClient(port=server.port) as client:
                lines = client.batch_lines(REQUESTS)
                health = client.health()
        assert "\n".join(lines) == direct_jsonl(REQUESTS)
        assert health["shards"]["count"] == 3
        assert health["shards"]["ready"] == 3

    def test_shutdown_drains_and_stops_every_worker(self, tmp_path):
        config = ServerConfig(port=0, jobs=1)
        server = ShardedServer(config, shards=2).start()
        pids = [h.pid for h in server.app.supervisor.handles]
        assert server.shutdown(drain=True)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not [pid for pid in pids if _pid_alive(pid)]


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# ----------------------------------------------------------------------
# Live resharding: minimal movement, handoff accounting, fault overlap
# ----------------------------------------------------------------------
RESHARD_REQUESTS = [
    {"kind": "intra", "m": 24 + step, "k": 16, "l": 20, "buffer_elems": 4096}
    for step in range(12)
]


def journaled_keys(payloads):
    return sorted({routing_key(p) for p in payloads})


class TestResharding:
    @pytest.mark.parametrize("old,new", [(2, 3), (3, 2), (2, 4)])
    def test_keys_moved_is_exactly_the_ownership_delta(
        self, tmp_path, old, new
    ):
        # The property the minimal-movement claim rests on: the reshard
        # moves precisely the journaled keys whose rendezvous owner
        # differs between the two topologies -- no more, no fewer.
        app = make_app(tmp_path, old)
        try:
            assert post_batch(app, RESHARD_REQUESTS).status == 200
            predicted = ownership_delta(
                journaled_keys(RESHARD_REQUESTS), old, new
            )
            summary = app.reshard(new)
            assert summary["noop"] is False
            assert summary["keys_moved"] == len(predicted)
            assert (
                summary["imported"] + summary["duplicates"]
                == summary["exported"]
            )
            assert app.shards == new
            # Moved keys replay byte-identically from their new owners.
            response = post_batch(app, RESHARD_REQUESTS)
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip(
                "\n"
            ) == direct_jsonl(RESHARD_REQUESTS)
        finally:
            app.close()

    def test_reshard_to_same_count_is_a_noop(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            summary = app.reshard(2)
            assert summary["noop"] is True
            assert summary["keys_moved"] == 0
            assert app.shards == 2
        finally:
            app.close()

    def test_mid_batch_reshard_grow_and_shrink_byte_identical(
        self, tmp_path
    ):
        payloads = [
            {"kind": "intra", "m": 30 + step, "k": 20, "l": 24,
             "buffer_elems": 8192}
            for step in range(14)
        ]
        expected = direct_jsonl(payloads)
        summaries = []
        with injected_faults("delay:intra:seconds=0.08", export_env=True):
            app = make_app(tmp_path, 2)
            try:
                for target in (4, 2):
                    outcome = {}

                    def run():
                        outcome["response"] = post_batch(app, payloads)

                    runner = threading.Thread(target=run)
                    runner.start()
                    time.sleep(0.3)  # land the resize mid-batch
                    summaries.append(app.reshard(target))
                    runner.join(timeout=90.0)
                    assert not runner.is_alive(), "batch hung mid-reshard"
                    response = outcome["response"]
                    assert response.status == 200
                    assert (
                        response.body.decode("utf-8").rstrip("\n")
                        == expected
                    )
                    assert app.shards == target
            finally:
                app.close()
        for summary in summaries:
            assert (
                summary["imported"] + summary["duplicates"]
                == summary["exported"]
            )

    def test_sigkill_old_owner_mid_handoff_loses_nothing(self, tmp_path):
        app = make_app(tmp_path, 3)
        try:
            assert post_batch(app, RESHARD_REQUESTS).status == 200
            killed = {}

            def hook(phase, detail):
                # SIGKILL the first exporter right before its handoff
                # export is requested: the reshard must recover -- via
                # respawn-and-retry or the direct journal rescue.
                if phase == "export" and not killed:
                    victim = app.supervisor.handles[detail]
                    killed["index"] = detail
                    killed["pid"] = victim.pid
                    os.kill(victim.pid, signal.SIGKILL)

            summary = app.reshard(2, phase_hook=hook)
            assert killed, "phase hook never fired"
            assert (
                summary["imported"] + summary["duplicates"]
                == summary["exported"]
            )
            assert app.shards == 2
            response = post_batch(app, RESHARD_REQUESTS)
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip(
                "\n"
            ) == direct_jsonl(RESHARD_REQUESTS)
        finally:
            app.close()

    def test_disk_fault_on_import_successor_degrades_not_loses(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_GUARD_ENV, "1")
        app = make_app(tmp_path, 2)
        try:
            assert post_batch(app, RESHARD_REQUESTS).status == 200
            delta = ownership_delta(journaled_keys(RESHARD_REQUESTS), 2, 3)
            assert delta, "expected at least one key to move on 2->3"
            targets = {new_owner for _, new_owner in delta.values()}
            armed = []

            def hook(phase, detail):
                if phase == "import" and detail in targets and not armed:
                    app.supervisor.handles[detail].call(
                        "chaos",
                        timeout=10.0,
                        journal={"mode": "eio", "after": 0},
                    )
                    armed.append(detail)

            summary = app.reshard(3, phase_hook=hook)
            assert armed, "import hook never armed the journal fault"
            assert (
                summary["imported"] + summary["duplicates"]
                == summary["exported"]
            )
            assert armed[0] in summary["degraded_importers"]
            # Degraded durability, not lost answers: recompute is
            # deterministic, so the tier still answers byte-identically.
            response = post_batch(app, RESHARD_REQUESTS)
            assert response.status == 200
            assert response.body.decode("utf-8").rstrip(
                "\n"
            ) == direct_jsonl(RESHARD_REQUESTS)
        finally:
            app.close()

    def test_parked_overflow_is_503_with_retry_after(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            moving = next(
                p
                for p in RESHARD_REQUESTS
                if rendezvous_shard(routing_key(p), 2)
                != rendezvous_shard(routing_key(p), 3)
            )
            app._resharding = _ReshardState(2, 3, 0, 0.2)
            try:
                response = post_batch(app, [moving])
            finally:
                app._resharding = None
            assert response.status == 503
            assert "Retry-After" in response.headers
            counters = app.stats_dict()["serving"]
            assert counters["handoff_overflows"] >= 1
        finally:
            app.close()

    def test_parked_too_long_is_503_then_serves_after_commit(
        self, tmp_path
    ):
        app = make_app(tmp_path, 2)
        try:
            moving = next(
                p
                for p in RESHARD_REQUESTS
                if rendezvous_shard(routing_key(p), 2)
                != rendezvous_shard(routing_key(p), 3)
            )
            state = _ReshardState(2, 3, 8, 0.2)
            app._resharding = state
            try:
                timed_out = post_batch(app, [moving])
            finally:
                app._resharding = None
            assert timed_out.status == 503
            retry_after = timed_out.headers["Retry-After"]
            # The jitter is deterministic per client, so the same parked
            # client is told the same thing twice.
            app._resharding = _ReshardState(2, 3, 8, 0.2)
            try:
                again = post_batch(app, [moving])
            finally:
                app._resharding = None
            assert again.headers["Retry-After"] == retry_after
            assert app.stats_dict()["serving"]["handoff_wait_timeouts"] >= 2
            # Once the window closes the same key serves normally.
            served = post_batch(app, [moving])
            assert served.status == 200
        finally:
            app.close()

    def test_admin_reshard_endpoint_validates_and_resizes(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            assert post_batch(app, RESHARD_REQUESTS).status == 200
            for body in (b"not json", b'{"shards": 0}', b'{"shards": true}',
                         b'{"shards": "three"}', b"{}", b"[" * 50000):
                response = app.handle(
                    "POST", "/admin/reshard", {}, {}, body, "c"
                )
                assert response.status == 400, body
            ok = app.handle(
                "POST", "/admin/reshard", {}, {}, b'{"shards": 3}', "c"
            )
            assert ok.status == 200
            summary = json.loads(ok.body)
            assert (summary["from"], summary["to"]) == (2, 3)
            assert app.shards == 3
            noop = app.handle(
                "POST", "/admin/reshard", {}, {}, b'{"shards": 3}', "c"
            )
            assert json.loads(noop.body)["noop"] is True
            stats = app.stats_dict()
            assert stats["resharding"]["reshards_completed"] == 1
            assert stats["resharding"]["keys_moved"] == summary["keys_moved"]
            assert stats["resharding"]["last"]["to"] == 3
        finally:
            app.close()

    def test_readyz_reports_resharding_as_its_own_state(self, tmp_path):
        app = make_app(tmp_path, 2)
        try:
            app._resharding = _ReshardState(2, 3, 8, 5.0)
            try:
                ready = app.handle("GET", "/readyz", {}, {}, b"", "c")
            finally:
                app._resharding = None
            assert ready.status == 200
            payload = json.loads(ready.body)
            assert payload["status"] == "resharding"
            assert payload["resharding"]["active"] is True
            assert payload["resharding"]["pending"] == 0
            assert (payload["resharding"]["from"],
                    payload["resharding"]["to"]) == (2, 3)
        finally:
            app.close()


# ----------------------------------------------------------------------
# Hot-key replication
# ----------------------------------------------------------------------
class TestHotKeyReplication:
    def test_tracker_decays_and_bounds_memory(self):
        now = [0.0]
        tracker = HotKeyTracker(
            threshold=3.0, halflife=1.0, max_keys=4, clock=lambda: now[0]
        )
        for _ in range(4):
            tracker.observe("k")
        assert tracker.is_hot("k")
        now[0] += 10.0  # ten half-lives: rate decays to ~0.004x
        assert not tracker.is_hot("k")
        for index in range(10):
            tracker.observe(f"key-{index}")
        assert tracker.snapshot()["tracked"] <= 4

    def test_hot_key_reads_fan_out_and_stay_byte_identical(self, tmp_path):
        app = make_app(tmp_path, 3, hot_key_threshold=3.0)
        try:
            payload = REQUESTS[0]
            key = routing_key(payload)
            bodies = set()
            for _ in range(12):
                response = app.handle(
                    "POST",
                    "/v1/analyze",
                    {},
                    {"content-type": "application/json"},
                    json.dumps(payload).encode("utf-8"),
                    "c",
                )
                assert response.status == 200
                bodies.add(response.body)
            # Read-any discipline: whichever replica answered, the bytes
            # are the owner's bytes.
            assert len(bodies) == 1
            assert app.hot_keys.is_hot(key)
            stats = app.stats_dict()
            assert stats["hot_keys"]["hot"] >= 1
            assert stats["hot_keys"]["replica_reads"] >= 1
        finally:
            app.close()

    def test_cold_keys_keep_single_owner_routing(self, tmp_path):
        app = make_app(tmp_path, 3, hot_key_threshold=1000.0)
        try:
            for _ in range(3):
                assert post_batch(app, RESHARD_REQUESTS).status == 200
            stats = app.stats_dict()
            assert stats["hot_keys"]["hot"] == 0
            assert stats["hot_keys"]["replica_reads"] == 0
        finally:
            app.close()
