"""The ``serve-hot`` workload: an open-loop client against a 2-shard tier.

The generator is two connection threads, each with its own keep-alive
``ReproClient``.  A free thread takes the next scheduled request, sleeps
until it is due and sends it, so the two alternate while both are free,
and a request that falls due while both are busy waits for the first to
free up.  Latency is timed from when the request was due, so that wait
counts; sleeping in the sending thread keeps a hand-off between threads
out of it.  Clients never retry: a 429/503 or a transport error is a
failed request.

After the timed phase the fleet is drained and shut down, every shard
journal must pass ``fsck_file`` clean, and the temporary directory is
removed.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import Target, Tracer, traced
from workloads import Payload

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SHARDS = 2
CONNECTIONS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: How long a connection thread may take to finish after the schedule ends.
JOIN_TIMEOUT_S = 120.0


@dataclass
class Sent:
    """One scheduled request as the generator saw it."""

    due: float
    sent: float
    done: float
    #: The served JSON lines, verbatim.
    line: Optional[str]
    #: ``None`` on success; else the HTTP status or ``"transport"``.
    error: Optional[Any] = None


@dataclass
class ServePhase:
    sent: List[Sent] = field(default_factory=list)
    wall_s: float = 0.0
    #: Per connection thread: seconds from its start to its exit.
    thread_walls: List[float] = field(default_factory=list)
    #: ``/stats`` after the untimed warm-up and after the timed phase.
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Peak RSS of the daemon process plus its shard workers.
    fleet_peak_rss_mb: float = 0.0
    #: The daemon's exit code after SIGTERM (0 = drained cleanly).
    exit_code: Optional[int] = None
    #: The daemon drained and exited 0, and every shard journal is clean.
    shutdown_clean: bool = False
    journal_reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Per request: how late it was sent (waiting for a free connection
    #: included).
    late_ms: List[float] = field(default_factory=list)


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Fleet:
    """A ``repro serve --shards 2`` daemon with journals, in its own process."""

    process: subprocess.Popen
    host: str
    port: int
    shard_pids: List[int]
    temp: str

    def pids(self) -> List[int]:
        return [self.process.pid] + self.shard_pids

    def stop(self) -> int:
        """SIGTERM (drain), wait for exit; kill the process group if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            return self.process.wait(timeout=STOP_TIMEOUT_S)


def start_fleet(work_dir: str) -> Fleet:
    """Start the daemon with journals in a fresh temp dir; ready on return."""
    temp = tempfile.mkdtemp(prefix="serve-hot-", dir=work_dir)
    log_path = os.path.join(temp, "serve.log")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    command = [
        sys.executable, "-m", "repro", "serve", "--shards", str(SHARDS), "--port", "0",
        "--journal", os.path.join(temp, "journal.jsonl"),
    ]
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            env=env, start_new_session=True,
        )
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        while time.monotonic() < deadline and process.poll() is None:
            with open(log_path) as log:
                text = log.read()
            listening = re.search(r"listening on http://([^:\s]+):(\d+)", text)
            pids = re.search(r"shard pids ([\d ]+)\n", text)
            if listening and pids:
                fleet = Fleet(process, listening.group(1), int(listening.group(2)),
                              [int(pid) for pid in pids.group(1).split()], temp)
                connect(fleet).close()
                return fleet
            time.sleep(0.01)
        with open(log_path) as log:
            raise RuntimeError(f"repro serve did not become ready:\n{log.read()}")
    except BaseException:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=STOP_TIMEOUT_S)
        shutil.rmtree(temp, ignore_errors=True)
        raise


def connect(fleet: Fleet) -> Any:
    """A non-retrying client of the fleet, past its protocol handshake."""
    from repro.server.client import ReproClient

    client = ReproClient(host=fleet.host, port=fleet.port, max_attempts=1)
    client.handshake()
    return client


def run_serve_phase(
    pool: Sequence[Payload],
    schedule: Sequence[Tuple[float, int]],
    warm: Sequence[Payload],
    work_dir: str,
    tracer: Optional[Tracer] = None,
) -> ServePhase:
    """Serve ``schedule`` (due offset, pool index) on a fresh fleet.

    The ``warm`` payloads are answered once, untimed, before the schedule
    starts.
    """
    from repro.server.client import ClientError, ReproClient, ServerError
    from repro.service import FSCK_CLEAN, fsck_file

    phase = ServePhase(sent=[None] * len(schedule))  # type: ignore[list-item]
    fleet = start_fleet(work_dir)
    clients: List[Any] = []
    try:
        clients = [connect(fleet) for _ in range(CONNECTIONS)]
        clients[0].batch_lines(warm)
        phase.stats_before = clients[0].stats()
        targets = [Target("client.analyze", ReproClient, "batch_lines", new_request=True)]
        order = itertools.count()
        phase.thread_walls = [0.0] * CONNECTIONS

        def connection(slot: int, start: float) -> None:
            client = clients[slot]
            began = time.perf_counter()
            while True:
                index = next(order)
                if index >= len(schedule):
                    phase.thread_walls[slot] = time.perf_counter() - began
                    return
                offset, key = schedule[index]
                due = start + offset
                waited = time.perf_counter()
                if waited < due:
                    time.sleep(due - waited)
                sent = time.perf_counter()
                if tracer is not None:
                    tracer.record("generator.wait", waited, sent)
                line, error = None, None
                try:
                    line = "\n".join(client.batch_lines([pool[key]]))
                except ServerError as exc:
                    error = exc.status
                except ClientError:
                    error = "transport"
                phase.sent[index] = Sent(due, sent, time.perf_counter(), line, error)

        with traced(tracer, targets) if tracer else contextlib.nullcontext():
            start = time.perf_counter() + 0.05
            threads = [
                threading.Thread(target=connection, args=(slot, start), name=f"conn-{slot}")
                for slot in range(CONNECTIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=schedule[-1][0] + JOIN_TIMEOUT_S)
            if any(thread.is_alive() for thread in threads) or None in phase.sent:
                raise RuntimeError("serve-hot connection threads did not finish")
        phase.late_ms = [(sent.sent - sent.due) * 1e3 for sent in phase.sent]
        phase.wall_s = max(s.done for s in phase.sent) - start
        phase.stats = clients[0].stats()
        phase.fleet_peak_rss_mb = sum(peak_rss_mb(pid) for pid in fleet.pids())
    finally:
        for client in clients:
            client.close()
        phase.exit_code = fleet.stop()
    try:
        journals = sorted(
            path for path in glob.glob(os.path.join(fleet.temp, "journal.jsonl.shard-*"))
            if re.fullmatch(r".*\.shard-\d+", path)
        )
        phase.journal_reports = [fsck_file(path) for path in journals]
        phase.shutdown_clean = phase.exit_code == 0 and len(journals) == SHARDS and all(
            report["exit_code"] == FSCK_CLEAN for report in phase.journal_reports
        )
    finally:
        shutil.rmtree(fleet.temp, ignore_errors=True)
    return phase


def reference_lines(pool: Sequence[Payload], keys: Sequence[int]) -> Dict[int, str]:
    """In-process ``BatchEngine`` JSON lines for the pool entries ``keys``."""
    from repro.service import BatchEngine

    return {key: BatchEngine().run_batch([pool[key]]).to_jsonl() for key in sorted(set(keys))}
