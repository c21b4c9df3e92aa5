"""The serve-fleet workload: an open-loop vehicle fleet over TCP.

Sixteen porter-ii sessions (12 INOR, 4 DNOR with incremental refits)
share one ``StreamServer`` running in a child process
(``fleet_server.py``).  This process is the fleet: two connections,
each carrying eight sessions, send 4-sample telemetry chunks on a fixed
schedule — 80 chunks/s fleet-wide, i.e. every vehicle at 10x real
time — whether or not the server keeps up (an open loop, as
independent vehicles would).  At that rate the server is busy well
under half the time on the reference host, so a slower host or a
slower commit shows as latency before the backlog grows without bound.
Each decision event is timed from the *scheduled* send time of the
chunk that fired it, so a stall delays every decision queued behind
it.  Throughput is simulated vehicle-seconds per second of the
server's CPU time over the window, since the wall time is set by the
schedule.  The timed window starts only after every session's
``opened`` event.

Correctness: each session's online decision log must be byte-equal to
``offline_decision_log`` over the fed trace, sensor seed and refit
mode.  A missing, extra or differing decision is a failed operation
and counts as +inf latency.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple


from benchutil import (
    HostSpeed,
    Outcome,
    backbiased_rows,
    derived_rng,
    inor_decision_emf,
    rank_percentile,
)
from repro.serve.server import FEED_COLUMNS, encode_column
from repro.serve.session import offline_decision_log
from repro.sim.physics import TracePhysics
from repro.sim.scenario import build_named_scenario

import spans

HERE = Path(__file__).resolve().parent

SCENARIO = "porter-ii"
POLICY_MIX = ("INOR",) * 12 + ("DNOR",) * 4
DNOR_REFIT = "incremental"
CHUNK = 4
CONNECTIONS = 2
RATE_HZ = 80.0
#: Trace seconds each vehicle covers per host second: a chunk of
#: porter-ii's 0.5 s samples every ``len(POLICY_MIX) / RATE_HZ`` s.
SPEEDUP = RATE_HZ / len(POLICY_MIX) * CHUNK * 0.5
SETUP_REPEATS = 3
#: The last stretch before a chunk is due, spent polling the loop.
POLL_S = 0.002
#: Seconds allowed for replies (opened / closed events) to arrive.
REPLY_TIMEOUT_S = 60.0


@dataclass
class SessionPlan:
    """One vehicle: its scenario, policy and pre-encoded feed lines."""

    session_id: str
    policy: str
    scenario: object
    lines: List[bytes]
    connection: int

    def open_line(self) -> bytes:
        return _line(
            {
                "op": "open",
                "session": self.session_id,
                "scenario": SCENARIO,
                "policy": self.policy,
                "dnor_refit": DNOR_REFIT,
                "overrides": {
                    "duration_s": self.scenario.trace.duration_s,
                    "sensor_seed": self.scenario.sensor_seed,
                },
            }
        )


def _line(payload: Dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")


def build_plans(seed: int, duration_s: float) -> List[SessionPlan]:
    """The fleet: one registry trace and sensor seed per vehicle."""
    rng = derived_rng(seed, "serve-fleet")
    plans = []
    for k, policy in enumerate(POLICY_MIX):
        scenario = build_named_scenario(
            SCENARIO, duration_s=duration_s, seed=int(rng.integers(0, 100_000))
        )
        scenario = dataclasses.replace(
            scenario, sensor_seed=int(rng.integers(0, 100_000))
        )
        sid = f"vehicle-{k:02d}"
        trace = scenario.trace
        lines = []
        for lo in range(0, trace.n_samples, CHUNK):
            cols = {
                name: encode_column(getattr(trace, name)[lo : lo + CHUNK])
                for name in FEED_COLUMNS
            }
            lines.append(_line({"op": "feed", "session": sid, "cols": cols}))
        plans.append(SessionPlan(sid, policy, scenario, lines, k % CONNECTIONS))
    return plans


def schedule(plans: Sequence[SessionPlan], rate_hz: float) -> List[Tuple[float, int, int]]:
    """``(due offset s, plan index, chunk index)`` in send order.

    Chunk ``c`` of vehicle ``k`` is due at ``(c * K + k) / rate``: the
    vehicles take turns, so the fleet-wide rate is ``rate_hz``.
    """
    n = len(plans)
    out = [
        ((c * n + k) / rate_hz, k, c)
        for k, plan in enumerate(plans)
        for c in range(len(plan.lines))
    ]
    out.sort()
    return out


class FleetClient:
    """The fleet's side of the JSON-lines protocol, on one event loop."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.writers: List[asyncio.StreamWriter] = []
        self.decisions: Dict[str, List[Tuple[dict, float]]] = {}
        self.errors: List[str] = []
        self.lateness_s: List[float] = []
        self.sent_at: List[float] = []
        self._waiting: Dict[Tuple[str, str], asyncio.Future] = {}
        self._readers: List[asyncio.Task] = []

    async def connect(self, host: str, port: int, n: int) -> None:
        for _ in range(n):
            reader, writer = await asyncio.open_connection(host, port)
            self.writers.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = self.clock()
            event = json.loads(line)
            kind = event.get("event")
            if kind == "decision":
                self.decisions.setdefault(event["session"], []).append(
                    (event["record"], now)
                )
            elif kind == "error":
                self.errors.append(str(event.get("message")))
            else:
                future = self._waiting.pop((kind, event.get("session")), None)
                if future is not None and not future.done():
                    future.set_result(now)

    async def _request(self, plans, line_of, reply: str) -> None:
        loop = asyncio.get_running_loop()
        futures = []
        for plan in plans:
            future = loop.create_future()
            self._waiting[(reply, plan.session_id)] = future
            futures.append(future)
            writer = self.writers[plan.connection]
            writer.write(line_of(plan))
            await writer.drain()
        await asyncio.wait_for(asyncio.gather(*futures), REPLY_TIMEOUT_S)

    async def open_all(self, plans: Sequence[SessionPlan]) -> None:
        """Open every session; return once every ``opened`` arrived."""
        await self._request(plans, SessionPlan.open_line, "opened")

    async def close_all(self, plans: Sequence[SessionPlan]) -> None:
        """Close every session; return once every ``closed`` arrived."""
        await self._request(
            plans, lambda p: _line({"op": "close", "session": p.session_id}), "closed"
        )

    async def _until(self, due: float) -> None:
        """Return at ``due``: sleep to just short of it, then poll.

        The loop's timers fire up to a millisecond late (epoll waits in
        whole milliseconds), which would make the generator late; the
        last stretch yields to the loop instead, so decision events that
        arrive meanwhile are still read and timed at once.
        """
        delay = due - self.clock() - POLL_S
        if delay > 0.0:
            await asyncio.sleep(delay)
        while self.clock() < due:
            await asyncio.sleep(0)

    async def feed_all(
        self,
        plans: Sequence[SessionPlan],
        rate_hz: float,
        stall: Optional[Callable[[int], "asyncio.Future"]] = None,
    ) -> Tuple[float, List[Tuple[float, int, int]]]:
        """Send every chunk on schedule; return ``(t0, schedule)``.

        ``stall(n)``, when given, is awaited before the n-th send — the
        tests' way to make the generator fall behind.
        """
        order = schedule(plans, rate_hz)
        t0 = self.clock() + 0.01
        for n, (offset, k, c) in enumerate(order):
            due = t0 + offset
            await self._until(due)
            if stall is not None:
                await stall(n)
            writer = self.writers[plans[k].connection]
            writer.write(plans[k].lines[c])
            await writer.drain()
            sent = self.clock()
            self.sent_at.append(sent)
            self.lateness_s.append(sent - due)
        return t0, order

    async def shutdown(self) -> None:
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        await asyncio.gather(*self._readers, return_exceptions=True)


def score(
    plans: Sequence[SessionPlan],
    expected: Dict[str, List[str]],
    received: Dict[str, List[Tuple[dict, float]]],
    due: Callable[[int, int], float],
) -> Tuple[Dict[str, List[float]], int, int, List[str]]:
    """Match online decisions to the offline logs and time them.

    Returns ``(latencies_ms by policy, attempted, failed, mismatched
    session ids)``.  ``due(k, c)`` is the scheduled send time of chunk
    ``c`` of vehicle ``k``.  Every expected decision is one attempted
    operation; a missing or differing one is failed at +inf latency,
    and an online decision the offline log lacks is failed too.
    """
    latencies: Dict[str, List[float]] = {}
    attempted = failed = 0
    mismatched = []
    for k, plan in enumerate(plans):
        want = expected[plan.session_id]
        got = received.get(plan.session_id, [])
        online = [
            json.dumps(record, separators=(",", ":"), allow_nan=False)
            for record, _ in got
        ]
        if online != want:
            mismatched.append(plan.session_id)
        arrivals = {line: at for line, (_, at) in zip(online, got)}
        bucket = latencies.setdefault(plan.policy, [])
        attempted += len(want)
        for line in want:
            at = arrivals.pop(line, None)
            if at is None:
                failed += 1
                bucket.append(math.inf)
            else:
                index = json.loads(line)["i"]
                bucket.append((at - due(k, index // CHUNK)) * 1.0e3)
        failed += len(arrivals)
    return latencies, attempted, failed, mismatched


class ServerProcess:
    """The ``fleet_server.py`` child: start, stop, always reaped."""

    def __init__(self, spans_path: Optional[Path], cpus: Optional[Set[int]]) -> None:
        argv = [sys.executable, str(HERE / "fleet_server.py")]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
        )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        first = self.proc.stdout.readline()
        if not first:
            self.kill()
            raise RuntimeError("fleet server exited before listening")
        self.port = int(json.loads(first)["port"])

    def stop(self) -> dict:
        """SIGTERM, wait, and return the child's final JSON line."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=REPLY_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"fleet server exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _setup(seed: int, duration_s: float, server_cpus, spans_path=None):
    """Build the fleet, start a server and open every session."""
    start = time.perf_counter()
    plans = build_plans(seed, duration_s)
    server = ServerProcess(spans_path, server_cpus)
    client = FleetClient()
    try:
        await client.connect("127.0.0.1", server.port, CONNECTIONS)
        await client.open_all(plans)
    except BaseException:
        await client.shutdown()
        server.kill()
        raise
    return time.perf_counter() - start, plans, server, client


async def _drive(plans, server, client):
    """The timed window, then close the fleet and stop the server."""
    try:
        t0, order = await client.feed_all(plans, RATE_HZ)
        await client.close_all(plans)
        end = max(
            (at for got in client.decisions.values() for _, at in got),
            default=client.clock(),
        )
        await client.shutdown()
        stats = server.stop()
    except BaseException:
        await client.shutdown()
        server.kill()
        raise
    return t0, order, end, stats


def _expected_logs(plans) -> Tuple[Dict[str, List[str]], int, int]:
    """Offline reference logs, plus back-biased INOR decision rows."""
    expected = {}
    rows = bb = 0
    for plan in plans:
        records = offline_decision_log(plan.scenario, plan.policy, DNOR_REFIT)
        expected[plan.session_id] = [r.to_json_line() for r in records]
        if plan.policy != "INOR":
            continue
        sc = plan.scenario
        physics = TracePhysics.compute(sc.trace, sc.boundary, sc.module, sc.n_modules)
        emf = inor_decision_emf(sc, physics)
        rows += emf.shape[0]
        bb += backbiased_rows(emf)
    return expected, rows, bb


def _summarise(plans, client, t0, order, end, expected):
    offsets = {(k, c): offset for offset, k, c in order}
    latencies, attempted, failed, mismatched = score(
        plans, expected, client.decisions, lambda k, c: t0 + offsets[(k, c)]
    )
    failed += len(client.errors)
    every = [x for values in latencies.values() for x in values]
    late_ms = [x * 1.0e3 for x in client.lateness_s]
    span = client.sent_at[-1] - client.sent_at[0]
    return {
        "latencies": latencies,
        "every": every,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "late_ms": late_ms,
        "achieved_hz": (len(client.sent_at) - 1) / span if span > 0 else 0.0,
    }


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """One benchmark run of serve-fleet.

    With two CPUs or more, the fleet and the server child each get
    their own: the generator polls the loop before each chunk is due,
    and sharing a CPU with the server made it (and the server's replies)
    wait for each other — median lateness ~1.5 ms in about one run in
    three instead of ~0.1 ms.
    """
    allowed = sorted(os.sched_getaffinity(0))
    server_cpus = set(allowed[1:]) if len(allowed) > 1 else None
    if server_cpus:
        os.sched_setaffinity(0, {allowed[0]})
    try:
        return asyncio.run(_run(seed, seconds, trace, out_dir, server_cpus))
    finally:
        os.sched_setaffinity(0, allowed)


async def _run(
    seed: int, seconds: float, trace: bool, out_dir: Path, server_cpus
) -> Outcome:
    duration_s = SPEEDUP * seconds
    # Set-up is timed under this process's host-speed probe, the fleet
    # window under the server's (see ``benchutil.HostSpeed``); both are
    # reported at the reference speed.
    setup_times = []
    with HostSpeed() as speed:
        for repeat in range(SETUP_REPEATS):
            since = speed.mark()
            took, plans, server, client = await _setup(seed, duration_s, server_cpus)
            setup_times.append(took - speed.spent(since))
            if repeat < SETUP_REPEATS - 1:
                await client.shutdown()
                server.stop()
        setup_factor = speed.factor(0)
    t0, order, end, stats = await _drive(plans, server, client)
    factor = stats["speed_factor"]

    # ---- correctness and traffic, outside every timed region ----
    expected, rows, bb = _expected_logs(plans)
    got = _summarise(plans, client, t0, order, end, expected)
    every = got["every"]
    p50 = rank_percentile(every, 50.0)
    simulated = sum(plan.scenario.trace.duration_s for plan in plans)
    metrics = {
        "setup_s": median(setup_times) * setup_factor,
        # The load is offered on a fixed schedule, so wall time is the
        # client's; the server's own CPU time over the window is what a
        # slower or faster program changes.
        "sim_s_per_s": simulated / (stats["window_cpu_s"] * factor),
        "decide_ms.inor": factor * rank_percentile(got["latencies"]["INOR"], 50.0),
        "decide_ms.dnor": factor * rank_percentile(got["latencies"]["DNOR"], 50.0),
        "p50_ms": factor * p50,
        "p90_ms": factor * rank_percentile(every, 90.0),
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    late_median = rank_percentile(got["late_ms"], 50.0)
    props = {
        "sessions": len(plans),
        "policies": {p: POLICY_MIX.count(p) for p in sorted(set(POLICY_MIX))},
        "modules": plans[0].scenario.n_modules,
        "samples_per_session": plans[0].scenario.trace.n_samples,
        "chunks": len(order),
        "inor_decision_rows": rows,
        "backbiased_share": bb / rows,
        "offered_hz": RATE_HZ,
        "achieved_hz": got["achieved_hz"],
        "generator_late_ms": {
            "p50": late_median,
            "p99": rank_percentile(got["late_ms"], 99.0),
            "max": max(got["late_ms"]),
        },
        "decisions": len(every),
        "server_busy": stats["window_cpu_s"] / (end - t0),
        "hub": stats["hub"],
    }
    problems = []
    if props["backbiased_share"] <= 0.05:
        problems.append(f"back-biased share {props['backbiased_share']:.3f} <= 0.05")
    if abs(got["achieved_hz"] / RATE_HZ - 1.0) > 0.02:
        problems.append(f"achieved {got['achieved_hz']:.1f} chunks/s, offered {RATE_HZ}")
    if late_median > 0.25 * p50:
        problems.append(f"generator lateness p50 {late_median:.3f} ms vs p50 {p50:.3f} ms")
    report = [
        f"workload serve-fleet: seed {seed}, {len(plans)} sessions over "
        f"{CONNECTIONS} connections, {RATE_HZ:g} chunks/s for "
        f"{order[-1][0]:.2f} s, window {end - t0:.2f} s",
        f"  setups: {', '.join(f'{t:.4f}' for t in setup_times)} s at host speed "
        f"(factor {setup_factor:.3f}); fleet window host speed factor {factor:.3f}",
        f"  traffic: {json.dumps(props)}",
        f"  decisions: {len(every)}, p99 {rank_percentile(every, 99.0):.4f} ms, "
        f"errors {len(client.errors)}, sessions not byte-equal to offline: "
        f"{got['mismatched']}",
    ]
    report += [f"  PROPERTY VIOLATION: {p}" for p in problems]
    attempted, failed = got["attempted"], got["failed"]
    if not trace:
        return Outcome(metrics, attempted, failed, problems, report)

    spans_path = out_dir / f"serve-fleet-seed{seed}-spans.json"
    _, plans, server, client = await _setup(seed, duration_s, server_cpus, spans_path)
    t0, order, end, traced_stats = await _drive(plans, server, client)
    traced = _summarise(plans, client, t0, order, end, expected)
    attempted += traced["attempted"]
    failed += traced["failed"]
    if traced["mismatched"]:
        problems.append(f"traced sessions differ from offline: {traced['mismatched']}")
    with open(spans_path, encoding="ascii") as handle:
        recorded = json.load(handle)["spans"]
    overhead = 100.0 * (
        traced_stats["window_cpu_s"] * traced_stats["speed_factor"]
        / (stats["window_cpu_s"] * factor)
        - 1.0
    )
    hub = traced_stats["hub"]
    layers = spans.layer_metrics(
        recorded,
        {
            "serve.rows_per_pass": hub["rows_decided"] / max(hub["stacked_passes"], 1),
            "serve.errors": len(client.errors),
            "serve.generator_late_ms": rank_percentile(traced["late_ms"], 50.0),
            "serve.p99_ms": rank_percentile(traced["every"], 99.0),
            "trace_overhead_pct": overhead,
        },
    )
    report.append(
        f"  traced fleet: server window CPU "
        f"{traced_stats['window_cpu_s'] * traced_stats['speed_factor']:.3f} s vs "
        f"untraced {stats['window_cpu_s'] * factor:.3f} s at reference speed: "
        f"trace_overhead_pct {overhead:.2f}"
    )
    if traced_stats.get("missing_points"):
        report.append(
            f"  instrumentation points not found: {traced_stats['missing_points']}"
        )
    return Outcome(
        metrics, attempted, failed, problems, report, layers,
        (recorded, end - t0),
    )
