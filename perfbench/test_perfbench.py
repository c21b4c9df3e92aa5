"""Tests of the benchmark's own machinery (tracing, open-loop client).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchutil  # noqa: E402
import fleet  # noqa: E402
import grids  # noqa: E402
import spans  # noqa: E402
from repro.sim.engine import ExperimentRunner  # noqa: E402


def _bindings():
    """Every module attribute and class attribute an install may touch."""
    for module_name in spans.MODULES:
        __import__(module_name)
    seen = {}
    for _, target, _, _ in spans.POINTS:
        owner, name = spans._resolve(target)
        raw = owner.__dict__[name]
        seen[(id(owner), name)] = (owner, name, raw)
        if isinstance(owner, type):
            continue
        for module_name in spans.MODULES:
            module = sys.modules[module_name]
            for attr, value in vars(module).items():
                if value is raw:
                    seen[(id(module), attr)] = (module, attr, raw)
    return list(seen.values())


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    before = _bindings()
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        assert installed.missing == []
        for owner, name, raw in before:
            now = owner.__dict__[name]
            assert now is not raw, f"{owner!r}.{name} not wrapped"
            func = now.__func__ if isinstance(now, (classmethod, staticmethod)) else now
            assert hasattr(func, "__wrapped_kind__")
        # By-name imports are patched where they are looked up.
        import repro.core.controller
        import repro.sim.gridstack

        assert hasattr(repro.core.controller.inor, "__wrapped_kind__")
        assert hasattr(repro.sim.gridstack._inor_stack_raw, "__wrapped_kind__")
    finally:
        spans.uninstall(installed)
    for owner, name, raw in before:
        assert owner.__dict__[name] is raw, f"{owner!r}.{name} not restored"


def _tiny_spec(executor):
    return grids.GridSpec(
        name="tiny",
        scenarios=("porter-ii", "industrial-boiler"),
        duration_s=12.0,
        noises=(0.08, 0.16),
        executor=executor,
        reference_variants=(),
        shared_trace=executor == "gridstack",
        min_backbiased_share=0.0,
        max_backbiased_share=1.0,
        min_lanes=1,
    )


def test_traced_decisions_equal_untraced():
    for executor in ("serial", "gridstack"):
        spec = _tiny_spec(executor)
        cases, cache = grids.setup(spec, seed=3)
        plain = grids.deterministic_rows(
            ExperimentRunner(cases, executor=executor, cache=cache).run()
        )
        recorder = spans.Recorder()
        installed = spans.install(recorder)
        try:
            cases, cache = grids.setup(spec, seed=3)
            traced = grids.deterministic_rows(
                ExperimentRunner(cases, executor=executor, cache=cache).run()
            )
        finally:
            spans.uninstall(installed)
        assert traced == plain
        layers = spans.layer_metrics(recorder.spans, {})
        assert layers["sim.engine.cases"] == len(cases)
        if executor == "serial":
            assert layers["core.inor.calls"] > 0
        else:
            assert layers["core.inor.stack_calls"] > 0
            assert layers["sim.gridstack.fused_ratio"] == 1.0


def _fake_decision(index):
    return {"i": index, "t": index * 0.5, "n": 1, "starts": [0]}


async def _fake_server(reader, writer):
    """Answers each feed at once with one decision on its first sample."""
    chunks = {}
    while True:
        line = await reader.readline()
        if not line:
            break
        request = json.loads(line)
        sid = request["session"]
        if request["op"] == "feed":
            c = chunks.get(sid, 0)
            chunks[sid] = c + 1
            event = {"event": "decision", "session": sid,
                     "record": _fake_decision(c * fleet.CHUNK)}
        else:
            event = {"event": "closed", "session": sid, "n_decisions": chunks[sid]}
        writer.write((json.dumps(event) + "\n").encode())
        await writer.drain()
    writer.close()


def test_open_loop_client_times_decisions_from_due_time():
    stall_s = 0.2
    n_chunks = 6
    rate = 100.0
    plan = fleet.SessionPlan(
        "v", "INOR", None, [b'{"op":"feed","session":"v"}\n'] * n_chunks, 0
    )

    async def stall(n):
        if n == 2:
            await asyncio.sleep(stall_s)

    async def drive():
        server = await asyncio.start_server(_fake_server, "127.0.0.1", 0)
        client = fleet.FleetClient()
        try:
            await client.connect("127.0.0.1", server.sockets[0].getsockname()[1], 1)
            t0, order = await client.feed_all([plan], rate, stall=stall)
            await client.close_all([plan])
            await client.shutdown()
        finally:
            server.close()
            await server.wait_closed()
        return client, t0

    client, t0 = asyncio.run(drive())
    expected = {
        "v": [
            json.dumps(_fake_decision(c * fleet.CHUNK), separators=(",", ":"))
            for c in range(n_chunks)
        ]
    }
    latencies, attempted, failed, mismatched = fleet.score(
        [plan], expected, client.decisions, lambda k, c: t0 + c / rate
    )
    ms = latencies["INOR"]
    assert (attempted, failed, mismatched) == (n_chunks, 0, [])
    # The server answers at once, so send-to-arrival is small; the
    # stall shows only because latency runs from the due time.
    assert ms[0] < 0.5 * stall_s * 1e3
    assert ms[2] >= 0.95 * stall_s * 1e3
    assert ms[3] >= 0.95 * (stall_s - 1.0 / rate) * 1e3
    assert client.lateness_s[2] >= 0.95 * stall_s
    arrival_after_send = [at for _, at in client.decisions["v"]][2] - client.sent_at[2]
    assert arrival_after_send < 0.5 * stall_s


def test_missing_decision_is_a_failure_at_infinite_latency():
    plan = fleet.SessionPlan("v", "DNOR", None, [], 0)
    want = [json.dumps(_fake_decision(i), separators=(",", ":")) for i in (0, 4, 8)]
    got = [(_fake_decision(0), 1.0), (_fake_decision(8), 1.5)]
    latencies, attempted, failed, mismatched = fleet.score(
        [plan], {"v": want}, {"v": got}, lambda k, c: 0.9
    )
    assert (attempted, failed, mismatched) == (3, 1, ["v"])
    ms = latencies["DNOR"]
    assert math.isinf(ms[1]) and not math.isinf(ms[0])
    assert math.isinf(benchutil.rank_percentile(ms, 90.0))
    assert benchutil.finite(math.inf) == benchutil.INF_MS
    # A decision the offline log lacks is failed too.
    extra = got + [(_fake_decision(12), 2.0)]
    assert fleet.score([plan], {"v": want}, {"v": extra}, lambda k, c: 0.9)[2] == 2


def test_host_speed_scales_by_the_median_probe_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with benchutil.HostSpeed() as speed:
        since = speed.mark()
        time.sleep(5 * benchutil.PROBE_PERIOD_S)
        assert len(speed.samples) >= 2
        assert speed.spent(since) == sum(speed.costs) > sum(speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A host at half the reference speed halves the reported time.
    ref = benchutil.REFERENCE_PROBE_S
    speed.samples = [ref, 2 * ref, 2 * ref, 2 * ref, 50 * ref]
    assert speed.factor(1) == 0.5
    assert speed.factor(5) == speed.factor(0) == 0.5


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-fused",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
