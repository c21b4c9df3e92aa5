"""Child process of the serve-fleet workload: one ``StreamServer``.

Run as ``python3 perfbench/fleet_server.py [--spans PATH]``.
Prints ``{"port": p}`` once listening.  When every session of the
fleet (``fleet.POLICY_MIX``) has been opened it notes its CPU clock, so the work of the
measured window can be told apart from start-up.  Throughout, it
samples the host's speed (``benchutil.HostSpeed``).  On SIGTERM it
closes the server and prints one JSON line: hub counters, peak RSS,
CPU seconds, and the window's CPU seconds without the probes plus the
window's host-speed factor.  With ``--spans`` it wraps the repo's layers (see
``spans.py``) for the whole life of the server and writes the spans
to PATH on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


async def serve(sessions: int, speed) -> dict:
    from repro.serve.server import StreamServer

    server = StreamServer(port=0)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    cpu_opened = None
    # Poll only until the fleet is open, so the measured window runs
    # the server's event loop with nothing of ours on it.
    while cpu_opened is None and not stop.is_set():
        if len(server.hub.sessions) >= sessions:
            cpu_opened = time.process_time()
            opened = speed.mark()
            break
        try:
            await asyncio.wait_for(stop.wait(), 0.01)
        except asyncio.TimeoutError:
            pass
    await stop.wait()
    await server.close()
    cpu = time.process_time()
    if cpu_opened is None:
        cpu_opened, opened = 0.0, 0
    return {
        "hub": server.hub.stats.as_dict(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": cpu,
        "window_cpu_s": cpu - cpu_opened - speed.spent(opened),
        "speed_factor": speed.factor(opened),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from benchutil import HostSpeed
    from fleet import POLICY_MIX

    recorder = installed = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
        installed = spans.install(recorder)
    try:
        with HostSpeed() as speed:
            result = asyncio.run(serve(len(POLICY_MIX), speed))
    finally:
        if installed is not None:
            spans.uninstall(installed)
    if recorder is not None:
        recorder.dump(Path(args.spans))
        result["missing_points"] = installed.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
