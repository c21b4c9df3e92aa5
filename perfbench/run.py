"""End-to-end benchmark of the TEG reconfiguration system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 30 --trace 0

Workloads (rationale in ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``grid-serial`` — 24-case mixed registry grid, ``ExperimentRunner``
  serial executor;
* ``grid-fused``  — 48-case industrial-boiler noise grid, gridstack
  executor;
* ``serve-fleet`` — 16 vehicles streaming into one ``StreamServer``
  over TCP, open loop.

``--trace 0`` measures and prints every end-to-end metric; ``--trace 1``
additionally runs one traced window and prints the per-layer split.
Outputs are checked on every run.  The last stdout line is the JSON
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: ``name -> (unit, better)`` of every end-to-end metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sim_s_per_s": ("s/s", "higher"),
    "decide_ms.inor": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Measured and printed on every run but not in the result line: across
#: ten seeds their quartile spread exceeded the largest bound allowed
#: (0.25) on some workload — they swing with the input (how often a
#: DNOR proposal moves; which drive's back-biased rows fill the top
#: decile) or, for the sub-millisecond clean-row median, with the host.
REPORTED = {"decide_ms.dnor": "ms", "p50_ms": "ms", "p90_ms": "ms"}

WORKLOADS = ("grid-serial", "grid-fused", "serve-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the server child and the fleet client share two
    # cores, and the decision kernels' matrices are small.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from benchutil import finite
    import spans

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "serve-fleet":
        import fleet

        outcome = fleet.run(args.seed, args.seconds, trace, out_dir)
    else:
        import grids

        outcome = grids.run(
            grids.GRIDS[args.workload], args.seed, args.seconds, trace, out_dir
        )

    for line in outcome.report:
        print(line)
    print(f"end-to-end metrics ({args.workload}, seed {args.seed}):")
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:16s} {outcome.metrics[name]:14.6f} {unit}")
    for name, unit in REPORTED.items():
        print(f"  {name:16s} {outcome.metrics[name]:14.6f} {unit} (reported, not gated)")
    print(f"operations: {outcome.failed} failed of {outcome.attempted} attempted")
    if trace:
        recorded, wall = outcome.traced
        spans.print_layer_table(recorded, outcome.layers, wall)
        values = outcome.layers
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        values = outcome.metrics
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": finite(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
