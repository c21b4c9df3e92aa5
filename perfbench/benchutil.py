"""Small helpers shared by the benchmark's workloads."""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.gridstack import _decision_schedule, _scan_group

#: Stands in for +inf (a missing or erroring decision) in the JSON
#: result line, which must hold plain numbers.
INF_MS = 1.0e12


def rank_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; +inf entries sort last and stay +inf."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def finite(value: float) -> float:
    """``value`` with +inf replaced by :data:`INF_MS`."""
    return INF_MS if math.isinf(value) else float(value)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Median time of one :func:`speed_probe` on the reference host.  Every
#: timing metric is reported in seconds at that speed (see
#: :class:`HostSpeed`).
REFERENCE_PROBE_S = 125.0e-6
#: Interval between two probes.
PROBE_PERIOD_S = 0.05

_PROBE_ROW = np.ones(256)


def speed_probe() -> float:
    """A fixed ~0.1 ms of small-array numpy and interpreter work.

    The same mix the decision kernels run; it touches nothing of the
    program's.
    """
    acc = 0.0
    for _ in range(20):
        acc += float(np.cumsum(_PROBE_ROW)[-1])
    count = 0
    for i in range(1500):
        count += i
    return acc + count


class HostSpeed:
    """The host's speed, sampled in this thread while a workload runs.

    Other tenants of the reference host slow a process by up to ~1.7x
    for seconds to minutes at a time, which no length of run averages
    away.  While active, a SIGALRM handler times one :func:`speed_probe`
    every ``PROBE_PERIOD_S`` in this thread, between the program's
    bytecodes, so the probes see the host at the same moments as the
    program.  An interval is reported in seconds at the reference
    speed: minus the probes' own time (:meth:`spent`, ~0.5%), times
    ``REFERENCE_PROBE_S`` over the median probe time inside it
    (:meth:`factor`).  A faster or slower *program* moves the scaled
    time one for one.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.costs: List[float] = []
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        # The first probe after the program (or an idle wait) reads
        # cold caches, ~1.5x slow; the second one is timed.
        start = time.perf_counter()
        speed_probe()
        warm = time.perf_counter()
        speed_probe()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.costs.append(end - start)

    def mark(self) -> int:
        """A position in the sample log, for :meth:`spent` and :meth:`factor`."""
        return len(self.samples)

    def spent(self, since: int) -> float:
        """Seconds spent probing since ``mark() == since``."""
        return sum(self.costs[since:])

    def factor(self, since: int) -> float:
        """Reference speed over the host's median speed since ``since``.

        With no probe since then (an interval shorter than the probe
        period), every probe so far stands in.
        """
        window = self.samples[since:] or self.samples
        if not window:
            raise RuntimeError("no host-speed probe has run yet")
        return REFERENCE_PROBE_S / statistics.median(window)


def derived_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator every input of one workload run is drawn from."""
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def decision_samples(time_s: np.ndarray, period_s: float) -> List[int]:
    """Sample indices where a policy with this period decides.

    The program's own gating schedule (the one the fused executor
    replays), so the benchmark classifies exactly the rows it decides on.
    """
    return _decision_schedule(time_s, period_s)


def backbiased_rows(emf_rows: np.ndarray) -> int:
    """Rows with at least one negative module EMF."""
    return int(np.any(np.asarray(emf_rows) < 0.0, axis=1).sum())


def inor_decision_emf(scenario, physics) -> np.ndarray:
    """The module-EMF rows an INOR policy decides on for ``scenario``.

    The scenario's own seeded scanner draw over ``physics`` (through the
    program's per-case scan) at every control period, referenced to
    ambient — the rows the program feeds ``inor``, recomputed outside
    any timed region.
    """
    scanned = _scan_group([SimpleNamespace(scenario=scenario)], physics)[0]
    trace = scenario.trace
    idx = decision_samples(trace.time_s, scenario.control_period_s)
    ambient = trace.ambient_c[idx][:, None]
    return scenario.module.emf_coefficient() * (scanned[idx] - ambient)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end values, ``layers`` the per-layer
    values (traced runs only), ``problems`` every contradiction between
    the measured traffic and the workload's rationale, ``report`` the
    human-readable lines, ``traced`` the traced window's spans and
    wall time.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None
    traced: Optional[Tuple[list, float]] = None
