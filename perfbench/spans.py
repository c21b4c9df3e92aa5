"""Span recorder for the traced benchmark run, and the per-layer split.

Tracing lives entirely in the benchmark: :func:`install` wraps the
public (and a few private, named) functions of each ``repro`` layer
from the outside, at every attribute the calling code actually looks
up — a function imported by name into another module is patched in
that module too — and :func:`uninstall` puts every original back.

Each call records one span ``[kind, start, end, parent, request,
extra]`` in memory: ``parent`` is the index of the enclosing span
(``-1`` at the root), ``request`` the case name (batch) or
``session@sample`` (serve) shared by every span of one request, and
``extra`` a small per-kind annotation taken *outside* the timed
interval (row classes, lane counts, switch counts).  The spans are
written out when the run ends; :func:`layer_metrics` turns them into
the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# ----------------------------------------------------------------------
# Instrumentation points
# ----------------------------------------------------------------------


def _case_request(args, kwargs):
    return getattr(args[0], "name", None)


def _feed_request(args, kwargs):
    session = args[0]
    return f"{session.session_id}@{session.n_samples_seen}"


def _epoch_request(args, kwargs):
    return "epoch"


def _emf_class(args, kwargs, result):
    # A back-biased row has a module EMF below zero: those rows leave
    # the prefix-bracket partition path for the lockstep walk.
    return bool(np.any(np.asarray(args[0]) < 0.0))


def _emf_rows_class(args, kwargs, result):
    rows = np.asarray(args[0])
    return (int(rows.shape[0]), int(np.any(rows < 0.0, axis=1).sum()))


def _lanes(args, kwargs, result):
    return len(args[0])


def _plan_switch(args, kwargs, result):
    return int(bool(result.switch))


def _stack_switches(args, kwargs, result):
    return (len(result), sum(int(bool(d.switch)) for d in result))


def _feed_queued(args, kwargs, result):
    session = args[0]
    return bool(session.pending or session.pending_epochs)


#: ``(kind, "module:qualname", request, annotate)``.  ``request`` maps
#: the call's arguments to a request id (``None`` inherits the
#: parent's); ``annotate`` maps ``(args, kwargs, result)`` to the span's
#: ``extra``.  Points a future refactor renames are skipped and listed
#: by :func:`install`, never fatal.
POINTS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("sim.engine.run", "repro.sim.engine:ExperimentRunner.run", None, None),
    ("sim.engine.run_case", "repro.sim.engine:run_case", _case_request, None),
    ("sim.gridstack.run", "repro.sim.gridstack:run_grid_stacked", None, _lanes),
    ("sim.gridstack.group", "repro.sim.gridstack:_run_inor_group", None, _lanes),
    ("sim.gridstack.group", "repro.sim.gridstack:_run_dnor_group", None, _lanes),
    ("sim.gridstack.group", "repro.sim.gridstack:_run_baseline_group", None, _lanes),
    ("sim.simulator.run", "repro.sim.simulator:HarvestSimulator.run", None, None),
    ("sim.physics.solve", "repro.sim.physics:TracePhysics.compute", None, None),
    ("sim.physics.extend", "repro.sim.physics:TracePhysicsStream.extend", None, None),
    ("sim.cache.lookup", "repro.sim.cache:PhysicsCache.get_or_compute", None, None),
    ("vehicle.sensors.scan", "repro.vehicle.sensors:ModuleTemperatureScanner.scan_batch", None, None),
    ("vehicle.sensors.scan", "repro.vehicle.sensors:ModuleTemperatureScanner.scan", None, None),
    ("core.controller.decide", "repro.core.controller:PeriodicPolicy.decide", None, None),
    ("core.controller.decide", "repro.core.controller:DNORPolicy.decide", None, None),
    ("core.controller.decide", "repro.core.controller:StaticPolicy.decide", None, None),
    ("core.inor.single", "repro.core.inor:inor", None, _emf_class),
    ("core.inor.stack", "repro.core.inor:_inor_stack_raw", None, _emf_rows_class),
    ("core.dnor.plan", "repro.core.dnor:DNORPlanner.plan", None, _plan_switch),
    ("core.dnor.plan", "repro.core.dnor:DNORPlanner.plan_batch", None, _plan_switch),
    ("core.dnor.stack", "repro.core.dnor:dnor_stack", None, _stack_switches),
    ("prediction.fit", "repro.prediction.base:LagSeriesPredictor.fit", None, None),
    ("prediction.partial_fit", "repro.prediction.base:LagSeriesPredictor.partial_fit", None, None),
    ("teg.network.partition", "repro.teg.network:partition_multi", None, None),
    ("teg.network.partition", "repro.teg.network:partition_multi_stack", None, None),
    ("teg.network.score", "repro.teg.network:array_mpp_multi", None, None),
    ("teg.network.score", "repro.teg.network:array_mpp_multi_stack", None, None),
    ("teg.network.score", "repro.teg.network:array_mpp_rows_multi", None, None),
    ("teg.network.score", "repro.teg.network:array_mpp_rows_multi_stack", None, None),
    ("teg.network.electrical", "repro.teg.network:array_mpp_rows", None, None),
    ("backend.pairwise", "repro.backend:segmented_pairwise_sum", None, None),
    ("backend.partition_build", "repro.backend:prefix_table", None, None),
    ("backend.partition_build", "repro.backend:next_cut_map", None, None),
    ("backend.partition_build", "repro.backend:lift_cuts", None, None),
    ("power.converter", "repro.power.converter:BuckBoostConverter.efficiency", None, None),
    ("power.converter", "repro.power.converter:BuckBoostConverter.efficiency_batch", None, None),
    ("power.converter", "repro.power.converter:BuckBoostConverter.output_power", None, None),
    ("power.converter", "repro.power.converter:BuckBoostConverter.output_power_batch", None, None),
    ("power.charger", "repro.power.charger:TEGCharger.delivered_at_mpp", None, None),
    ("power.charger", "repro.power.charger:TEGCharger.delivered_batch", None, None),
    ("power.charger", "repro.power.charger:TEGCharger.step", None, None),
    ("serve.decode", "repro.serve.server:decode_column", None, None),
    ("serve.feed", "repro.serve.session:StreamSession.feed", _feed_request, _feed_queued),
    ("serve.epoch", "repro.serve.hub:SessionHub.run_epoch", _epoch_request, None),
)

#: Every ``repro`` module whose by-name imports must see the wrappers.
MODULES = (
    "repro.backend",
    "repro.teg.network",
    "repro.power.converter",
    "repro.power.charger",
    "repro.prediction.base",
    "repro.vehicle.sensors",
    "repro.core.inor",
    "repro.core.dnor",
    "repro.core.controller",
    "repro.sim.physics",
    "repro.sim.cache",
    "repro.sim.simulator",
    "repro.sim.engine",
    "repro.sim.gridstack",
    "repro.serve.session",
    "repro.serve.hub",
    "repro.serve.server",
)


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def wrap(self, kind: str, fn, request=None, annotate=None):
        """Return ``fn`` recording one span per call."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            req = request(args, kwargs) if request is not None else None
            if req is None and parent >= 0:
                req = spans[parent][4]
            span = [kind, 0.0, 0.0, parent, req, None]
            open_.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                open_.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        traced.__wrapped_kind__ = kind
        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            json.dump(
                {"fields": ["kind", "start", "end", "parent", "request", "extra"],
                 "spans": self.spans},
                handle,
            )


class Installation:
    """The patched attributes of one :func:`install`, for undoing."""

    def __init__(self) -> None:
        self.patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def set(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(recorder: Recorder) -> Installation:
    """Wrap every instrumentation point; return what to undo.

    A module-level function is replaced at *every* attribute of the
    :data:`MODULES` bound to the same object, so ``from x import f``
    call sites record too.  Methods (plain, class- or static) are
    replaced on their defining class.
    """
    for module_name in MODULES:
        importlib.import_module(module_name)
    done = Installation()
    for kind, target, request, annotate in POINTS:
        try:
            owner, name = _resolve(target)
            raw = owner.__dict__[name]
        except (AttributeError, KeyError, ImportError):
            done.missing.append(target)
            continue
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    recorder.wrap(kind, raw.__func__, request, annotate)
                )
            else:
                wrapped = recorder.wrap(kind, raw, request, annotate)
            done.set(owner, name, wrapped)
            continue
        wrapped = recorder.wrap(kind, raw, request, annotate)
        for module_name in MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if value is raw:
                    done.set(module, attr, wrapped)
    return done


def uninstall(done: Installation) -> None:
    """Restore every attribute :func:`install` replaced (newest first)."""
    for owner, name, original in reversed(done.patched):
        setattr(owner, name, original)
    done.patched.clear()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: The ``per_layer`` metrics: ``name -> (unit, better)``.  Each reads
#: over the traced window (one batch pass, or one serve fleet run); a
#: layer the workload never enters reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "core.inor.calls": ("count", "lower"),
    "core.inor.s": ("s", "lower"),
    "core.inor.us_per_row.backbiased": ("us", "lower"),
    "core.inor.us_per_row.clean": ("us", "lower"),
    "core.inor.backbiased_share": ("ratio", "lower"),
    "core.inor.stack_calls": ("count", "lower"),
    "core.inor.stack_rows": ("count", "lower"),
    "core.inor.stack_rows_per_call": ("rows", "higher"),
    "core.inor.stack_s": ("s", "lower"),
    "core.inor.stack_us_per_row.backbiased": ("us", "lower"),
    "core.inor.stack_us_per_row.clean": ("us", "lower"),
    "core.inor.stack_backbiased_share": ("ratio", "lower"),
    "teg.network.partition_s": ("s", "lower"),
    "teg.network.score_s": ("s", "lower"),
    "teg.network.electrical_s": ("s", "lower"),
    "backend.pairwise_calls": ("count", "lower"),
    "backend.pairwise_s": ("s", "lower"),
    "backend.partition_build_s": ("s", "lower"),
    "core.dnor.plan_calls": ("count", "lower"),
    "core.dnor.plan_s": ("s", "lower"),
    "core.dnor.stack_calls": ("count", "lower"),
    "core.dnor.stack_lanes": ("lanes", "higher"),
    "core.dnor.stack_s": ("s", "lower"),
    "core.dnor.switch_ratio": ("ratio", "lower"),
    "prediction.fit_calls": ("count", "lower"),
    "prediction.fit_s": ("s", "lower"),
    "prediction.partial_fit_s": ("s", "lower"),
    "core.controller.decide_calls": ("count", "lower"),
    "core.controller.decide_s": ("s", "lower"),
    "sim.simulator.run_s": ("s", "lower"),
    "sim.simulator.self_s": ("s", "lower"),
    "power.converter_s": ("s", "lower"),
    "power.charger_s": ("s", "lower"),
    "vehicle.sensors.scan_s": ("s", "lower"),
    "sim.engine.cases": ("count", "higher"),
    "sim.engine.run_case_s": ("s", "lower"),
    "sim.gridstack.groups": ("count", "lower"),
    "sim.gridstack.lanes_mean": ("lanes", "higher"),
    "sim.gridstack.fused_ratio": ("ratio", "higher"),
    "sim.gridstack.group_s": ("s", "lower"),
    "sim.gridstack.self_s": ("s", "lower"),
    "sim.physics.solve_calls": ("count", "lower"),
    "sim.physics.solve_s": ("s", "lower"),
    "sim.physics.extend_calls": ("count", "lower"),
    "sim.physics.extend_s": ("s", "lower"),
    "sim.cache.hit_ratio": ("ratio", "higher"),
    "serve.decode_s": ("s", "lower"),
    "serve.feed_s": ("s", "lower"),
    "serve.epoch_calls": ("count", "lower"),
    "serve.epoch_s": ("s", "lower"),
    "serve.rows_per_pass": ("rows", "higher"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.errors": ("count", "lower"),
    "serve.generator_late_ms": ("ms", "lower"),
    "serve.p99_ms": ("ms", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}

#: Which end-to-end metric each layer's metrics should move, and on
#: which workload — written down before any change is measured.
LAYER_TARGETS: Dict[str, str] = {
    "core.inor": "sim_s_per_s + decide_ms.inor on grid-serial (single tier); "
    "sim_s_per_s on grid-fused, decide_ms.inor on serve-fleet (stack_*)",
    "teg.network": "as core.inor",
    "backend": "as core.inor",
    "core.dnor": "decide_ms.dnor (reported) on grid-serial; sim_s_per_s on "
    "grid-fused; decide_ms.dnor and p90_ms (reported) on serve-fleet",
    "prediction": "as core.dnor",
    "core.controller": "sim_s_per_s on grid-serial",
    "sim.simulator": "sim_s_per_s on grid-serial",
    "power": "sim_s_per_s on grid-serial",
    "vehicle.sensors": "sim_s_per_s on grid-serial",
    "sim.engine": "sim_s_per_s on grid-fused",
    "sim.gridstack": "sim_s_per_s on grid-fused",
    "sim.physics": "setup_s on all workloads; extend_s -> decide_ms.inor on "
    "serve-fleet",
    "sim.cache": "setup_s on all workloads",
    "serve": "decide_ms.inor (p50_ms, p90_ms reported) on serve-fleet",
}


def _outermost(spans: Sequence[list], kinds: Sequence[str]) -> List[int]:
    """Indices of spans of ``kinds`` with no ancestor of those kinds."""
    wanted = set(kinds)
    out = []
    for index, span in enumerate(spans):
        if span[0] not in wanted:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in wanted:
            parent = spans[parent][3]
        if parent < 0:
            out.append(index)
    return out


def _child_time(spans: Sequence[list]) -> List[float]:
    """Per span: summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return covered


def _busy(spans, indices) -> float:
    return float(sum(spans[i][2] - spans[i][1] for i in indices))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_table(spans: Sequence[list]) -> List[Tuple[str, int, float, float]]:
    """``(kind, calls, busy_s, self_s)`` per span kind, busiest first.

    Busy time counts each outermost span of the kind once; self time
    is busy time minus what child spans of any kind cover.
    """
    covered = _child_time(spans)
    rows = []
    for kind in sorted({span[0] for span in spans}):
        top = _outermost(spans, [kind])
        every = [i for i, s in enumerate(spans) if s[0] == kind]
        self_s = sum(spans[i][2] - spans[i][1] - covered[i] for i in every)
        rows.append((kind, len(top), _busy(spans, top), float(self_s)))
    rows.sort(key=lambda row: -row[2])
    return rows


def queue_waits_ms(spans: Sequence[list]) -> List[float]:
    """Per queued feed: end of its feed span to the start of the next
    hub epoch span (the pass that resolves its pending rows)."""
    epochs = sorted(s[1] for s in spans if s[0] == "serve.epoch")
    waits = []
    position = 0
    for end in sorted(s[2] for s in spans if s[0] == "serve.feed" and s[5]):
        while position < len(epochs) and epochs[position] < end:
            position += 1
        if position < len(epochs):
            waits.append((epochs[position] - end) * 1.0e3)
    return waits


def layer_metrics(spans: Sequence[list], extra: Dict[str, float]) -> Dict[str, float]:
    """All :data:`PER_LAYER` values from one traced window's spans.

    ``extra`` supplies what the spans cannot: the serve client's
    ``serve.*`` numbers, ``serve.rows_per_pass`` from the hub counters
    and ``trace_overhead_pct``.
    """
    covered = _child_time(spans)

    def top(*kinds):
        return _outermost(spans, kinds)

    out: Dict[str, float] = {}
    single = top("core.inor.single")
    bb = [i for i in single if spans[i][5]]
    clean = [i for i in single if not spans[i][5]]
    out["core.inor.calls"] = len(single)
    out["core.inor.s"] = _busy(spans, single)
    out["core.inor.us_per_row.backbiased"] = _ratio(_busy(spans, bb) * 1e6, len(bb))
    out["core.inor.us_per_row.clean"] = _ratio(_busy(spans, clean) * 1e6, len(clean))
    out["core.inor.backbiased_share"] = _ratio(len(bb), len(single))

    stack = top("core.inor.stack")
    rows = sum(spans[i][5][0] for i in stack)
    bb_rows = sum(spans[i][5][1] for i in stack)
    # A stacked pass walks in lockstep, so one back-biased row puts the
    # whole call on the walk path: classes are per call, costs per row.
    bb_calls = [i for i in stack if spans[i][5][1]]
    clean_calls = [i for i in stack if not spans[i][5][1]]
    out["core.inor.stack_calls"] = len(stack)
    out["core.inor.stack_rows"] = rows
    out["core.inor.stack_rows_per_call"] = _ratio(rows, len(stack))
    out["core.inor.stack_s"] = _busy(spans, stack)
    out["core.inor.stack_us_per_row.backbiased"] = _ratio(
        _busy(spans, bb_calls) * 1e6, sum(spans[i][5][0] for i in bb_calls)
    )
    out["core.inor.stack_us_per_row.clean"] = _ratio(
        _busy(spans, clean_calls) * 1e6, sum(spans[i][5][0] for i in clean_calls)
    )
    out["core.inor.stack_backbiased_share"] = _ratio(bb_rows, rows)

    out["teg.network.partition_s"] = _busy(spans, top("teg.network.partition"))
    out["teg.network.score_s"] = _busy(spans, top("teg.network.score"))
    out["teg.network.electrical_s"] = _busy(spans, top("teg.network.electrical"))
    pairwise = top("backend.pairwise")
    out["backend.pairwise_calls"] = len(pairwise)
    out["backend.pairwise_s"] = _busy(spans, pairwise)
    out["backend.partition_build_s"] = _busy(spans, top("backend.partition_build"))

    plans = top("core.dnor.plan")
    stacks = top("core.dnor.stack")
    lanes = sum(spans[i][5][0] for i in stacks)
    switches = sum(spans[i][5] for i in plans) + sum(spans[i][5][1] for i in stacks)
    out["core.dnor.plan_calls"] = len(plans)
    out["core.dnor.plan_s"] = _busy(spans, plans)
    out["core.dnor.stack_calls"] = len(stacks)
    out["core.dnor.stack_lanes"] = _ratio(lanes, len(stacks))
    out["core.dnor.stack_s"] = _busy(spans, stacks)
    out["core.dnor.switch_ratio"] = _ratio(switches, len(plans) + lanes)

    fits = top("prediction.fit")
    out["prediction.fit_calls"] = len(fits)
    out["prediction.fit_s"] = _busy(spans, fits)
    out["prediction.partial_fit_s"] = _busy(spans, top("prediction.partial_fit"))

    decides = top("core.controller.decide")
    out["core.controller.decide_calls"] = len(decides)
    out["core.controller.decide_s"] = _busy(spans, decides)

    runs = top("sim.simulator.run")
    out["sim.simulator.run_s"] = _busy(spans, runs)
    out["sim.simulator.self_s"] = float(
        sum(spans[i][2] - spans[i][1] - covered[i] for i in runs)
    )
    out["power.converter_s"] = _busy(spans, top("power.converter"))
    out["power.charger_s"] = _busy(spans, top("power.charger"))
    out["vehicle.sensors.scan_s"] = _busy(spans, top("vehicle.sensors.scan"))

    cases = top("sim.engine.run_case")
    grid_runs = top("sim.gridstack.run")
    groups = top("sim.gridstack.group")
    grid_cases = sum(spans[i][5] for i in grid_runs)
    fused_lanes = sum(spans[i][5] for i in groups)
    out["sim.engine.cases"] = len(cases) + fused_lanes
    out["sim.engine.run_case_s"] = _busy(spans, cases)
    out["sim.gridstack.groups"] = len(groups)
    out["sim.gridstack.lanes_mean"] = _ratio(fused_lanes, len(groups))
    out["sim.gridstack.fused_ratio"] = _ratio(fused_lanes, grid_cases)
    out["sim.gridstack.group_s"] = _busy(spans, groups)
    out["sim.gridstack.self_s"] = float(
        sum(
            spans[i][2] - spans[i][1] - covered[i]
            for i, s in enumerate(spans)
            if s[0] in ("sim.gridstack.run", "sim.gridstack.group")
        )
    )

    solves = top("sim.physics.solve")
    extends = top("sim.physics.extend")
    out["sim.physics.solve_calls"] = len(solves)
    out["sim.physics.solve_s"] = _busy(spans, solves)
    out["sim.physics.extend_calls"] = len(extends)
    out["sim.physics.extend_s"] = _busy(spans, extends)
    lookups = top("sim.cache.lookup")
    missed = {spans[i][3] for i in solves}
    out["sim.cache.hit_ratio"] = _ratio(
        sum(1 for i in lookups if i not in missed), len(lookups)
    )

    out["serve.decode_s"] = _busy(spans, top("serve.decode"))
    out["serve.feed_s"] = _busy(spans, top("serve.feed"))
    epochs = top("serve.epoch")
    out["serve.epoch_calls"] = len(epochs)
    out["serve.epoch_s"] = _busy(spans, epochs)
    waits = queue_waits_ms(spans)
    out["serve.queue_wait_ms"] = float(np.median(waits)) if waits else 0.0
    for name in (
        "serve.rows_per_pass",
        "serve.errors",
        "serve.generator_late_ms",
        "serve.p99_ms",
        "trace_overhead_pct",
    ):
        out[name] = float(extra.get(name, 0.0))
    return {name: float(out[name]) for name in PER_LAYER}


def print_layer_table(spans: Sequence[list], metrics: Dict[str, float], wall_s: float) -> None:
    """Human-readable per-layer split of one traced window."""
    print(f"per-layer split over {wall_s:.3f} s traced wall time "
          f"({len(spans)} spans)")
    print(f"  {'span kind':26s} {'calls':>8s} {'busy s':>9s} {'self s':>9s} {'busy %':>7s}")
    for kind, calls, busy, self_s in layer_table(spans):
        share = 100.0 * busy / wall_s if wall_s else 0.0
        print(f"  {kind:26s} {calls:8d} {busy:9.4f} {self_s:9.4f} {share:7.1f}")
    print("  layer -> end-to-end metric it should move:")
    for layer, target in LAYER_TARGETS.items():
        print(f"    {layer:16s} {target}")
    print("  per-layer metrics:")
    for name, value in metrics.items():
        unit = PER_LAYER[name][0]
        print(f"    {name:40s} {value:14.6g} {unit}")
