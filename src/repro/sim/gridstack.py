"""Grid-stacked fused simulation: one decision pass for a whole case grid.

Boiler-scale experiment grids are dominated by decision epochs: a
64-case noise-axis grid over one trace re-runs the same
window-derivation + partition-build + MPP-scoring pipeline 64 times per
control period, each time over a different scanned temperature vector
but through *identical* kernels.  The ``executor="gridstack"`` path of
:class:`~repro.sim.engine.ExperimentRunner` exploits that homogeneity:
cases sharing one physics precompute, chain length, control period,
converter and policy shape are grouped, and every decision epoch runs
as **one** stacked kernel pass instead of ``C`` per-case policy calls:

* **INOR** groups run :func:`repro.core.inor.inor_stack` over a
  ``(C, N)`` EMF matrix per control period;
* **DNOR** groups run :func:`repro.core.dnor.dnor_stack` per epoch —
  one stacked INOR proposal pass plus one
  :func:`repro.teg.network.array_mpp_rows_multi_stack` horizon-scoring
  pass over every case's (current, candidate) pair, with per-case
  predictor state carried between epochs;
* **Baseline** cases fuse trivially as a degenerate stack — one shared
  configuration, one span, one electrical pass.

The electrical series is fused the same way for every policy — all
``(case, segment)`` spans sharing a configuration evaluate through one
row-stacked :func:`repro.teg.network.array_mpp_rows` call.

Results are **bit-identical** to ``executor="serial"`` (pinned in the
parity suite) for everything except the wall-clock ``runtime_s`` series,
which by construction measures the *fused* decision cost split evenly
across the group.  The parity argument layer by layer:

* the scanner draw, Thevenin map, converter curve and battery replay are
  elementwise, so batching them over a case axis reuses the same doubles;
* the decision epochs of :class:`~repro.core.controller.PeriodicPolicy`
  and :class:`~repro.core.controller.DNORPolicy` depend only on the
  shared time vector and period, so one run of their
  :class:`~repro.core.controller.EpochClock` drives every case;
* ``inor_stack`` / ``dnor_stack`` / ``array_mpp_rows`` are pinned
  bit-identical to their per-case forms by the kernel parity suites.

Cases that do not fit the fused contract — EHTR, scalar kernels,
measured (non-nominal) compute time, P&O tracking — fall back to
:func:`repro.sim.engine.run_case` over the same shared physics, i.e.
exactly the serial path.  Mixed grids therefore partition into
homogeneous fused groups plus a serial remainder instead of dropping
wholesale to serial.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import EpochClock
from repro.core.dnor import dnor_stack
from repro.core.inor import _inor_stack_raw, parse_inor_kernel
from repro.errors import SimulationError
from repro.sim.results import SimulationResult
from repro.teg.array import TEGArray
from repro.teg.network import array_mpp_rows

__all__ = ["fusable_reason", "run_grid_stacked"]

#: One lane's executed reconfigurations: ``(sample index, time, toggles,
#: compute seconds)`` per billed event, in time order.
Bill = List[Tuple[int, float, int, float]]
#: One lane's runs of constant configuration: ``(first sample, starts)``.
Segments = List[Tuple[int, Tuple[int, ...]]]


def fusable_reason(case) -> Optional[str]:
    """Why ``case`` cannot join a fused group, or ``None`` if it can.

    The scenario's kernel-level rule
    (:meth:`~repro.sim.scenario.Scenario.unstackable_reason`) plus the
    fused executor's own: exact MPP tracking for the fused electrical
    pass, and a nominal compute bill for INOR too (the fused runtime is
    shared across lanes, so a measured bill would not be per-case).
    Baseline is the trivially stackable extra.
    """
    scenario = case.scenario
    if not scenario.make_charger(with_battery=case.with_battery).exact_tracking:
        return "P&O tracking is inherently sequential"
    if case.policy == "Baseline":
        return None
    reason = scenario.unstackable_reason(case.policy)
    if reason is None and scenario.nominal_compute_s is None:
        return "measured compute time is per-case wall-clock"
    return reason


def _fused_groups(
    cases: Sequence, physics_per_case: Sequence
) -> Dict[Tuple, List[int]]:
    """Case indices of every fused group: one key, one stacked stream.

    The key is the scenario's stacking key (policy first) plus the
    executor's own constraints: one shared physics precompute and one
    control period.
    """
    groups: Dict[Tuple, List[int]] = {}
    for index, (case, physics) in enumerate(zip(cases, physics_per_case)):
        if fusable_reason(case) is None:
            scenario = case.scenario
            key = scenario.stacking_key(case.policy) + (
                id(physics),
                float(scenario.control_period_s),
            )
            groups.setdefault(key, []).append(index)
    return groups


def _decision_schedule(time_s: np.ndarray, period_s: float) -> List[int]:
    """Sample indices where a periodic policy fires.

    Runs the policies' own :class:`~repro.core.controller.EpochClock`
    over the shared time vector, so the fused loop visits precisely the
    samples the per-case loops decide on.
    """
    clock = EpochClock(period_s)
    return [i for i in range(time_s.size) if clock.due(float(time_s[i]))]


def _scan_group(cases: Sequence, physics) -> np.ndarray:
    """Per-case sensed temperatures, drawn in one batch per case.

    Each case owns its seeded scanner, drawn exactly like
    ``HarvestSimulator._run_batched`` does.
    """
    n = physics.trace.n_samples
    scanned = np.empty((len(cases), n, physics.n_modules))
    for k, case in enumerate(cases):
        scanner = case.scenario.make_scanner()
        scanner.reset()
        scanned[k] = scanner.scan_batch(physics.sensed_temps_c)
    return scanned


def _spans(segments: Segments, n: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """``(lo, hi, starts)`` runs of constant configuration over ``n`` samples."""
    bounds = [idx for idx, _ in segments[1:]] + [n]
    return [(lo, hi, starts) for (lo, starts), hi in zip(segments, bounds)]


def _electrical_series_stepwise(
    physics, segments: Segments, charger
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step charger operation (P&O tracking) on precomputed physics.

    The only electrical path for P&O chargers: the tracker's limit
    cycle is inherently sequential, and ``charger.step`` charges the
    battery as it goes.
    """
    n = physics.n_samples
    dt = physics.trace.dt_s
    gross = np.empty(n)
    delivered = np.empty(n)
    voltage = np.empty(n)
    array = TEGArray(physics.module, physics.n_modules)
    mean_temps = physics.true_mean_temps_c
    for lo, hi, starts in _spans(segments, n):
        for i in range(lo, hi):
            array.set_thermal_state(physics.true_delta_t_k[i], mean_temps[i])
            report = charger.step(array, starts, dt)
            gross[i] = report.array_power_w
            delivered[i] = report.delivered_power_w
            voltage[i] = report.array_voltage_v
    return gross, delivered, voltage


def _collate_group(
    physics,
    scheme: str,
    chargers: Sequence,
    overheads: Sequence,
    runtimes: Sequence[np.ndarray],
    bills: Sequence[Bill],
    segments: Sequence[Segments],
) -> List[SimulationResult]:
    """Electrical pass + result packaging for a set of lanes.

    The one place decisions become :class:`SimulationResult` s: the
    serial step loop calls it with one lane, the fused group runners
    with one lane per case.  Every ``(lane, span)`` run sharing one
    configuration evaluates through a single row-stacked reduction
    (:func:`array_mpp_rows` is row-independent, so stacking — and
    de-duplicating identical spans, the Baseline case — is bit-safe);
    P&O lanes take :func:`_electrical_series_stepwise` instead.  Then
    each lane's converter curve, overhead bill (charged at the
    pre-switch delivered power, with the compute seconds its bill
    entry carries) and battery replay.
    """
    trace = physics.trace
    n = trace.n_samples
    dt = trace.dt_s
    n_lanes = len(chargers)
    gross = [np.empty(n) for _ in range(n_lanes)]
    voltage = [np.empty(n) for _ in range(n_lanes)]
    delivered: List[Optional[np.ndarray]] = [None] * n_lanes
    spans = [_spans(lane, n) for lane in segments]

    # Identical elementwise ops to TEGArray.resistance_vector — the
    # constant-parameter chain has one shared resistance.
    resistance = np.full(physics.n_modules, physics.module_resistance_ohm)
    spans_by_config: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
    for k, charger in enumerate(chargers):
        if not charger.exact_tracking:
            gross[k], delivered[k], voltage[k] = _electrical_series_stepwise(
                physics, segments[k], charger
            )
            continue
        for lo, hi, starts in spans[k]:
            spans_by_config.setdefault(starts, []).append((k, lo, hi))
    for starts, config_spans in spans_by_config.items():
        # Distinct sample windows only: Baseline groups (and repeated
        # partitions generally) share whole spans across lanes, which
        # would otherwise be evaluated once per lane.
        windows = sorted({(lo, hi) for _, lo, hi in config_spans})
        rows = np.concatenate(
            [physics.emf_true[lo:hi] for lo, hi in windows], axis=0
        )
        power, volt = array_mpp_rows(rows, resistance, starts)
        power = np.maximum(power, 0.0)
        cursors: Dict[Tuple[int, int], int] = {}
        cursor = 0
        for lo, hi in windows:
            cursors[(lo, hi)] = cursor
            cursor += hi - lo
        for k, lo, hi in config_spans:
            at = cursors[(lo, hi)]
            gross[k][lo:hi] = power[at : at + hi - lo]
            voltage[k][lo:hi] = volt[at : at + hi - lo]

    results: List[SimulationResult] = []
    for k, charger in enumerate(chargers):
        if charger.exact_tracking:
            delivered[k] = charger.converter.output_power_batch(
                gross[k], voltage[k]
            )
            if charger.battery is not None:
                # Replay the bus power into the battery so its state of
                # charge ends where the per-step loop would leave it.
                for i in range(n):
                    charger.battery.accept(float(delivered[k][i]), dt)
        events = tuple(
            overheads[k].event(
                time_s=t,
                power_w=max(float(delivered[k][i - 1]) if i > 0 else 0.0, 0.0),
                compute_time_s=compute_s,
                toggles=toggles,
            )
            for i, t, toggles, compute_s in bills[k]
        )
        groups = np.zeros(n, dtype=np.int64)
        for lo, hi, starts in spans[k]:
            groups[lo:hi] = len(starts)
        results.append(
            SimulationResult(
                scheme=scheme,
                time_s=trace.time_s.copy(),
                gross_power_w=gross[k],
                delivered_power_w=delivered[k],
                ideal_power_w=physics.ideal_power_w.copy(),
                array_voltage_v=voltage[k],
                runtime_s=runtimes[k].copy(),
                overhead_events=events,
                switch_times_s=tuple(t for _, t, _, _ in bills[k]),
                n_groups_series=groups,
            )
        )
    return results


def _collate_cases(
    cases: Sequence,
    physics,
    scheme: str,
    runtimes: np.ndarray,
    bills: Sequence[Bill],
    segments: Sequence[Segments],
) -> List[SimulationResult]:
    """:func:`_collate_group` with each case's own charger and bill model."""
    chargers = [
        case.scenario.make_charger(with_battery=case.with_battery)
        for case in cases
    ]
    overheads = [case.scenario.overhead for case in cases]
    return _collate_group(
        physics, scheme, chargers, overheads, runtimes, bills, segments
    )


def _run_inor_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous INOR group through the fused stacked pass."""
    scenario0 = cases[0].scenario
    trace = physics.trace
    n = trace.n_samples
    n_cases = len(cases)
    n_modules = physics.n_modules
    module = scenario0.module
    _, backend = parse_inor_kernel(scenario0.inor_kernel)
    rank_charger = scenario0.make_charger(with_battery=False)
    nominals = [case.scenario.nominal_compute_s for case in cases]
    scanned = _scan_group(cases, physics)

    # Thevenin map constants (thevenin_from_temps, batched over cases).
    emf_coef = module.emf_coefficient()
    decision_resistance = np.full(n_modules, module.internal_resistance())

    runtimes = np.zeros((n_cases, n))
    bills: List[Bill] = [[] for _ in range(n_cases)]
    segments: List[Segments] = [[] for _ in range(n_cases)]
    case_index = np.arange(n_cases)
    # Configurations live as boolean start-membership rows: the switch
    # fabric's toggle count is 3x the symmetric difference of the start
    # sets, i.e. an XOR popcount per row — integer-exact, so the fused
    # bookkeeping bills exactly what per-case SwitchFabric objects
    # would.  Every fabric powers up all-series (every module a start).
    membership = np.ones((n_cases, n_modules), dtype=bool)

    for epoch, i in enumerate(
        _decision_schedule(trace.time_s, scenario0.control_period_s)
    ):
        t = float(trace.time_s[i])
        ambient = float(trace.ambient_c[i])
        # One stacked Thevenin + INOR pass decides every case at once.
        emf_rows = emf_coef * (scanned[:, i, :] - ambient)
        t0 = time.perf_counter()
        stack, _, _, _, _, winners, _, _ = _inor_stack_raw(
            emf_rows,
            decision_resistance,
            rank_charger,
            0.03,
            backend,
        )
        runtimes[:, i] = (time.perf_counter() - t0) / n_cases

        # Winner configurations -> membership rows, no per-case Python.
        winner_counts = np.diff(stack.offsets)[winners]
        flat_lo = stack.offsets[winners]
        lane = np.arange(int(winner_counts.sum()), dtype=np.int64)
        within = lane - np.repeat(
            np.cumsum(winner_counts) - winner_counts, winner_counts
        )
        starts_vals = stack.cat[np.repeat(flat_lo, winner_counts) + within]
        decided = np.zeros((n_cases, n_modules), dtype=bool)
        decided[np.repeat(case_index, winner_counts), starts_vals] = True

        flips = (membership != decided).sum(axis=1)
        if epoch > 0:
            # INOR bills every post-commissioning decision (the paper's
            # "switch at every time point"), toggles included even when
            # the new partition equals the old one.
            for k in range(n_cases):
                bills[k].append((i, t, 3 * int(flips[k]), nominals[k]))
        for k in np.flatnonzero((flips > 0) | (epoch == 0)):
            starts = tuple(int(s) for s in np.flatnonzero(decided[k]))
            segments[k].append((i, starts))
        membership = decided

    return _collate_cases(cases, physics, "INOR", runtimes, bills, segments)


def _run_dnor_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous DNOR group through the stacked epoch kernel.

    Per-case :class:`~repro.core.controller.DNORPolicy` state —
    predictor stream, history window, durable configuration — is
    carried per lane; every epoch decision runs through **one**
    :func:`repro.core.dnor.dnor_stack` call.  The epoch schedule, the
    first-adoption commissioning rule and the switch billing replicate
    the serial engine exactly (pinned in the parity suite).
    """
    trace = physics.trace
    n = trace.n_samples
    n_cases = len(cases)
    policies = [case.scenario.make_dnor_policy() for case in cases]
    nominals = [case.scenario.nominal_compute_s for case in cases]
    planners = [policy.planner for policy in policies]
    caps = [policy._history.maxlen for policy in policies]
    scanned = _scan_group(cases, physics)

    runtimes = np.zeros((n_cases, n))
    bills: List[Bill] = [[] for _ in range(n_cases)]
    segments: List[Segments] = [[] for _ in range(n_cases)]
    currents: List[Optional[object]] = [None] * n_cases

    prev_i: Optional[int] = None
    for i in _decision_schedule(trace.time_s, planners[0].epoch_seconds):
        t = float(trace.time_s[i])
        ambient = float(trace.ambient_c[i])
        # The policy's history deque holds the last `cap` sensed rows,
        # appended every control period; `new_rows` counts the arrivals
        # since the previous epoch (the incremental-refit stream).
        new_rows = i + 1 if prev_i is None else i - prev_i
        histories = [
            scanned[k, max(0, i + 1 - caps[k]) : i + 1, :]
            for k in range(n_cases)
        ]
        t0 = time.perf_counter()
        decisions = dnor_stack(
            planners, histories, ambient, currents,
            time_s=t, new_rows=[new_rows] * n_cases,
        )
        runtimes[:, i] = (time.perf_counter() - t0) / n_cases

        for k, decision in enumerate(decisions):
            if not decision.switch:
                continue
            # Commissioning the initial wiring is free: every scheme
            # starts from the same cold array.
            if currents[k] is not None:
                toggles = currents[k].switch_toggles_to(decision.config)
                bills[k].append((i, t, toggles, nominals[k]))
            segments[k].append((i, decision.config.starts))
            currents[k] = decision.config
        prev_i = i

    return _collate_cases(cases, physics, "DNOR", runtimes, bills, segments)


def _run_baseline_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one Baseline group as a degenerate (single-span) stack.

    :class:`~repro.core.controller.StaticPolicy` applies its wired-in
    grid at the first sample, for free, and never decides again: every
    case is one configuration span over the whole trace, so the whole
    group collapses into one fused electrical pass (the span
    de-duplication in :func:`_collate_group`) plus per-case converter
    and battery replay.  The scanner draw is skipped entirely — the
    static policy never reads the sensed temperatures, and each case's
    scanner is private state, so the omission is unobservable.
    """
    runtimes = np.zeros((len(cases), physics.trace.n_samples))
    segments = [
        [(0, case.scenario.make_baseline_policy().config.starts)]
        for case in cases
    ]
    bills: List[Bill] = [[] for _ in cases]
    return _collate_cases(
        cases, physics, "Baseline", runtimes, bills, segments
    )


# Policy name -> module attribute of the group runner (resolved late so
# tests can monkeypatch the runners).
_GROUP_RUNNERS = {
    "INOR": "_run_inor_group",
    "DNOR": "_run_dnor_group",
    "Baseline": "_run_baseline_group",
}


def run_grid_stacked(
    cases: Sequence, physics_per_case: Sequence
) -> List[SimulationResult]:
    """Execute a case grid with fused groups, in collation order.

    Fusable cases (see :func:`fusable_reason`) sharing a group key run
    through their policy's stacked group runner; every other case takes
    the serial per-case path over the same shared physics.  Output
    order matches the input grid regardless of grouping.
    """
    from repro.sim.engine import run_case  # circular-import guard

    results: List[Optional[SimulationResult]] = [None] * len(cases)
    groups = _fused_groups(cases, physics_per_case)
    fused_indices = {index for indices in groups.values() for index in indices}
    for index, (case, physics) in enumerate(zip(cases, physics_per_case)):
        if index not in fused_indices:
            results[index] = run_case(case, physics)
    for key, indices in groups.items():
        members = [cases[i] for i in indices]
        runner = globals()[_GROUP_RUNNERS[key[0]]]
        try:
            fused = runner(members, physics_per_case[indices[0]])
        except Exception as exc:
            names = ", ".join(repr(case.name) for case in members)
            raise SimulationError(
                f"grid-stacked group [{names}] failed: {exc}"
            ) from exc
        for index, result in zip(indices, fused):
            results[index] = result
    return [result for result in results if result is not None]
