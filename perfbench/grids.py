"""The batch workloads: registry grids through ``ExperimentRunner``.

``grid-serial`` runs a mixed four-scenario grid through the serial
executor: the single-case decision tier on real back-biased rows.
``grid-fused`` runs a wide industrial-boiler noise grid through the
gridstack executor: homogeneous stacks on clean rows only, so it
bypasses the back-biased walk entirely.  Each run checks its outputs
against the *other* executor on a fixed subset of cases.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

from benchutil import (
    HostSpeed,
    Outcome,
    backbiased_rows,
    decision_samples,
    derived_rng,
    inor_decision_emf,
    peak_rss_mb,
    rank_percentile,
)
from repro.sim.cache import PhysicsCache
from repro.sim.engine import ExperimentCase, ExperimentRunner
from repro.sim.scenario import build_named_scenario

import spans

POLICIES = ("INOR", "DNOR", "Baseline")

#: Set-ups per run, and the least time they take together (grid-fused
#: sets up in ~10 ms); ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0


@dataclass(frozen=True)
class GridSpec:
    """One batch workload.

    ``reference_variants`` are ``(scenario, noise index)`` pairs whose
    cases (every policy) are re-run through the other executor (see
    :func:`reference_executor`) and must collate to the same
    deterministic rows.  With ``shared_trace``
    every noise variant of a scenario replays one registry trace (so
    the variants fuse into one stack); without it each variant draws
    its own, so one run averages over more drives.
    """

    name: str
    scenarios: Tuple[str, ...]
    duration_s: float
    noises: Tuple[float, ...]
    executor: str
    reference_variants: Tuple[Tuple[str, int], ...]
    shared_trace: bool
    min_backbiased_share: float
    max_backbiased_share: float
    min_lanes: int


GRIDS: Dict[str, GridSpec] = {
    "grid-serial": GridSpec(
        name="grid-serial",
        scenarios=("porter-ii", "nedc-drive", "cold-start", "industrial-boiler"),
        duration_s=120.0,
        noises=(0.08, 0.16),
        executor="serial",
        reference_variants=(("porter-ii", 0), ("cold-start", 1)),
        shared_trace=False,
        min_backbiased_share=0.05,
        max_backbiased_share=1.0,
        min_lanes=1,
    ),
    "grid-fused": GridSpec(
        name="grid-fused",
        scenarios=("industrial-boiler",),
        # A boiler drive's DNOR work follows its regime for minutes at a
        # time (stable stretches keep the proposal, so DNOR never
        # forecasts): over 20 seeds, 4 of 300 s drives but 2 of 600 s
        # drives ran under a third of the median predictor fits.
        duration_s=600.0,
        noises=tuple(round(0.02 * (k + 1), 2) for k in range(16)),
        executor="gridstack",
        reference_variants=(("industrial-boiler", 0), ("industrial-boiler", 15)),
        shared_trace=True,
        min_backbiased_share=0.0,
        max_backbiased_share=0.0,
        min_lanes=16,
    ),
}


def reference_executor(spec: GridSpec) -> str:
    """The executor the reference subset is re-run through."""
    return {"serial": "gridstack", "gridstack": "serial"}[spec.executor]


def build_cases(spec: GridSpec, seed: int) -> List[ExperimentCase]:
    """The workload's case grid; every seed it uses comes from ``seed``."""
    rng = derived_rng(seed, spec.name)
    cases = []
    for scenario_name in spec.scenarios:
        for k, noise in enumerate(spec.noises):
            if k == 0 or not spec.shared_trace:
                scenario = build_named_scenario(
                    scenario_name,
                    duration_s=spec.duration_s,
                    seed=int(rng.integers(0, 100_000)),
                )
            variant = dataclasses.replace(
                scenario,
                scanner_noise_std_k=noise,
                sensor_seed=int(rng.integers(0, 100_000)),
            )
            for policy in POLICIES:
                cases.append(
                    ExperimentCase(
                        name=f"{scenario_name}/noise#{k}={noise:g}K/{policy}",
                        scenario=variant,
                        policy=policy,
                    )
                )
    return cases


def setup(spec: GridSpec, seed: int):
    """Build the grid and fill a physics cache with every case's solve."""
    cases = build_cases(spec, seed)
    cache = PhysicsCache()
    for case in cases:
        scenario = case.scenario
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
        )
    return cases, cache


def deterministic_rows(collation) -> Dict[str, str]:
    """Case name -> canonical JSON of its deterministic summary row."""
    rows = json.loads(collation.to_json(deterministic_only=True))
    return {row["case"]: json.dumps(row, sort_keys=True) for row in rows}


def _inor_runtimes_ms(cases, results) -> List[float]:
    """Recorded compute (ms) of every INOR decision.

    INOR decides every control period; DNOR's per-epoch cost depends
    on how often its proposal moves, which ``decide_ms.dnor`` covers.
    """
    out: List[float] = []
    for case, result in zip(cases, results):
        if case.policy == "INOR":
            idx = decision_samples(result.time_s, case.scenario.control_period_s)
            out.extend((result.runtime_s[idx] * 1.0e3).tolist())
    return out


def _pass_metrics(cases, collation, wall_s: float, factor: float) -> Dict[str, float]:
    """One pass's timing metrics at the reference speed.

    ``wall_s`` is the pass's wall time without the host-speed probes and
    ``factor`` the reference over the host speed during the pass.  The
    recorded decision runtimes include any probe that fired inside a
    decision (~0.3% on average).
    """
    by_policy: Dict[str, list] = {}
    for case, result in collation:
        by_policy.setdefault(case.policy, []).append(result)
    simulated = sum(result.duration_s for result in collation.results)
    inor_ms = _inor_runtimes_ms(cases, collation.results)
    return {
        "sim_s_per_s": simulated / (wall_s * factor),
        "decide_ms.inor": factor
        * float(np.mean([r.average_runtime_ms for r in by_policy["INOR"]])),
        "decide_ms.dnor": factor
        * float(np.mean([r.average_runtime_ms for r in by_policy["DNOR"]])),
        "p50_ms": factor * rank_percentile(inor_ms, 50.0),
        "p90_ms": factor * rank_percentile(inor_ms, 90.0),
        "p99_ms": factor * rank_percentile(inor_ms, 99.0),
        "inor_decisions": len(inor_ms),
    }


def outcomes(collation) -> Dict[str, float]:
    """The paper's two simulated claims over one pass (deterministic)."""
    energy: Dict[str, float] = {}
    overhead: Dict[str, float] = {}
    for case, result in collation:
        energy[case.policy] = energy.get(case.policy, 0.0) + result.energy_output_j
        overhead[case.policy] = overhead.get(case.policy, 0.0) + result.switch_overhead_j
    out = {"energy_gain_pct": 100.0 * (energy["DNOR"] / energy["Baseline"] - 1.0)}
    if overhead["DNOR"] > 0.0:
        out["overhead_cut_x"] = overhead["INOR"] / overhead["DNOR"]
    return out


def input_properties(spec: GridSpec, cases, cache, collation) -> Dict[str, object]:
    """Measured properties of the traffic this run fed the program."""
    rows = bb = 0
    for case in cases:
        if case.policy != "INOR":
            continue
        scenario = case.scenario
        physics = cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
        )
        emf = inor_decision_emf(scenario, physics)
        rows += emf.shape[0]
        bb += backbiased_rows(emf)
    # Lanes of one fused group share one runtime series (the fused cost
    # split evenly), so identical series count the lanes per group.
    lanes: Dict[str, float] = {}
    for policy in ("INOR", "DNOR"):
        series = [r.runtime_s.tobytes() for c, r in collation if c.policy == policy]
        lanes[policy] = len(series) / len(set(series))
    return {
        "cases": len(cases),
        "modules": sorted({c.scenario.n_modules for c in cases}),
        "samples_per_case": sorted({c.scenario.trace.n_samples for c in cases}),
        "inor_decision_rows": rows,
        "backbiased_share": bb / rows,
        "lanes_per_group": lanes,
    }


def check_properties(spec: GridSpec, props) -> List[str]:
    """Ways the measured traffic contradicts the workload's rationale."""
    problems = []
    share = props["backbiased_share"]
    if not spec.min_backbiased_share <= share <= spec.max_backbiased_share:
        problems.append(
            f"back-biased share {share:.3f} outside "
            f"[{spec.min_backbiased_share}, {spec.max_backbiased_share}]"
        )
    for policy, lanes in props["lanes_per_group"].items():
        if lanes < spec.min_lanes:
            problems.append(f"{policy} lanes per group {lanes:g} < {spec.min_lanes}")
    return problems


def run(spec: GridSpec, seed: int, seconds: float, trace: bool, out_dir: Path):
    """One benchmark run of a batch workload; returns the result parts."""
    # Timings are taken under the host-speed probe and reported at the
    # reference speed (see ``benchutil.HostSpeed``); each timing metric
    # is the median pass, and every pass is checked.
    with HostSpeed() as speed:
        setup_times: List[float] = []
        phase = speed.mark()
        phase_start = time.perf_counter()
        while (
            len(setup_times) < SETUP_REPEATS
            or time.perf_counter() - phase_start < SETUP_MIN_S
        ):
            since = speed.mark()
            start = time.perf_counter()
            cases, cache = setup(spec, seed)
            setup_times.append(time.perf_counter() - start - speed.spent(since))
        setup_s = median(setup_times) * speed.factor(phase)

        walls: List[float] = []
        factors: List[float] = []
        passes: List[Dict[str, float]] = []
        first = reference_rows = None
        failed = 0
        window_start = time.perf_counter()
        while not walls or time.perf_counter() - window_start < seconds:
            runner = ExperimentRunner(cases, executor=spec.executor, cache=cache)
            since = speed.mark()
            start = time.perf_counter()
            collation = runner.run()
            wall = time.perf_counter() - start - speed.spent(since)
            factor = speed.factor(since)
            walls.append(wall)
            factors.append(factor)
            passes.append(_pass_metrics(cases, collation, wall, factor))
            rows = deterministic_rows(collation)
            if first is None:
                first, reference_rows = collation, rows
            else:
                failed += sum(
                    rows[name] != reference_rows[name] for name in reference_rows
                )
    rss_mb = peak_rss_mb()
    typical = {name: median(p[name] for p in passes) for name in passes[0]}

    # ---- correctness and traffic, outside every timed region ----
    subset = [
        case
        for case in cases
        if any(
            case.name.startswith(f"{scenario}/noise#{k}=")
            for scenario, k in spec.reference_variants
        )
    ]
    check_rows = deterministic_rows(
        ExperimentRunner(subset, executor=reference_executor(spec), cache=cache).run()
    )
    mismatched = [n for n in check_rows if check_rows[n] != reference_rows[n]]
    failed += len(mismatched)
    attempted = len(cases) * len(walls) + len(subset)

    props = input_properties(spec, cases, cache, first)
    problems = check_properties(spec, props)

    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **{k: typical[k] for k in ("sim_s_per_s", "decide_ms.inor", "decide_ms.dnor", "p50_ms", "p90_ms")},
    }
    report = [
        f"workload {spec.name}: seed {seed}, executor {spec.executor}, "
        f"{len(walls)} passes in {sum(walls):.2f} s "
        f"(pass walls {', '.join(f'{w:.3f}' for w in walls)} s; host speed "
        f"factors {', '.join(f'{f:.3f}' for f in factors)})",
        f"  setups: {len(setup_times)}, median {median(setup_times):.4f} s "
        f"at host speed, {setup_s:.4f} s at reference speed",
        f"  traffic: {json.dumps(props)}",
        f"  INOR decisions timed per pass: {typical['inor_decisions']:g} "
        f"(median p99 {typical['p99_ms']:.4f} ms)",
        f"  outcomes (simulated, deterministic): "
        + ", ".join(f"{k} {v:.6f}" for k, v in outcomes(first).items()),
        f"  reference: {len(subset)} cases through {reference_executor(spec)}, "
        f"{len(mismatched)} mismatched",
    ]
    report += [f"  PROPERTY VIOLATION: {p}" for p in problems]

    if trace:
        recorder = spans.Recorder()
        installed = spans.install(recorder)
        try:
            traced_cases, traced_cache = setup(spec, seed)
            runner = ExperimentRunner(
                traced_cases, executor=spec.executor, cache=traced_cache
            )
            # Probed like the untraced passes, so the overhead compares
            # both at the reference speed.
            with HostSpeed() as speed:
                start = time.perf_counter()
                traced = runner.run()
                traced_wall = time.perf_counter() - start - speed.spent(0)
                traced_factor = speed.factor(0)
        finally:
            spans.uninstall(installed)
        recorder.dump(out_dir / f"{spec.name}-seed{seed}-spans.json")
        if deterministic_rows(traced) != reference_rows:
            failed += len(cases)
            problems.append("traced decisions differ from untraced")
        attempted += len(cases)
        untraced = median(w * f for w, f in zip(walls, factors))
        overhead = 100.0 * (traced_wall * traced_factor / untraced - 1.0)
        layers = spans.layer_metrics(
            recorder.spans, {"trace_overhead_pct": overhead}
        )
        problems += trace_problems(spec, layers)
        report.append(
            f"  traced pass {traced_wall * traced_factor:.3f} s vs median untraced "
            f"{untraced:.3f} s at reference speed: trace_overhead_pct {overhead:.2f}"
        )
        if installed.missing:
            report.append(f"  instrumentation points not found: {installed.missing}")
        return Outcome(
            metrics, attempted, failed, problems, report, layers,
            (recorder.spans, traced_wall),
        )
    return Outcome(metrics, attempted, failed, problems, report)


def trace_problems(spec: GridSpec, layers: Dict[str, float]) -> List[str]:
    """Traced-run checks of the workload's rationale."""
    problems = []
    if spec.name == "grid-fused":
        if layers["core.inor.stack_backbiased_share"] != 0.0:
            problems.append("grid-fused stacked INOR saw back-biased rows")
        if layers["core.inor.calls"] != 0:
            problems.append("grid-fused ran single-case INOR calls")
    else:
        if layers["core.inor.backbiased_share"] < spec.min_backbiased_share:
            problems.append("grid-serial INOR saw too few back-biased rows")
        inner = {
            name: layers[name]
            for name in (
                "core.inor.s",
                "prediction.fit_s",
                "power.charger_s",
                "vehicle.sensors.scan_s",
                "teg.network.electrical_s",
                "sim.physics.solve_s",
            )
        }
        if max(inner, key=inner.get) != "core.inor.s":
            problems.append(f"core.inor is not the largest layer: {inner}")
    return problems
