"""Tests for repro.core.controller — the policy layer."""

import numpy as np
import pytest

from repro.core.baseline import grid_for_square_array
from repro.core.controller import DNORPolicy, PeriodicPolicy, StaticPolicy
from repro.core.dnor import DNORPlanner
from repro.core.overhead import SwitchingOverheadModel
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.prediction.mlr import MLRPredictor
from repro.teg.datasheet import TGM_199_1_4_0_8


def gradient_temps(n_modules=16, level=50.0) -> np.ndarray:
    return 25.0 + 10.0 + level * np.exp(-2.0 * np.linspace(0, 1, n_modules))


class TestStaticPolicy:
    def test_applies_once(self):
        config = grid_for_square_array(16)
        policy = StaticPolicy(config)
        first = policy.decide(0.0, gradient_temps(), 25.0)
        second = policy.decide(0.5, gradient_temps(), 25.0)
        assert first == config
        assert second is None

    def test_reset_reapplies(self):
        policy = StaticPolicy(grid_for_square_array(16))
        policy.decide(0.0, gradient_temps(), 25.0)
        policy.reset()
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None

    def test_name_default(self):
        assert StaticPolicy(grid_for_square_array(16)).name == "Baseline"


class TestPeriodicPolicy:
    def test_runs_at_period(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor", period_s=1.0)
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None
        assert policy.decide(0.5, gradient_temps(), 25.0) is None
        assert policy.decide(1.0, gradient_temps(), 25.0) is not None

    def test_inor_name(self):
        assert PeriodicPolicy(TGM_199_1_4_0_8, "inor").name == "INOR"

    def test_ehtr_name(self):
        assert PeriodicPolicy(TGM_199_1_4_0_8, "ehtr").name == "EHTR"

    def test_ehtr_produces_config(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "ehtr")
        config = policy.decide(0.0, gradient_temps(), 25.0)
        assert config is not None
        assert config.n_modules == 16

    def test_inor_uses_charger_window(self):
        charger = TEGCharger()
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor", charger=charger)
        config = policy.decide(0.0, gradient_temps(64), 25.0)
        # 64 modules, mean EMF ~2 V: converter window forces well under
        # 64 groups.
        assert config.n_groups < 40

    def test_reset_restarts_clock(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor", period_s=10.0)
        policy.decide(0.0, gradient_temps(), 25.0)
        policy.reset()
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            PeriodicPolicy(TGM_199_1_4_0_8, "magic")

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            PeriodicPolicy(TGM_199_1_4_0_8, "inor", period_s=0.0)


class TestDNORPolicy:
    def make_policy(self, tp_seconds=1.0) -> DNORPolicy:
        planner = DNORPlanner(
            module=TGM_199_1_4_0_8,
            charger=TEGCharger(),
            overhead=SwitchingOverheadModel(),
            predictor=MLRPredictor(lags=4, train_window=120),
            tp_seconds=tp_seconds,
            sample_dt_s=0.5,
        )
        return DNORPolicy(planner)

    def test_first_decision_applies_config(self):
        policy = self.make_policy()
        config = policy.decide(0.0, gradient_temps(), 25.0)
        assert config is not None

    def test_epoch_spacing(self):
        """Decisions every t_p + 1 seconds; in between, None."""
        policy = self.make_policy(tp_seconds=1.0)
        policy.decide(0.0, gradient_temps(), 25.0)
        decisions_before_epoch = [
            policy.decide(t, gradient_temps(), 25.0) for t in (0.5, 1.0, 1.5)
        ]
        assert all(d is None for d in decisions_before_epoch)
        assert len(policy.decisions) == 1
        policy.decide(2.0, gradient_temps(), 25.0)
        assert len(policy.decisions) == 2

    def test_steady_temps_no_further_switches(self):
        policy = self.make_policy()
        for k in range(40):
            policy.decide(k * 0.5, gradient_temps(), 25.0)
        assert len(policy.switch_times_s) == 1  # only the initial adoption

    def test_history_buffer_feeds_predictor(self):
        policy = self.make_policy()
        for k in range(30):
            policy.decide(k * 0.5, gradient_temps(), 25.0)
        last = policy.decisions[-1]
        # With 30 rows of history, the epochs after warm-up must not
        # fall back to persistence.
        assert not last.used_fallback_forecast or len(policy.decisions) <= 2

    def test_reset_clears_everything(self):
        policy = self.make_policy()
        policy.decide(0.0, gradient_temps(), 25.0)
        policy.reset()
        assert policy.decisions == ()
        assert policy.switch_times_s == ()
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None

    def test_name(self):
        assert self.make_policy().name == "DNOR"

    def test_rejects_tiny_history_buffer(self):
        planner = self.make_policy().planner
        with pytest.raises(ConfigurationError):
            DNORPolicy(planner, history_rows=1)


class TestPeriodicObserve:
    """``observe`` + the algorithm is exactly ``decide`` — the split the
    streaming hub relies on to stack INOR rows across sessions."""

    @pytest.mark.parametrize("algorithm", ["inor", "ehtr"])
    @pytest.mark.parametrize("period_s", [0.5, 1.2])
    def test_observe_then_algorithm_equals_decide(self, algorithm, period_s):
        import dataclasses

        from repro.core.ehtr import ehtr
        from repro.core.inor import inor
        from repro.sim.physics import TracePhysics
        from repro.sim.scenario import build_named_scenario

        scenario = dataclasses.replace(
            build_named_scenario("porter-ii", duration_s=20.0, n_modules=16),
            control_period_s=period_s,
        )
        physics = TracePhysics.compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        make = {
            "inor": scenario.make_inor_policy,
            "ehtr": scenario.make_ehtr_policy,
        }[algorithm]
        observer, decider = make(), make()
        charger = scenario.make_charger(with_battery=False)
        trace = scenario.trace
        fired = 0
        for i in range(trace.n_samples):
            t = float(trace.time_s[i])
            ambient = float(trace.ambient_c[i])
            temps = physics.sensed_temps_c[i]
            due = observer.observe(t, temps, ambient)
            decided = decider.decide(t, temps, ambient)
            assert (due is None) == (decided is None), i
            if due is None:
                continue
            fired += 1
            emf, res = due
            if algorithm == "inor":
                config = inor(
                    emf, res, charger=charger, kernel=scenario.inor_kernel
                ).config
            else:
                config = ehtr(emf, res).config
            assert config == decided, i
        assert 0 < fired <= trace.n_samples
        if period_s > trace.dt_s:
            assert fired < trace.n_samples
