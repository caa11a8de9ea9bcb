"""Seeded-randomness determinism contracts.

The stochastic pieces of the library - the simulator's sampled noise, from
a :class:`~repro.core.hetero.SampledNoise` platform model - must be
bit-identical given a seed, regardless of *how* the evaluation is executed:

* the same request list through ``predict_many`` serially and on a
  process pool;
* an uninterrupted campaign run versus an interrupted-then-resumed one;
* repeated in-process evaluations (cache cleared in between).

Deterministic noise (fixed-quantum OS jitter) must additionally be
seed-*independent*.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.workloads import lu_class
from repro.backends.base import PredictionRequest
from repro.backends.service import predict_many
from repro.backends.simulator import SimulatorBackend, clear_simulation_cache
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.core.faults import FaultModel
from repro.core.hetero import FixedQuantumNoise, SampledNoise, SpeedProfile
from repro.core.predictor import clear_prediction_cache
from repro.platforms import cray_xt4


def _noisy_requests():
    platform = cray_xt4().with_noise(SampledNoise(0.1))
    return [
        PredictionRequest(lu_class("A"), platform, total_cores=cores)
        for cores in (4, 16, 4)
    ]


class TestPoolBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_serial_matches_pooled(self, seed):
        backend = SimulatorBackend(noise_seed=seed)
        clear_prediction_cache()
        serial = predict_many(_noisy_requests(), backend=backend)
        # Forked workers would inherit the parent's memo; start them cold.
        clear_prediction_cache()
        pooled = predict_many(_noisy_requests(), backend=backend, workers=2)
        for a, b in zip(serial, pooled):
            assert a.time_per_iteration_us == b.time_per_iteration_us
            assert a.computation_per_iteration_us == b.computation_per_iteration_us


class TestSeedSemantics:
    def test_same_seed_bit_identical_across_cache_clears(self):
        platform = cray_xt4().with_noise(SampledNoise(0.08))
        backend = SimulatorBackend(noise_seed=11)
        first = predict_many([(lu_class("A"), platform, 16)], backend=backend)[0]
        clear_simulation_cache()
        second = predict_many([(lu_class("A"), platform, 16)], backend=backend)[0]
        assert first.time_per_iteration_us == second.time_per_iteration_us

    def test_different_seeds_differ(self):
        platform = cray_xt4().with_noise(SampledNoise(0.08))
        a = predict_many(
            [(lu_class("A"), platform, 16)], backend=SimulatorBackend(noise_seed=1)
        )[0]
        b = predict_many(
            [(lu_class("A"), platform, 16)], backend=SimulatorBackend(noise_seed=2)
        )[0]
        assert a.time_per_iteration_us != b.time_per_iteration_us

    def test_fixed_quantum_noise_is_seed_independent(self):
        platform = cray_xt4().with_noise(FixedQuantumNoise(50.0, 1000.0))
        a = predict_many(
            [(lu_class("A"), platform, 16)], backend=SimulatorBackend(noise_seed=1)
        )[0]
        b = predict_many(
            [(lu_class("A"), platform, 16)], backend=SimulatorBackend(noise_seed=2)
        )[0]
        assert a.time_per_iteration_us == b.time_per_iteration_us


class TestCampaignResumeBitIdentity:
    def _spec(self):
        return CampaignSpec(
            name="det-noise",
            apps=("lu-classA",),
            total_cores=(4, 16),
            backends=("simulator",),
            noise_models=("sampled:0.1",),
            speed_profiles=("none", "stragglers:1x2.0"),
            noise_seeds=(0, 1),
        )

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        spec = self._spec()
        full_path = tmp_path / "full.store"
        run_campaign(spec, store=full_path)
        full_store = ResultStore(full_path)
        full = {
            record["key"]: record["result"] for record in full_store.records()
        }
        assert len(full) == len(spec.points())

        # Interrupt: keep the spec header plus the first three results.
        resumed_path = tmp_path / "resumed.store"
        partial = ResultStore(resumed_path)
        partial.set_spec(spec.to_dict())
        partial.put_many(
            (point.key(), full_store.get(point.key()))
            for point in spec.points()[:3]
        )
        partial.close()
        clear_prediction_cache()  # the resumed run starts in a fresh process

        summary = run_campaign(spec, store=resumed_path)
        assert summary.cached == 3
        assert summary.computed == len(spec.points()) - 3

        resumed = {
            record["key"]: record["result"]
            for record in ResultStore(resumed_path).records()
        }
        assert resumed.keys() == full.keys()
        for key in full:
            assert json.dumps(resumed[key], sort_keys=True) == json.dumps(
                full[key], sort_keys=True
            ), f"resumed record {key} drifted"

    def test_seeds_expand_only_for_stochastic_points(self):
        spec = CampaignSpec(
            name="seed-normalisation",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
            noise_models=("none", "quantum:50/1000", "sampled:0.1"),
            noise_seeds=(0, 1),
        )
        points = spec.points()
        # Analytic: 3 noise models, seed-free.  Simulator: none + quantum are
        # deterministic (seed-free), sampled gets both seeds.
        analytic = [p for p in points if p.backend == "analytic-fast"]
        simulator = [p for p in points if p.backend == "simulator"]
        assert len(analytic) == 3
        assert all(p.noise_seed is None for p in analytic)
        assert len(simulator) == 4
        sampled = [p for p in simulator if p.noise_model == "sampled:0.1"]
        assert sorted(p.noise_seed for p in sampled) == [0, 1]


class TestFaultDeterminism:
    """Seeded fault schedules are bit-identical and noise-independent.

    The failure streams are drawn from ``Random(fault_seed * 2_000_003 +
    rank)`` - a different prime stride from the noise streams - so the same
    fault seed replays the same failure schedule regardless of pool,
    process, or what the noise layer is doing (``docs/faults.md``).
    """

    #: Failure-dominated regime: MTBF comparable to the per-iteration time,
    #: so the injected schedule actually shapes the result.
    HARSH = FaultModel(
        mtbf_us=1e4, repair_us=5e3, checkpoint_interval_us=2e3, checkpoint_cost_us=50.0
    )

    def _faulty_requests(self):
        platform = cray_xt4().with_faults(self.HARSH)
        return [
            PredictionRequest(lu_class("A"), platform, total_cores=cores)
            for cores in (4, 16, 4)
        ]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fault_schedules_serial_vs_process_pool(self, seed):
        backend = SimulatorBackend(fault_seed=seed)
        clear_prediction_cache()
        serial = predict_many(self._faulty_requests(), backend=backend)
        # Forked workers would inherit the parent's memo; start them cold.
        clear_prediction_cache()
        pooled = predict_many(self._faulty_requests(), backend=backend, workers=2)
        for a, b in zip(serial, pooled):
            assert a.time_per_iteration_us == b.time_per_iteration_us
            assert a.computation_per_iteration_us == b.computation_per_iteration_us

    def test_same_fault_seed_bit_identical_across_cache_clears(self):
        platform = cray_xt4().with_faults(self.HARSH)
        backend = SimulatorBackend(fault_seed=11)
        first = predict_many([(lu_class("A"), platform, 16)], backend=backend)[0]
        clear_simulation_cache()
        second = predict_many([(lu_class("A"), platform, 16)], backend=backend)[0]
        assert first.time_per_iteration_us == second.time_per_iteration_us

    def test_different_fault_seeds_differ(self):
        platform = cray_xt4().with_faults(self.HARSH)
        a = predict_many(
            [(lu_class("A"), platform, 16)], backend=SimulatorBackend(fault_seed=1)
        )[0]
        b = predict_many(
            [(lu_class("A"), platform, 16)], backend=SimulatorBackend(fault_seed=2)
        )[0]
        assert a.time_per_iteration_us != b.time_per_iteration_us

    def test_fault_streams_independent_of_noise_streams(self):
        """Changing the noise seed never changes a noise-free faulty run,
        and changing the fault seed never changes a fault-free noisy run."""
        faulty = cray_xt4().with_faults(self.HARSH)
        a = predict_many(
            [(lu_class("A"), faulty, 16)],
            backend=SimulatorBackend(fault_seed=3, noise_seed=1),
        )[0]
        b = predict_many(
            [(lu_class("A"), faulty, 16)],
            backend=SimulatorBackend(fault_seed=3, noise_seed=2),
        )[0]
        assert a.time_per_iteration_us == b.time_per_iteration_us

        noisy = cray_xt4().with_noise(SampledNoise(0.1))
        c = predict_many(
            [(lu_class("A"), noisy, 16)],
            backend=SimulatorBackend(noise_seed=3, fault_seed=1),
        )[0]
        d = predict_many(
            [(lu_class("A"), noisy, 16)],
            backend=SimulatorBackend(noise_seed=3, fault_seed=2),
        )[0]
        assert c.time_per_iteration_us == d.time_per_iteration_us

    def test_combined_noise_and_faults_reproducible(self):
        platform = cray_xt4().with_noise(SampledNoise(0.05)).with_faults(self.HARSH)
        backend = SimulatorBackend(noise_seed=5, fault_seed=7)
        first = predict_many([(lu_class("A"), platform, 16)], backend=backend)[0]
        clear_simulation_cache()
        second = predict_many([(lu_class("A"), platform, 16)], backend=backend)[0]
        assert first.time_per_iteration_us == second.time_per_iteration_us


class TestFaultCampaignResume:
    def _spec(self):
        return CampaignSpec(
            name="det-faults",
            apps=("lu-classA",),
            total_cores=(4, 16),
            backends=("simulator",),
            fault_models=("none", "mtbf:1e4/repair:5e3/interval:2e3/dump:50"),
            fault_seeds=(0, 1),
        )

    def test_resumed_fault_campaign_matches_uninterrupted(self, tmp_path):
        spec = self._spec()
        full_path = tmp_path / "full.store"
        run_campaign(spec, store=full_path)
        full_store = ResultStore(full_path)
        full = {
            record["key"]: record["result"] for record in full_store.records()
        }
        assert len(full) == len(spec.points())

        # Interrupt: keep the spec header plus the first three results.
        resumed_path = tmp_path / "resumed.store"
        partial = ResultStore(resumed_path)
        partial.set_spec(spec.to_dict())
        partial.put_many(
            (point.key(), full_store.get(point.key()))
            for point in spec.points()[:3]
        )
        partial.close()
        clear_prediction_cache()  # the resumed run starts in a fresh process

        summary = run_campaign(spec, store=resumed_path)
        assert summary.cached == 3
        assert summary.computed == len(spec.points()) - 3

        resumed = {
            record["key"]: record["result"]
            for record in ResultStore(resumed_path).records()
        }
        assert resumed.keys() == full.keys()
        for key in full:
            assert json.dumps(resumed[key], sort_keys=True) == json.dumps(
                full[key], sort_keys=True
            ), f"resumed record {key} drifted"

    def test_fault_seeds_expand_only_for_stochastic_points(self):
        spec = CampaignSpec(
            name="fault-seed-normalisation",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
            fault_models=("none", "mtbf:1e8/repair:1e6/interval:1e6/dump:5e3"),
            fault_seeds=(0, 1),
        )
        points = spec.points()
        # Analytic: expected-rework correction is deterministic, seed-free.
        # Simulator: the null model is seed-free, the failing one gets both.
        analytic = [p for p in points if p.backend == "analytic-fast"]
        simulator = [p for p in points if p.backend == "simulator"]
        assert len(analytic) == 2
        assert all(p.fault_seed is None for p in analytic)
        assert len(simulator) == 3
        failing = [p for p in simulator if p.fault_model is not None]
        assert sorted(p.fault_seed for p in failing) == [0, 1]


class TestStragglerDeterminism:
    def test_speed_profiles_are_deterministic(self):
        platform = cray_xt4().with_speed_profile(SpeedProfile.stragglers(1, 2.0))
        first = predict_many([(lu_class("A"), platform, 16)], backend="simulator")[0]
        clear_prediction_cache()
        second = predict_many([(lu_class("A"), platform, 16)], backend="simulator")[0]
        assert first.time_per_iteration_us == second.time_per_iteration_us
