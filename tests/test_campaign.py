"""Parallel tuning campaigns: worker-count invariance, batch ask/tell
semantics and checkpoint/resume exactness.

The load-bearing property: a campaign's history is a pure function of
(tuner, seed, space, objective spec, batch size) — evaluating with one
worker or a pool of four, or killing the campaign and resuming it from a
checkpoint, must reproduce byte-identical ``TuningResult.history``.
"""

import os

import numpy as np
import pytest

from repro.simulator.microarch import COMET_LAKE_8C, SKYLAKE_4114
from repro.tuners import (
    TUNER_CLASSES,
    SimObjectiveSpec,
    TuningCampaign,
    full_search_space,
    make_tuner,
    thread_search_space,
)

STRATEGIES = sorted(TUNER_CLASSES)


def _make(name, budget=12, seed=0):
    if name == "oracle":
        return make_tuner(name)
    return make_tuner(name, budget=budget, seed=seed)


def _spec(**overrides):
    defaults = dict(kernel_uid="polybench/atax", arch=COMET_LAKE_8C,
                    scale=0.2, noise=0.015, seed=42)
    defaults.update(overrides)
    return SimObjectiveSpec(**defaults)


@pytest.fixture(scope="module")
def space():
    """A 36-configuration Table-2-style space (4 threads x 3 x 3)."""
    return full_search_space(threads=(1, 2, 4, 8), chunks=(1, 32, 256))


class TestWorkerInvariance:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_parallel_history_identical_to_serial(self, strategy, seed, space):
        histories = {}
        for workers in (1, 4):
            campaign = TuningCampaign(_make(strategy, seed=seed), space,
                                      _spec(), workers=workers, batch_size=4)
            histories[workers] = campaign.run().history
        assert histories[1] == histories[4]
        assert len(histories[1]) == (len(space) if strategy == "oracle"
                                     else 12)

    def test_batch_size_fixed_by_default(self, space):
        """The default batch size must not depend on the worker count."""
        h = {}
        for workers in (1, 3):
            campaign = TuningCampaign(_make("random"), space, _spec(),
                                      workers=workers)
            h[workers] = campaign.run().history
        assert h[1] == h[3]

    def test_history_independent_of_hash_randomization(self):
        """Proposals must not depend on set iteration order: two processes
        with different PYTHONHASHSEEDs must produce the same history (this
        is what cross-process checkpoint/resume exactness rests on)."""
        import subprocess
        import sys
        script = (
            "from repro.simulator.microarch import COMET_LAKE_8C\n"
            "from repro.tuners import (SimObjectiveSpec, TuningCampaign,\n"
            "                          full_search_space, make_tuner)\n"
            "space = full_search_space(threads=(1, 2, 4, 8),\n"
            "                          chunks=(1, 32, 256))\n"
            "spec = SimObjectiveSpec(kernel_uid='polybench/atax',\n"
            "                        arch=COMET_LAKE_8C, scale=0.2, seed=42)\n"
            "c = TuningCampaign(make_tuner('opentuner', budget=16, seed=0),\n"
            "                   space, spec, batch_size=4)\n"
            "print(repr([(cfg.as_tuple(), t) for cfg, t in c.run().history]))\n"
        )
        import repro
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hashseed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_evaluations_order_independent(self):
        """One configuration's measurement never depends on the others."""
        spec = _spec(noise=0.05)
        objective = spec.build()
        space = thread_search_space(COMET_LAKE_8C)
        forward = [objective(c, i) for i, c in enumerate(space)]
        backward = [objective(space[i], i)
                    for i in reversed(range(len(space)))][::-1]
        assert forward == backward


class TestAskTell:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_ask_returns_distinct_unseen(self, strategy, space):
        tuner = _make(strategy)
        rng = np.random.default_rng(0)
        history = [(space[0], 1.0), (space[1], 0.5)]
        batch = tuner.ask(space, history, rng, k=4)
        assert len(batch) == len(set(batch)) == 4
        assert not {space[0], space[1]} & set(batch)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_ask_exhausts_space_gracefully(self, strategy):
        small = thread_search_space(COMET_LAKE_8C, threads=(1, 2, 4))
        tuner = _make(strategy)
        rng = np.random.default_rng(0)
        history = [(c, float(i + 1)) for i, c in enumerate(small)]
        assert tuner.ask(small, history, rng, k=4) == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_campaign_batch1_matches_serial_tune(self, strategy, space):
        """ask/tell with k=1 and the classic tune() walk the same path."""
        spec = _spec()
        objective = spec.build()
        serial = _make(strategy).tune(
            lambda c: objective(c, space.index_of(c)), space)
        campaign = TuningCampaign(_make(strategy), space, spec, batch_size=1)
        assert campaign.run().history == serial.history


class TestCheckpointResume:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_kill_then_resume_reproduces_uninterrupted(self, strategy,
                                                       tmp_path, space):
        ck = os.path.join(tmp_path, "ck")
        spec = _spec()
        full = TuningCampaign(_make(strategy), space, spec,
                              batch_size=4).run()
        partial = TuningCampaign(_make(strategy), space, spec, batch_size=4,
                                 checkpoint_path=ck)
        partial.run(max_evals=5)     # rounds up to two whole batches
        assert 0 < len(partial.history) < len(full.history)

        resumed = TuningCampaign.resume(ck, workers=2)
        assert resumed.history == partial.history
        result = resumed.run()
        assert result.history == full.history

    def test_resume_restores_tuner_and_rng_state(self, tmp_path, space):
        ck = os.path.join(tmp_path, "ck")
        campaign = TuningCampaign(_make("opentuner"), space, _spec(),
                                  batch_size=4, checkpoint_path=ck)
        campaign.run(max_evals=8)
        resumed = TuningCampaign.resume(ck)
        assert resumed.tuner.get_state() == campaign.tuner.get_state()
        assert (resumed._rng.bit_generator.state
                == campaign._rng.bit_generator.state)
        assert resumed.batch_size == campaign.batch_size

    def test_resume_falls_back_after_interrupted_swap(self, tmp_path, space):
        """A kill between the two checkpoint renames leaves only the
        ``.previous-*`` copy; resume must pick it up."""
        ck = os.path.join(tmp_path, "ck")
        campaign = TuningCampaign(_make("random"), space, _spec(),
                                  batch_size=4, checkpoint_path=ck)
        campaign.run(max_evals=4)
        os.rename(ck, TuningCampaign._previous_path(ck))
        resumed = TuningCampaign.resume(ck)
        assert resumed.history == campaign.history

    def test_resume_promotes_fallback_and_cleans_up(self, tmp_path, space):
        """Resuming from a ``.previous-*`` fallback must promote it back to
        the canonical path and leave no swap leftovers behind."""
        ck = os.path.join(tmp_path, "ck")
        campaign = TuningCampaign(_make("random"), space, _spec(),
                                  batch_size=4, checkpoint_path=ck)
        campaign.run(max_evals=4)
        os.rename(ck, TuningCampaign._previous_path(ck))
        resumed = TuningCampaign.resume(ck)
        assert resumed.history == campaign.history
        assert os.path.isdir(ck)     # fallback promoted back
        assert not os.path.exists(TuningCampaign._previous_path(ck))
        # the next checkpoint must land at the canonical path
        resumed.run(max_evals=4)
        assert TuningCampaign.resume(ck).history == resumed.history

    def test_resume_removes_stale_swap_leftovers(self, tmp_path, space):
        """A crash *after* the final rename can strand ``.previous-*`` and
        ``.staging-*`` next to a valid checkpoint; resume must remove both
        rather than let them shadow a later interrupted swap."""
        import shutil
        ck = os.path.join(tmp_path, "ck")
        campaign = TuningCampaign(_make("random"), space, _spec(),
                                  batch_size=4, checkpoint_path=ck)
        campaign.run(max_evals=8)
        stale_previous = TuningCampaign._previous_path(ck)
        stale_staging = TuningCampaign._staging_path(ck)
        shutil.copytree(ck, stale_previous)
        shutil.copytree(ck, stale_staging)
        resumed = TuningCampaign.resume(ck)
        assert resumed.history == campaign.history
        assert not os.path.exists(stale_previous)
        assert not os.path.exists(stale_staging)

    def test_resume_rejects_non_campaign_artifact(self, tmp_path):
        from repro.core.artifacts import ArtifactError
        with pytest.raises((ArtifactError, OSError)):
            TuningCampaign.resume(os.path.join(tmp_path, "missing"))

    def test_resume_rejects_unknown_override(self, tmp_path, space):
        ck = os.path.join(tmp_path, "ck")
        campaign = TuningCampaign(_make("random"), space, _spec(),
                                  batch_size=4, checkpoint_path=ck)
        campaign.run(max_evals=4)
        with pytest.raises(TypeError):
            TuningCampaign.resume(ck, batch_size=2)


class TestObjectiveSpec:
    def test_config_round_trip(self):
        spec = _spec(arch=SKYLAKE_4114, repeats=3, walltime_scale=1.0)
        clone = SimObjectiveSpec.from_config(spec.to_config())
        assert clone == spec

    def test_custom_arch_round_trip(self):
        import dataclasses
        custom = dataclasses.replace(COMET_LAKE_8C, name="bespoke", cores=6)
        clone = SimObjectiveSpec.from_config(_spec(arch=custom).to_config())
        assert clone.arch == custom

    def test_repeats_take_median(self):
        space = thread_search_space(COMET_LAKE_8C)
        noisy = _spec(noise=0.2, repeats=5).build()
        single = _spec(noise=0.2, repeats=1).build()
        assert noisy(space[3], 3) != single(space[3], 3)
        assert noisy(space[3], 3) == noisy(space[3], 3)


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            make_tuner("annealing")

    def test_workers_validated(self, space):
        with pytest.raises(ValueError):
            TuningCampaign(_make("random"), space, _spec(), workers=0)

    def test_batch_size_validated(self, space):
        with pytest.raises(ValueError):
            TuningCampaign(_make("random"), space, _spec(), batch_size=0)

    def test_oracle_budget_covers_space(self, space):
        assert _make("oracle").effective_budget(space) == len(space)


class TestCampaignCLI:
    """``python -m repro.serve campaign``: checkpoint, resume, flag conflicts."""

    SEARCH = ["--kernel", "polybench/atax", "--tuner", "opentuner",
              "--budget", "12", "--batch-size", "4", "--scale", "0.2",
              "--arch", "comet_lake"]
    KEYS = {"kernel", "tuner", "arch", "best_label", "best_time",
            "default_time", "speedup_over_default", "evaluations", "batches",
            "workers", "wall_seconds", "checkpoint", "finished"}

    @staticmethod
    def _cli(capsys, *argv):
        import json

        from repro.serve.cli import main as cli_main
        code = cli_main(["campaign", *argv])
        out, err = capsys.readouterr()
        return code, (json.loads(out) if code == 0 else json.loads(err))

    def test_resume_with_other_workers_matches_uninterrupted(
            self, tmp_path, capsys, monkeypatch):
        code, full = self._cli(capsys, *self.SEARCH, "--workers", "1")
        assert code == 0 and set(full) == self.KEYS and full["finished"]

        # interrupt the checkpointed run after its first batch
        run = TuningCampaign.run
        monkeypatch.setattr(TuningCampaign, "run",
                            lambda self, max_evals=None: run(self, 4))
        ck = os.fspath(tmp_path / "ck")
        code, partial = self._cli(capsys, *self.SEARCH, "--checkpoint", ck)
        monkeypatch.undo()
        assert code == 0 and set(partial) == self.KEYS
        assert partial["evaluations"] == 4 and not partial["finished"]

        code, resumed = self._cli(capsys, "--resume", ck, "--workers", "2")
        assert code == 0 and set(resumed) == self.KEYS
        assert resumed["best_label"] == full["best_label"]
        assert resumed["evaluations"] == full["evaluations"] == 12
        assert resumed["workers"] == 2 and resumed["finished"]
        assert resumed["checkpoint"] == ck

    def test_resume_conflict_names_the_offending_flags(self, tmp_path,
                                                       capsys):
        code, error = self._cli(capsys, "--resume", os.fspath(tmp_path),
                                "--kernel", "polybench/gemm",
                                "--sim-seed", "3", "--workers", "8")
        assert code == 1
        assert "--kernel" in error["error"]
        assert "--sim-seed" in error["error"]
        assert "--workers" not in error["error"]
