"""Parallel tuning campaigns: one ask/evaluate/tell loop, checkpoint/resume.

A *campaign* drives one black-box tuner over one search space with the
batch-synchronous ask/evaluate/tell split of :class:`~repro.tuners.base.
BlackBoxTuner`: the tuner proposes ``batch_size`` configurations, a batch
evaluator measures them, and the results are observed in proposal order.
:meth:`TuningCampaign.drive` is the only copy of that loop; what varies is
the evaluator:

* inline in this process (``workers=1``);
* a :class:`multiprocessing.Pool` on this host (``workers=N``);
* config leases served to fleet workers on any host
  (:class:`~repro.serve.fleet.CampaignCoordinator`).

Three properties make this safe to parallelise and to interrupt:

* **Picklable objectives** — instead of closures, workers receive a
  :class:`SimObjectiveSpec` (kernel uid + micro-architecture + simulator
  parameters) and rebuild the simulator once per process.
* **Order-independent evaluations** — each configuration's measurement RNG
  is seeded from ``(spec.seed, configuration index)``, so a result does not
  depend on which worker produced it or in which order: ``workers=1`` and
  ``workers=N`` campaigns produce byte-identical histories.
* **Checkpointing** — after every batch the campaign persists history,
  tuner state and the proposal RNG state as a :mod:`repro.core.artifacts`
  artifact of kind ``tuning_campaign`` (sha256-integrity checked, staged +
  renamed so an interrupted write never corrupts the previous checkpoint);
  :func:`load_campaign` reads one back and :meth:`TuningCampaign.resume`
  continues exactly where the campaign stopped.  An evaluator that stops
  mid-batch makes the loop restore the pre-ask RNG and tuner state, so the
  campaign always rests on a batch boundary.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.artifacts import (
    ArtifactError,
    read_artifact_dir,
    write_artifact_dir,
)
from repro.frontend.analysis import analyze_spec
from repro.frontend.openmp import OMPConfig
from repro.tuners.base import BlackBoxTuner, TuningResult
from repro.tuners.bayesian import BLISSTuner, YtoptTuner
from repro.tuners.exhaustive import ExhaustiveTuner
from repro.tuners.opentuner_like import OpenTunerLike
from repro.tuners.random_search import RandomSearchTuner
from repro.tuners.space import SearchSpace

#: Strategies a campaign (or a checkpoint) can name.
TUNER_CLASSES: Dict[str, type] = {
    cls.name: cls for cls in (RandomSearchTuner, ExhaustiveTuner,
                              OpenTunerLike, YtoptTuner, BLISSTuner)
}

#: Artifact kind of campaign checkpoints.
KIND_CAMPAIGN = "tuning_campaign"

#: Default proposal batch size.  A fixed constant (not ``workers``) so the
#: proposal schedule — and therefore the history — is identical no matter
#: how many workers evaluate it.
DEFAULT_BATCH_SIZE = 8


def make_tuner(name: str, config: Optional[Dict[str, Any]] = None,
               **overrides) -> BlackBoxTuner:
    """Instantiate a registered tuner strategy from its JSON config."""
    try:
        cls = TUNER_CLASSES[name]
    except KeyError as exc:
        raise KeyError(f"unknown tuner strategy {name!r}; "
                       f"known: {sorted(TUNER_CLASSES)}") from exc
    kwargs = dict(config or {})
    kwargs.update(overrides)
    return cls(**kwargs)


# ----------------------------------------------------------------------
# picklable objective
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SimObjectiveSpec:
    """Picklable description of a simulator-backed tuning objective.

    ``repeats`` measurements are taken per configuration (their median is
    the objective value), mirroring how real campaigns re-run a kernel to
    tame measurement noise.  ``walltime_scale`` optionally makes each
    evaluation *occupy* wall-clock time proportional to the simulated
    execution (capped at ``walltime_cap`` seconds): this models the real
    cost structure of autotuning — the search process waits on kernel
    executions — and is what a worker pool overlaps.
    """

    kernel_uid: str
    arch: Any                          # MicroArch (picklable dataclass)
    scale: float = 1.0
    noise: float = 0.015
    seed: int = 1234
    repeats: int = 1
    walltime_scale: float = 0.0
    walltime_cap: float = 0.05

    def build(self) -> "SimObjective":
        return SimObjective(self)

    def to_config(self) -> Dict[str, Any]:
        from repro.simulator.microarch import microarch_to_config
        data = dataclasses.asdict(self)
        data["arch"] = microarch_to_config(self.arch)
        return data

    @classmethod
    def from_config(cls, data: Dict[str, Any]) -> "SimObjectiveSpec":
        from repro.simulator.microarch import microarch_from_config
        data = dict(data)
        data["arch"] = microarch_from_config(data["arch"])
        return cls(**data)


class SimObjective:
    """A built objective: summary + simulator, evaluated per configuration.

    ``key`` is the configuration's index in the campaign's search space; it
    seeds the per-evaluation RNG so results are a pure function of
    (spec, configuration) — independent of evaluation order and worker.
    """

    def __init__(self, spec: SimObjectiveSpec):
        from repro.kernels import registry
        from repro.simulator.openmp import OpenMPSimulator

        self.spec = spec
        kernel = registry.get_kernel(spec.kernel_uid)
        self.summary = analyze_spec(kernel, spec.scale)
        self.simulator = OpenMPSimulator(spec.arch, noise=spec.noise,
                                         seed=spec.seed)

    def __call__(self, config: OMPConfig, key: int) -> float:
        rng = np.random.default_rng([int(self.spec.seed) & 0x7FFFFFFF, key])
        times = [self.simulator.run(self.summary, config, rng=rng).time_seconds
                 for _ in range(max(1, self.spec.repeats))]
        value = float(np.median(times))
        if self.spec.walltime_scale > 0.0:
            time.sleep(min(value * self.spec.walltime_scale * len(times),
                           self.spec.walltime_cap))
        return value


@dataclasses.dataclass(frozen=True, eq=False)
class LookupObjectiveSpec:
    """Picklable objective over a pre-measured ``[refs, configs]`` time grid.

    The experiment pipeline's search stages tune against execution times the
    dataset build already measured: the objective value of configuration
    ``key`` is the geometric mean of its column over the reference inputs.
    Lookup grids live in memory only, so campaigns over them cannot be
    checkpointed (there is nothing durable to point a resume at).
    """

    times: np.ndarray
    floor: float = 1e-15

    def build(self) -> "_LookupObjective":
        return _LookupObjective(self.times, self.floor)

    def to_config(self):
        raise NotImplementedError(
            "lookup objectives are in-memory only; campaigns over them "
            "cannot be checkpointed — use SimObjectiveSpec for that")


class _LookupObjective:
    def __init__(self, times: np.ndarray, floor: float):
        self.times = times
        self.floor = floor

    def __call__(self, config: OMPConfig, key: int) -> float:
        column = self.times[:, key]
        return float(np.exp(np.mean(np.log(np.maximum(column, self.floor)))))


# ----------------------------------------------------------------------
# one-shot campaign sessions (the pipeline's tuning fan-out unit)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, eq=False)
class SearchSession:
    """A picklable description of one self-contained tuning session.

    ``batch_size=1`` makes the campaign walk the space exactly like the
    serial :meth:`BlackBoxTuner.tune` loop, so session results are
    byte-identical to the legacy per-experiment tuning code — no matter
    which worker process runs the session or in which order.
    """

    tuner_name: str
    tuner_config: Dict[str, Any]
    space: List[dict]                        # SearchSpace.to_config()
    objective: Any                           # LookupObjectiveSpec | SimObjectiveSpec


@dataclasses.dataclass(frozen=True, eq=False)
class SessionOutcome:
    """What a session produced, in proposal order."""

    best_index: int
    best_time: float
    evaluations: int
    indices: np.ndarray
    times: np.ndarray


def run_search_session(session: SearchSession) -> SessionOutcome:
    """Run one session to completion through a :class:`TuningCampaign`."""
    tuner = make_tuner(session.tuner_name, dict(session.tuner_config))
    space = SearchSpace.from_config(session.space)
    campaign = TuningCampaign(tuner, space, session.objective,
                              workers=1, batch_size=1)
    result = campaign.run()
    return SessionOutcome(
        best_index=space.index_of(result.best_config),
        best_time=result.best_time,
        evaluations=result.evaluations,
        indices=np.array([space.index_of(c) for c, _ in result.history],
                         dtype=np.int64),
        times=np.array([t for _, t in result.history], dtype=np.float64),
    )


def run_search_sessions(sessions: List[SearchSession],
                        workers: int = 1) -> List[SessionOutcome]:
    """Fan independent sessions out over a local process pool.

    Sessions are pure functions of their description, so the outcome list —
    aligned with ``sessions`` — is identical for every ``workers`` value.
    """
    if workers <= 1 or len(sessions) <= 1:
        return [run_search_session(s) for s in sessions]
    with multiprocessing.Pool(min(int(workers), len(sessions))) as pool:
        return pool.map(run_search_session, sessions)


# ----------------------------------------------------------------------
# worker-pool plumbing (module level so it pickles under spawn too)
# ----------------------------------------------------------------------
_WORKER_OBJECTIVE: Optional[SimObjective] = None


def _init_worker(spec: SimObjectiveSpec) -> None:
    global _WORKER_OBJECTIVE
    _WORKER_OBJECTIVE = spec.build()


def _evaluate_in_worker(args: Tuple[OMPConfig, int]) -> float:
    config, key = args
    assert _WORKER_OBJECTIVE is not None, "worker pool not initialised"
    return _WORKER_OBJECTIVE(config, key)


# ----------------------------------------------------------------------
# checkpoint payload
# ----------------------------------------------------------------------
def _campaign_payload(campaign: "TuningCampaign"):
    config = {
        "objective": campaign.objective_spec.to_config(),
        "space": campaign.space.to_config(),
        "tuner_name": campaign.tuner.name,
        "tuner_config": campaign.tuner.get_config(),
        "tuner_state": campaign.tuner.get_state(),
        "rng_state": campaign._rng.bit_generator.state,
        "batch_size": campaign.batch_size,
        "batches": campaign.batches,
    }
    indices = np.array([campaign.space.index_of(c)
                        for c, _ in campaign.history], dtype=np.int64)
    times = np.array([t for _, t in campaign.history], dtype=np.float64)
    arrays = {"history.indices": indices, "history.times": times}
    return config, arrays


def load_campaign(path) -> "TuningCampaign":
    """Read a campaign checkpoint directory (integrity-checked).

    Use :meth:`TuningCampaign.resume` to continue one: it also falls back
    to the copy an interrupted checkpoint swap left aside.
    """
    manifest, arrays = read_artifact_dir(path, kind=KIND_CAMPAIGN)
    config = manifest["config"]
    spec = SimObjectiveSpec.from_config(config["objective"])
    space = SearchSpace.from_config(config["space"])
    tuner = make_tuner(config["tuner_name"], config["tuner_config"])
    tuner.set_state(config["tuner_state"])
    campaign = TuningCampaign(tuner, space, spec,
                              batch_size=int(config["batch_size"]))
    campaign._rng.bit_generator.state = config["rng_state"]
    indices = arrays["history.indices"]
    times = arrays["history.times"]
    campaign.history = [(space[int(i)], float(t))
                        for i, t in zip(indices, times)]
    campaign.batches = int(config.get("batches", 0))
    # the loaded artifact IS the latest checkpoint: don't rewrite identical
    # state when a resumed campaign turns out to be already finished
    campaign._checkpointed_batches = campaign.batches
    return campaign


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------
class TuningCampaign:
    """Batch-synchronous, optionally multiprocess tuning session."""

    def __init__(self, tuner: BlackBoxTuner, space: SearchSpace,
                 objective_spec: SimObjectiveSpec, workers: int = 1,
                 batch_size: Optional[int] = None,
                 checkpoint_path: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.tuner = tuner
        self.space = space
        self.objective_spec = objective_spec
        self.workers = int(workers)
        self.batch_size = (DEFAULT_BATCH_SIZE if batch_size is None
                           else int(batch_size))
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.checkpoint_path = (os.fspath(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.history: List[Tuple[OMPConfig, float]] = []
        self.batches = 0
        self.wall_seconds = 0.0
        self._rng = np.random.default_rng(tuner.seed)
        self._inline_objective: Optional[SimObjective] = None
        self._checkpointed_batches = -1   # batches count at the last write
        self._exhausted = False           # the tuner ran out of proposals

    # ------------------------------------------------------------------
    @staticmethod
    def _previous_path(path: str) -> str:
        """Where :meth:`checkpoint` parks the old state during the swap."""
        parent, base = os.path.split(os.path.abspath(path))
        return os.path.join(parent, f".previous-{base}")

    @staticmethod
    def _staging_path(path: str) -> str:
        """Where :meth:`checkpoint` assembles the new state before the swap."""
        parent, base = os.path.split(os.path.abspath(path))
        return os.path.join(parent, f".staging-{base}")

    @classmethod
    def resume(cls, path, **overrides) -> "TuningCampaign":
        """Load a checkpoint written by a previous (interrupted) campaign.

        Falls back to the rename-aside copy if the campaign was killed in
        the middle of the checkpoint swap itself.  A successful load makes
        the swap leftovers redundant, so resume also cleans them up: the
        fallback copy is promoted back to the final path (replacing the
        half-swapped state, if any) and stale ``.previous-*`` /
        ``.staging-*`` directories are removed.
        """
        path_str = os.path.abspath(os.fspath(path))
        fallback = cls._previous_path(path_str)
        loaded_fallback = False
        try:
            campaign = load_campaign(path)
        except (ArtifactError, OSError):
            if not os.path.isdir(fallback):
                raise
            campaign = load_campaign(fallback)
            loaded_fallback = True
        if loaded_fallback:
            # whatever sits at the final path failed to load: replace it
            # with the copy that did
            if os.path.exists(path_str):
                shutil.rmtree(path_str, ignore_errors=True)
            if not os.path.exists(path_str):
                os.rename(fallback, path_str)
        elif os.path.isdir(fallback):
            shutil.rmtree(fallback, ignore_errors=True)
        staging = cls._staging_path(path_str)
        if os.path.isdir(staging):
            shutil.rmtree(staging, ignore_errors=True)
        for key, value in overrides.items():
            if key == "workers":
                if int(value) < 1:
                    raise ValueError("workers must be >= 1")
                campaign.workers = int(value)
            elif key == "checkpoint_path":
                campaign.checkpoint_path = (os.fspath(value)
                                            if value is not None else None)
            else:
                raise TypeError(f"cannot override {key!r} on resume")
        if campaign.checkpoint_path is None:
            campaign.checkpoint_path = os.fspath(path)
        if (os.path.abspath(campaign.checkpoint_path)
                != os.path.abspath(os.fspath(path))):
            # resuming into a different checkpoint location: the loaded
            # state has not been written there yet
            campaign._checkpointed_batches = -1
        return campaign

    # ------------------------------------------------------------------
    def checkpoint(self) -> Optional[str]:
        """Write the current campaign state (replace-on-success).

        The new state is staged next to the final path; the previous
        checkpoint is renamed aside (not deleted) before the staging dir
        takes its place, so at every instant either the final path or the
        ``.previous-*`` copy holds a complete, loadable checkpoint —
        :meth:`resume` knows to fall back to it.
        """
        if self.checkpoint_path is None:
            return None
        final = os.path.abspath(self.checkpoint_path)
        parent = os.path.dirname(final)
        os.makedirs(parent, exist_ok=True)
        staging = self._staging_path(final)
        previous = self._previous_path(final)
        if os.path.exists(staging):
            shutil.rmtree(staging)
        config, arrays = _campaign_payload(self)
        try:
            write_artifact_dir(staging, KIND_CAMPAIGN, config, arrays)
            if os.path.exists(final):
                if os.path.exists(previous):
                    shutil.rmtree(previous)
                os.rename(final, previous)
            os.rename(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        shutil.rmtree(previous, ignore_errors=True)
        self._checkpointed_batches = self.batches
        return final

    # ------------------------------------------------------------------
    def run(self, max_evals: Optional[int] = None) -> TuningResult:
        """Drive the campaign to its budget (or ``max_evals`` more evals).

        Evaluates inline with ``workers=1`` and over a local process pool
        otherwise; see :meth:`drive` for the schedule.
        """
        if self.workers == 1 or self.finished:
            return self.drive(self._evaluate_inline, max_evals)
        pool = multiprocessing.Pool(self.workers, initializer=_init_worker,
                                    initargs=(self.objective_spec,))
        try:
            return self.drive(
                lambda payload: pool.map(_evaluate_in_worker, payload),
                max_evals)
        finally:
            pool.close()
            pool.join()

    def _evaluate_inline(self, payload: List[Tuple[OMPConfig, int]]
                         ) -> List[float]:
        if self._inline_objective is None:
            self._inline_objective = self.objective_spec.build()
        return [self._inline_objective(config, key)
                for config, key in payload]

    def drive(self, evaluate: Callable[[List[Tuple[OMPConfig, int]]],
                                       Optional[List[float]]],
              max_evals: Optional[int] = None) -> TuningResult:
        """The ask → evaluate → tell → checkpoint loop every campaign runs.

        ``evaluate`` maps a batch of ``(config, space index)`` pairs to
        their objective values in order, or returns ``None`` when it was
        stopped before the batch completed: the loop then restores the
        pre-ask proposal RNG and tuner state and ends, so the campaign (and
        any checkpoint) rests on the last batch boundary.

        Returns the :class:`TuningResult` over everything evaluated so far.
        With ``max_evals`` the campaign stops early after that many
        additional evaluations *rounded up to whole batches*, so the batch
        schedule (and hence every proposal) matches the uninterrupted run —
        the checkpoint then lets :meth:`resume` finish the rest exactly.
        """
        budget = self.tuner.effective_budget(self.space)
        batches_limit = None
        if max_evals is not None:
            batches_limit = self.batches + max(
                1, -(-int(max_evals) // self.batch_size))  # ceil division
        started = time.perf_counter()
        while len(self.history) < budget and (
                batches_limit is None or self.batches < batches_limit):
            k = min(self.batch_size, budget - len(self.history))
            rng_state = self._rng.bit_generator.state
            tuner_state = self.tuner.get_state()
            batch = self.tuner.ask(self.space, self.history, self._rng, k)
            if not batch:
                self._exhausted = True
                break
            times = evaluate([(config, self.space.index_of(config))
                              for config in batch])
            if times is None:
                self._rng.bit_generator.state = rng_state
                self.tuner.set_state(tuner_state)
                break
            evaluated = list(zip(batch, [float(t) for t in times]))
            self.history.extend(evaluated)
            self.tuner.tell(evaluated, self.history)
            self.batches += 1
            self.checkpoint()
        self.wall_seconds += time.perf_counter() - started
        if self.batches != self._checkpointed_batches:
            self.checkpoint()
        if not self.history:
            raise RuntimeError("campaign produced no evaluations")
        best_config, best_time = min(self.history, key=lambda item: item[1])
        result = TuningResult(best_config=best_config, best_time=best_time,
                              evaluations=len(self.history),
                              history=list(self.history))
        if self.finished:
            self.tuner.finalize(result)
        return result

    @property
    def finished(self) -> bool:
        """The budget is spent or the tuner has no proposals left."""
        return self._exhausted or (
            len(self.history) >= self.tuner.effective_budget(self.space))
