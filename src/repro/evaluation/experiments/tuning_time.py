"""§4.1.4 "Observations and Analysis": tuning wall-time comparison.

The paper reports, for tuning 2mm (LARGE) over the Table-2 space, roughly
90 s for the MGA tuner (profiling + prediction), 180 s for OpenTuner, 260 s
for ytopt and 220 s for BLISS, because the search tuners must execute the
kernel many times whereas MGA only needs the profiling run(s).

The reproduction reports the same quantity in *simulated seconds*: the summed
execution time of every kernel run each tuner performs, plus (for the DL
tuner) the measured model inference time.

Declared as the ``tuning_time`` experiment spec: the search tuners run as
:class:`~repro.tuners.campaign.TuningCampaign` sessions (fanned out with
``workers=N``), the MGA tuner trains in a cached stage and only the
wall-clock inference measurement re-runs on a cache hit.  ``run()`` is a
legacy shim.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.pipeline.registry import register_experiment
from repro.pipeline.runner import run_legacy
from repro.pipeline.spec import (
    BuildDataset,
    ExperimentSpec,
    Report,
    TrainModels,
    TuneCandidates,
    ref,
    stage_impl,
)
from repro.simulator.microarch import microarch_from_config

#: the paper's comparison order
_SEARCH_ORDER = (("OpenTuner", "opentuner"), ("ytopt", "ytopt"),
                 ("BLISS", "bliss"))


@stage_impl("tuning_time.search")
def _search(ctx, inputs, *, arch, kernel_uid, target_bytes, budget, seed):
    from repro.kernels import registry
    from repro.tuners.campaign import (
        SearchSession,
        SimObjectiveSpec,
        run_search_sessions,
    )
    from repro.tuners.space import full_search_space

    arch = microarch_from_config(arch)
    spec = registry.get_kernel(kernel_uid)
    scale = spec.scale_for_bytes(target_bytes)
    space_config = full_search_space(max_threads=arch.max_threads).to_config()
    objective = SimObjectiveSpec(kernel_uid=kernel_uid, arch=arch,
                                 scale=scale, noise=0.0, seed=seed)
    sessions = [SearchSession(tuner_name=strategy,
                              tuner_config={"budget": budget, "seed": seed},
                              space=space_config, objective=objective)
                for _, strategy in _SEARCH_ORDER]
    outcomes = run_search_sessions(sessions, workers=ctx.workers)
    results: Dict[str, Dict[str, float]] = {}
    for (display, _), outcome in zip(_SEARCH_ORDER, outcomes):
        results[display] = {
            "kernel_executions": float(outcome.evaluations),
            # sequential sum, matching the serial accumulation of a real run
            "simulated_tuning_seconds": float(sum(outcome.times.tolist())),
            "achieved_time": outcome.best_time,
        }
    return {"results": results}


@stage_impl("tuning_time.train")
def _train(ctx, inputs, *, arch, epochs, seed):
    from repro.core.mga import ModalityConfig
    from repro.core.tuner import MGATuner

    arch = microarch_from_config(arch)
    dataset = inputs["dataset"]
    tuner = MGATuner(arch, list(dataset.configs),
                     modalities=ModalityConfig.mga(), seed=seed)
    tuner.fit(dataset, epochs=epochs)
    return {"tuner": tuner}


@stage_impl("tuning_time.report")
def _report(ctx, inputs, *, arch, kernel_uid, target_bytes):
    from repro.frontend.analysis import analyze_spec
    from repro.frontend.openmp import default_omp_config
    from repro.kernels import registry
    from repro.simulator.openmp import OpenMPSimulator

    arch = microarch_from_config(arch)
    spec = registry.get_kernel(kernel_uid)
    scale = spec.scale_for_bytes(target_bytes)
    summary = analyze_spec(spec, scale)
    simulator = OpenMPSimulator(arch, noise=0.0)
    tuner = inputs["train"]["tuner"]

    results: Dict[str, Dict[str, float]] = dict(inputs["search"]["results"])
    # two profiling runs (the selected counters need two runs on real systems)
    profile_time = 2 * simulator.run(summary,
                                     default_omp_config(arch.cores)).time_seconds
    t0 = time.perf_counter()
    config, _ = tuner.tune(spec, scale=scale)
    inference_wall = time.perf_counter() - t0
    achieved = simulator.run(summary, config).time_seconds
    results["MGA"] = {
        "kernel_executions": 2.0,
        "simulated_tuning_seconds": profile_time,
        "inference_wall_seconds": inference_wall,
        "achieved_time": achieved,
    }
    return results


SPEC = ExperimentSpec(
    name="tuning_time",
    title="Tuning-cost comparison over the Table-2 space (§4.1.4)",
    description="Simulated tuning seconds of the search tuners vs the "
                "profiling-only MGA tuner for one kernel.",
    params={
        "arch": "skylake_4114",
        "kernel_uid": "polybench/2mm",
        "target_bytes": 256e6,
        "budget": 10,
        "train_kernels": 10,
        "train_inputs": 4,
        "epochs": 10,
        "seed": 0,
    },
    stages=(
        TuneCandidates(impl="tuning_time.search", name="search", params={
            "arch": ref("arch"),
            "kernel_uid": ref("kernel_uid"),
            "target_bytes": ref("target_bytes"),
            "budget": ref("budget"),
            "seed": ref("seed"),
        }),
        BuildDataset(impl="openmp.dataset", name="dataset", params={
            "arch": ref("arch"),
            "space": {"type": "full"},
            "kernels": {"select": "openmp_excluding",
                        "max": ref("train_kernels"),
                        "exclude": ref("kernel_uid")},
            "targets": {"num": ref("train_inputs")},
            "seed": ref("seed"),
        }),
        TrainModels(impl="tuning_time.train", name="train",
                    inputs=("dataset",), params={
                        "arch": ref("arch"),
                        "epochs": ref("epochs"),
                        "seed": ref("seed"),
                    }),
        Report(impl="tuning_time.report", name="report",
               inputs=("search", "train"), params={
                   "arch": ref("arch"),
                   "kernel_uid": ref("kernel_uid"),
                   "target_bytes": ref("target_bytes"),
               }),
    ),
    quick={"budget": 4, "train_kernels": 4, "train_inputs": 2, "epochs": 3},
)


def run(**overrides) -> Dict[str, Dict[str, float]]:
    """Legacy shim: run the ``tuning_time`` spec (parameters as kwargs)."""
    return run_legacy("tuning_time", overrides)


def format_result(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["Tuning-cost comparison (2mm, Table-2 search space)"]
    lines.append(f"  {'tuner':<12}{'kernel execs':>14}{'tuning cost (s)':>18}"
                 f"{'achieved time (s)':>20}")
    for name, row in results.items():
        lines.append(f"  {name:<12}{row['kernel_executions']:14.0f}"
                     f"{row['simulated_tuning_seconds']:18.4f}"
                     f"{row['achieved_time']:20.5f}")
    lines.append("  (MGA needs only the profiling runs; search tuners pay one "
                 "kernel execution per evaluation)")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
