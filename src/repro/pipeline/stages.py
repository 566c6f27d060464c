"""Shared stage implementations used by several experiment specs.

The OpenMP experiments are different arrangements of the same three moves —
build a (loop × input × configuration) dataset, run black-box search
sessions, train DL tuners — so those moves live here as generic, registered
stage implementations.  Experiment-specific stages (fig9's portability
transfer, table3's device-mapping folds, the reports) are registered by the
experiment modules themselves.

Because the implementations take pure-JSON parameter trees, identical
resolved parameters hash to identical stage-cache keys across experiments:
fig1, fig4, fig5 and fig6 all build the *same* Comet-Lake thread-space
dataset, and whichever runs first builds it for all four.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.evaluation.experiments.common import (
    DL_APPROACHES,
    DL_STATIC_APPROACHES,
    assign_group_speedups,
    dl_tuner_speedups,
    kernel_groups,
    reference_times,
    select_openmp_kernels,
)
from repro.frontend.spec import KernelSpec
from repro.pipeline.spec import stage_impl
from repro.simulator.microarch import MicroArch, microarch_from_config
from repro.tuners.campaign import (
    LookupObjectiveSpec,
    SearchSession,
    run_search_sessions,
)
from repro.tuners.space import SearchSpace, full_search_space, thread_search_space

#: (display name, registered tuner strategy) pairs of the paper's baselines
DEFAULT_SEARCH_TUNERS = (("ytopt", "ytopt"), ("OpenTuner", "opentuner"),
                         ("BLISS", "bliss"))

#: the display names alone, in reporting order (shared by the report stages)
SEARCH_DISPLAY_ORDER = tuple(display for display, _ in DEFAULT_SEARCH_TUNERS)


# ----------------------------------------------------------------------
# declarative sub-resolvers
# ----------------------------------------------------------------------
def resolve_space(space: Mapping[str, Any], arch: MicroArch) -> SearchSpace:
    """Build a :class:`SearchSpace` from its declarative description."""
    kind = space["type"]
    if kind == "threads":
        threads = space.get("threads")
        return thread_search_space(arch, threads=tuple(threads)
                                   if threads else None)
    if kind == "full":
        kwargs: Dict[str, Any] = {"max_threads": arch.max_threads}
        if space.get("threads"):
            kwargs["threads"] = tuple(space["threads"])
        if space.get("chunks"):
            kwargs["chunks"] = tuple(space["chunks"])
        return full_search_space(**kwargs)
    raise ValueError(f"unknown search-space type {kind!r}")


def resolve_kernels(selection: Mapping[str, Any]) -> List[KernelSpec]:
    """Pick kernel specs from their declarative selection."""
    from repro.kernels import registry

    select = selection["select"]
    if select == "openmp":
        return select_openmp_kernels(selection.get("max"),
                                     selection.get("suites"))
    if select == "openmp_excluding":
        specs = registry.openmp_kernels()
        if selection.get("max") is not None:
            specs = specs[:selection["max"]]
        return [s for s in specs if s.uid != selection["exclude"]]
    if select == "uids":
        return [registry.get_kernel(uid) for uid in selection["uids"]]
    if select == "applications":
        from repro.evaluation.experiments.fig7 import default_applications
        return [registry.get_kernel(uid)
                for uid in default_applications(selection.get("max"))]
    if select == "polybench":
        names = list(registry.TABLE1["polybench"])
        if selection.get("max") is not None:
            names = names[:selection["max"]]
        return [registry.get_kernel(f"polybench/{name}") for name in names]
    raise ValueError(f"unknown kernel selection {select!r}")


def resolve_targets(targets: Mapping[str, Any]) -> np.ndarray:
    """Input-size targets from their declarative description."""
    from repro.datasets.openmp import default_input_targets

    kwargs: Dict[str, Any] = {"num": targets["num"]}
    if "min_bytes" in targets:
        kwargs["min_bytes"] = targets["min_bytes"]
    if "max_bytes" in targets:
        kwargs["max_bytes"] = targets["max_bytes"]
    return default_input_targets(**kwargs)


def resolve_splits(dataset, split: Mapping[str, Any]):
    """``(labels, [(train_idx, val_idx), ...])`` from a split description.

    ``labels`` is ``None`` except for leave-one-application-out splits,
    where it names the held-out application of each fold.
    """
    kind = split["type"]
    if kind == "kfold_kernel":
        return None, dataset.kfold_by_kernel(k=split["k"], seed=split["seed"])
    if kind == "unseen_inputs":
        return None, dataset.split_unseen_inputs(k=split["k"],
                                                 seed=split["seed"])
    if kind == "holdout":
        rng = np.random.default_rng(split["seed"])
        indices = rng.permutation(len(dataset))
        n_val = max(1, int(round(len(dataset) * split["fraction"])))
        val_idx, train_idx = list(indices[:n_val]), list(indices[n_val:])
        return None, [(train_idx, val_idx)]
    if kind == "loao":
        loao = dataset.leave_one_application_out()
        return [kernel for kernel, _, _ in loao], \
            [(train, val) for _, train, val in loao]
    raise ValueError(f"unknown split type {kind!r}")


# ----------------------------------------------------------------------
# generic stages
# ----------------------------------------------------------------------
@stage_impl("openmp.dataset")
def build_openmp_dataset_stage(ctx, inputs, *, arch, space, kernels, targets,
                               seed):
    """BuildDataset: simulate the (loop × input × configuration) grid."""
    from repro.datasets.openmp import OpenMPDatasetBuilder

    arch = microarch_from_config(arch)
    search_space = resolve_space(space, arch)
    specs = resolve_kernels(kernels)
    builder = OpenMPDatasetBuilder(arch, list(search_space), seed=seed)
    return builder.build(specs, resolve_targets(targets))


@stage_impl("openmp.search_speedups")
def search_speedups_stage(ctx, inputs, *, split, budget, seed,
                          tuners: Optional[Sequence[Sequence[str]]] = None,
                          enabled: bool = True):
    """TuneCandidates: per-loop black-box search over every fold.

    Every (tuner, fold, loop) triple becomes an independent
    :class:`~repro.tuners.campaign.SearchSession`; with ``workers=N`` the
    sessions fan out over a process pool and the results are identical to
    the serial run (sessions are pure functions of their description).
    """
    if not enabled:
        return {"speedups": {}}
    dataset = inputs["dataset"]
    tuners = [tuple(t) for t in (tuners or DEFAULT_SEARCH_TUNERS)]
    _, splits = resolve_splits(dataset, split)
    space_config = SearchSpace(dataset.configs).to_config()

    # per-fold groups and time grids are tuner-independent: derive them once
    # and share the (pickled) objective grids across the tuners' sessions
    fold_plans = []
    for fold, (_, val_idx) in enumerate(splits):
        groups = kernel_groups(dataset, val_idx)
        objectives = [LookupObjectiveSpec(reference_times(dataset, indices))
                      for _, indices in groups]
        fold_plans.append((fold, val_idx, groups, objectives))

    sessions: List[SearchSession] = []
    layout: List[tuple] = []        # one (display, fold, ...) entry per block
    for display, strategy in tuners:
        for fold, val_idx, groups, objectives in fold_plans:
            layout.append((display, fold, val_idx, groups))
            for j, objective in enumerate(objectives):
                sessions.append(SearchSession(
                    tuner_name=strategy,
                    tuner_config={"budget": budget, "seed": seed + j},
                    space=space_config,
                    objective=objective,
                ))
    outcomes = iter(run_search_sessions(sessions, workers=ctx.workers))

    speedups: Dict[str, List[np.ndarray]] = {d: [None] * len(splits)
                                             for d, _ in tuners}
    for display, fold, val_idx, groups in layout:
        chosen = [next(outcomes).best_index for _ in groups]
        speedups[display][fold] = assign_group_speedups(
            dataset, val_idx, groups, chosen)
    return {"speedups": speedups}


@stage_impl("openmp.dl_speedups")
def dl_speedups_stage(ctx, inputs, *, split, approaches, epochs, seed):
    """TrainModels: one DL tuner per (approach, fold), per-sample speedups."""
    dataset = inputs["dataset"]
    _, splits = resolve_splits(dataset, split)
    modalities = {**DL_APPROACHES, **DL_STATIC_APPROACHES}
    speedups: Dict[str, List[np.ndarray]] = {name: [] for name in approaches}
    for train_idx, val_idx in splits:
        for name in approaches:
            speedups[name].append(dl_tuner_speedups(
                dataset, train_idx, val_idx, modalities[name],
                epochs=epochs, seed=seed))
    return {"speedups": speedups}
