"""``train``: in-process ``MGATuner.fit`` at default training settings.

The dataset is :data:`KERNELS` OpenMP kernels drawn by seed from
``registry.openmp_kernels()`` at :data:`INPUTS` input sizes each; building
it is the set-up (timed :data:`SETUPS` times, median).  Fits repeat until
``--seconds`` have passed (at least :data:`MIN_FITS`); every fit's loss
history must equal the one recorded in ``reference.json`` for the seed's
input variant.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from perfbench import common, reference

KERNELS = 48
INPUTS = 2
EPOCHS = 20
SETUPS = 3
MIN_FITS = 3


def build_dataset(variant: int):
    """The fixed dataset of one input variant (a fresh builder each call)."""
    from repro.datasets import OpenMPDatasetBuilder
    from repro.kernels import registry
    from repro.simulator.microarch import COMET_LAKE_8C
    from repro.tuners import thread_search_space

    specs = registry.openmp_kernels()
    rng = np.random.default_rng([variant, 11])
    picked = [specs[i] for i in sorted(rng.choice(len(specs), KERNELS,
                                                  replace=False))]
    space = list(thread_search_space(COMET_LAKE_8C))
    builder = OpenMPDatasetBuilder(COMET_LAKE_8C, space, seed=variant)
    return builder.build(picked, np.geomspace(1e5, 2e8, INPUTS))


def fit(dataset) -> List[float]:
    from repro.core import MGATuner

    tuner = MGATuner(dataset.arch, dataset.configs, seed=0)
    return tuner.fit(dataset, epochs=EPOCHS)["loss"]


def run(seed: int, seconds: float) -> Dict[str, Any]:
    workdir = common.make_workdir("train")
    try:
        common.prepare_inprocess(workdir)
        variant = reference.variant_of(seed)
        setup_times = []
        for _ in range(SETUPS):
            started = time.perf_counter()
            dataset = build_dataset(variant)
            setup_times.append(time.perf_counter() - started)
        expected = reference.load()["train"][str(variant)]
        fit_times, failed = [], 0
        began = time.perf_counter()
        while len(fit_times) < MIN_FITS or time.perf_counter() - began < seconds:
            started = time.perf_counter()
            losses = fit(dataset)
            fit_times.append(time.perf_counter() - started)
            failed += int(reference.floats(losses) != expected)
    finally:
        common.remove_tree(workdir)
    work = len(dataset) * EPOCHS
    rates = [work / t for t in fit_times]
    tail_label, tail_value = common.tail([1e3 * t for t in fit_times])
    report = {
        "setup_s": common.median(setup_times),
        "latency_p50_ms": 1e3 * common.median(fit_times),
        "latency_tail_ms": tail_value,
        "throughput_per_s": common.median(rates),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    lines = [
        f"setup_s              {report['setup_s']:.4f} s  (median of "
        f"{SETUPS} dataset builds, {len(dataset)} samples)",
        f"train_samples_per_s  {report['throughput_per_s']:.2f} 1/s  "
        f"(median of n={len(fit_times)} fits, {len(dataset)} samples x "
        f"{EPOCHS} epochs)",
        f"fit_p50_ms           {report['latency_p50_ms']:.1f} ms  "
        f"(fit_{tail_label}_ms {tail_value:.1f}, n={len(fit_times)})",
        f"peak_rss_mb          {report['peak_rss_mb']:.1f} MB  "
        f"(benchmark process, in-process program)",
        f"fail_frac            {failed / len(fit_times):.4f}  "
        f"({failed}/{len(fit_times)} loss histories differ from reference, "
        f"variant {variant})",
    ]
    return {"metrics": report, "attempted": len(fit_times), "failed": failed,
            "correct": failed == 0, "lines": lines}
