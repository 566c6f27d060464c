"""``paper_run``: the paper workflow as users run it.

Each pass launches ``python -m repro run fig4`` and then ``table3`` as
fresh processes with fresh ``--cache`` directories and ``--workers 2``;
``run_s`` is the pass's wall time from launch to exit, summed over both.
The overrides sit between the quick and the full profiles; the seed picks
the experiments' ``seed`` parameter.  Passes repeat until ``--seconds``
have passed (at least :data:`MIN_PASSES`).  Set-up is a fresh
``python -m repro list`` process, :data:`SETUPS` times (median).  Every
experiment's ``result`` must hash to the digest recorded in
``reference.json``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Dict, List

from perfbench import common, reference

WORKERS = 2
SETUPS = 3
MIN_PASSES = 3

#: experiment -> fixed ``--set`` overrides (the seed is added per variant)
EXPERIMENTS = {
    "fig4": {"max_kernels": 10, "num_inputs": 4, "folds": 2, "epochs": 6,
             "budget": 6},
    "table3": {"max_kernels": 16, "points_per_kernel": 2, "folds": 2,
               "epochs": 6},
}


def overrides(experiment: str, variant: int) -> Dict[str, Any]:
    return dict(EXPERIMENTS[experiment], seed=variant)


def run_args(experiment: str, variant: int, cache_dir: str) -> List[str]:
    args = ["-m", "repro", "run", experiment, "--workers", str(WORKERS),
            "--cache", cache_dir, "--json"]
    for key, value in overrides(experiment, variant).items():
        args += ["--set", f"{key}={json.dumps(value)}"]
    return args


def run(seed: int, seconds: float) -> Dict[str, Any]:
    variant = reference.variant_of(seed)
    expected = reference.load()["paper_run"][str(variant)]
    workdir = common.make_workdir("paper")
    env = common.clean_env(workdir)
    try:
        setup_times = []
        for _ in range(SETUPS):
            done = common.run_program(["-m", "repro", "list"], workdir, env)
            if done.returncode != 0:
                raise common.BenchError(f"`repro list` failed: "
                                        f"{done.stderr[-2000:]}")
            setup_times.append(done.wall_s)
        passes, rss, stage_s = [], [], defaultdict(list)
        attempted = failed = 0
        began = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
            wall = 0.0
            for experiment in EXPERIMENTS:
                cache_dir = os.path.join(workdir, f"cache-{attempted}")
                done = common.run_program(
                    run_args(experiment, variant, cache_dir), workdir, env)
                attempted += 1
                wall += done.wall_s
                rss.append(done.maxrss_mb)
                if done.returncode != 0:
                    failed += 1
                    continue
                document = json.loads(done.stdout)
                for stage in document["stages"]:
                    stage_s[f"{experiment}.{stage['name']}"].append(
                        stage["seconds"])
                failed += int(reference.digest(document["result"])
                              != expected[experiment])
                common.remove_tree(cache_dir)
            passes.append(wall)
    finally:
        common.remove_tree(workdir)
    tail_label, tail_value = common.tail(passes)
    run_s = common.median(passes)
    report = {
        "setup_s": common.median(setup_times),
        "latency_p50_ms": 1e3 * run_s,
        "latency_tail_ms": 1e3 * tail_value,
        "throughput_per_s": len(EXPERIMENTS) / run_s,
        "peak_rss_mb": max(rss),
    }
    lines = [
        f"setup_s          {report['setup_s']:.4f} s  (median of {SETUPS} "
        f"fresh `python -m repro list` processes)",
        f"run_s            {run_s:.4f} s  (median of n={len(passes)} passes "
        f"of {' + '.join(EXPERIMENTS)}; {tail_label} {tail_value:.4f} s)",
        f"experiments/s    {report['throughput_per_s']:.4f} 1/s",
        f"peak_rss_mb      {report['peak_rss_mb']:.1f} MB  (largest process "
        f"of any run, pool workers included)",
        f"fail_frac        {failed / attempted:.4f}  ({failed}/{attempted} "
        f"runs failed or differ from reference, variant {variant})",
    ] + [f"stage {name:<20} {common.median(values):.4f} s  (median, "
         f"n={len(values)})" for name, values in sorted(stage_s.items())]
    return {"metrics": report, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "lines": lines}
