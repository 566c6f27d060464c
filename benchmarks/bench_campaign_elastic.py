"""Elastic fleet campaigns under a standard fault plan vs the serial loop.

Runs the same random-search campaign twice: once serially in-process
(``workers=1`` semantics) and once through
:class:`repro.serve.fleet.CampaignCoordinator` with subprocess workers
evaluating leases over the serve transport — while a **standard fault
plan** drops, duplicates, and delays frames, stalls heartbeats, and
SIGKILLs each worker partway through its work.  A second wave of workers
joins mid-campaign (elastic join) and the coordinator's local fallback
backstops termination.

The gate metric is the one the fleet layer exists to protect, and it is
binary: ``elastic_history_identical`` is 1.0 iff the faulted elastic
history is byte-identical to the serial one.  Wall-clock numbers are
reported for context but do not gate (fault injection makes them noisy by
design).

Writes ``BENCH_campaign_elastic.json`` at the repository root.  Run
directly (``python benchmarks/bench_campaign_elastic.py [--quick]``).
"""

import argparse
import json
import multiprocessing
import os
import tempfile
import time
import uuid

from repro.serve.faults import FaultPlan
from repro.serve.fleet import CampaignCoordinator, run_worker
from repro.simulator.microarch import SKYLAKE_4114
from repro.tuners import (
    RandomSearchTuner,
    SimObjectiveSpec,
    TuningCampaign,
    full_search_space,
)

from _harness import write_bench_json

#: same occupancy model as bench_campaign_scaling: every evaluation holds
#: ~30 ms of wall time, so worker overlap (and fault recovery) dominates
WALLTIME_SCALE = 20.0
WALLTIME_CAP = 0.030

#: the standard fault plan (seed pinned via REPRO_FAULT_SEED in CI)
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "1234"))

_FORK = multiprocessing.get_context("fork")


def _campaign(budget: int, batch_size: int) -> TuningCampaign:
    space = full_search_space(max_threads=SKYLAKE_4114.max_threads)
    spec = SimObjectiveSpec(kernel_uid="polybench/gemm", arch=SKYLAKE_4114,
                            scale=1.0, seed=99, repeats=1,
                            walltime_scale=WALLTIME_SCALE,
                            walltime_cap=WALLTIME_CAP)
    return TuningCampaign(RandomSearchTuner(budget=budget, seed=11),
                          space, spec, batch_size=batch_size)


def _spawn_wave(address: str, count: int, plan: FaultPlan,
                offset: int) -> list:
    procs = []
    for index in range(count):
        proc = _FORK.Process(
            target=run_worker, args=(address,),
            kwargs=dict(worker_id=f"bench{offset + index}",
                        fault_plan=plan,
                        fault_seed_offset=offset + index + 1,
                        max_configs=2, request_timeout=2.0,
                        retries=10, backoff_base=0.02),
            daemon=True)
        proc.start()
        procs.append(proc)
    return procs


def _elastic_run(budget: int, batch_size: int, workers: int,
                 plan: FaultPlan) -> tuple:
    address = os.path.join(tempfile.gettempdir(),
                           f"repro-elastic-{uuid.uuid4().hex[:10]}.sock")
    campaign = _campaign(budget, batch_size)
    started = time.perf_counter()
    with CampaignCoordinator(campaign, address, lease_timeout=0.5,
                             local_fallback_s=1.0,
                             max_lease_configs=4) as coordinator:
        first = _spawn_wave(coordinator.address, workers, plan, offset=0)
        # elastic join: a second wave arrives after the first wave has
        # started dying to its kill_after schedule
        time.sleep(0.5)
        second = _spawn_wave(coordinator.address, workers, plan,
                             offset=workers)
        result = coordinator.run()
        wall = time.perf_counter() - started
        for proc in first + second:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
    return result, wall, coordinator.stats()


def run(budget: int = 48, batch_size: int = 8, workers: int = 3) -> dict:
    plan = FaultPlan(drop=0.15, dup=0.15, delay_ms=10.0, kill_after=5,
                     stall_after=2, stall_for=0.6, seed=FAULT_SEED)
    serial_campaign = _campaign(budget, batch_size)
    serial_start = time.perf_counter()
    serial = serial_campaign.run()
    serial_wall = time.perf_counter() - serial_start

    elastic, elastic_wall, stats = _elastic_run(budget, batch_size,
                                                workers, plan)
    identical = elastic.history == serial.history
    return {
        "objective": {"kernel": "polybench/gemm", "arch": SKYLAKE_4114.name,
                      "walltime_scale": WALLTIME_SCALE,
                      "walltime_cap_s": WALLTIME_CAP},
        "budget": budget,
        "batch_size": batch_size,
        "workers_per_wave": workers,
        "fault_plan": plan.to_spec(),
        "serial": {"wall_s": serial_wall},
        "elastic": {
            "wall_s": elastic_wall,
            "speedup_vs_serial": serial_wall / elastic_wall,
            "leases": stats["leases"],
            "submissions": stats["submissions"],
            "local_evaluations": stats["local_evaluations"],
            "workers_seen": stats["workers"]["seen"],
        },
        "history_identical": identical,
        # binary gate: 1.0 iff the faulted elastic history is byte-identical
        # to serial — stable under the ratio-based regression gate, unlike
        # wall-clock under fault injection
        "gate_metrics": {
            "elastic_history_identical": 1.0 if identical else 0.0,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small budget, 2 workers per wave "
                             "(CI smoke mode)")
    args = parser.parse_args()

    if args.quick:
        payload = run(budget=16, batch_size=4, workers=2)
    else:
        payload = run()
    path = write_bench_json("campaign_elastic", payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}")

    assert payload["history_identical"], (
        "elastic history diverged from serial under the standard fault "
        "plan — the fleet layer lost its exactly-once guarantee")
    print("elastic history identical to serial under "
          f"faults '{payload['fault_plan']}'")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
