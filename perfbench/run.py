"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads (``BENCHMARK.json`` says why each was chosen):

``paper_run``     ``python -m repro run fig4`` then ``table3``, fresh processes
                  and caches, ``--workers 2`` (:mod:`perfbench.paper`)
``train``         in-process ``MGATuner.fit`` (:mod:`perfbench.train`)
``serve_unique``  open-loop distinct ``tune`` requests through router and
                  daemon (:mod:`perfbench.serve`)
``serve_repeat``  the same path under a Zipf-skewed hot set

End-to-end metrics, the same five on every workload:

``setup_s``           set-up, median of three: a fresh ``python -m repro list``
                      (paper_run), the dataset build (train), router and
                      daemon start until ready, model preloaded (serve_*)
``latency_p50_ms``    median wall time of one unit of work: a fig4 + table3
                      pass, i.e. ``run_s`` (paper_run); one fit (train); one
                      request at the reference rate, timed from its scheduled
                      send, over the requests (at least a quarter) that
                      were in flight while the host stole least CPU (serve_*)
``latency_tail_ms``   the highest percentile of those samples with ten or
                      more beyond it (p95 for serve_unique, p98 for
                      serve_repeat), else their maximum
``throughput_per_s``  experiments per second (paper_run); samples x epochs
                      per second (train); requests per CPU-second of router,
                      daemon and worker at the reference rate (serve_*)
``peak_rss_mb``       largest program process (paper_run); the process that
                      runs the program in-process (train); router, daemon
                      and worker summed (serve_*)

``fail_frac`` is ``failed / attempted`` of the result line.  The serve
workloads also print ``max_rate_rps`` from a fixed rate ladder; it is not
gated because it moves too much between runs on a shared two-core box.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries every per-layer metric, taken by wrapping the
program's public entry points from :mod:`perfbench.layers`, plus the
tracing overhead.  Lines before it are a human-readable report: every
metric with its unit and sample count, the machine, and failures.

Exit status is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("paper_run", "train", "serve_unique", "serve_repeat")

UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(name: str, seed: int, seconds: float):
    if name == "paper_run":
        from perfbench import paper
        return paper.run(seed, seconds)
    if name == "train":
        from perfbench import train
        return train.run(seed, seconds)
    from perfbench import serve
    return serve.run(name, seed, seconds)


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    try:
        common.check_checkout()
        if args.trace:
            from perfbench import layers
            outcome = layers.run(args.workload, args.seed, args.seconds)
            metrics = {name: {"value": float(value), "unit": unit}
                       for name, (value, unit) in outcome["metrics"].items()}
        else:
            outcome = _run_workload(args.workload, args.seed, args.seconds)
            metrics = {name: {"value": float(value), "unit": UNITS[name]}
                       for name, value in outcome["metrics"].items()}
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = common.machine()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={time.perf_counter() - started:.1f}s")
    print("# machine " + json.dumps(info, sort_keys=True))
    for line in outcome["lines"]:
        print(line)
    print(json.dumps({"correct": bool(outcome["correct"]),
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
