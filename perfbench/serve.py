"""``serve_unique`` and ``serve_repeat``: open-loop ``tune`` traffic through
``python -m repro.serve router`` -> ``daemon`` (one worker) -> engine.

Set-up publishes a model trained on the first :data:`TRAIN_KERNELS` OpenMP
kernels (not timed), then starts daemon and router until both are ready
with the model preloaded (timed, :data:`SETUPS` times, median).  Traffic
only names the other kernels; one request per kernel warms the per-kernel
feature caches first.  A reference phase runs at the workload's reference
rate for ``--seconds``: it gives the latency percentiles and the requests
served per CPU-second of router, daemon and worker.  The reference rates
keep the stack well below capacity, so that a slower stretch of a shared
host does not turn into a growing queue.  Latency counts the requests
the host left alone: those in flight while the hypervisor stole no more
CPU than during the request at the :data:`QUIET_SHARE` rank
(:class:`common.HostSteal`), which on all but the busiest host means
every request that saw no steal.  The report also gives
the percentiles over every request.  Then a fixed rate
ladder climbs until a rung misses the p99 limit, sheds or errs; the
highest passing rate is reported, not gated, because on a shared two-core
box it moves by a third between runs.  Every answered response must
equal, byte for byte, what an in-process ``InferenceEngine`` over the same
published artifact answers.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from perfbench import common, loadgen

MODEL = "mga"
TRAIN_KERNELS = 16
SETUPS = 3
BYTES_RANGE = (1e5, 2e8)

#: latency counts at least this share of the reference phase's requests,
#: the ones in flight while the host stole least CPU.  A request that saw
#: no stolen tick is as fast as on a quiet host even when a quarter of the
#: CPU is stolen; one that saw a tick or two is not
QUIET_SHARE = 0.25

#: per workload: reference rate, p99 limit and the ladder above it
PROFILES: Dict[str, Dict[str, Any]] = {
    "serve_unique": {"rate": 60.0, "p99_limit_ms": 150.0,
                     "ladder": (150.0, 200.0, 300.0, 400.0),
                     "rung_s": 1.0},
    "serve_repeat": {"rate": 200.0, "p99_limit_ms": 60.0,
                     "ladder": (300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0),
                     "rung_s": 1.0, "hot": 16, "zipf": 1.2},
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def unseen_kernels() -> List[str]:
    from repro.kernels import registry
    return [spec.uid for spec in registry.openmp_kernels()[TRAIN_KERNELS:]]


class Traffic:
    """Seeded request stream of one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = np.random.default_rng([seed, 7])
        self.kernels = unseen_kernels()
        profile = PROFILES[workload]
        #: (kernel, size) pairs of the skewed stream; none for serve_unique
        self.hot: List[Tuple[str, float]] = []
        if workload == "serve_repeat":
            grid = np.geomspace(*BYTES_RANGE, 6)
            picks = self.rng.choice(len(self.kernels) * len(grid),
                                    size=profile["hot"], replace=False)
            self.hot = [(self.kernels[p // len(grid)], float(grid[p % len(grid)]))
                        for p in picks]
            ranks = np.arange(1, len(self.hot) + 1, dtype=float)
            weights = ranks ** -profile["zipf"]
            self.weights = weights / weights.sum()

    def requests(self, count: int) -> List[Dict[str, Any]]:
        if self.workload == "serve_unique":
            # every kernel equally often, sizes spread evenly over the log
            # range: the mix, and with it the tail, does not hinge on the
            # seed, and no two requests are alike
            lo, hi = np.log(BYTES_RANGE[0]), np.log(BYTES_RANGE[1])
            rounds = -(-count // len(self.kernels))
            kernels = np.concatenate([self.rng.permutation(len(self.kernels))
                                      for _ in range(rounds)])[:count]
            strata = (self.rng.permutation(count)
                      + self.rng.uniform(size=count)) / count
            sizes = np.exp(lo + (hi - lo) * strata)
            pairs = [(self.kernels[k], float(b))
                     for k, b in zip(kernels, sizes)]
        else:
            picks = self.rng.choice(len(self.hot), size=count, p=self.weights)
            pairs = [self.hot[p] for p in picks]
        return [{"op": "tune", "model": MODEL, "kernel": kernel,
                 "target_bytes": size} for kernel, size in pairs]

    def schedule(self, rate: float, seconds: float) -> Tuple[list, np.ndarray]:
        count = max(1, int(round(rate * seconds)))
        return self.requests(count), loadgen.poisson_schedule(rate, count,
                                                              self.rng)


def warmup(address: str, seed: int,
           hot: Sequence[Tuple[str, float]] = ()) -> None:
    """One request per unseen kernel, at sizes no measured request uses,
    then one per ``hot`` (kernel, size) pair.

    A long-running daemon has lowered every kernel it serves long ago, and
    one serving a skewed stream has its hot answers memoized, so the
    measured phases start with the per-kernel feature caches and the hot
    set's memo warm.
    """
    rng = np.random.default_rng([seed, 13])
    kernels = unseen_kernels()
    sizes = np.exp(rng.uniform(np.log(BYTES_RANGE[0]), np.log(BYTES_RANGE[1]),
                               size=len(kernels)))
    pairs = [(kernel, float(size)) for kernel, size in zip(kernels, sizes)]
    requests = [{"op": "tune", "model": MODEL, "kernel": kernel,
                 "target_bytes": size} for kernel, size in pairs + list(hot)]
    loadgen.open_loop(address, requests, [0.01 * i for i in range(len(requests))])


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def publish(workdir: str, env: Dict[str, str]) -> str:
    root = os.path.join(workdir, "registry")
    done = common.run_program(
        ["-m", "repro.serve", "publish-demo", "--root", root, "--name", MODEL,
         "--kernels", str(TRAIN_KERNELS), "--inputs", "3", "--epochs", "10",
         "--seed", "0"], workdir, env)
    if done.returncode != 0:
        raise common.BenchError(f"publish-demo failed: {done.stderr[-2000:]}")
    return root


class Stack:
    """Daemon (one worker, model preloaded) behind a router, over TCP.

    Only deployment settings are passed, so that tuning flags can change
    or go without breaking the benchmark.
    """

    def __init__(self, registry_root: str, workdir: str,
                 env: Dict[str, str]):
        started = time.perf_counter()
        self.daemon = common.Server(
            "daemon", ["-m", "repro.serve", "daemon", "--tcp", "127.0.0.1:0",
                       "--root", registry_root, "--workers", "1",
                       "--preload", MODEL], workdir, env)
        self.router = None
        try:
            daemon_addr = self.daemon.wait_ready()["socket"]
            self.router = common.Server(
                "router", ["-m", "repro.serve", "router", "--tcp",
                           "127.0.0.1:0", "--replica", daemon_addr],
                workdir, env)
            self.address = self.router.wait_ready()["listen"]
            self.daemon_address = daemon_addr
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stats(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        router = loadgen.request_once(self.address, {"id": 0, "op": "stats"})
        daemon = loadgen.request_once(self.daemon_address,
                                      {"id": 0, "op": "stats"})
        return router["result"], daemon["result"]

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb() + self.router.peak_rss_mb()

    def cpu_s(self) -> float:
        return self.daemon.cpu_s() + self.router.cpu_s()

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
        self.daemon.stop()


def start_stack(registry_root: str, workdir: str, env: Dict[str, str],
                setups: int) -> Tuple[Stack, List[float]]:
    """Start the stack ``setups`` times; keep the last one running."""
    times: List[float] = []
    for attempt in range(setups):
        stack = Stack(registry_root, workdir, env)
        times.append(stack.setup_s)
        if attempt < setups - 1:
            stack.stop()
    return stack, times


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def reference_answers(registry_root: str,
                      requests: Sequence[Dict[str, Any]]
                      ) -> Dict[str, Dict[str, Any]]:
    """In-process engine answers over the same artifact, keyed by request."""
    from repro.kernels import registry as kernels
    from repro.serve.engine import InferenceEngine
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import resolve_tune_scale, tune_response_fields

    registry = ModelRegistry(registry_root)
    version = registry.latest(MODEL)
    distinct = {}
    for request in requests:
        distinct.setdefault(request_key(request), request)
    keys = list(distinct)
    specs = [kernels.get_kernel(distinct[k]["kernel"]) for k in keys]
    scales = [resolve_tune_scale(spec, None, distinct[k]["target_bytes"])
              for spec, k in zip(specs, keys)]
    with InferenceEngine(registry.load(MODEL, version)) as engine:
        answers = engine.tune_many(list(zip(specs, scales)))
    return {key: tune_response_fields(MODEL, version, distinct[key]["kernel"],
                                      scale, config, counters)
            for key, scale, (config, counters) in zip(keys, scales, answers)}


def matches(served: Dict[str, Any], expected: Dict[str, Any]) -> bool:
    """Byte-equal on every field the in-process response defines; the
    daemon adds only transport fields (latency, worker, batch)."""
    return canonical({key: served.get(key) for key in expected}) \
        == canonical(expected)


def request_key(request: Dict[str, Any]) -> str:
    return f"{request['kernel']}|{request['target_bytes']!r}"


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
class Phase:
    def __init__(self, rate: float, requests, outcomes):
        self.rate = rate
        self.requests = requests
        self.outcomes = outcomes
        self.ok = [o for o in outcomes if o.response is not None
                   and o.response.get("ok")]
        self.latencies = [o.latency_ms for o in self.ok]
        self.shed = sum(1 for o in outcomes if o.response is not None
                        and not o.response.get("ok")
                        and o.response["error"].get("code") == "overloaded")
        self.errors = len(outcomes) - len(self.ok) - self.shed
        self.lateness = [o.lateness_ms for o in outcomes if o.sent is not None]

    def p99(self) -> float:
        return common.quantile(self.latencies, 99.0) if self.latencies \
            else math.inf

    def passes(self, limit_ms: float) -> bool:
        return (not self.shed and not self.errors
                and len(self.ok) == len(self.outcomes)
                and self.p99() <= limit_ms)


def run_phase(address: str, traffic: Traffic, rate: float,
              seconds: float) -> Phase:
    requests, offsets = traffic.schedule(rate, seconds)
    return Phase(rate, requests, loadgen.open_loop(address, requests, offsets))


def quiet_latencies(phase: Phase, steal: common.HostSteal
                    ) -> Tuple[List[float], int, float]:
    """Latencies of the requests the host interfered with least.

    A request's exposure is the CPU ticks stolen while it was in flight.
    Requests exposed no more than the one at the :data:`QUIET_SHARE` rank
    are kept, so ties (a host that steals nothing, or in short bursts)
    keep every request that saw none.  Returns the latencies, the
    exposure limit and the stolen share of CPU ticks over the phase.
    """
    exposure = [steal.between(o.scheduled, o.done)[0] for o in phase.ok]
    limit = sorted(exposure)[max(1, math.ceil(len(exposure) * QUIET_SHARE)) - 1]
    kept = [o.latency_ms for o, ticks in zip(phase.ok, exposure)
            if ticks <= limit]
    stolen, total = steal.between(min(o.scheduled for o in phase.outcomes),
                                  max(o.done for o in phase.ok))
    return kept, limit, stolen / total if total > 0 else 0.0


def excess(phase: Phase, limit_ms: float) -> float:
    """How far a rung is from meeting the limit: < 1 passes.  A rung that
    sheds or errs counts at least ``1 + 10 x`` its failed share."""
    ratio = phase.p99() / limit_ms
    lost = len(phase.outcomes) - len(phase.ok)
    if lost:
        ratio = max(ratio, 1.0 + 10.0 * lost / len(phase.outcomes))
    return ratio


def max_rate(phases: Sequence[Phase], limit_ms: float) -> float:
    """Highest passing rate, interpolated in log excess towards the first
    failing rung so that the figure moves smoothly with capacity."""
    best = phases[0]
    for phase in phases[1:]:
        if phase.passes(limit_ms):
            best = phase
            continue
        lo = math.log(excess(best, limit_ms))
        hi = math.log(excess(phase, limit_ms))
        frac = -lo / (hi - lo) if hi > lo else 0.0
        return best.rate + (phase.rate - best.rate) * min(1.0, max(0.0, frac))
    return best.rate


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    profile = PROFILES[workload]
    workdir = common.make_workdir(workload)
    common.prepare_inprocess(workdir)
    env = common.clean_env(workdir)
    try:
        registry_root = publish(workdir, env)
        stack, setup_times = start_stack(registry_root, workdir, env, SETUPS)
        try:
            traffic = Traffic(workload, seed)
            warmup(stack.address, seed, traffic.hot)
            cpu_before = stack.cpu_s()
            with common.HostSteal() as steal:
                reference = run_phase(stack.address, traffic,
                                      profile["rate"], seconds)
            cpu_s = stack.cpu_s() - cpu_before
            phases = [reference]
            if reference.passes(profile["p99_limit_ms"]):
                for rate in profile["ladder"]:
                    phase = run_phase(stack.address, traffic, rate,
                                      profile["rung_s"])
                    phases.append(phase)
                    if not phase.passes(profile["p99_limit_ms"]):
                        break
            rss = stack.peak_rss_mb()
        finally:
            stack.stop()
        answers = reference_answers(
            registry_root, [r for p in phases for r in p.requests])
    finally:
        common.remove_tree(workdir)

    if cpu_s <= 0:
        raise common.BenchError("no CPU time read for the serving processes")
    mismatched = 0
    for phase in phases:
        for request, outcome in zip(phase.requests, phase.outcomes):
            response = outcome.response
            if response is not None and response.get("ok") and not matches(
                    response["result"], answers[request_key(request)]):
                mismatched += 1
    # the reference phase must be clean; on the ladder, sheds of the rung
    # that crossed capacity are its verdict, not failures
    failed = mismatched + len(reference.outcomes) - len(reference.ok) \
        + sum(p.errors for p in phases[1:])
    attempted = sum(len(p.outcomes) for p in phases)
    lat, exposure, phase_steal = quiet_latencies(reference, steal) \
        if reference.ok else ([], 0, 0.0)
    lat = lat or [math.inf]
    # the percentile is chosen for the quiet share of the scheduled count,
    # so that it is the same on every run
    tail_label, tail_value = common.tail(
        lat, int(len(reference.outcomes) * QUIET_SHARE))
    every = reference.latencies or [math.inf]
    every_label, every_tail = common.tail(every)
    rate = max_rate(phases, profile["p99_limit_ms"])
    capped = phases[-1].rate == profile["ladder"][-1] \
        and phases[-1].passes(profile["p99_limit_ms"])
    lateness = [x for p in phases for x in p.lateness]
    report = {
        "setup_s": common.median(setup_times),
        "latency_p50_ms": common.median(lat),
        "latency_tail_ms": tail_value,
        "throughput_per_s": len(reference.ok) / cpu_s,
        "peak_rss_mb": rss,
    }
    lines = [
        f"setup_s            {report['setup_s']:.4f} s  (median of "
        f"{len(setup_times)} router+daemon start-ups: "
        f"{', '.join(f'{t:.3f}' for t in setup_times)})",
        f"latency_p50_ms     {report['latency_p50_ms']:.3f} ms  "
        f"(n={len(lat)} of {len(reference.outcomes)} at "
        f"{profile['rate']:g} req/s, each in flight while the host stole "
        f"<= {exposure} CPU ticks; host steal {100 * phase_steal:.2f}% over "
        f"the phase)",
        f"latency_{tail_label}_ms {tail_value:.3f} ms  "
        f"(n={len(lat)}, same requests; limit "
        f"{profile['p99_limit_ms']:g} ms)",
        f"latency_all        p50 {common.median(every):.3f} ms, "
        f"{every_label} {every_tail:.3f} ms  (n={len(every)}, every request "
        f"of the phase, not gated)",
        f"req_per_cpu_s      {report['throughput_per_s']:.2f} 1/s  "
        f"({len(reference.ok)} requests, {cpu_s:.2f} CPU-s of router + "
        f"daemon + worker at {profile['rate']:g} req/s)",
        f"max_rate_rps       {'>= ' if capped else ''}{rate:.2f} req/s  "
        f"(ladder: " + ", ".join(
            f"{p.rate:g}->{'ok' if p.passes(profile['p99_limit_ms']) else 'miss'}"
            f"[p99 {p.p99():.1f} ms, n={len(p.outcomes)}, shed {p.shed}]"
            for p in phases) + ")",
        f"peak_rss_mb        {rss:.1f} MB  (router + daemon + worker)",
        f"fail_frac          {failed / attempted:.4f}  ({failed}/{attempted}; "
        f"{mismatched} mismatched vs in-process engine)",
        f"generator          lateness p99 "
        f"{common.quantile(lateness, 99.0):.3f} ms, max {max(lateness):.3f} ms",
    ]
    return {"metrics": report, "attempted": attempted, "failed": failed,
            "correct": mismatched == 0, "lines": lines}
