"""The traced run: every per-layer metric, taken from outside the program.

:class:`~perfbench.trace.Tracer` wraps the public entry points of each
layer (see :func:`instrument`); counters come from what the program
already exposes (daemon and router ``stats``, ``InferenceEngine.stats()``,
``TapeRunner`` counters, the stage list ``run_experiment`` returns).  One
traced run covers every layer on compact versions of the workloads' seeded
inputs:

* live router + daemon on the ``serve_repeat`` stream (request path);
* in-process ``InferenceEngine`` replays of the ``serve_unique`` and
  ``serve_repeat`` streams, and ``MGAModel.predict`` at batch 1 and 32;
* one ``MGATuner.fit`` on the ``train`` dataset;
* in-process ``run_experiment`` of ``fig4`` and ``table3`` (one worker, so
  every search session runs where the wrappers are), plus one fresh
  ``python -m repro list`` process.

Tracing overhead is the selected workload's in-process section, warm from
the traced sweep, timed once untraced and once traced again.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench import common, paper, reference, serve, train
from perfbench.trace import Tracer

#: name -> (unit, better); the order is the report's
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # request path, live processes, serve_repeat stream
    "daemon.p50_ms": ("ms", "lower"),
    "router.p50_ms": ("ms", "lower"),
    "router.hop_ms": ("ms", "lower"),
    "client.hop_ms": ("ms", "lower"),
    "daemon.overhead_ms": ("ms", "lower"),
    "daemon.batch_mean": ("count", "higher"),
    "daemon.shed": ("count", "lower"),
    "daemon.retried": ("count", "lower"),
    "protocol.codec_us": ("us", "lower"),
    # engine caches, in-process serve_repeat replay
    "engine.result_hit_rate": ("ratio", "higher"),
    "engine.feature_hit_rate": ("ratio", "higher"),
    "engine.batch_cache_hit_rate": ("ratio", "higher"),
    # model compute, in-process serve_unique replay
    "papi.profile_ms": ("ms", "lower"),
    "features.extract_ms": ("ms", "lower"),
    "features.extract_misses": ("count", "lower"),
    "graphs.batch_graphs_ms": ("ms", "lower"),
    "mga.predict_ms.b1": ("ms", "lower"),
    "mga.predict_ms.bmax": ("ms", "lower"),
    "engine.tune_ms": ("ms", "lower"),
    # training
    "datasets.build_s": ("s", "lower"),
    "dae.fit_s": ("s", "lower"),
    "tape.record_ms": ("ms", "lower"),
    "tape.replay_ms": ("ms", "lower"),
    "tape.replay_share": ("ratio", "higher"),
    "tape.guard_failures": ("count", "lower"),
    "optim.step_ms": ("ms", "lower"),
    "graphs.batch_cache_get_ms": ("ms", "lower"),
    # paper workflow
    "pipeline.startup_s": ("s", "lower"),
    "pipeline.stage_s.fig4.dataset": ("s", "lower"),
    "pipeline.stage_s.fig4.search": ("s", "lower"),
    "pipeline.stage_s.fig4.dl": ("s", "lower"),
    "pipeline.stage_s.fig4.report": ("s", "lower"),
    "pipeline.stage_s.table3.datasets": ("s", "lower"),
    "pipeline.stage_s.table3.evaluate": ("s", "lower"),
    "pipeline.stage_s.table3.report": ("s", "lower"),
    "tuners.sessions_s": ("s", "lower"),
    "tuners.evals": ("count", "lower"),
    "tuners.ask_ms": ("ms", "lower"),
    "tuners.tell_ms": ("ms", "lower"),
    "core.fit_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    # tracing itself
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: layer -> the end-to-end metric and workload it should move
LAYER_MAP = {
    "papi, features, graphs.batch_graphs, mga.predict, engine.tune":
        "serve_unique latency_p50_ms and throughput_per_s (requests per "
        "CPU-second) and its max rate; serve_repeat unchanged",
    "daemon, router, client hop, protocol, engine hit rates":
        "serve_repeat latency_p50_ms, throughput_per_s and max rate; "
        "serve_unique little",
    "dae, tape, optim, graphs.batch_cache_get":
        "train throughput_per_s, then paper_run latency_p50_ms (run_s); "
        "no serve_* metric",
    "datasets.build": "train setup_s and paper_run run_s",
    "pipeline, tuners, core.fit, cache.store":
        "paper_run run_s; pipeline.startup_s also serve_* setup_s",
}

UNIQUE_REPLAY = 150
PREDICT_BATCH = 32
REPEAT_RATE = 300.0
REPEAT_SECONDS = 3.0


# ----------------------------------------------------------------------
def instrument(tracer: Tracer) -> Dict[str, list]:
    """Wrap every layer's public entry points; returns captured objects."""
    import repro.core.features as features
    import repro.core.mga as mga
    import repro.core.tuner as core_tuner
    import repro.dae.model as dae
    import repro.datasets as datasets
    import repro.graphs.hetero as hetero
    import repro.nn.optim as optim
    import repro.nn.tape as tape
    import repro.pipeline.cache as cache
    import repro.pipeline.stages  # noqa: F401  (binds run_search_sessions)
    import repro.profiling.papi as papi
    import repro.serve.engine  # noqa: F401  (binds batch_graphs)
    import repro.tuners.base as tuners_base
    import repro.tuners.campaign as campaign

    captured: Dict[str, list] = {"runners": [], "evals": []}
    tracer.instrument(papi.PAPIProfiler, "profile", "papi.profile")
    tracer.instrument(features.StaticFeatureExtractor, "extract",
                      "features.extract")
    tracer.instrument(features, "lower_to_ir", "frontend.lower")
    tracer.instrument(hetero, "batch_graphs", "graphs.batch_graphs")
    tracer.instrument(hetero.GraphBatchCache, "get",
                      "graphs.batch_cache_get")
    tracer.instrument(mga.MGAModel, "predict", "mga.predict",
                      inspect=lambda self, graphs, *a, **k: len(graphs))
    tracer.instrument(dae.DenoisingAutoencoder, "fit", "dae.fit")
    tracer.instrument(tape.TapePlan, "replay", "tape.replay")
    tracer.instrument(tape, "compile_plan", "tape.compile_plan")
    tracer.instrument(
        tape.TapeRunner, "step", "tape.step",
        inspect=lambda self, *a, **k: _capture(captured["runners"], self))
    for cls in _hierarchy(optim.Optimizer):
        if "step" in vars(cls):
            tracer.instrument(cls, "step", "optim.step")
    for cls in (core_tuner.MGATuner, core_tuner.DeviceMapper):
        tracer.instrument(cls, "fit", "core.fit")
    for cls in (datasets.OpenMPDatasetBuilder, datasets.DevMapDatasetBuilder):
        tracer.instrument(cls, "build", "datasets.build")
    tracer.instrument(cache.StageCache, "store", "cache.store")
    for cls in _hierarchy(tuners_base.BlackBoxTuner):
        for attr in ("ask", "tell"):
            if attr in vars(cls):
                tracer.instrument(cls, attr, f"tuners.{attr}")

    tracer.instrument(
        campaign, "run_search_sessions", "tuners.sessions",
        after=lambda outcomes: captured["evals"].extend(
            o.evaluations for o in outcomes))
    return captured


def _capture(bucket: list, obj) -> None:
    if not any(obj is seen for seen in bucket):
        bucket.append(obj)


def _hierarchy(base) -> list:
    out, frontier = [], [base]
    while frontier:
        cls = frontier.pop()
        out.append(cls)
        frontier.extend(cls.__subclasses__())
    return out


def _outer(tracer: Tracer, name: str, mark: int = 0) -> list:
    """Spans of ``name`` since ``mark`` not nested in one of the same name."""
    spans = tracer.spans
    return [s for s in spans[mark:] if s.name == name and s.end is not None
            and (s.parent is None or spans[s.parent].name != name)]


def _median_ms(spans) -> float:
    """Median span in ms; 0 when the layer did no work."""
    return 1e3 * common.median([s.seconds for s in spans]) if spans else 0.0


def _stat(document: Dict[str, Any], *path: str) -> float:
    """A number from a ``stats`` document; 0 when the program lacks it."""
    for key in path:
        document = document.get(key) if isinstance(document, dict) else None
    return float(document) if isinstance(document, (int, float)) else 0.0


def _total_s(spans) -> float:
    return sum(s.seconds for s in spans)


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _engine(registry_root: str):
    from repro.serve.engine import InferenceEngine
    from repro.serve.registry import ModelRegistry
    registry = ModelRegistry(registry_root)
    return InferenceEngine(registry.load(serve.MODEL))


def _specs_scales(requests):
    from repro.kernels import registry as kernels
    from repro.serve.service import resolve_tune_scale
    specs = [kernels.get_kernel(r["kernel"]) for r in requests]
    return [(spec, resolve_tune_scale(spec, None, r["target_bytes"]))
            for spec, r in zip(specs, requests)]


def _sequential_replay(ctx: "Context", requests):
    """Per-request ``InferenceEngine.tune`` wall times (s), one at a time,
    and the engine's own counters."""
    pairs = _specs_scales(requests)
    times = []
    with _engine(ctx.registry_root) as engine:
        for index, (spec, scale) in enumerate(pairs):
            with ctx.tracer.request(index):
                started = time.perf_counter()
                engine.tune(spec, scale)
                times.append(time.perf_counter() - started)
        stats = engine.stats()
    return times, stats


class Context:
    """What the sections share: inputs, tracer and the metrics so far."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.env = common.clean_env(workdir)
        self.tracer = Tracer()
        self.captured: Dict[str, list] = {"runners": [], "evals": []}
        self.out: Dict[str, float] = {}
        self.lines: List[str] = []
        self.registry_root = ""
        self.repeat_requests: list = []

    def fork(self) -> "Context":
        """Same inputs, fresh tracer and metrics."""
        other = Context(self.seed, self.workdir)
        other.registry_root = self.registry_root
        other.repeat_requests = self.repeat_requests
        other.out = dict(self.out)
        return other

    def since(self, mark: int, name: str) -> list:
        return [s for s in self.tracer.spans[mark:] if s.name == name]


def live_request_path(ctx: Context) -> int:
    """Router + daemon on the serve_repeat stream; returns failures."""
    from repro.serve.protocol import decode_frame, encode_frame, ok_response

    stack, _ = serve.start_stack(ctx.registry_root, ctx.workdir, ctx.env,
                                 setups=1)
    try:
        traffic = serve.Traffic("serve_repeat", ctx.seed)
        serve.warmup(stack.address, ctx.seed, traffic.hot)
        phase = serve.run_phase(stack.address, traffic, REPEAT_RATE,
                                REPEAT_SECONDS)
        router_stats, daemon_stats = stack.stats()
    finally:
        stack.stop()
    ctx.repeat_requests = phase.requests
    out = ctx.out
    client_p50 = common.median(phase.latencies)
    out["daemon.p50_ms"] = _stat(daemon_stats, "latency_ms", "p50")
    out["router.p50_ms"] = _stat(router_stats, "latency_ms", "p50")
    out["router.hop_ms"] = out["router.p50_ms"] - out["daemon.p50_ms"]
    out["client.hop_ms"] = client_p50 - out["router.p50_ms"]
    out["daemon.batch_mean"] = _stat(daemon_stats, "batches", "mean_size")
    out["daemon.shed"] = _stat(daemon_stats, "requests", "shed")
    out["daemon.retried"] = _stat(daemon_stats, "requests", "retried")
    codec = []
    for outcome in phase.ok[:500]:
        document = ok_response(outcome.response["id"],
                               outcome.response["result"])
        started = time.perf_counter()
        decode_frame(encode_frame(document))
        codec.append(time.perf_counter() - started)
    out["protocol.codec_us"] = 1e6 * common.median(codec)
    ctx.lines.append(
        f"request path: client p50 {client_p50:.3f} ms over "
        f"n={len(phase.latencies)} at {REPEAT_RATE:g} req/s; router "
        f"n={_stat(router_stats, 'latency_ms', 'count'):g}, daemon "
        f"n={_stat(daemon_stats, 'latency_ms', 'count'):g}")
    return len(phase.outcomes) - len(phase.ok)


def engine_repeat(ctx: Context, traced: bool) -> Tuple[float, int]:
    times, stats = _sequential_replay(ctx, ctx.repeat_requests)
    if traced:
        out = ctx.out
        out["engine.result_hit_rate"] = _stat(stats, "result_cache_hit_rate")
        out["engine.feature_hit_rate"] = _stat(stats, "cache_hit_rate")
        out["engine.batch_cache_hit_rate"] = _stat(stats,
                                                   "batch_cache_hit_rate")
        p50 = 1e3 * common.median(times)
        out["daemon.overhead_ms"] = out["daemon.p50_ms"] - p50
        ctx.lines.append(f"engine, repeat stream: tune p50 {p50:.4f} ms, "
                         f"n={len(times)}")
    return sum(times), 0


def engine_unique(ctx: Context, traced: bool) -> Tuple[float, int]:
    requests = serve.Traffic("serve_unique", ctx.seed).requests(UNIQUE_REPLAY)
    mark = len(ctx.tracer.spans)
    times, _ = _sequential_replay(ctx, requests)
    if not traced:
        return sum(times), 0
    out = ctx.out
    kids = ctx.tracer.children()
    misses = [s for s in ctx.since(mark, "features.extract")
              if any(k.name == "frontend.lower" for k in kids.get(s.index, ()))]
    out["papi.profile_ms"] = _median_ms(ctx.since(mark, "papi.profile"))
    out["features.extract_ms"] = _median_ms(misses)
    out["features.extract_misses"] = len(misses)
    out["graphs.batch_graphs_ms"] = _median_ms(
        ctx.since(mark, "graphs.batch_graphs"))
    out["engine.tune_ms"] = 1e3 * common.median(times)

    # MGAModel.predict at batch 1 and at the engine's default max batch,
    # on the features the engine builds
    from repro.frontend.openmp import default_omp_config
    from repro.profiling import PAPIProfiler
    from repro.serve.registry import ModelRegistry
    tuner = ModelRegistry(ctx.registry_root).load(serve.MODEL)
    profiler = PAPIProfiler(tuner.arch)
    graphs, vectors, extras = [], [], []
    for spec, scale in _specs_scales(requests[:PREDICT_BATCH]):
        record = profiler.profile(spec, scale=scale,
                                  config=default_omp_config(tuner.arch.cores),
                                  events=tuner.counter_names)
        graph, vector = tuner.extractor.extract(spec)
        graphs.append(graph)
        vectors.append(vector)
        extras.append([record.counters[n] for n in tuner.counter_names])
    vectors, extras = np.stack(vectors), np.asarray(extras)
    mark = len(ctx.tracer.spans)
    for i in range(PREDICT_BATCH):
        tuner.model.predict(graphs[i:i + 1], vectors[i:i + 1],
                            extras[i:i + 1])
    for _ in range(5):
        tuner.model.predict(graphs, vectors, extras)
    predicts = ctx.since(mark, "mga.predict")
    out["mga.predict_ms.b1"] = _median_ms([s for s in predicts
                                           if s.size == 1])
    out["mga.predict_ms.bmax"] = _median_ms(
        [s for s in predicts if s.size == PREDICT_BATCH]) / PREDICT_BATCH
    ctx.lines.append(f"engine, unique stream: n={len(times)} sequential "
                     f"requests; predict b1 n={PREDICT_BATCH}, "
                     f"b{PREDICT_BATCH} n=5")
    return sum(times), 0


def training(ctx: Context, traced: bool) -> Tuple[float, int]:
    variant = reference.variant_of(ctx.seed)
    mark = len(ctx.tracer.spans)
    dataset = train.build_dataset(variant)
    started = time.perf_counter()
    losses = train.fit(dataset)
    elapsed = time.perf_counter() - started
    failed = int(reference.floats(losses)
                 != reference.load()["train"][str(variant)])
    if not traced:
        return elapsed, failed
    out = ctx.out
    kids = ctx.tracer.children()
    steps = ctx.since(mark, "tape.step")
    records = [s for s in steps if any(k.name == "tape.compile_plan"
                                       for k in kids.get(s.index, ()))]
    out["datasets.build_s"] = _total_s(ctx.since(mark, "datasets.build"))
    out["dae.fit_s"] = _total_s(ctx.since(mark, "dae.fit"))
    out["tape.record_ms"] = _median_ms(records)
    out["tape.replay_ms"] = _median_ms(ctx.since(mark, "tape.replay"))
    runners = ctx.captured["runners"]
    counts = {name: sum(getattr(r, name, 0) for r in runners)
              for name in ("replays", "records", "eager_steps",
                           "guard_failures")}
    replays = counts["replays"]
    out["tape.replay_share"] = replays / max(
        1, replays + counts["records"] + counts["eager_steps"])
    out["tape.guard_failures"] = counts["guard_failures"]
    out["optim.step_ms"] = _median_ms(ctx.since(mark, "optim.step"))
    out["graphs.batch_cache_get_ms"] = _median_ms(
        ctx.since(mark, "graphs.batch_cache_get"))
    ctx.lines.append(f"train: {len(dataset)} samples x {train.EPOCHS} "
                     f"epochs, {len(steps)} steps ({replays} replays), fit "
                     f"{elapsed:.3f} s traced")
    return elapsed, failed


def workflow(ctx: Context, traced: bool) -> Tuple[float, int]:
    from repro.pipeline.codec import to_jsonable
    from repro.pipeline.runner import run_experiment

    variant = reference.variant_of(ctx.seed)
    expected = reference.load()["paper_run"][str(variant)]
    mark = len(ctx.tracer.spans)
    evals_mark = len(ctx.captured["evals"])
    failed, elapsed = 0, 0.0
    for experiment in paper.EXPERIMENTS:
        cache_dir = os.path.join(ctx.workdir, f"cache-{experiment}-{traced}")
        started = time.perf_counter()
        result = run_experiment(experiment,
                                overrides=paper.overrides(experiment, variant),
                                workers=1, cache_dir=cache_dir)
        elapsed += time.perf_counter() - started
        common.remove_tree(cache_dir)
        failed += int(reference.digest(to_jsonable(result.result))
                      != expected[experiment])
        if traced:
            for stage in result.stages:
                ctx.out[f"pipeline.stage_s.{experiment}.{stage.name}"] = \
                    stage.seconds
    if not traced:
        return elapsed, failed
    out = ctx.out
    asks = _outer(ctx.tracer, "tuners.ask", mark)
    out["tuners.sessions_s"] = _total_s(
        _outer(ctx.tracer, "tuners.sessions", mark))
    out["tuners.evals"] = sum(ctx.captured["evals"][evals_mark:])
    out["tuners.ask_ms"] = _median_ms(asks)
    out["tuners.tell_ms"] = _median_ms(_outer(ctx.tracer, "tuners.tell", mark))
    out["core.fit_s"] = _total_s(_outer(ctx.tracer, "core.fit", mark))
    out["cache.store_s"] = _total_s(_outer(ctx.tracer, "cache.store", mark))
    startup = common.run_program(["-m", "repro", "list"], ctx.workdir,
                                 ctx.env)
    out["pipeline.startup_s"] = startup.wall_s
    ctx.lines.append(f"workflow: fig4 + table3 in-process at workers=1, "
                     f"{elapsed:.3f} s traced; {len(asks)} asks")
    return elapsed, failed


#: workload -> the in-process section that stands in for it
SECTIONS = {"serve_unique": engine_unique, "serve_repeat": engine_repeat,
            "train": training, "paper_run": workflow}


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    workdir = common.make_workdir(f"trace-{workload}")
    common.prepare_inprocess(workdir)
    ctx = Context(seed, workdir)
    try:
        ctx.registry_root = serve.publish(workdir, ctx.env)
        failed = live_request_path(ctx)
        # live requests, plus the checked fit and experiment results
        attempted = len(ctx.repeat_requests) + 1 + len(paper.EXPERIMENTS)
        ctx.captured = instrument(ctx.tracer)
        try:
            for section in SECTIONS.values():
                failed += section(ctx, True)[1]
        finally:
            ctx.tracer.uninstall()
        # overhead: the selected workload's section, warm from the sweep,
        # once untraced and once traced into a throwaway context
        untraced, _ = SECTIONS[workload](ctx, False)
        probe = ctx.fork()
        probe.captured = instrument(probe.tracer)
        try:
            traced, _ = SECTIONS[workload](probe, True)
        finally:
            probe.tracer.uninstall()
    finally:
        common.remove_tree(workdir)
    out, lines = ctx.out, ctx.lines
    out["trace.untraced_s"] = untraced
    out["trace.traced_s"] = traced
    out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    lines.append(f"tracing overhead on {workload}'s in-process core: "
                 f"{untraced:.4f} s untraced, {traced:.4f} s traced "
                 f"({out['trace.overhead_pct']:+.2f}%), "
                 f"{len(ctx.tracer.spans)} spans")
    trace_path = os.path.join(common.WORK_ROOT,
                              f"trace-{workload}-{seed}.jsonl")
    ctx.tracer.dump(trace_path)
    lines.append(f"spans written to "
                 f"{os.path.relpath(trace_path, common.ROOT)}")
    if ctx.tracer.missing:
        lines.append("entry points not found (their metrics read 0): "
                     + ", ".join(ctx.tracer.missing))
    self_time = sorted(ctx.tracer.self_seconds().items(),
                       key=lambda kv: -kv[1])
    lines += [f"self {name:<28} {sec:9.4f} s" for name, sec in self_time[:12]]
    for name, (unit, _) in PER_LAYER.items():
        lines.append(f"{name:<34} {out[name]:.6g} {unit}")
    lines += [f"map: {layer} -> {target}" for layer, target
              in LAYER_MAP.items()]
    metrics = {name: (float(out[name]), unit)
               for name, (unit, _) in PER_LAYER.items()}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "lines": lines}
