"""Model persistence, registry and batched serving for trained tuners.

The serving subsystem takes a trained tuner from "in-memory object" to
"deployable artifact behind a batched service" (the artifacts themselves —
versioned, sha256-checked save/load — live below it, in
:mod:`repro.core.artifacts`):

* :mod:`repro.serve.registry` — :class:`ModelRegistry`, a named + versioned
  model store over a directory tree;
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, the synchronous
  batch core: a batch of requests becomes one
  :meth:`~repro.core.mga.MGAModel.predict` call per ``max_batch_size``
  chunk, with LRU caches of static features and of answers;
* :mod:`repro.serve.service` — :class:`TuningService`, the request/response
  façade with per-model routing and latency/throughput counters;
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, a socket-served
  multi-worker front-end: deadline-aware micro-batching (the one batching
  layer of a daemon request; each batch is one engine call), bounded queues
  with load shedding, a self-healing process pool and drain-on-shutdown;
  serves ``AF_UNIX`` paths or ``tcp://HOST:PORT`` (same protocol);
* :mod:`repro.serve.router` — :class:`ServeRouter`, the multi-host
  distribution layer: consistent-hash sharding by ``(model, version)``
  over health-checked replica groups with fleet-level admission control;
* :mod:`repro.serve.lifecycle` — :class:`LifecycleManager`, the online
  model lifecycle: registry-generation watch, zero-drain hot-swap with
  pin/rollback, shadow deploys with prediction diffing and auto
  promote/abort, and per-route drift aggregation;
* :mod:`repro.serve.drift` — :class:`DriftBaseline` /
  :class:`DriftMonitor`, a streaming input-drift sketch (per-feature
  quantile envelopes + unseen-vocabulary counters) seeded from the
  training set at publish time and scored on live traffic;
* :mod:`repro.serve.loadgen` — open-loop Poisson load generation with
  latency histograms and SLO attainment (:func:`~repro.serve.loadgen.
  open_loop`);
* :mod:`repro.serve.client` — :class:`DaemonClient`, the JSON-line socket
  client mirroring the :class:`TuningService` surface, with opt-in bounded
  retry on transient connect failures and ``overloaded`` sheds;
* :mod:`repro.serve.faults` — injectable :class:`FaultPlan` schedules
  (dropped/delayed/duplicated frames, stalled heartbeats, scheduled worker
  SIGKILL) consulted by the transport and the campaign fleet for chaos
  testing;
* :mod:`repro.serve.fleet` — :class:`CampaignCoordinator` /
  :class:`CampaignWorker`, a :class:`~repro.tuners.campaign.TuningCampaign`
  spread over hosts as fault-tolerant config leases on the same transport;
* ``python -m repro.serve`` — a small CLI to publish, query and serve
  models (``daemon`` / ``router`` / ``request`` / ``loadgen`` talk the
  socket protocol).
"""

from repro.serve.client import DaemonClient, DaemonError
from repro.serve.daemon import ServeDaemon
from repro.serve.drift import DriftBaseline, DriftMonitor, baseline_for
from repro.serve.faults import FaultPlan
from repro.serve.engine import InferenceEngine
from repro.serve.lifecycle import LifecycleManager, ShadowPolicy, SwapError
from repro.serve.loadgen import open_loop
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.router import HashRing, ServeRouter
from repro.serve.service import (
    MapRequest,
    MapResponse,
    TuneRequest,
    TuneResponse,
    TuningService,
)

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "InferenceEngine",
    "ServeDaemon",
    "ServeRouter",
    "HashRing",
    "LifecycleManager",
    "ShadowPolicy",
    "SwapError",
    "DriftBaseline",
    "DriftMonitor",
    "baseline_for",
    "open_loop",
    "DaemonClient",
    "DaemonError",
    "FaultPlan",
    "TuningService",
    "TuneRequest",
    "TuneResponse",
    "MapRequest",
    "MapResponse",
]
