"""The serving daemon: protocol, batching, failure paths, CLI, wiring."""

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import MGATuner
from repro.kernels import registry as kernel_registry
from repro.serve import (
    DaemonClient,
    DaemonError,
    InferenceEngine,
    ModelRegistry,
    ServeDaemon,
    TuneRequest,
    TuningService,
)
from repro.serve.daemon import _execute_tune_map
from repro.serve.service import tune_response_fields
from repro.simulator.microarch import COMET_LAKE_8C

TRAIN_KW = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                mlp_hidden=16)


def _socket_path() -> str:
    # AF_UNIX paths are length-limited (~107 bytes); stay in /tmp
    return os.path.join(tempfile.mkdtemp(prefix="repro-daemon-"), "d.sock")


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory, small_openmp_dataset, extractor):
    """A registry with one published (small, fast-trained) OpenMP tuner."""
    ds = small_openmp_dataset
    tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor, seed=0,
                     **TRAIN_KW)
    tuner.fit(ds, epochs=2, dae_epochs=2)
    root = str(tmp_path_factory.mktemp("daemon-registry"))
    ModelRegistry(root).publish("openmp", tuner)
    return root


@pytest.fixture(scope="module")
def serving_daemon(registry_root):
    """One warm daemon shared by the serving tests (module scoped)."""
    path = _socket_path()
    with ServeDaemon(path, registry_root=registry_root, workers=2,
                     max_batch=4, deadline_ms=5.0, max_queue=64,
                     preload=["openmp"]) as daemon:
        yield daemon


# ----------------------------------------------------------------------
class TestDaemonServing:
    def test_concurrent_tunes_byte_identical_to_engine(self, registry_root,
                                                       serving_daemon):
        specs = [kernel_registry.get_kernel(uid)
                 for uid in ("polybench/atax", "polybench/gemm",
                             "rodinia/kmeans")]
        requests = [(spec, scale) for spec in specs
                    for scale in (0.5, 1.0, 2.0)]

        tuner = ModelRegistry(registry_root).load("openmp")
        with InferenceEngine(tuner, max_batch_size=4) as engine:
            reference = [engine.tune(spec, scale)
                         for spec, scale in requests]

        def one(item):
            spec, scale = item
            with DaemonClient(serving_daemon.socket_path) as client:
                return client.request({"op": "tune", "model": "openmp",
                                       "kernel": spec.uid, "scale": scale})

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(one, requests))

        for response, (config, counters) in zip(responses, reference):
            assert response["config_label"] == config.label()
            assert response["num_threads"] == config.num_threads
            assert response["schedule"] == config.schedule.value
            assert response["chunk_size"] == config.chunk_size
            assert response["counters"] == dict(counters)
            assert response["version"] == 1
            assert response["latency_ms"] > 0

        stats = serving_daemon.stats()
        assert stats["per_model"]["openmp"] >= len(requests)
        assert stats["batches"]["count"] >= 1
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0

    def test_tuning_service_forwards_to_daemon(self, serving_daemon):
        with TuningService(daemon=serving_daemon.socket_path) as service:
            response = service.tune(TuneRequest(
                model="openmp", kernel="polybench/atax", target_bytes=32e6))
            assert response.model == "openmp" and response.version == 1
            assert response.config_label.startswith(
                f"t{response.num_threads}/")
            assert response.scale > 0
            stats = service.stats()
        assert stats["requests"] == 1 and stats["errors"] == 0
        assert "daemon" in stats

    def test_request_error_codes(self, serving_daemon):
        with DaemonClient(serving_daemon.socket_path) as client:
            with pytest.raises(DaemonError) as err:
                client.request({"op": "tune", "model": "ghost",
                                "kernel": "polybench/gemm"})
            assert err.value.code == "bad_request"
            with pytest.raises(DaemonError) as err:
                client.request({"op": "tune", "model": "openmp",
                                "kernel": "polybench/gemm",
                                "scale": 1.0, "target_bytes": 1e6})
            assert "target_bytes" in err.value.message
            with pytest.raises(DaemonError) as err:
                client.request({"op": "_sleep", "seconds": 0.01})
            assert "debug ops are disabled" in err.value.message
            # the connection survives every error response
            assert client.ping()


# ----------------------------------------------------------------------
class TestWorkerBatch:
    """A worker's tune/map batch, driven in-process (no daemon)."""

    REQUESTS = [(uid, scale) for uid in ("polybench/atax", "polybench/gemm",
                                         "rodinia/kmeans")
                for scale in (0.5, 2.0)]

    def test_daemon_batch_is_one_engine_batch(self, registry_root):
        requests = [{"op": "tune", "model": "openmp", "kernel": uid,
                     "scale": scale} for uid, scale in self.REQUESTS]
        with TuningService(ModelRegistry(registry_root),
                           max_batch_size=16) as service:
            results, _ = _execute_tune_map(service, requests)
            stats = service.stats()["engines"]["openmp@1"]
        assert all(result["ok"] for result in results)
        assert stats["batches"] == 1
        assert stats["mean_batch_size"] == len(requests)

    def test_bad_requests_fail_alone(self, registry_root):
        good = [{"op": "tune", "model": "openmp", "kernel": uid,
                 "scale": scale} for uid, scale in self.REQUESTS[:2]]
        requests = [
            good[0],
            {"op": "tune", "model": "ghost", "kernel": "polybench/gemm"},
            {"op": "map", "model": "openmp", "kernel": "polybench/gemm",
             "transfer_bytes": 1e6, "wgsize": 64},
            {"op": "tune", "model": "openmp", "kernel": "polybench/gemm",
             "scale": 1.0, "target_bytes": 1e6},
            good[1],
        ]
        with TuningService(ModelRegistry(registry_root)) as service:
            results, _ = _execute_tune_map(service, requests)
        codes = [result["error"]["code"] if not result["ok"] else "ok"
                 for result in results]
        assert codes == ["ok", "bad_request", "bad_request", "bad_request",
                         "ok"]

        tuner = ModelRegistry(registry_root).load("openmp")
        with InferenceEngine(tuner) as engine:
            for result, request in zip((results[0], results[4]), good):
                spec = kernel_registry.get_kernel(request["kernel"])
                reference = tune_response_fields(
                    "openmp", 1, request["kernel"], request["scale"],
                    *engine.tune(spec, request["scale"]))
                assert json.dumps(result["result"], sort_keys=True) == \
                    json.dumps(reference, sort_keys=True)

    def test_feature_and_forward_failures(self, registry_root, monkeypatch):
        good = {"op": "tune", "model": "openmp", "kernel": "polybench/atax",
                "scale": 0.5}
        unprofilable = dict(good, scale=float("nan"))
        with TuningService(ModelRegistry(registry_root)) as service:
            results, _ = _execute_tune_map(service, [good, unprofilable,
                                                     good])
            assert [r["ok"] for r in results] == [True, False, True]
            assert results[1]["error"]["code"] == "bad_request"

            def broken_predict(*args, **kwargs):
                raise RuntimeError("forward failed")
            engine, _ = service.engine("openmp")
            monkeypatch.setattr(engine.predictor.model, "predict",
                                broken_predict)
            cold = dict(good, scale=3.0)
            results, _ = _execute_tune_map(service, [
                cold, {"op": "tune", "model": "ghost",
                       "kernel": "polybench/atax"}, dict(cold, scale=4.0)])
        assert [r["error"]["code"] for r in results] == \
            ["internal", "bad_request", "internal"]
        assert "forward failed" in results[0]["error"]["message"]


# ----------------------------------------------------------------------
class TestDaemonFailurePaths:
    def test_malformed_requests(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=2, deadline_ms=2.0):
            raw = socket.socket(socket.AF_UNIX)
            raw.connect(path)
            raw.sendall(b"not json at all\n")
            response = json.loads(raw.recv(65536).split(b"\n")[0])
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            raw.close()

            with DaemonClient(path) as client:
                for document in ({"op": "nope"}, {"op": "tune"},
                                 {"op": "session"}, {"no_op": True}):
                    with pytest.raises(DaemonError) as err:
                        client.request(document)
                    assert err.value.code == "bad_request"
                assert client.ping()     # daemon is still healthy

    def test_queue_overflow_sheds_with_structured_response(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1, deadline_ms=1.0,
                         max_queue=2, debug_ops=True) as daemon:
            with ThreadPoolExecutor(max_workers=10) as pool:
                busy = pool.submit(
                    lambda: DaemonClient(path).request(
                        {"op": "_sleep", "seconds": 0.8}))
                time.sleep(0.2)          # the sleep is on the worker now

                def try_one():
                    try:
                        DaemonClient(path).request({"op": "_sleep",
                                                    "seconds": 0.01})
                        return "ok"
                    except DaemonError as exc:
                        assert exc.overloaded
                        assert exc.detail.get("queue_depth") >= 2
                        return exc.code
                outcomes = [pool.submit(try_one) for _ in range(6)]
                outcomes = sorted(f.result(timeout=60) for f in outcomes)
                busy.result(timeout=60)
            assert "overloaded" in outcomes          # load was shed...
            assert "ok" in outcomes                  # ...but not all of it
            stats = daemon.stats()
            assert stats["requests"]["shed"] >= 1
            # the daemon serves normally once the backlog clears
            with DaemonClient(path) as client:
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0

    def test_worker_crash_mid_batch_retries_and_heals(self):
        path = _socket_path()
        with ServeDaemon(path, workers=2, max_batch=4, deadline_ms=20.0,
                         max_queue=32, debug_ops=True) as daemon:
            with ThreadPoolExecutor(max_workers=8) as pool:
                def crash():
                    try:
                        DaemonClient(path).request({"op": "_crash"})
                        return "no-error"
                    except DaemonError as exc:
                        return exc.code

                def victim():
                    return DaemonClient(path).request(
                        {"op": "_sleep", "seconds": 0.01})

                crash_future = pool.submit(crash)
                victims = [pool.submit(victim) for _ in range(3)]
                # the crash op fails cleanly, never retried
                assert crash_future.result(timeout=60) == "worker_crashed"
                # co-batched innocents are retried on a healthy worker
                for future in victims:
                    assert future.result(timeout=60)["slept"] == 0.01
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = daemon.stats()
                if stats["workers"]["alive"] == 2:
                    break
                time.sleep(0.05)
            assert stats["workers"]["alive"] == 2    # pool healed
            assert stats["workers"]["restarts"] >= 1
            assert stats["requests"]["retried"] >= 1
            with DaemonClient(path) as client:       # and still serves
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0

    def test_drain_on_shutdown_completes_outstanding_work(self):
        path = _socket_path()
        daemon = ServeDaemon(path, workers=2, max_batch=1, deadline_ms=1.0,
                             max_queue=32, debug_ops=True).start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            slow = [pool.submit(lambda: DaemonClient(path).request(
                {"op": "_sleep", "seconds": 0.3})) for _ in range(5)]
            time.sleep(0.1)
            ack = pool.submit(lambda: DaemonClient(path).shutdown())
            # every queued/in-flight request completes before the stop
            assert [f.result(timeout=60)["slept"] for f in slow] == [0.3] * 5
            assert ack.result(timeout=60) == {"stopped": True}
        assert not os.path.exists(path)              # socket removed
        with pytest.raises(OSError):
            DaemonClient(path).ping()
        # admissions during/after the drain are refused, not queued forever
        daemon.shutdown()                            # idempotent

    def test_new_requests_shed_while_draining(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1, deadline_ms=1.0,
                         max_queue=32, debug_ops=True):
            with ThreadPoolExecutor(max_workers=6) as pool:
                slow = pool.submit(lambda: DaemonClient(path).request(
                    {"op": "_sleep", "seconds": 0.5}))
                time.sleep(0.1)
                ack = pool.submit(lambda: DaemonClient(path).shutdown())
                time.sleep(0.1)
                with pytest.raises((DaemonError, OSError)) as err:
                    DaemonClient(path).request({"op": "_sleep",
                                                "seconds": 0.0})
                if err.type is DaemonError:
                    assert err.value.code == "shutting_down"
                assert slow.result(timeout=60)["slept"] == 0.5
                ack.result(timeout=60)


# ----------------------------------------------------------------------
class TestSessionServing:
    def test_tune_and_map_need_a_registry(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1, deadline_ms=1.0):
            with DaemonClient(path) as client:
                with pytest.raises(DaemonError) as err:
                    client.request({"op": "tune", "model": "any",
                                    "kernel": "polybench/gemm"})
                assert err.value.code == "no_registry"


# ----------------------------------------------------------------------
class TestDaemonCLI:
    def test_daemon_and_request_subcommands(self):
        """`python -m repro.serve daemon` end to end in a fresh process."""
        path = _socket_path()
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon",
             "--socket", path, "--workers", "1", "--max-batch", "2",
             "--deadline-ms", "5"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready = json.loads(daemon.stdout.readline())
            assert ready["ready"] is True and ready["workers"] == 1

            probe = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", path, "--op", "ping"],
                capture_output=True, text=True, env=env, timeout=60)
            assert probe.returncode == 0, probe.stderr
            assert json.loads(probe.stdout)["result"] == {"pong": True}

            stats = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", path, "--op", "stats"],
                capture_output=True, text=True, env=env, timeout=60)
            assert json.loads(stats.stdout)["result"]["workers"]["alive"] == 1

            stop = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", path, "--op", "shutdown"],
                capture_output=True, text=True, env=env, timeout=60)
            assert json.loads(stop.stdout)["result"] == {"stopped": True}
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="reads child pids from Linux procfs")
    def test_workers_exit_after_the_daemon_is_sigkilled(self):
        """Workers of a SIGKILLed daemon must not idle on their queues
        forever: each notices it was orphaned and exits."""
        path = _socket_path()
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon",
             "--socket", path, "--workers", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        workers = []
        try:
            assert json.loads(daemon.stdout.readline())["ready"] is True
            workers = _child_pids(daemon.pid)
            assert len(workers) >= 2
            os.kill(daemon.pid, signal.SIGKILL)
            assert daemon.wait(timeout=10) == -signal.SIGKILL
            deadline = time.monotonic() + 15.0
            while (any(_alive(pid) for pid in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _child_pids(pid: int):
    pids = []
    for children in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(children) as fh:
            pids.extend(int(child) for child in fh.read().split())
    return pids


def _alive(pid: int) -> bool:
    """Running and not a zombie (an orphan's reaper may be slow)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


# ----------------------------------------------------------------------
class TestProtocol:
    def test_validation_rejects_bad_shapes(self):
        from repro.serve.protocol import ProtocolError, validate_request
        for document in ({}, {"op": 3}, {"op": "tune", "model": "m"},
                         {"op": "map", "model": "m", "kernel": "k"},
                         {"op": "session"}):
            with pytest.raises(ProtocolError):
                validate_request(document)
        assert validate_request({"op": "ping", "id": 7}) == (7, "ping")
