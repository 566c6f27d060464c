"""Array-backend seam: parity, accounting, and the runtime config API.

The contract under test, per backend:

* ``numpy`` — the reference.  Every ``xp`` entry is the numpy function
  itself, so routing through the seam is bitwise invisible.
* ``checked`` — numpy plus instrumentation.  Must be bitwise identical to
  ``numpy`` for every autograd primitive, segment op and fused kernel
  (eager *and* replayed), while counting constructions/temporaries and
  asserting the ``out=`` aliasing contract on every routed call.  Steady
  -state tape replay must be allocation-free under its accounting.

Plus ``repro.nn.runtime``: one config surface for dtype and backend whose
every actual change bumps the tape config epoch.
"""

import contextlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from segment_oracle import naive_segment_kernels

from repro.gnn.conv import FusedGRUCell, GATConv, GCNConv, GGNNConv, SAGEConv
from repro.graphs.hetero import EdgeLayout
from repro.nn import (
    MLP,
    TapeRunner,
    Tensor,
    binary_cross_entropy,
    concat,
    config_epoch,
    cross_entropy,
    dropout,
    mse_loss,
    segment_mean,
    segment_sum,
    softmax,
    stack_rows,
)
from repro.nn import backend as B
from repro.nn import runtime
from repro.nn.functional import log_softmax


PARITY_BACKENDS = ["numpy", "checked"]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _eager_and_replay(make_loss, params):
    """Loss + grads eagerly, then replayed; asserts replay ≡ eager bitwise.

    Returns ``(loss, [grads])`` as plain floats/arrays for cross-backend
    comparison.
    """
    for p in params:
        p.grad = None
    loss = make_loss()
    loss.backward()
    eager_loss = float(loss.data)
    eager_grads = [p.grad.copy() for p in params]

    runner = TapeRunner(wrt=params)
    runner.step("k", make_loss)
    replay_loss = runner.step("k", make_loss)
    assert runner.records == 1 and runner.replays == 1
    assert replay_loss == eager_loss
    for p, eg in zip(params, eager_grads):
        np.testing.assert_array_equal(p.grad, eg)
    return eager_loss, eager_grads


def _assert_backend_parity(build):
    """``build() -> (make_loss, params)`` must give bitwise-identical
    losses and gradients (eager and replayed) on every parity backend."""
    results = {}
    for name in PARITY_BACKENDS:
        with runtime.use(backend=name):
            make_loss, params = build()
            results[name] = _eager_and_replay(make_loss, params)
    ref_loss, ref_grads = results["numpy"]
    for name in PARITY_BACKENDS[1:]:
        loss, grads = results[name]
        assert loss == ref_loss, f"{name}: loss diverged from numpy"
        for g, rg in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, rg, err_msg=f"backend {name}")


def _numeric_grad(make_loss, p, eps=1e-6):
    grad = np.zeros_like(p.data)
    flat, gflat = p.data.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(make_loss().data)
        flat[i] = orig - eps
        down = float(make_loss().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def _gradcheck_parity(build, atol=1e-4):
    """Backend parity plus a finite-difference check per backend."""
    _assert_backend_parity(build)
    for name in PARITY_BACKENDS:
        with runtime.use(backend=name):
            make_loss, params = build()
            _eager_and_replay(make_loss, params)
            for p in params:
                numeric = _numeric_grad(make_loss, p)
                np.testing.assert_allclose(
                    p.grad, numeric, atol=atol,
                    err_msg=f"backend {name}: analytic vs numeric")


def _random_edges(rng, num_nodes, num_edges):
    return np.stack([rng.integers(0, num_nodes, num_edges),
                     rng.integers(0, num_nodes, num_edges)]).astype(np.int64)


# ----------------------------------------------------------------------
# per-primitive parity (gradcheck + bitwise replay, both backends)
# ----------------------------------------------------------------------
class TestPrimitiveParity:
    def _xy(self, shape=(3, 4), seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.standard_normal(shape), requires_grad=True),
                Tensor(rng.standard_normal(shape), requires_grad=True))

    def test_arithmetic(self):
        def build():
            x, y = self._xy()
            return (lambda: ((x * y + 2.0) / (y * y + 3.0) + (1.0 - x)
                             - x * 0.5 + (-y) / 2.0).sum(), [x, y])
        _gradcheck_parity(build)

    def test_pow_exp_log(self):
        def build():
            x, _ = self._xy(seed=1)
            return (lambda: ((x * x + 1.0).log() + (x * 0.1).exp()
                             + (x * x) ** 1.5).sum(), [x])
        _gradcheck_parity(build)

    def test_activations(self):
        def build():
            x, _ = self._xy(seed=2)
            return (lambda: (x.relu() + x.sigmoid() + x.tanh()
                             + x.leaky_relu(0.2)).sum(), [x])
        _gradcheck_parity(build)

    def test_matmul_linear(self):
        def build():
            rng = np.random.default_rng(3)
            x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
            b = Tensor(rng.standard_normal(2), requires_grad=True)
            return (lambda: (x.linear(w, b).tanh() + (x @ w)).sum(),
                    [x, w, b])
        _gradcheck_parity(build)

    def test_reductions_and_shape_ops(self):
        def build():
            x, y = self._xy((4, 6), seed=4)
            return (lambda: (concat([x.slice_cols(0, 3), y.slice_cols(3, 6)],
                                    axis=1).reshape(6, 4).T.sum()
                             + x.mean() + x.sum(axis=1).sum()), [x, y])
        _gradcheck_parity(build)

    def test_stack_rows(self):
        def build():
            rng = np.random.default_rng(5)
            rows = [Tensor(rng.standard_normal(4), requires_grad=True)
                    for _ in range(3)]
            return (lambda: (stack_rows(rows) * 2.0).sum(), rows)
        _gradcheck_parity(build)

    def test_losses(self):
        def build():
            rng = np.random.default_rng(6)
            logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            targets = np.array([0, 2, 1, 0, 2])
            probs_t = Tensor(rng.uniform(0.1, 0.9, (5, 1)),
                             requires_grad=True)
            target_p = np.asarray(rng.uniform(size=(5, 1)) > 0.5, dtype=float)
            preds = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
            target_v = rng.standard_normal((5, 2))
            return (lambda: cross_entropy(logits, targets)
                    + softmax(logits).sum() * 0.0
                    + log_softmax(logits).sum() * 0.0
                    + binary_cross_entropy(probs_t.sigmoid(), target_p)
                    + mse_loss(preds, target_v),
                    [logits, probs_t, preds])
        _assert_backend_parity(build)

    @pytest.mark.parametrize("fast", [False, True])
    def test_segment_ops(self, fast):
        """Sorted kernels (``fast``) or the naive ``np.add.at`` oracle."""
        def build():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
            ids = np.array([0, 0, 1, 2, 2, 3, 3, 0], dtype=np.int64)
            return (lambda: (segment_sum(x, ids, 4)
                             + segment_mean(x, ids, 4)).sum(), [x])
        with contextlib.nullcontext() if fast else naive_segment_kernels():
            _gradcheck_parity(build)

    def test_index_select(self):
        def build():
            rng = np.random.default_rng(8)
            x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            idx = np.array([0, 2, 2, 5, 1], dtype=np.int64)
            return (lambda: (x.index_select(idx) * 3.0).sum(), [x])
        _gradcheck_parity(build)

    def test_dropout_rng_alignment(self):
        def build():
            rng = np.random.default_rng(9)
            x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
            mask_rng = np.random.default_rng(33)
            return (lambda: dropout(x, 0.4, mask_rng).sum(), [x])
        # identical seeds -> identical masks -> bitwise parity (replay is
        # covered separately: the captured rng advances per execution, so
        # replayed losses differ from eager by design here)
        results = {}
        for name in PARITY_BACKENDS:
            with runtime.use(backend=name):
                make_loss, params = build()
                loss = make_loss()
                loss.backward()
                results[name] = (float(loss.data), params[0].grad.copy())
        assert results["checked"][0] == results["numpy"][0]
        np.testing.assert_array_equal(results["checked"][1],
                                      results["numpy"][1])

    def test_fused_gru(self):
        def build():
            cell = FusedGRUCell(3, 4, rng=np.random.default_rng(5))
            rng = np.random.default_rng(10)
            x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            h = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
            return (lambda: cell(x, h).sum(), [x, h] + cell.parameters())
        _gradcheck_parity(build, atol=1e-4)

    @pytest.mark.parametrize("conv_cls",
                             [GCNConv, SAGEConv, GATConv, GGNNConv])
    def test_convolutions(self, conv_cls):
        def build():
            rng = np.random.default_rng(42)
            num_nodes, num_edges, dim = 8, 20, 3
            layout = EdgeLayout(_random_edges(rng, num_nodes, num_edges),
                                num_nodes)
            conv = conv_cls(dim, dim, rng=np.random.default_rng(7))
            x = Tensor(rng.standard_normal((num_nodes, dim)),
                       requires_grad=True)
            return (lambda: conv(x, layout).tanh().sum(),
                    [x] + conv.parameters())
        _assert_backend_parity(build)


# ----------------------------------------------------------------------
# checked-backend accounting
# ----------------------------------------------------------------------
class TestCheckedAccounting:
    def test_counters_classify_calls(self):
        chk = B.CheckedBackend()
        ns = chk.ns
        a = np.ones(4)
        out = np.empty(4)
        assert ns["add"](a, a, out=out) is out
        ns["add"](a, a)                      # temp
        ns["zeros"](3)                       # construction
        ns["copyto"](out, a)                 # neutral
        c = chk.counters()
        assert c == {"op_calls": 4, "constructions": 1,
                     "temp_results": 1, "out_calls": 1}
        chk.reset_counters()
        assert chk.counters()["op_calls"] == 0

    def test_out_aliasing_violation_raises(self):
        chk = B.CheckedBackend()

        def rogue(*args, out=None):
            return np.zeros(3)               # ignores its out= buffer
        wrapped = chk._wrap_out_op("rogue", rogue)
        with pytest.raises(AssertionError, match="aliasing"):
            wrapped(np.ones(3), out=np.empty(3))

    def test_tape_replay_is_allocation_free_in_steady_state(self):
        """After warmup, replaying a compiled plan constructs nothing.

        Covers an MLP + mse step and GGNN / GraphSAGE convolution steps
        (fused GRU, mean aggregation, gathers and segment sums, gradients
        into the input too): pooled step buffers, leased VJP outputs and
        the persistent gradient arena mean no backend construction and no
        out-of-place temporary per step.
        """
        def mlp_step():
            rng = np.random.default_rng(0)
            x = Tensor(rng.standard_normal((8, 5)))
            y = rng.standard_normal((8, 3))
            mlp = MLP(5, [6], 3, rng=np.random.default_rng(1))
            return (lambda: mse_loss(mlp(x), y)), mlp.parameters()

        def conv_step(conv_cls):
            rng = np.random.default_rng(2)
            num_nodes, dim = 10, 4
            layout = EdgeLayout(_random_edges(rng, num_nodes, 30), num_nodes)
            conv = conv_cls(dim, dim, rng=np.random.default_rng(7))
            x = Tensor(rng.standard_normal((num_nodes, dim)),
                       requires_grad=True)
            y = rng.standard_normal((num_nodes, dim))
            return ((lambda: mse_loss(conv(x, layout), y)),
                    [x] + conv.parameters())

        with runtime.use(backend="checked"):
            chk = B.active_backend()
            for name, build in (("mlp", mlp_step),
                                ("ggnn", lambda: conv_step(GGNNConv)),
                                ("sage", lambda: conv_step(SAGEConv))):
                make_loss, params = build()
                runner = TapeRunner(wrt=params)
                runner.step("k", make_loss)  # record (eager, allocates)
                runner.step("k", make_loss)  # first replay warms the pool
                chk.reset_counters()
                for _ in range(5):
                    runner.step("k", make_loss)
                assert runner.replays == 6, name
                counters = chk.counters()
                assert counters["constructions"] == 0, (name, counters)
                assert counters["temp_results"] == 0, (name, counters)
                # the plan does real routed work through the seam every step
                assert counters["out_calls"] > 0, (name, counters)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_backends_reports_all_registered(self):
        avail = B.available_backends()
        assert avail["numpy"] is True
        assert avail["checked"] is True
        assert set(avail) >= {"numpy", "checked"}

    def test_unknown_backend_is_a_keyerror(self):
        with pytest.raises(KeyError, match="unknown array backend"):
            B.get_backend("tpu")
        with pytest.raises(KeyError):
            runtime.configure(backend="tpu")

    def test_numpy_namespace_is_numpy_itself(self):
        ns = B.get_backend("numpy").namespace()
        assert ns["add"] is np.add
        assert ns["matmul"] is np.matmul
        assert ns["ndarray"] is np.ndarray

    def test_namespace_covers_the_full_contract(self):
        for name in ("numpy", "checked"):
            ns = B.get_backend(name).namespace()
            missing = [op for op in B.ALL_NAMES if op not in ns]
            assert not missing, (name, missing)

    def test_env_var_selects_initial_backend(self):
        # the module read REPRO_BACKEND at import; default is numpy unless
        # CI exported something else
        import os
        expected = os.environ.get("REPRO_BACKEND", "numpy")
        initial = B.active_backend_name()
        assert initial in B.available_backends()
        assert runtime.config().backend == initial == expected


# ----------------------------------------------------------------------
# runtime config API
# ----------------------------------------------------------------------
class TestRuntimeAPI:
    def test_configure_and_snapshot(self):
        before = runtime.config()
        snap = runtime.configure(default_dtype="float32")
        try:
            assert snap.default_dtype == np.dtype(np.float32)
            assert runtime.config() == snap
        finally:
            runtime.configure(default_dtype=before.default_dtype)

    def test_epoch_bumps_only_on_actual_change(self):
        before = runtime.config()
        try:
            e0 = config_epoch()
            runtime.configure(default_dtype=before.default_dtype)  # no-op
            assert config_epoch() == e0
            other = ("float32" if before.default_dtype == np.float64
                     else "float64")
            runtime.configure(default_dtype=other)
            assert config_epoch() == e0 + 1
        finally:
            runtime.configure(default_dtype=before.default_dtype)

    def test_backend_switch_bumps_epoch_and_invalidates_plans(self):
        e0 = config_epoch()
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        runner = TapeRunner(wrt=[w])
        runner.step("k", lambda: (x @ w).sum())
        runner.step("k", lambda: (x @ w).sum())
        assert runner.replays == 1
        # switch to whichever parity backend is NOT currently active (the
        # suite itself may be running under REPRO_BACKEND=checked)
        other = ("checked" if B.active_backend_name() != "checked"
                 else "numpy")
        with runtime.use(backend=other):
            assert config_epoch() == e0 + 1
            # stale plan (recorded under numpy) must re-record, not replay
            runner.step("k", lambda: (x @ w).sum())
            assert runner.guard_failures == 1 and runner.records == 2
        assert config_epoch() == e0 + 2    # restore bumps again

    def test_use_scopes_and_restores(self):
        before = runtime.config()
        other = ("checked" if B.active_backend_name() != "checked"
                 else "numpy")
        with runtime.use(default_dtype="float32", backend=other) as cfg:
            assert cfg.default_dtype == np.dtype(np.float32)
            assert runtime.config().backend == other
        assert runtime.config() == before

    def test_describe_is_json_shaped(self):
        info = runtime.describe()
        assert set(info) == {"default_dtype", "backend",
                             "available_backends", "config_epoch"}
        assert info["backend"]["name"] == runtime.config().backend

    def test_invalid_dtype_still_raises_valueerror(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            runtime.configure(default_dtype="int32")


# ----------------------------------------------------------------------
# static seam gate (tools/check_backend_seam.py)
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parent.parent


def _seam_gate():
    spec = importlib.util.spec_from_file_location(
        "check_backend_seam", ROOT / "tools" / "check_backend_seam.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSeamGate:
    def test_repository_is_clean(self):
        assert _seam_gate().main(ROOT) == 0

    def test_import_time_scipy_is_rejected(self, tmp_path, capsys):
        gate = _seam_gate()
        module = tmp_path / "src" / "repro" / "nn" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import scipy.linalg\n"
            "class A:\n"
            "    from scipy.special import erfinv\n"
            "def f():\n"
            "    from scipy.special import erfinv\n"
            "    return erfinv\n"
            "g = lambda: __import__('scipy')\n")
        assert gate.find_eager_scipy_imports(module) == [
            (1, "import scipy.linalg"),
            (3, "from scipy.special import erfinv")]
        assert gate.main(tmp_path) == 1
        assert "mod.py:1" in capsys.readouterr().out

    def test_function_level_scipy_is_allowed(self, tmp_path):
        gate = _seam_gate()
        module = tmp_path / "src" / "repro" / "gnn" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("def f():\n    import scipy.special\n")
        assert gate.main(tmp_path) == 0


class TestLayerGate:
    def test_repository_follows_the_layer_order(self):
        failures, checked = _seam_gate().check_layers(ROOT)
        assert failures == [] and checked > 0

    def test_function_level_upward_import_is_rejected(self, tmp_path, capsys):
        gate = _seam_gate()
        module = tmp_path / "src" / "repro" / "core" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import repro.nn\n"
            "def f():\n"
            "    from repro.tuners.campaign import TuningCampaign\n"
            "    return TuningCampaign\n")
        assert gate.main(tmp_path) == 1
        assert "src/repro/core/mod.py:3" in capsys.readouterr().out

    def test_same_level_import_is_allowed(self, tmp_path):
        gate = _seam_gate()
        module = tmp_path / "src" / "repro" / "evaluation" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("from repro.pipeline import run_experiment\n"
                          "from repro import core\n")
        assert gate.main(tmp_path) == 0

    def test_package_without_a_level_is_rejected(self, tmp_path, capsys):
        gate = _seam_gate()
        module = tmp_path / "src" / "repro" / "extras" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("x = 1\n")
        assert gate.main(tmp_path) == 1
        assert "'extras' has no level" in capsys.readouterr().out
