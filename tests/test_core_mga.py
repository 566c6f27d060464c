"""MGA model, tuner API and device-mapper integration tests."""

import numpy as np
import pytest

from repro.core import DeviceMapper, MGAModel, MGATuner, ModalityConfig
from repro.datasets import DevMapDatasetBuilder
from repro.kernels import registry
from repro.nn import accuracy
from repro.nn.tape import Tape
from repro.simulator.microarch import COMET_LAKE_8C, TAHITI_7970


class TestModalityConfig:
    def test_presets(self):
        assert ModalityConfig.mga() == ModalityConfig(True, True, True)
        assert not ModalityConfig.programl().use_vector
        assert not ModalityConfig.ir2vec().use_graph
        assert not ModalityConfig.dynamic_only().use_graph
        with pytest.raises(ValueError):
            ModalityConfig(False, False, False)


class TestStaticFeatureExtractor:
    def test_extract_and_cache(self, extractor, gemm_spec):
        g1, v1 = extractor.extract(gemm_spec)
        g2, v2 = extractor.extract(gemm_spec)
        assert g1 is g2                      # cached
        np.testing.assert_allclose(v1, v2)
        assert g1.feature_dim == extractor.graph_feature_dim
        assert v1.shape == (extractor.vector_dim,)

    def test_extract_many(self, extractor, small_specs):
        graphs, vectors = extractor.extract_many(small_specs)
        assert len(graphs) == len(small_specs)
        assert vectors.shape == (len(small_specs), extractor.vector_dim)


class TestMGAModelTraining:
    def test_fit_reduces_loss_and_predicts(self, small_openmp_dataset):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        labels = ds.labels()
        model = MGAModel(graph_feature_dim=graphs[0].feature_dim,
                         vector_dim=vectors.shape[1], extra_dim=extra.shape[1],
                         num_classes=ds.num_configs, gnn_hidden=12, gnn_out=12,
                         dae_hidden=24, dae_code=8, mlp_hidden=16, seed=0)
        history = model.fit(graphs, vectors, extra, labels, epochs=8,
                            dae_epochs=5)
        assert history["loss"][-1] < history["loss"][0]
        preds = model.predict(graphs, vectors, extra)
        assert preds.shape == labels.shape
        assert accuracy(preds, labels) > 1.0 / ds.num_configs   # beats chance
        proba = model.predict_proba(graphs[:3], vectors[:3], extra[:3])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_before_fit_raises(self, small_openmp_dataset):
        ds = small_openmp_dataset
        model = MGAModel(ds.samples[0].graph.feature_dim, 32, 5, ds.num_configs)
        with pytest.raises(RuntimeError):
            model.predict([ds.samples[0].graph],
                          ds.samples[0].vector[None, :], np.zeros((1, 5)))

    def test_modality_mismatch_detected(self, small_openmp_dataset):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples[:4]]
        vectors = np.stack([s.vector for s in ds.samples[:3]])
        with pytest.raises(ValueError):
            MGAModel(graphs[0].feature_dim, vectors.shape[1], 5,
                     ds.num_configs).fit(graphs, vectors, np.zeros((4, 5)),
                                         np.zeros(4, dtype=int), epochs=1)


class TestPredictMode:
    """``predict`` runs without a graph and leaves the caller's mode alone."""

    @pytest.fixture(scope="class")
    def fitted(self, small_openmp_dataset):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, gnn_hidden=8,
                         gnn_out=8, dae_hidden=16, dae_code=4, mlp_hidden=8,
                         seed=0)
        model.fit(graphs, vectors, extra, ds.labels(), epochs=1, dae_epochs=1)
        return model, graphs[:4], vectors[:4], extra[:4]

    def test_predict_keeps_eval_mode(self, fitted):
        model, graphs, vectors, extra = fitted
        model.eval()
        try:
            model.predict(graphs, vectors, extra)
            assert model.training is False
            assert not any(m.training for m in model.named_modules().values())
        finally:
            model.train()

    @pytest.mark.parametrize("mode", [True, False])
    def test_mode_restored_when_fuse_raises(self, fitted, monkeypatch, mode):
        model, graphs, vectors, extra = fitted
        model.train(mode)

        def broken_fuse(*args, **kwargs):
            raise RuntimeError("fusion failed")
        monkeypatch.setattr(model, "_fuse", broken_fuse)
        try:
            with pytest.raises(RuntimeError, match="fusion failed"):
                model.predict(graphs, vectors, extra)
            assert model.training is mode
        finally:
            model.train()

    def test_predict_records_nothing(self, fitted):
        model, graphs, vectors, extra = fitted
        expected = model.predict_logits(graphs, vectors, extra)
        tape = Tape()
        with tape.recording():
            logits = model.predict_logits(graphs, vectors, extra)
            model.dae.encode(vectors)
        assert tape.nodes == []
        np.testing.assert_array_equal(logits, expected)


class TestMGATuner:
    def test_fit_predict_and_tune(self, small_openmp_dataset, extractor):
        ds = small_openmp_dataset
        splits = ds.kfold_by_kernel(k=4, seed=0)
        train_idx, val_idx = splits[0]
        tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor,
                         gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                         mlp_hidden=16, seed=0)
        tuner.fit(ds, train_indices=train_idx, epochs=10, dae_epochs=5)
        preds = tuner.predict_indices(ds, val_idx)
        assert len(preds) == len(val_idx)
        assert all(0 <= p < ds.num_configs for p in preds)
        speedups = [ds.samples[i].speedup_of(int(p))
                    for i, p in zip(val_idx, preds)]
        # predicted configurations should not be catastrophically bad
        assert np.exp(np.mean(np.log(speedups))) > 0.5

        # end-to-end tuning of an unseen kernel + input
        config, counters = tuner.tune(registry.get_kernel("polybench/atax"),
                                      scale=1.0)
        assert config in ds.configs
        assert set(counters) >= set(ds.counter_names)

    def test_predict_without_fit(self, small_openmp_dataset):
        tuner = MGATuner(COMET_LAKE_8C, small_openmp_dataset.configs)
        with pytest.raises(RuntimeError):
            tuner.predict_indices(small_openmp_dataset, [0])


class TestDeviceMapper:
    def test_training_beats_static_mapping(self, extractor):
        specs = registry.opencl_kernels()[:24]
        builder = DevMapDatasetBuilder(TAHITI_7970, extractor=extractor, seed=1)
        dataset = builder.build(specs, points_per_kernel=3)
        labels = dataset.labels()
        if len(np.unique(labels)) < 2:
            pytest.skip("tiny dataset collapsed to a single class")
        splits = dataset.stratified_kfold(k=4, seed=0)
        train_idx, val_idx = splits[0]
        mapper = DeviceMapper(extractor=extractor, gnn_hidden=12, gnn_out=12,
                              dae_hidden=24, dae_code=8, mlp_hidden=16, seed=0)
        mapper.fit(dataset, train_indices=train_idx, epochs=10, dae_epochs=5)
        preds = mapper.predict(dataset, val_idx)
        y_true = labels[val_idx]
        majority = max(np.mean(y_true == 0), np.mean(y_true == 1))
        assert accuracy(preds, y_true) >= majority - 0.25
