"""Tests for trainers, the experiment harness and the end-to-end QuGeo pipeline.

These are integration tests: they train tiny models for a handful of epochs
on the session-scoped fixture datasets, checking that the training machinery
improves the objective and that the harness reports coherent results.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from readout_oracle import state_maps
from repro.core import (
    QuGeo,
    QuGeoConfig,
    QuGeoVQC,
    QuBatchVQC,
    Trainer,
    build_cnn_ly,
    build_cnn_px,
)
from repro.core.classical_models import CompressionCNN
from repro.core.config import QuGeoDataConfig, QuGeoVQCConfig, TrainingConfig
from repro.core.data_scaling import CNNScaler, ForwardModelingScaler
from repro.core.experiment import (
    count_interface_matches,
    evaluate_model,
    vertical_profile,
)
from repro.core.training import TrainingResult, evaluate_predictions
from repro.data.dataset import FWIDataset, FWISample, train_test_split
from repro.telemetry import capture


def _vqc_config(decoder="layer", n_batch_qubits=0):
    return QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=2,
                          decoder=decoder, output_shape=(6, 6),
                          n_batch_qubits=n_batch_qubits)


def _training_config(epochs=6):
    return TrainingConfig(epochs=epochs, learning_rate=0.1, batch_size=3,
                          eval_every=3, seed=0)


class TestEvaluatePredictions:
    def test_perfect_prediction(self):
        maps = np.random.default_rng(0).random((4, 6, 6))
        metrics = evaluate_predictions(maps, maps)
        assert metrics["ssim"] == pytest.approx(1.0)
        assert metrics["mse"] == pytest.approx(0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate_predictions(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))


class TestQuantumTrainer:
    def test_training_reduces_loss(self, tiny_scaled_dataset):
        model = QuGeoVQC(_vqc_config("layer"), rng=0)
        trainer = Trainer(_training_config(epochs=8))
        result = trainer.train(model, tiny_scaled_dataset, tiny_scaled_dataset)
        losses = result.history("train_loss")
        assert losses[-1] < losses[0]

    def test_result_contains_metrics(self, tiny_scaled_dataset):
        model = QuGeoVQC(_vqc_config("layer"), rng=0)
        result = Trainer(_training_config(epochs=4)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset)
        assert isinstance(result, TrainingResult)
        assert 0.0 <= result.final_metrics["test_ssim"] <= 1.0
        assert result.final_metrics["test_mse"] >= 0.0

    def test_learning_rate_follows_cosine_schedule(self, tiny_scaled_dataset):
        model = QuGeoVQC(_vqc_config("layer"), rng=0)
        result = Trainer(_training_config(epochs=6)).train(
            model, tiny_scaled_dataset)
        lrs = result.history("lr")
        assert lrs[0] > lrs[-1]

    def test_logged_lr_is_the_rate_used_that_epoch(self, tiny_scaled_dataset):
        """Regression: epoch 0 must log the base LR, not the post-step rate."""
        config = _training_config(epochs=3)
        model = QuGeoVQC(_vqc_config("layer"), rng=0)
        result = Trainer(config).train(model, tiny_scaled_dataset)
        lrs = result.history("lr")
        assert lrs[0] == pytest.approx(config.learning_rate)
        # Each subsequent epoch uses the rate the scheduler set after the
        # previous one, so the history is strictly decreasing under cosine.
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_final_metrics_labeled_train_without_test_set(self, tiny_scaled_dataset):
        model = QuGeoVQC(_vqc_config("layer"), rng=0)
        result = Trainer(_training_config(epochs=2)).train(
            model, tiny_scaled_dataset)
        assert set(result.final_metrics) == {"train_ssim", "train_mse"}

    def test_final_metrics_labeled_test_with_test_set(self, tiny_scaled_dataset):
        model = QuGeoVQC(_vqc_config("layer"), rng=0)
        result = Trainer(_training_config(epochs=2)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset)
        assert set(result.final_metrics) == {"test_ssim", "test_mse"}

    def test_trains_pixel_decoder(self, tiny_scaled_dataset):
        model = QuGeoVQC(_vqc_config("pixel"), rng=0)
        result = Trainer(_training_config(epochs=4)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset)
        assert np.isfinite(result.final_metrics["test_mse"])

    def test_trains_qubatch_model(self, tiny_scaled_dataset):
        model = QuBatchVQC(_vqc_config("layer", n_batch_qubits=1), rng=0)
        result = Trainer(_training_config(epochs=4)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset)
        losses = result.history("train_loss")
        assert losses[-1] <= losses[0]

    def test_deterministic_given_seed(self, tiny_scaled_dataset):
        results = []
        for _ in range(2):
            model = QuGeoVQC(_vqc_config("layer"), rng=0)
            result = Trainer(_training_config(epochs=3)).train(
                model, tiny_scaled_dataset, tiny_scaled_dataset)
            results.append(result.final_metrics["test_mse"])
        assert results[0] == pytest.approx(results[1])


class TestClassicalTrainer:
    def test_training_reduces_loss(self, tiny_scaled_dataset):
        model = build_cnn_ly(64, (6, 6), rng=0)
        config = TrainingConfig(epochs=15, learning_rate=0.01, batch_size=3,
                                eval_every=5, seed=0)
        result = Trainer(config).train(model, tiny_scaled_dataset,
                                       tiny_scaled_dataset)
        losses = result.history("train_loss")
        assert losses[-1] < losses[0]

    def test_pixel_variant(self, tiny_scaled_dataset):
        model = build_cnn_px(64, (6, 6), rng=0)
        config = TrainingConfig(epochs=5, learning_rate=0.01, batch_size=3,
                                eval_every=5, seed=0)
        result = Trainer(config).train(model, tiny_scaled_dataset,
                                       tiny_scaled_dataset)
        assert np.isfinite(result.final_metrics["test_mse"])

    def test_logged_lr_is_the_rate_used_that_epoch(self, tiny_scaled_dataset):
        """Regression: epoch 0 must log the base LR, not the post-step rate."""
        model = build_cnn_ly(64, (6, 6), rng=0)
        config = TrainingConfig(epochs=3, learning_rate=0.01, batch_size=3,
                                eval_every=5, seed=0)
        result = Trainer(config).train(model, tiny_scaled_dataset)
        lrs = result.history("lr")
        assert lrs[0] == pytest.approx(config.learning_rate)
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_final_metrics_labeled_train_without_test_set(self, tiny_scaled_dataset):
        model = build_cnn_ly(64, (6, 6), rng=0)
        config = TrainingConfig(epochs=2, learning_rate=0.01, batch_size=3,
                                eval_every=5, seed=0)
        result = Trainer(config).train(model, tiny_scaled_dataset)
        assert set(result.final_metrics) == {"train_ssim", "train_mse"}


class TestEvaluateModel:
    def test_quantum_and_classical_interfaces(self, tiny_scaled_dataset):
        quantum = QuGeoVQC(_vqc_config("layer"), rng=0)
        classical = build_cnn_ly(64, (6, 6), rng=0)
        for model in (quantum, classical):
            metrics = evaluate_model(model, tiny_scaled_dataset)
            assert set(metrics) == {"ssim", "mse"}
            assert metrics["mse"] >= 0.0

    def test_qubatch_interface(self, tiny_scaled_dataset):
        model = QuBatchVQC(_vqc_config("layer", n_batch_qubits=1), rng=0)
        metrics = evaluate_model(model, tiny_scaled_dataset)
        assert np.isfinite(metrics["mse"])


class TestExperimentHelpers:
    def test_vertical_profile(self):
        velocity_map = np.arange(16.0).reshape(4, 4)
        profile = vertical_profile(velocity_map, column=1)
        np.testing.assert_allclose(profile, [1.0, 5.0, 9.0, 13.0])
        default = vertical_profile(velocity_map)
        np.testing.assert_allclose(default, velocity_map[:, 2])

    def test_vertical_profile_validation(self):
        with pytest.raises(ValueError):
            vertical_profile(np.zeros((4, 4)), column=10)
        with pytest.raises(ValueError):
            vertical_profile(np.zeros(4))

    def test_count_interface_matches_perfect(self):
        truth = np.array([0.2, 0.2, 0.6, 0.6, 0.9])
        matched, total = count_interface_matches(truth, truth)
        assert total == 2
        assert matched == 2

    def test_count_interface_matches_missed(self):
        truth = np.array([0.2, 0.2, 0.6, 0.6, 0.9])
        flat = np.full(5, 0.5)
        matched, total = count_interface_matches(flat, truth)
        assert total == 2
        assert matched == 0

    def test_count_interface_matches_validation(self):
        with pytest.raises(ValueError):
            count_interface_matches(np.zeros(3), np.zeros(4))


class TestQuGeoFramework:
    @pytest.fixture(scope="class")
    def framework_config(self):
        data = QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                               scaled_velocity_shape=(6, 6))
        vqc = QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=2,
                             decoder="layer", output_shape=(6, 6))
        training = TrainingConfig(epochs=4, learning_rate=0.1, batch_size=3,
                                  eval_every=2, seed=0)
        return QuGeoConfig(data=data, vqc=vqc, training=training,
                           scaling_method="forward_modeling")

    def test_fit_and_predict(self, framework_config, tiny_dataset):
        train, test = train_test_split(tiny_dataset, train_size=4, rng=0)
        pipeline = QuGeo(framework_config, rng=0)
        result = pipeline.fit(train, test)
        assert isinstance(result, TrainingResult)
        prediction = pipeline.predict(test[0])
        assert prediction.shape == framework_config.data.scaled_velocity_shape
        assert prediction.min() >= 1000.0  # physical units after denormalisation
        normalized = pipeline.predict(test[0], denormalize=False)
        assert normalized.max() <= 1.5

    def test_predict_before_fit_raises(self, framework_config, tiny_dataset):
        pipeline = QuGeo(framework_config, rng=0)
        with pytest.raises(RuntimeError):
            pipeline.predict(tiny_dataset[0])

    def test_summary_contents(self, framework_config, tiny_dataset):
        train, test = train_test_split(tiny_dataset, train_size=4, rng=0)
        pipeline = QuGeo(framework_config, rng=0)
        pipeline.fit(train, test)
        summary = pipeline.summary()
        assert summary["scaling_method"] == "Q-D-FW"
        assert summary["decoder"] == "Q-M-LY"
        assert summary["total_qubits"] <= 16
        assert "test_ssim" in summary

    def test_d_sample_pipeline(self, tiny_dataset):
        data = QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                               scaled_velocity_shape=(6, 6))
        vqc = QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=1,
                             decoder="layer", output_shape=(6, 6))
        training = TrainingConfig(epochs=2, learning_rate=0.1, batch_size=3,
                                  eval_every=2, seed=0)
        config = QuGeoConfig(data=data, vqc=vqc, training=training,
                             scaling_method="d_sample")
        pipeline = QuGeo(config, rng=0)
        pipeline.fit(tiny_dataset[:4], tiny_dataset[4:])
        assert pipeline.summary()["scaling_method"] == "D-Sample"

    def test_cnn_scaling_requires_compressor_data(self, tiny_dataset):
        data = QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                               scaled_velocity_shape=(6, 6))
        vqc = QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=1,
                             decoder="layer", output_shape=(6, 6))
        config = QuGeoConfig(data=data, vqc=vqc,
                             training=TrainingConfig(epochs=1),
                             scaling_method="cnn")
        pipeline = QuGeo(config, rng=0)
        with pytest.raises(ValueError):
            pipeline.build_scaler()

    def test_qubatch_pipeline(self, tiny_dataset):
        data = QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                               scaled_velocity_shape=(6, 6))
        vqc = QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=1,
                             decoder="layer", output_shape=(6, 6),
                             n_batch_qubits=1)
        training = TrainingConfig(epochs=2, learning_rate=0.1, batch_size=2,
                                  eval_every=2, seed=0)
        config = QuGeoConfig(data=data, vqc=vqc, training=training)
        pipeline = QuGeo(config, rng=0)
        pipeline.fit(tiny_dataset[:4], tiny_dataset[4:])
        assert isinstance(pipeline.model, QuBatchVQC)


def _serve_one(pipeline, sample):
    """Per-sample reference: scale_sample -> circuit.run -> the
    per-basis-state read-out oracle."""
    model = pipeline.model
    vector = pipeline.scaler.scale_sample(sample).seismic_vector()
    encoded = (model.encode([vector]) if isinstance(model, QuBatchVQC)
               else model.encode(vector))
    output = model.circuit.run(encoded, model.theta.data,
                               backend=model.backend)
    return state_maps(model.config, float(model.output_scale.data[0]),
                      output)[0]


def _with_eval_batch_size(pipeline, size):
    """A pipeline sharing ``pipeline``'s scaler and model, other chunking."""
    training = replace(pipeline.config.training, eval_batch_size=size)
    served = QuGeo(replace(pipeline.config, training=training))
    served.scaler, served.model = pipeline.scaler, pipeline.model
    return served


class TestBatchedServing:
    """``predict_dataset`` predicts in stacked chunks yet equals per-sample
    serving, for every scaler and for QuBatch."""

    @pytest.fixture(scope="class",
                    params=[("d_sample", "layer", 0),
                            ("forward_modeling", "layer", 0),
                            ("cnn", "pixel", 0),
                            ("d_sample", "layer", 1)],
                    ids=["d_sample", "forward_modeling", "cnn", "qubatch"])
    def pipeline(self, request, tiny_dataset, small_data_config):
        method, decoder, n_batch_qubits = request.param
        config = QuGeoConfig(data=small_data_config,
                             vqc=_vqc_config(decoder, n_batch_qubits),
                             training=TrainingConfig(eval_batch_size=2),
                             scaling_method=method)
        pipeline = QuGeo(config, rng=0)
        reference = ForwardModelingScaler(small_data_config,
                                          simulation_shape=(16, 16),
                                          simulation_steps=64)
        if method == "d_sample":
            pipeline.build_scaler()
        elif method == "forward_modeling":
            pipeline.scaler = reference
        else:
            pipeline.scaler = CNNScaler.train(
                tiny_dataset[:3], config=small_data_config,
                reference_scaler=reference, epochs=2, rng=0)
        pipeline.build_model()
        return pipeline

    def test_matches_per_sample_reference(self, pipeline, tiny_dataset):
        expected = np.stack([_serve_one(pipeline, s) for s in tiny_dataset])
        np.testing.assert_allclose(
            pipeline.predict_dataset(tiny_dataset, denormalize=False),
            expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            pipeline.predict_dataset(tiny_dataset),
            pipeline.normalizer.denormalize(expected), rtol=1e-12, atol=0.0)

    def test_predict_is_a_batch_of_one(self, pipeline, tiny_dataset):
        for sample in tiny_dataset[:2]:
            for denormalize in (True, False):
                np.testing.assert_array_equal(
                    pipeline.predict(sample, denormalize=denormalize),
                    pipeline.predict_dataset(FWIDataset([sample]),
                                             denormalize=denormalize)[0])

    def test_eval_batch_size_does_not_change_results(self, pipeline,
                                                     tiny_dataset):
        results = [_with_eval_batch_size(pipeline, size)
                   .predict_dataset(tiny_dataset)
                   for size in (1, 3, None)]
        assert results[0].shape == (len(tiny_dataset), 6, 6)
        for other in results[1:]:
            if isinstance(pipeline.model, QuBatchVQC):
                # QuBatch normalises the samples of one register jointly,
                # so another chunking moves the last bit.
                np.testing.assert_allclose(other, results[0], rtol=1e-12)
            else:
                np.testing.assert_array_equal(other, results[0])

    def test_denormalize_false_returns_normalised_maps(self, pipeline,
                                                       tiny_dataset):
        physical = pipeline.predict_dataset(tiny_dataset)
        normalised = pipeline.predict_dataset(tiny_dataset, denormalize=False)
        assert physical.min() > normalised.max()
        np.testing.assert_allclose(pipeline.normalizer.denormalize(normalised),
                                   physical, rtol=1e-12)

    def test_empty_dataset_rejected_before_scaling(self, pipeline,
                                                   monkeypatch):
        def no_scaling(dataset):
            raise AssertionError("scaled an empty dataset")

        monkeypatch.setattr(pipeline.scaler, "scale_dataset", no_scaling)
        with pytest.raises(ValueError, match="empty dataset"):
            pipeline.predict_dataset(FWIDataset([]))

    def test_single_sample_dataset_accepted(self, pipeline, tiny_dataset):
        predictions = pipeline.predict_dataset(tiny_dataset[:1])
        assert predictions.shape == (1, 6, 6)
        assert np.isfinite(predictions).all()

    def test_one_circuit_pass_per_eval_chunk(self, tiny_dataset,
                                             small_data_config):
        config = QuGeoConfig(data=small_data_config, vqc=_vqc_config("layer"),
                             training=TrainingConfig(eval_batch_size=2),
                             scaling_method="d_sample")
        pipeline = QuGeo(config, rng=0)
        pipeline.build_scaler()
        pipeline.build_model()
        requests = tiny_dataset[:5]
        with capture("summary") as telemetry:
            pipeline.predict_dataset(requests)
            counters = telemetry.snapshot()["counters"]
        assert counters["backend.einsum.run_batched.calls"] == math.ceil(5 / 2)
        assert counters["backend.einsum.run_batched.samples"] == 5


class TestCNNScalerDataset:
    """``CNNScaler.scale_dataset`` is one compressor pass over the cubes."""

    @pytest.fixture(scope="class")
    def scaler(self, tiny_dataset, small_data_config):
        compressor = CompressionCNN(
            input_shape=tiny_dataset[0].seismic.shape,
            output_size=small_data_config.scaled_seismic_size, rng=0)
        return CNNScaler(compressor, small_data_config)

    @staticmethod
    def _count_compress(monkeypatch):
        calls = []
        original = CompressionCNN.compress

        def counted(self, seismic):
            calls.append(seismic)
            return original(self, seismic)

        monkeypatch.setattr(CompressionCNN, "compress", counted)
        return calls

    def test_one_compress_call_per_dataset(self, scaler, tiny_dataset,
                                           monkeypatch):
        calls = self._count_compress(monkeypatch)
        scaled = scaler.scale_dataset(tiny_dataset)
        assert len(calls) == 1
        assert len(calls[0]) == len(tiny_dataset) == len(scaled)

    def test_matches_per_sample_scale_seismic(self, scaler, tiny_dataset,
                                              small_data_config):
        scaled = scaler.scale_dataset(tiny_dataset)
        assert scaled.name == "scaled-Q-D-CNN"
        for sample, out in zip(tiny_dataset, scaled):
            assert out.seismic.shape == small_data_config.scaled_seismic_shape
            assert out.method == "Q-D-CNN"
            np.testing.assert_allclose(out.seismic,
                                       scaler.scale_seismic(sample),
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(out.velocity,
                                          scaler.scale_sample(sample).velocity)

    def test_empty_dataset_skips_the_compressor(self, scaler, monkeypatch):
        calls = self._count_compress(monkeypatch)
        scaled = scaler.scale_dataset(FWIDataset([]))
        assert isinstance(scaled, FWIDataset)
        assert len(scaled) == 0
        assert calls == []

    def test_peak_memory_holds_no_stacked_copy_of_the_cubes(self):
        # Serving-sized cubes (4 shots x 300 steps x 32 receivers): 16 of
        # them take 4.9 MB stacked, one cube's width-unfolded conv1 input
        # takes 0.9 MB.
        rng = np.random.default_rng(0)
        shape, n = (4, 300, 32), 16
        config = QuGeoDataConfig()
        scaler = CNNScaler(CompressionCNN(shape, config.scaled_seismic_size,
                                          rng=0), config)
        requests = FWIDataset([
            FWISample(seismic=rng.normal(size=shape),
                      velocity=rng.uniform(1500.0, 4500.0, size=(32, 32)))
            for _ in range(n)])
        stacked_bytes = n * requests[0].seismic.nbytes

        def peak_bytes(dataset):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                scaler.scale_dataset(dataset)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        growth = peak_bytes(requests) - peak_bytes(requests[:1])
        assert growth < stacked_bytes / 2, (growth, stacked_bytes)
