"""Tests for QuGeoVQC, QuBatchVQC and the classical baselines."""

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.core.classical_models import (
    ClassicalFWIModel,
    CompressionCNN,
    build_cnn_ly,
    build_cnn_px,
)
from repro.core.config import QuGeoVQCConfig
from repro.core.losses import layer_loss, pixel_loss, row_profile
from repro.core.qubatch import QuBatchVQC
from repro.core.vqc_model import QuGeoVQC


def _small_config(decoder="layer", n_batch_qubits=0):
    return QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=2,
                          decoder=decoder, output_shape=(6, 6),
                          n_batch_qubits=n_batch_qubits)


def _sample(seed=0, size=64, shape=(6, 6)):
    rng = np.random.default_rng(seed)
    return rng.normal(size=size), rng.random(shape)


class TestQuGeoVQCConstruction:
    def test_paper_parameter_count(self):
        model = QuGeoVQC(QuGeoVQCConfig(), rng=0)
        assert model.num_parameters() == 576

    def test_rejects_batch_qubits(self):
        with pytest.raises(ValueError):
            QuGeoVQC(QuGeoVQCConfig(n_batch_qubits=1), rng=0)

    def test_name_follows_decoder(self):
        assert QuGeoVQC(_small_config("pixel"), rng=0).name == "Q-M-PX"
        assert QuGeoVQC(_small_config("layer"), rng=0).name == "Q-M-LY"

    def test_multi_group_circuit(self):
        config = QuGeoVQCConfig(n_groups=2, qubits_per_group=3, n_blocks=2,
                                decoder="layer", output_shape=(6, 6))
        model = QuGeoVQC(config, rng=0)
        assert model.n_qubits == 6
        assert model.num_parameters() > 0

    def test_parameter_tensors_for_each_decoder(self):
        layer_model = QuGeoVQC(_small_config("layer"), rng=0)
        pixel_model = QuGeoVQC(_small_config("pixel"), rng=0)
        assert len(layer_model.parameter_tensors()) == 1
        assert len(pixel_model.parameter_tensors()) == 2


class TestQuGeoVQCForward:
    def test_prediction_shape_and_range_layer(self):
        model = QuGeoVQC(_small_config("layer"), rng=1)
        seismic, _ = _sample()
        prediction = model.predict(seismic)
        assert prediction.shape == (6, 6)
        assert prediction.min() >= 0.0
        assert prediction.max() <= 1.0

    def test_layer_prediction_constant_across_rows(self):
        model = QuGeoVQC(_small_config("layer"), rng=1)
        seismic, _ = _sample()
        prediction = model.predict(seismic)
        np.testing.assert_allclose(prediction,
                                   np.repeat(prediction[:, :1], 6, axis=1))

    def test_prediction_shape_pixel(self):
        model = QuGeoVQC(_small_config("pixel"), rng=1)
        seismic, _ = _sample()
        prediction = model.predict(seismic)
        assert prediction.shape == (6, 6)
        assert np.all(prediction >= 0.0)

    def test_predict_batch(self):
        model = QuGeoVQC(_small_config("layer"), rng=1)
        batch = [np.random.default_rng(i).normal(size=64) for i in range(3)]
        predictions = model.predict_batch(batch)
        assert predictions.shape == (3, 6, 6)

    def test_different_inputs_give_different_outputs(self):
        model = QuGeoVQC(_small_config("layer"), rng=1)
        a = model.predict(_sample(1)[0])
        b = model.predict(_sample(2)[0])
        assert not np.allclose(a, b)

    def test_state_norm_preserved(self):
        model = QuGeoVQC(_small_config("layer"), rng=1)
        state = model.run_circuit(_sample()[0])
        assert np.linalg.norm(state) == pytest.approx(1.0)


class TestQuGeoVQCInputValidation:
    """Non-finite seismic input is rejected at encode time, on every path."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        model = QuGeoVQC(_small_config("layer"), rng=1)
        seismic, target = _sample(6)
        poisoned = seismic.copy()
        poisoned[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            model.encode(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict_batch([seismic, poisoned])
        with pytest.raises(ValueError, match="non-finite"):
            model.loss_and_gradients_batch([seismic, poisoned],
                                           [target, target])

    def test_finite_input_gives_finite_outputs(self):
        model = QuGeoVQC(_small_config("pixel"), rng=1)
        (seismic, target), (other, _) = _sample(6), _sample(7)
        assert np.isfinite(model.predict(seismic)).all()
        assert np.isfinite(model.predict_batch([seismic, other])).all()
        losses, grads = model.loss_and_gradients_batch([seismic, other],
                                                       [target, target])
        assert np.isfinite(losses).all()
        assert np.isfinite(grads["theta"]).all()


@pytest.mark.parametrize("engine", [
    pytest.param(EinsumBatchBackend(), id="einsum"),
    pytest.param(NumpyLoopBackend(), id="numpy")])
class TestQuGeoVQCStack:
    """``predict`` on a ``(B, n_features)`` stack runs one circuit pass."""

    @staticmethod
    def _stack(n=5):
        return np.stack([_sample(seed)[0] for seed in range(n)])

    @pytest.mark.parametrize("decoder", ["layer", "pixel"])
    def test_stack_matches_per_sample(self, engine, decoder):
        model = QuGeoVQC(_small_config(decoder), rng=1, backend=engine)
        stack = self._stack()
        maps = model.predict(stack)
        assert maps.shape == (5, 6, 6)
        for row, got in zip(stack, maps):
            expected = model.decode(model.run_circuit(row))
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(model.predict_batch(list(stack)), maps)

    def test_any_other_shape_is_one_sample(self, engine):
        model = QuGeoVQC(_small_config("layer"), rng=1, backend=engine)
        seismic = _sample()[0]
        single = model.predict(seismic)
        assert single.shape == (6, 6)
        np.testing.assert_array_equal(model.predict(seismic.reshape(1, 8, 8)),
                                      single)
        np.testing.assert_array_equal(model.predict(seismic[None, :])[0],
                                      single)

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_non_finite_row_rejected(self, engine, position):
        model = QuGeoVQC(_small_config("layer"), rng=1, backend=engine)
        stack = self._stack()
        stack[position, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(stack)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict_batch(list(stack))

    def test_empty_batch_rejected(self, engine):
        model = QuGeoVQC(_small_config("layer"), rng=1, backend=engine)
        with pytest.raises(ValueError, match="empty batch"):
            model.predict_batch([])
        with pytest.raises(ValueError, match="empty batch"):
            model.predict(np.empty((0, 64)))

    def test_batch_of_one_accepted(self, engine):
        model = QuGeoVQC(_small_config("layer"), rng=1, backend=engine)
        seismic = _sample()[0]
        maps = model.predict_batch([seismic])
        assert maps.shape == (1, 6, 6)
        np.testing.assert_array_equal(maps[0], model.predict(seismic))


class TestQuGeoVQCGradients:
    @pytest.mark.parametrize("decoder", ["layer", "pixel"])
    def test_gradients_match_finite_differences(self, decoder):
        model = QuGeoVQC(_small_config(decoder), rng=2)
        seismic, target = _sample(3)
        loss, grads = model.loss_and_gradients(seismic, target)
        assert loss > 0
        epsilon = 1e-6
        for index in [0, 7, len(model.theta.data) - 1]:
            model.theta.data[index] += epsilon
            plus, _ = model.loss_and_gradients(seismic, target)
            model.theta.data[index] -= 2 * epsilon
            minus, _ = model.loss_and_gradients(seismic, target)
            model.theta.data[index] += epsilon
            numeric = (plus - minus) / (2 * epsilon)
            assert grads["theta"][index] == pytest.approx(numeric, abs=1e-5)

    def test_output_scale_gradient(self):
        model = QuGeoVQC(_small_config("pixel"), rng=2)
        seismic, target = _sample(4)
        _, grads = model.loss_and_gradients(seismic, target)
        epsilon = 1e-6
        model.output_scale.data[0] += epsilon
        plus, _ = model.loss_and_gradients(seismic, target)
        model.output_scale.data[0] -= 2 * epsilon
        minus, _ = model.loss_and_gradients(seismic, target)
        model.output_scale.data[0] += epsilon
        assert grads["output_scale"][0] == pytest.approx((plus - minus) / (2 * epsilon),
                                                         abs=1e-6)

    def test_accumulate_gradients_sums(self):
        model = QuGeoVQC(_small_config("layer"), rng=2)
        seismic, target = _sample(5)
        model.accumulate_gradients(seismic, target, weight=1.0)
        first = model.theta.grad.copy()
        model.accumulate_gradients(seismic, target, weight=1.0)
        np.testing.assert_allclose(model.theta.grad, 2 * first)

    def test_wrong_target_shape_raises(self):
        model = QuGeoVQC(_small_config("layer"), rng=2)
        with pytest.raises(ValueError):
            model.loss_and_gradients(np.zeros(64), np.zeros((3, 3)))

    def test_training_step_reduces_loss(self):
        """A few Adam steps on one sample must reduce its loss."""
        from repro.nn import Adam

        model = QuGeoVQC(_small_config("layer"), rng=3)
        seismic, _ = _sample(6)
        # A layered (row-constant) target, which the layer decoder can fit.
        rows = np.linspace(0.2, 0.9, 6)
        target = np.repeat(rows[:, None], 6, axis=1)
        optimizer = Adam(model.parameter_tensors(), lr=0.1)
        initial, _ = model.loss_and_gradients(seismic, target)
        for _ in range(30):
            optimizer.zero_grad()
            model.accumulate_gradients(seismic, target)
            optimizer.step()
        final, _ = model.loss_and_gradients(seismic, target)
        assert final < 0.5 * initial


class TestQuGeoVQCSerialisation:
    def test_state_dict_roundtrip(self):
        model = QuGeoVQC(_small_config("pixel"), rng=4)
        state = model.state_dict()
        other = QuGeoVQC(_small_config("pixel"), rng=99)
        other.load_state_dict(state)
        np.testing.assert_array_equal(model.theta.data, other.theta.data)
        seismic, _ = _sample(7)
        np.testing.assert_allclose(model.predict(seismic), other.predict(seismic))

    def test_load_rejects_wrong_shape(self):
        model = QuGeoVQC(_small_config("layer"), rng=4)
        with pytest.raises(ValueError):
            model.load_state_dict({"theta": np.zeros(3)})


class TestQuBatchVQC:
    def test_qubit_accounting(self):
        model = QuBatchVQC(_small_config("layer", n_batch_qubits=2), rng=5)
        assert model.batch_capacity == 4
        assert model.extra_qubits == 2
        assert model.n_qubits == 8

    def test_requires_batch_qubits(self):
        with pytest.raises(ValueError):
            QuBatchVQC(_small_config("layer", n_batch_qubits=0), rng=5)

    def test_same_parameter_count_as_unbatched(self):
        batched = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=5)
        plain = QuGeoVQC(_small_config("layer"), rng=5)
        assert batched.num_parameters() == plain.num_parameters()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        model = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=5)
        seismic, poisoned = _sample(6)[0], _sample(7)[0]
        poisoned[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            model.encode([seismic, poisoned])
        with pytest.raises(ValueError, match="non-finite"):
            model.predict_batch([seismic, poisoned])

    def test_finite_input_gives_finite_predictions(self):
        model = QuBatchVQC(_small_config("pixel", n_batch_qubits=1), rng=5)
        samples = [_sample(6)[0], _sample(7)[0]]
        assert np.isfinite(model.encode(samples)).all()
        assert np.isfinite(model.predict_batch(samples)).all()

    def test_batched_prediction_matches_unbatched_model(self):
        """With identical parameters, QuBatch must reproduce the per-sample
        predictions of the plain model (the SIMD property of Figure 3)."""
        config_plain = _small_config("layer")
        config_batch = _small_config("layer", n_batch_qubits=1)
        plain = QuGeoVQC(config_plain, rng=6)
        batched = QuBatchVQC(config_batch, rng=7)
        batched.theta.data = plain.theta.data.copy()
        samples = [np.random.default_rng(i).normal(size=64) for i in range(2)]
        expected = np.stack([plain.predict(s) for s in samples])
        actual = batched.predict_batch(samples)
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_batched_pixel_prediction_matches_unbatched(self):
        plain = QuGeoVQC(_small_config("pixel"), rng=8)
        batched = QuBatchVQC(_small_config("pixel", n_batch_qubits=1), rng=9)
        batched.theta.data = plain.theta.data.copy()
        batched.output_scale.data = plain.output_scale.data.copy()
        samples = [np.random.default_rng(i + 10).normal(size=64) for i in range(2)]
        expected = np.stack([plain.predict(s) for s in samples])
        np.testing.assert_allclose(batched.predict_batch(samples), expected,
                                   atol=1e-9)

    @pytest.mark.parametrize("decoder", ["layer", "pixel"])
    def test_gradients_match_finite_differences(self, decoder):
        model = QuBatchVQC(_small_config(decoder, n_batch_qubits=1), rng=10)
        samples = [np.random.default_rng(i + 20).normal(size=64) for i in range(2)]
        targets = [np.random.default_rng(i + 30).random((6, 6)) for i in range(2)]
        loss, grads = model.loss_and_gradients(samples, targets)
        assert loss > 0
        epsilon = 1e-6
        for index in [0, 11, len(model.theta.data) - 1]:
            model.theta.data[index] += epsilon
            plus, _ = model.loss_and_gradients(samples, targets)
            model.theta.data[index] -= 2 * epsilon
            minus, _ = model.loss_and_gradients(samples, targets)
            model.theta.data[index] += epsilon
            assert grads["theta"][index] == pytest.approx(
                (plus - minus) / (2 * epsilon), abs=1e-5)

    def test_batch_loss_close_to_mean_of_individual_losses(self):
        """QuBatch normalisation changes precision, not the objective itself."""
        plain = QuGeoVQC(_small_config("layer"), rng=11)
        batched = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=12)
        batched.theta.data = plain.theta.data.copy()
        samples = [np.random.default_rng(i + 40).normal(size=64) for i in range(2)]
        targets = [np.random.default_rng(i + 50).random((6, 6)) for i in range(2)]
        individual = np.mean([plain.loss_and_gradients(s, t)[0]
                              for s, t in zip(samples, targets)])
        batch_loss, _ = batched.loss_and_gradients(samples, targets)
        assert batch_loss == pytest.approx(individual, rel=1e-6)

    def test_over_capacity_predictions_chunk(self):
        """predict_batch splits batches beyond the circuit capacity."""
        model = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=13)
        samples = [np.random.default_rng(i + 60).normal(size=64)
                   for i in range(3)]
        chunked = model.predict_batch(samples)
        manual = np.concatenate([model.predict_batch(samples[:2]),
                                 model.predict_batch(samples[2:])], axis=0)
        np.testing.assert_array_equal(chunked, manual)

    def test_over_capacity_training_raises(self):
        model = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=13)
        samples = [np.zeros(64)] * 3
        with pytest.raises(ValueError):
            model.loss_and_gradients(samples, [np.zeros((6, 6))] * 3)

    def test_state_dict_roundtrip(self):
        model = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=14)
        other = QuBatchVQC(_small_config("layer", n_batch_qubits=1), rng=15)
        other.load_state_dict(model.state_dict())
        np.testing.assert_array_equal(model.theta.data, other.theta.data)


class TestClassicalModels:
    def test_cnn_px_parameter_budget(self):
        model = build_cnn_px(256, (8, 8), rng=0)
        assert model.num_parameters() == 634

    def test_cnn_ly_parameter_budget(self):
        model = build_cnn_ly(256, (8, 8), rng=0)
        assert 550 <= model.num_parameters() <= 700

    def test_parameter_budgets_at_same_level_as_quantum(self):
        """Table 2 premise: all models sit at the same parameter scale."""
        quantum = QuGeoVQC(QuGeoVQCConfig(), rng=0).num_parameters()
        for builder in (build_cnn_px, build_cnn_ly):
            classical = builder(256, (8, 8), rng=0).num_parameters()
            assert abs(classical - quantum) / quantum < 0.25

    def test_cnn_px_prediction_shape(self):
        model = build_cnn_px(256, (8, 8), rng=0)
        prediction = model.predict_velocity(np.random.default_rng(0).normal(size=(3, 256)))
        assert prediction.shape == (3, 8, 8)

    def test_cnn_ly_prediction_constant_rows(self):
        model = build_cnn_ly(256, (8, 8), rng=0)
        prediction = model.predict_velocity(np.random.default_rng(0).normal(size=(2, 256)))
        assert prediction.shape == (2, 8, 8)
        np.testing.assert_allclose(prediction,
                                   np.repeat(prediction[:, :, :1], 8, axis=2))

    def test_prepare_input_validates_size(self):
        model = build_cnn_px(256, (8, 8), rng=0)
        with pytest.raises(ValueError):
            model.prepare_input(np.zeros(100))

    def test_invalid_decoder_rejected(self):
        from repro.nn import Sequential, ReLU

        with pytest.raises(ValueError):
            ClassicalFWIModel(network=Sequential(ReLU()), input_shape=(1, 4, 4),
                              output_shape=(4, 4), decoder="bogus", name="x")

    def test_compression_cnn_output_size(self):
        model = CompressionCNN(input_shape=(3, 32, 16), output_size=64, rng=0)
        out = model.compress(np.random.default_rng(0).normal(size=(3, 32, 16)))
        assert out.shape == (64,)

    def test_compression_cnn_validates_input(self):
        model = CompressionCNN(input_shape=(3, 32, 16), output_size=64, rng=0)
        with pytest.raises(ValueError):
            model.compress(np.zeros((2, 32, 16)))

    def test_compression_cnn_stack_rows_match_single_cubes(self):
        model = CompressionCNN(input_shape=(3, 32, 16), output_size=64, rng=0)
        cubes = np.random.default_rng(1).normal(size=(5, 3, 32, 16))
        singles = np.stack([model.compress(cube) for cube in cubes])
        assert singles.shape == (5, 64)
        for stack in (cubes, list(cubes)):
            out = model.compress(stack)
            assert out.shape == (5, 64)
            np.testing.assert_allclose(out, singles, rtol=1e-12, atol=0.0)

    def test_compression_cnn_stack_of_one_keeps_batch_axis(self):
        model = CompressionCNN(input_shape=(3, 32, 16), output_size=64, rng=0)
        cube = np.random.default_rng(2).normal(size=(3, 32, 16))
        assert model.compress(cube[np.newaxis]).shape == (1, 64)
        assert model.compress([cube]).shape == (1, 64)

    def test_compression_cnn_rejects_wrong_trailing_shape(self):
        model = CompressionCNN(input_shape=(3, 32, 16), output_size=64, rng=0)
        with pytest.raises(ValueError, match=r"\(3, 32, 15\)"):
            model.compress(np.zeros((4, 3, 32, 15)))
        with pytest.raises(ValueError, match=r"\(2, 32, 16\)"):
            model.compress([np.zeros((3, 32, 16)), np.zeros((2, 32, 16))])
        with pytest.raises(ValueError, match=r"\(32, 16\)"):
            model.compress(np.zeros((32, 16)))
        with pytest.raises(ValueError, match="empty"):
            model.compress([])

    def test_compression_cnn_invalid_config(self):
        with pytest.raises(ValueError):
            CompressionCNN(input_shape=(0, 8, 8), output_size=4)
        with pytest.raises(ValueError):
            CompressionCNN(input_shape=(1, 8, 8), output_size=0)


class TestLosses:
    def test_pixel_loss_zero_for_match(self):
        target = np.random.default_rng(0).random((8, 8))
        assert pixel_loss(target, target) == 0.0

    def test_pixel_loss_known_value(self):
        assert pixel_loss(np.ones((2, 2)), np.zeros((2, 2))) == pytest.approx(1.0)

    def test_layer_loss_zero_for_flat_map(self):
        rows = np.array([0.2, 0.5, 0.9])
        target = np.repeat(rows[:, None], 4, axis=1)
        assert layer_loss(rows, target) == pytest.approx(0.0)

    def test_layer_loss_penalises_lateral_variation(self):
        target = np.array([[0.0, 1.0], [0.0, 1.0]])
        best_rows = row_profile(target)
        assert layer_loss(best_rows, target) == pytest.approx(0.25)

    def test_row_profile(self):
        target = np.array([[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(row_profile(target), [0.5, 1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pixel_loss(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            layer_loss(np.zeros(3), np.zeros((4, 4)))
