"""Tests for the unified training engine.

Covers the engine's pieces (the gradient step of each model kind, callbacks),
checkpoint/resume bit-identity for all three model families, state_dict
round trips for optimisers, schedulers, scalers and the logger, bounded
evaluation chunking, and pipeline save/load serving.
"""

import warnings

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.core import (
    Callback,
    Checkpoint,
    QuBatchVQC,
    QuGeo,
    QuGeoConfig,
    QuGeoVQC,
    Trainer,
    build_cnn_ly,
    predict_in_batches,
    select_step_strategy,
)
from repro.core.config import (
    QuGeoDataConfig,
    QuGeoVQCConfig,
    TrainingConfig,
    config_from_dict,
    config_to_dict,
)
from repro.core.data_scaling import (
    BaseScaler,
    CNNScaler,
    DSampleScaler,
    ForwardModelingScaler,
    scaler_from_state,
    scaler_state,
)
from repro.core.training import ArrayDataSource
from repro.data.dataset import train_test_split
from repro.nn import init as nn_init
from repro.nn import SGD, Adam, CosineAnnealingLR, Linear, ReLU, Sequential, Tensor
from repro.utils.logging import RunLogger
from repro.utils.serialization import load_checkpoint, save_checkpoint


def _vqc_config(decoder="layer", n_batch_qubits=0):
    return QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=2,
                          decoder=decoder, output_shape=(6, 6),
                          n_batch_qubits=n_batch_qubits)


def _training_config(epochs=6, **overrides):
    defaults = dict(epochs=epochs, learning_rate=0.1, batch_size=3,
                    eval_every=3, seed=0)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


MODEL_BUILDERS = {
    "quantum": lambda: QuGeoVQC(_vqc_config("layer"), rng=0),
    "qubatch": lambda: QuBatchVQC(_vqc_config("layer", n_batch_qubits=1), rng=0),
    "classical": lambda: build_cnn_ly(64, (6, 6), rng=0),
}


class StopAfter(Callback):
    """Deterministically interrupt a run after a given epoch (for tests)."""

    def __init__(self, epoch):
        self.epoch = int(epoch)

    def on_epoch_logged(self, state):
        if state.epoch >= self.epoch:
            state.stop_training = True
            state.stop_reason = "test interruption"


class TestStrategySelection:
    def test_families_map_to_strategies(self):
        """The step names are a recorded interface (benchmark run records
        carry ``select_step_strategy(model).name``), so they are pinned."""
        qubatch = select_step_strategy(MODEL_BUILDERS["qubatch"]())
        assert qubatch.name == "qubatch"
        assert qubatch.batch_size == 2  # the circuit's own capacity
        classical = select_step_strategy(MODEL_BUILDERS["classical"]())
        assert classical.name == "classical-autograd"
        assert classical.batch_size is None
        # One reversible adjoint sweep per mini-batch on either engine.
        for backend in (EinsumBatchBackend(), NumpyLoopBackend()):
            quantum = QuGeoVQC(_vqc_config("layer"), rng=0, backend=backend)
            step = select_step_strategy(quantum)
            assert step.name == "quantum-batched-adjoint"
            assert step.batch_size is None

    def test_training_on_the_oracle_matches_the_default_engine(
            self, tiny_scaled_dataset):
        """Two epochs of ``Trainer.train`` on ``NumpyLoopBackend()`` land
        where the default engine does: the oracle run that CI used to get
        from an environment switch."""
        config = _training_config(epochs=2, eval_every=1)
        train, test = train_test_split(tiny_scaled_dataset, train_size=4,
                                       rng=0)
        runs = {}
        for backend in (None, NumpyLoopBackend()):
            model = QuGeoVQC(_vqc_config("pixel"), rng=0, backend=backend)
            result = Trainer(config).train(model, train, test)
            runs[model.backend.name] = (model, result)
        (default, default_run), (oracle, oracle_run) = (runs["einsum"],
                                                        runs["numpy"])
        np.testing.assert_allclose(oracle.theta.data, default.theta.data,
                                   rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(oracle.output_scale.data,
                                   default.output_scale.data, rtol=1e-9)
        assert set(oracle_run.final_metrics) == set(default_run.final_metrics)
        assert "test_ssim" in default_run.final_metrics
        for key, value in default_run.final_metrics.items():
            assert oracle_run.final_metrics[key] == pytest.approx(
                value, rel=1e-9, abs=0.0), key

    def test_unknown_model_rejected_with_clear_error(self):
        class ProtocolOnlyModel:
            def parameter_tensors(self):
                return (Tensor(np.zeros(3), requires_grad=True),)

            def predict_batch(self, seismic_batch):
                return np.zeros((len(seismic_batch), 6, 6))

            def state_dict(self):
                return {}

            def load_state_dict(self, state):
                pass

        with pytest.raises(TypeError, match="no step strategy"):
            select_step_strategy(ProtocolOnlyModel())


@pytest.mark.parametrize("family", sorted(MODEL_BUILDERS))
class TestCheckpointResume:
    def test_resumed_trajectory_matches_uninterrupted(self, family,
                                                      tiny_scaled_dataset,
                                                      tmp_path):
        """Save at epoch k, resume, and reproduce the full run exactly."""
        build = MODEL_BUILDERS[family]
        config = _training_config(epochs=6)
        path = str(tmp_path / f"{family}.ckpt")

        reference = build()
        full = Trainer(config).train(reference, tiny_scaled_dataset,
                                     tiny_scaled_dataset)

        interrupted = build()
        Trainer(config).train(interrupted, tiny_scaled_dataset,
                              tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=3),
                                         StopAfter(2)])

        resumed_model = build()
        resumed = Trainer(config).train(resumed_model, tiny_scaled_dataset,
                                        tiny_scaled_dataset,
                                        resume_from=path)

        # Exact (not approximate) equality: the checkpoint restores model,
        # optimiser moments, scheduler position and the shuffle generator.
        assert resumed.history("train_loss") == full.history("train_loss")
        assert resumed.history("lr") == full.history("lr")
        assert resumed.final_metrics == full.final_metrics
        for reference_param, resumed_param in zip(
                reference.parameter_tensors(),
                resumed_model.parameter_tensors()):
            np.testing.assert_array_equal(reference_param.data,
                                          resumed_param.data)

    def test_model_state_roundtrip(self, family, tiny_scaled_dataset):
        build = MODEL_BUILDERS[family]
        trained = build()
        Trainer(_training_config(epochs=2)).train(trained, tiny_scaled_dataset)
        fresh = build()
        fresh.load_state_dict(trained.state_dict())
        seismic = np.stack([sample.seismic.reshape(-1)
                            for sample in tiny_scaled_dataset])
        np.testing.assert_array_equal(predict_in_batches(trained, seismic),
                                      predict_in_batches(fresh, seismic))


class TestCheckpointValidation:
    def test_wrong_model_class_rejected(self, tiny_scaled_dataset, tmp_path):
        path = str(tmp_path / "quantum.ckpt")
        model = MODEL_BUILDERS["quantum"]()
        Trainer(_training_config(epochs=3)).train(
            model, tiny_scaled_dataset, callbacks=[Checkpoint(path, every=3)])
        with pytest.raises(ValueError, match="cannot resume"):
            Trainer(_training_config(epochs=3)).train(
                MODEL_BUILDERS["classical"](), tiny_scaled_dataset,
                resume_from=path)

    def test_mismatched_training_config_rejected(self, tiny_scaled_dataset,
                                                 tmp_path):
        path = str(tmp_path / "quantum.ckpt")
        model = MODEL_BUILDERS["quantum"]()
        Trainer(_training_config(epochs=6)).train(
            model, tiny_scaled_dataset,
            callbacks=[Checkpoint(path, every=3), StopAfter(2)])
        with pytest.raises(ValueError, match="seed"):
            Trainer(_training_config(epochs=6, seed=123)).train(
                MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                resume_from=path)

    def test_unknown_version_rejected(self, tiny_scaled_dataset, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, {"version": 999})
        with pytest.raises(ValueError, match="version"):
            Trainer(_training_config(epochs=2)).train(
                MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                resume_from=path)

    def test_mismatched_dataset_size_rejected(self, tiny_scaled_dataset,
                                              tmp_path):
        path = str(tmp_path / "quantum.ckpt")
        config = _training_config(epochs=6)
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=3),
                                         StopAfter(2)])
        with pytest.raises(ValueError, match="training samples"):
            Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                  tiny_scaled_dataset[:4], resume_from=path)

    def test_reordered_training_samples_rejected(self, tiny_scaled_dataset,
                                                 tmp_path):
        """Same samples in a different order change what the restored
        shuffle indices select — the fingerprint must catch that too."""
        from repro.data.dataset import FWIDataset

        path = str(tmp_path / "ordered.ckpt")
        config = _training_config(epochs=6)
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=3),
                                         StopAfter(2)])
        reordered = FWIDataset(list(tiny_scaled_dataset)[::-1],
                               name="reordered")
        with pytest.raises(ValueError, match="training samples"):
            Trainer(config).train(MODEL_BUILDERS["quantum"](), reordered,
                                  resume_from=path)

    def test_eval_config_validates_arguments(self):
        """The evaluation step reads its cadence and chunk size from the
        config, which refuses values it could not run."""
        with pytest.raises(ValueError, match="eval_every"):
            _training_config(eval_every=0)
        with pytest.raises(ValueError, match="eval_batch_size"):
            _training_config(eval_batch_size=0)
        assert _training_config(eval_batch_size=None).eval_batch_size is None

    def test_zero_epoch_resume_does_not_rewind_checkpoint(
            self, tiny_scaled_dataset, tmp_path):
        """Regression: resuming a finished run with a checkpoint callback
        trains nothing and leaves the file at the restored epoch."""
        path = str(tmp_path / "finished.ckpt")
        config = _training_config(epochs=3)
        model = MODEL_BUILDERS["quantum"]()
        Trainer(config).train(model, tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=1)])
        assert load_checkpoint(path)["epoch"] == 3
        resumed = Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[Checkpoint(path, every=1)],
            resume_from=path)
        assert load_checkpoint(path)["epoch"] == 3
        assert len(resumed.history("train_loss")) == 3

    def test_checkpoint_file_roundtrip(self, tmp_path):
        payload = {"version": 1, "array": np.arange(4.0), "nested": {"x": 2}}
        path = tmp_path / "deep" / "file.ckpt"
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        assert loaded["nested"] == {"x": 2}
        np.testing.assert_array_equal(loaded["array"], payload["array"])


def nan_after(monkeypatch, fail_on_call, value=float("nan")):
    """A classical model whose ``fail_on_call``-th forward pass has
    ``value`` added to every output, so that mini-batch's loss is
    non-finite."""
    model = MODEL_BUILDERS["classical"]()
    forward = model.forward
    calls = [0]

    def poisoned_forward(seismic):
        calls[0] += 1
        output = forward(seismic)
        if calls[0] == fail_on_call:
            output = output + value
        return output

    monkeypatch.setattr(model, "forward", poisoned_forward)
    return model


class TestNanLossGuard:
    def test_stop_policy_halts_with_nan_loss_flag(self, tiny_scaled_dataset,
                                                  monkeypatch):
        model = nan_after(monkeypatch, fail_on_call=3)
        result = Trainer(_training_config(epochs=6)).train(
            model, tiny_scaled_dataset)
        # the run ends in the epoch that produced the NaN, not at epochs=6
        train_loss = result.history("train_loss")
        assert len(train_loss) < 6
        assert np.isnan(train_loss[-1])
        assert result.history("nan_loss") == [1.0]
        # final metrics still describe a usable (finite) model: the guard
        # fires before the poisoned optimiser update
        assert all(np.isfinite(tensor.data).all()
                   for tensor in model.parameter_tensors())

    def test_inf_loss_also_trips_the_guard(self, tiny_scaled_dataset,
                                           monkeypatch):
        model = nan_after(monkeypatch, 1, value=float("inf"))
        # The loss is checked before the backward pass, so no inf - inf
        # reaches a matmul and no gradient is ever set.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = Trainer(_training_config(epochs=4)).train(
                model, tiny_scaled_dataset)
        assert result.history("nan_loss") == [1.0]
        assert len(result.history("train_loss")) == 1
        assert all(tensor.grad is None
                   for tensor in model.parameter_tensors())

    def test_raise_policy_surfaces_the_batch(self, tiny_scaled_dataset,
                                             monkeypatch):
        config = _training_config(epochs=4, nan_policy="raise")
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            Trainer(config).train(nan_after(monkeypatch, 2),
                                  tiny_scaled_dataset)

    def test_clean_run_has_no_nan_loss_history(self, tiny_scaled_dataset):
        result = Trainer(_training_config(epochs=2)).train(
            MODEL_BUILDERS["classical"](), tiny_scaled_dataset)
        assert result.history("nan_loss") == []
        assert all(np.isfinite(v) for v in result.history("train_loss"))

    def test_invalid_nan_policy_rejected(self):
        with pytest.raises(ValueError, match="nan_policy"):
            _training_config(nan_policy="ignore")


class TestCheckpointCorruptionRecovery:
    """A damaged checkpoint costs retraining time, never a crash."""

    def _interrupted_run(self, tiny_scaled_dataset, tmp_path, every=2):
        path = str(tmp_path / "run.ckpt")
        config = _training_config(epochs=6)
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=every),
                                         StopAfter(3)])
        return path, config

    def test_backup_rotated_next_to_checkpoint(self, tiny_scaled_dataset,
                                               tmp_path):
        import os
        path, _ = self._interrupted_run(tiny_scaled_dataset, tmp_path)
        assert os.path.exists(path)
        assert os.path.exists(path + ".bak")
        # primary holds epoch 4 (saved after epoch index 3), backup epoch 2
        assert load_checkpoint(path)["epoch"] == 4
        assert load_checkpoint(path + ".bak")["epoch"] == 2

    def test_truncated_checkpoint_falls_back_to_last_good(
            self, tiny_scaled_dataset, tmp_path):
        from pathlib import Path
        path, config = self._interrupted_run(tiny_scaled_dataset, tmp_path)
        full = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                     tiny_scaled_dataset)
        file = Path(path)
        file.write_bytes(file.read_bytes()[:20])
        with pytest.warns(UserWarning, match="resuming from last-good"):
            resumed = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                            tiny_scaled_dataset,
                                            resume_from=path)
        # the .bak snapshot restores exactly, so the trajectory still
        # matches the uninterrupted run bit for bit
        assert resumed.history("train_loss") == full.history("train_loss")

    def test_digest_mismatch_falls_back_to_last_good(self,
                                                     tiny_scaled_dataset,
                                                     tmp_path):
        import pickle
        from pathlib import Path
        path, config = self._interrupted_run(tiny_scaled_dataset, tmp_path)
        full = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                     tiny_scaled_dataset)
        file = Path(path)
        envelope = pickle.loads(file.read_bytes())
        envelope["payload"] = envelope["payload"][:-1] + bytes(
            [envelope["payload"][-1] ^ 0xFF])
        file.write_bytes(pickle.dumps(envelope))
        with pytest.raises(Exception, match="integrity digest"):
            load_checkpoint(path)
        with pytest.warns(UserWarning, match="resuming from last-good"):
            resumed = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                            tiny_scaled_dataset,
                                            resume_from=path)
        assert resumed.history("train_loss") == full.history("train_loss")

    def test_missing_checkpoint_starts_fresh_with_warning(
            self, tiny_scaled_dataset, tmp_path):
        config = _training_config(epochs=3)
        fresh = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                      tiny_scaled_dataset)
        with pytest.warns(UserWarning, match="starting fresh"):
            recovered = Trainer(config).train(
                MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                resume_from=str(tmp_path / "never-written.ckpt"))
        assert recovered.history("train_loss") == fresh.history("train_loss")

    def test_both_candidates_damaged_starts_fresh(self, tiny_scaled_dataset,
                                                  tmp_path):
        from pathlib import Path
        path, config = self._interrupted_run(tiny_scaled_dataset, tmp_path)
        fresh = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                      tiny_scaled_dataset)
        Path(path).write_bytes(b"garbage")
        Path(path + ".bak").write_bytes(b"")
        with pytest.warns(UserWarning, match="starting fresh"):
            recovered = Trainer(config).train(
                MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                resume_from=path)
        assert recovered.history("train_loss") == fresh.history("train_loss")

    def test_legacy_dtype_key_resumes_to_the_same_theta(self,
                                                      tiny_scaled_dataset,
                                                      tmp_path):
        """A checkpoint whose config still carries the removed ``dtype``
        key resumes onto the uninterrupted trajectory."""
        config = _training_config(epochs=6)
        reference = MODEL_BUILDERS["quantum"]()
        full = Trainer(config).train(reference, tiny_scaled_dataset)
        path = str(tmp_path / "quantum.ckpt")
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=3),
                                         StopAfter(2)])
        payload = load_checkpoint(path)
        assert "dtype" not in payload["config"]
        payload["config"]["dtype"] = None
        legacy = str(tmp_path / "legacy.ckpt")
        save_checkpoint(legacy, payload)
        resumed_model = MODEL_BUILDERS["quantum"]()
        resumed = Trainer(config).train(resumed_model, tiny_scaled_dataset,
                                        resume_from=legacy)
        np.testing.assert_array_equal(resumed_model.theta.data,
                                      reference.theta.data)
        assert resumed.final_metrics == full.final_metrics

    def test_legacy_callbacks_entry_resumes_bit_identically(
            self, tiny_scaled_dataset, tmp_path):
        """Checkpoints used to carry per-callback state under "callbacks"
        (a cached evaluation, an early-stopping counter that had fired).
        Such a file resumes onto the uninterrupted trajectory, with the
        entry ignored."""
        config = _training_config(epochs=6)
        reference = MODEL_BUILDERS["quantum"]()
        full = Trainer(config).train(reference, tiny_scaled_dataset,
                                     tiny_scaled_dataset)
        path = str(tmp_path / "quantum.ckpt")
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=3),
                                         StopAfter(2)])
        payload = load_checkpoint(path)
        assert "callbacks" not in payload
        payload["callbacks"] = [
            ("EvalCallback", "None|None",
             {"last_eval": (2, {"test_ssim": -1.0, "test_mse": 9.0})}),
            ("EarlyStopping", "train_loss|min|1|10.0",
             {"best": 0.0, "wait": 1, "stopped_epoch": 2}),
            ("Checkpoint", None, {}),
        ]
        legacy = str(tmp_path / "legacy.ckpt")
        save_checkpoint(legacy, payload)
        resumed_model = MODEL_BUILDERS["quantum"]()
        resumed = Trainer(config).train(resumed_model, tiny_scaled_dataset,
                                        tiny_scaled_dataset,
                                        resume_from=legacy)
        assert resumed.history("train_loss") == full.history("train_loss")
        assert resumed.history("test_ssim") == full.history("test_ssim")
        assert resumed.final_metrics == full.final_metrics
        np.testing.assert_array_equal(resumed_model.theta.data,
                                      reference.theta.data)
        np.testing.assert_array_equal(resumed_model.output_scale.data,
                                      reference.output_scale.data)

    def test_stop_fields_are_not_written_and_legacy_ones_are_ignored(
            self, tiny_scaled_dataset, tmp_path):
        """A checkpoint of a run stopped early records no stop request,
        which nothing would read; a file from an older release that does
        carry one resumes onto the uninterrupted trajectory."""
        config = _training_config(epochs=6)
        reference = MODEL_BUILDERS["quantum"]()
        full = Trainer(config).train(reference, tiny_scaled_dataset)
        path = str(tmp_path / "quantum.ckpt")
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=3),
                                         StopAfter(2)])
        payload = load_checkpoint(path)
        assert not {"stop_training", "stop_reason"} & set(payload)
        payload.update(stop_training=True, stop_reason="test interruption")
        legacy = str(tmp_path / "legacy.ckpt")
        save_checkpoint(legacy, payload)
        resumed_model = MODEL_BUILDERS["quantum"]()
        resumed = Trainer(config).train(resumed_model, tiny_scaled_dataset,
                                        resume_from=legacy)
        assert resumed.history("train_loss") == full.history("train_loss")
        assert resumed.final_metrics == full.final_metrics
        np.testing.assert_array_equal(resumed_model.theta.data,
                                      reference.theta.data)

    @staticmethod
    def _policy_run(tmp_path=None, resume_from=None, stop=None):
        """A 4-qubit layer run on the default engine."""
        rng = np.random.default_rng(0)
        source = ArrayDataSource(rng.normal(size=(6, 16)),
                                 rng.random(size=(6, 4, 4)))
        config = QuGeoVQCConfig(n_groups=1, qubits_per_group=4, n_blocks=2,
                                decoder="layer", output_shape=(4, 4))
        model = QuGeoVQC(config, rng=0)
        callbacks = []
        if stop is not None:
            callbacks = [Checkpoint(str(tmp_path / "run.ckpt"), every=2),
                         StopAfter(stop)]
        Trainer(_training_config(epochs=4)).train(
            model, source, callbacks=callbacks, resume_from=resume_from)
        return model

    def test_compute_policy_recorded_and_enforced(self, tmp_path):
        """A checkpoint records ``"float64"`` and resumes bit for bit, with
        or without the key; one recorded under ``"float32"`` is refused."""
        reference = self._policy_run()
        self._policy_run(tmp_path, stop=2)
        path = str(tmp_path / "run.ckpt")
        payload = load_checkpoint(path)
        assert payload["policy"] == "float64"
        resumed = self._policy_run(resume_from=path)
        np.testing.assert_array_equal(resumed.theta.data,
                                      reference.theta.data)
        with pytest.raises(ValueError, match="'float32'.*'float64'"):
            self._policy_run(resume_from=dict(payload, policy="float32"))
        del payload["policy"]
        resumed = self._policy_run(resume_from=payload)
        np.testing.assert_array_equal(resumed.theta.data,
                                      reference.theta.data)

    def test_classical_checkpoint_records_no_policy(self, tiny_scaled_dataset,
                                                    tmp_path):
        path = str(tmp_path / "classical.ckpt")
        Trainer(_training_config(epochs=3)).train(
            MODEL_BUILDERS["classical"](), tiny_scaled_dataset,
            callbacks=[Checkpoint(path, every=3)])
        assert load_checkpoint(path)["policy"] is None

    def test_legacy_raw_pickle_checkpoint_still_loads(self, tmp_path):
        import pickle
        path = tmp_path / "legacy.ckpt"
        payload = {"version": 1, "epoch": 2}
        path.write_bytes(pickle.dumps(payload))
        assert load_checkpoint(path) == payload


class TestCallbacks:
    def test_final_epoch_evaluates_once(self, tiny_scaled_dataset):
        """Regression: final_metrics must reuse the last epoch's evaluation."""
        model = MODEL_BUILDERS["quantum"]()
        calls = {"count": 0}
        original = model.predict_batch

        def counting_predict(batch):
            calls["count"] += 1
            return original(batch)

        model.predict_batch = counting_predict
        config = _training_config(epochs=4, eval_every=2, eval_batch_size=None)
        Trainer(config).train(model, tiny_scaled_dataset, tiny_scaled_dataset)
        # Evaluations: epoch 1 (cadence) and epoch 3 (final) — the final
        # metrics reuse the epoch-3 evaluation instead of a third pass.
        assert calls["count"] == 2

    def test_eval_cadence_controls_metric_history(self, tiny_scaled_dataset):
        model = MODEL_BUILDERS["quantum"]()
        result = Trainer(_training_config(epochs=6, eval_every=3)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset)
        # Epochs 2 and 5 hit the cadence; epoch 5 is also the final epoch.
        assert result.logger.steps("test_ssim") == [2, 5]

    def test_callbacks_reset_between_runs(self, tiny_scaled_dataset):
        """Reusing one callback list across runs must not leak state:
        ``on_train_begin`` runs once per run, before the first epoch."""

        class EpochRecorder(Callback):
            def on_train_begin(self, state):
                self.ended, self.logged = [], []

            def on_epoch_end(self, state):
                # this epoch's evaluation is already in, its log entry not
                self.ended.append((state.epoch, "test_ssim" in state.metrics,
                                   len(state.logger.history("train_loss"))))

            def on_epoch_logged(self, state):
                self.logged.append(state.epoch)

        recorder = EpochRecorder()
        callbacks = [recorder, StopAfter(2)]
        histories = []
        for _ in range(2):
            result = Trainer(_training_config(epochs=4, eval_every=2)).train(
                MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                tiny_scaled_dataset, callbacks=callbacks)
            histories.append(result.history("train_loss"))
        assert histories[0] == histories[1]
        assert len(histories[0]) == 3
        assert recorder.logged == [0, 1, 2]
        assert recorder.ended == [(0, False, 0), (1, True, 1), (2, False, 2)]

    def test_resume_finished_run_rescoring_new_test_set(self,
                                                        tiny_scaled_dataset,
                                                        tmp_path):
        """Resuming a finished run against a different test split must not
        serve the old split's cached metrics."""
        from repro.core.experiment import evaluate_model

        path = str(tmp_path / "finished-eval.ckpt")
        config = _training_config(epochs=3)
        model = MODEL_BUILDERS["quantum"]()
        Trainer(config).train(model, tiny_scaled_dataset, tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=1)])
        other_split = tiny_scaled_dataset[:3]
        rescored = Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset, other_split,
            resume_from=path)
        expected = evaluate_model(model, other_split)
        assert rescored.final_metrics["test_ssim"] == pytest.approx(
            expected["ssim"])
        assert rescored.final_metrics["test_mse"] == pytest.approx(
            expected["mse"])

class TestEvaluationChunking:
    def test_eval_batch_size_does_not_change_metrics(self, tiny_scaled_dataset):
        results = []
        for eval_batch_size in (None, 2):
            model = MODEL_BUILDERS["quantum"]()
            config = _training_config(epochs=2,
                                      eval_batch_size=eval_batch_size)
            results.append(Trainer(config).train(
                model, tiny_scaled_dataset, tiny_scaled_dataset).final_metrics)
        assert results[0] == pytest.approx(results[1])

    def test_predict_in_batches_matches_single_pass(self, tiny_scaled_dataset):
        seismic = np.stack([sample.seismic.reshape(-1)
                            for sample in tiny_scaled_dataset])
        for family in sorted(MODEL_BUILDERS):
            model = MODEL_BUILDERS[family]()
            full = predict_in_batches(model, seismic)
            chunked = predict_in_batches(model, seismic, batch_size=2)
            np.testing.assert_allclose(chunked, full, atol=1e-12)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValueError):
            predict_in_batches(MODEL_BUILDERS["classical"](), np.zeros((0, 64)))


class TestOptimizerSchedulerState:
    def _network(self):
        return Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))

    def _train_steps(self, network, optimizer, steps, rng_seed=3):
        rng = np.random.default_rng(rng_seed)
        for _ in range(steps):
            optimizer.zero_grad()
            inputs = Tensor(rng.normal(size=(5, 4)))
            loss = (network(inputs) ** 2).sum()
            loss.backward()
            optimizer.step()

    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_optimizer_state_roundtrip_continues_identically(self,
                                                             optimizer_cls):
        kwargs = {"momentum": 0.9} if optimizer_cls is SGD else {}
        network_a = self._network()
        optimizer_a = optimizer_cls(network_a.parameters(), lr=0.05, **kwargs)
        self._train_steps(network_a, optimizer_a, steps=3)

        network_b = self._network()
        network_b.load_state_dict(network_a.state_dict())
        optimizer_b = optimizer_cls(network_b.parameters(), lr=0.05, **kwargs)
        optimizer_b.load_state_dict(optimizer_a.state_dict())

        # Same data stream from here on -> identical updates only if the
        # moment buffers and step counts were restored exactly.
        self._train_steps(network_a, optimizer_a, steps=2, rng_seed=11)
        self._train_steps(network_b, optimizer_b, steps=2, rng_seed=11)
        for name, param in network_a.named_parameters():
            np.testing.assert_array_equal(
                param.data, dict(network_b.named_parameters())[name].data)

    def test_optimizer_rejects_mismatched_state(self):
        network = self._network()
        optimizer = Adam(network.parameters(), lr=0.05)
        state = optimizer.state_dict()
        state["m"] = state["m"][:-1]
        with pytest.raises(ValueError):
            optimizer.load_state_dict(state)

    def test_scheduler_state_roundtrip(self):
        network = self._network()
        optimizer = Adam(network.parameters(), lr=0.1)
        scheduler = CosineAnnealingLR(optimizer, t_max=10, eta_min=1e-3)
        for _ in range(4):
            scheduler.step()
        resumed_optimizer = Adam(self._network().parameters(), lr=0.1)
        resumed_optimizer.load_state_dict(optimizer.state_dict())
        resumed = CosineAnnealingLR(resumed_optimizer, t_max=10, eta_min=1e-3)
        resumed.load_state_dict(scheduler.state_dict())
        assert resumed.step() == scheduler.step()
        assert resumed.last_epoch == scheduler.last_epoch


class TestLoggerState:
    def test_history_roundtrip(self):
        logger = RunLogger(name="run-a")
        logger.log(0, train_loss=1.0, lr=0.1)
        logger.log(1, train_loss=0.5, lr=0.09, test_ssim=0.8)
        clone = RunLogger(name="other")
        clone.load_state_dict(logger.state_dict())
        assert clone.name == "run-a"
        assert clone.as_dict() == logger.as_dict()
        assert clone.steps("test_ssim") == [1]


class TestScalerState:
    def test_dsample_roundtrip(self, small_data_config, tiny_dataset):
        scaler = DSampleScaler(small_data_config)
        rebuilt = scaler_from_state(scaler_state(scaler), small_data_config)
        np.testing.assert_array_equal(
            rebuilt.scale_sample(tiny_dataset[0]).seismic,
            scaler.scale_sample(tiny_dataset[0]).seismic)

    def test_forward_modeling_roundtrip(self, small_data_config, tiny_dataset):
        scaler = ForwardModelingScaler(small_data_config,
                                       simulation_shape=(16, 16),
                                       simulation_steps=64)
        rebuilt = scaler_from_state(scaler_state(scaler), small_data_config)
        assert rebuilt.simulation_shape == (16, 16)
        assert rebuilt.simulation_steps == 64
        np.testing.assert_array_equal(
            rebuilt.scale_sample(tiny_dataset[0]).seismic,
            scaler.scale_sample(tiny_dataset[0]).seismic)

    def test_cnn_scaler_roundtrip(self, small_data_config, tiny_dataset):
        reference = ForwardModelingScaler(small_data_config,
                                          simulation_shape=(16, 16),
                                          simulation_steps=64)
        scaler = CNNScaler.train(tiny_dataset[:3], config=small_data_config,
                                 reference_scaler=reference, epochs=2, rng=0)
        rebuilt = scaler_from_state(scaler_state(scaler), small_data_config)
        np.testing.assert_array_equal(
            rebuilt.scale_sample(tiny_dataset[0]).seismic,
            scaler.scale_sample(tiny_dataset[0]).seismic)

    def test_unknown_method_rejected(self, small_data_config):
        with pytest.raises(ValueError):
            scaler_from_state({"method": "bogus", "state": {}},
                              small_data_config)


class TestConfigSerialization:
    def test_roundtrip(self):
        config = QuGeoConfig(
            data=QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                                 scaled_velocity_shape=(6, 6)),
            vqc=QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=2,
                               decoder="layer", output_shape=(6, 6)),
            training=TrainingConfig(epochs=4, eval_batch_size=32),
            scaling_method="d_sample")
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config


@pytest.fixture(scope="module")
def scalers(tiny_dataset, small_data_config):
    """One scaler per method; the Q-D-CNN compressor trained for 2 epochs."""
    reference = ForwardModelingScaler(small_data_config,
                                      simulation_shape=(16, 16),
                                      simulation_steps=64)
    return {"d_sample": DSampleScaler(small_data_config),
            "forward_modeling": reference,
            "cnn": CNNScaler.train(tiny_dataset[:3], config=small_data_config,
                                   reference_scaler=reference, epochs=2,
                                   rng=0)}


def _pipeline(method, scalers, small_data_config):
    pipeline = QuGeo(QuGeoConfig(data=small_data_config, vqc=_vqc_config(),
                                 scaling_method=method), rng=0)
    pipeline.scaler = scalers[method]
    pipeline.build_model()
    return pipeline


class TestPredictScalesSeismicOnly:
    @pytest.mark.parametrize("method", ["d_sample", "forward_modeling", "cnn"])
    def test_predictions_match_the_scale_dataset_path(
            self, method, scalers, small_data_config, tiny_dataset,
            monkeypatch):
        """``predict_dataset`` predicts what scaling whole samples did, and
        it scales no velocity map on the way."""
        pipeline = _pipeline(method, scalers, small_data_config)
        scaled = pipeline.scaler.scale_dataset(tiny_dataset)
        expected = pipeline.normalizer.denormalize(predict_in_batches(
            pipeline.model,
            np.stack([sample.seismic_vector() for sample in scaled]),
            batch_size=pipeline.config.training.eval_batch_size))

        def no_velocity(*args, **kwargs):
            raise AssertionError("predict_dataset scaled a velocity map")

        monkeypatch.setattr(BaseScaler, "scale_velocity", no_velocity)
        np.testing.assert_array_equal(pipeline.predict_dataset(tiny_dataset),
                                      expected)


class TestPipelineSaveLoad:
    @pytest.fixture(scope="class")
    def fitted_pipeline(self, tiny_dataset):
        config = QuGeoConfig(
            data=QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                                 scaled_velocity_shape=(6, 6)),
            vqc=QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=2,
                               decoder="layer", output_shape=(6, 6)),
            training=TrainingConfig(epochs=3, learning_rate=0.1, batch_size=3,
                                    eval_every=2, seed=0),
            scaling_method="forward_modeling")
        pipeline = QuGeo(config, rng=0)
        train, test = train_test_split(tiny_dataset, train_size=4, rng=0)
        pipeline.fit(train, test)
        return pipeline, test

    def test_predictions_roundtrip_exactly(self, fitted_pipeline, tmp_path):
        pipeline, test = fitted_pipeline
        path = str(tmp_path / "pipeline.qugeo")
        pipeline.save(path)
        served = QuGeo.load(path)
        np.testing.assert_array_equal(served.predict_dataset(test),
                                      pipeline.predict_dataset(test))

    def test_loaded_pipeline_keeps_history_and_metrics(self, fitted_pipeline,
                                                       tmp_path):
        pipeline, _ = fitted_pipeline
        path = str(tmp_path / "pipeline.qugeo")
        pipeline.save(path)
        served = QuGeo.load(path)
        assert (served.training_result.final_metrics
                == pipeline.training_result.final_metrics)
        assert (served.training_result.history("train_loss")
                == pipeline.training_result.history("train_loss"))
        assert "test_ssim" in served.summary()

    def test_legacy_backend_and_dtype_keys_load(self, fitted_pipeline,
                                                tmp_path):
        """A pipeline file whose config carries the removed ``vqc.backend``
        and ``training.dtype`` keys loads and serves bit-identically."""
        pipeline, test = fitted_pipeline
        path = str(tmp_path / "pipeline.qugeo")
        pipeline.save(path)
        payload = load_checkpoint(path)
        payload["config"]["vqc"]["backend"] = None
        payload["config"]["training"]["dtype"] = None
        legacy = str(tmp_path / "legacy.qugeo")
        save_checkpoint(legacy, payload)
        served = QuGeo.load(legacy)
        assert served.config == pipeline.config
        np.testing.assert_array_equal(served.predict_dataset(test),
                                      pipeline.predict_dataset(test))

    def test_compute_policy_recorded_and_enforced(self, fitted_pipeline,
                                                  tmp_path):
        """The payload records ``"float64"`` and serves bit for bit, with or
        without the key (files written before it was recorded); a file
        recorded under ``"float32"`` is refused."""
        pipeline, test = fitted_pipeline
        path = str(tmp_path / "pipeline.qugeo")
        pipeline.save(path)
        payload = load_checkpoint(path)
        assert payload["policy"] == "float64"
        np.testing.assert_array_equal(QuGeo.load(path).predict_dataset(test),
                                      pipeline.predict_dataset(test))
        payload["policy"] = "float32"
        mismatched = str(tmp_path / "float32.qugeo")
        save_checkpoint(mismatched, payload)
        with pytest.raises(ValueError, match="'float32'.*'float64'"):
            QuGeo.load(mismatched)
        del payload["policy"]
        legacy = str(tmp_path / "legacy.qugeo")
        save_checkpoint(legacy, payload)
        np.testing.assert_array_equal(QuGeo.load(legacy).predict_dataset(test),
                                      pipeline.predict_dataset(test))

    def test_save_before_fit_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            QuGeo().save(str(tmp_path / "nothing.qugeo"))

    def test_non_finite_model_state_rejected(self, fitted_pipeline, tmp_path):
        pipeline, test = fitted_pipeline
        path = str(tmp_path / "pipeline.qugeo")
        pipeline.save(path)
        payload = load_checkpoint(path)
        payload["model"]["theta"] = np.full_like(payload["model"]["theta"],
                                                 np.nan)
        poisoned = str(tmp_path / "poisoned.qugeo")
        save_checkpoint(poisoned, payload)
        with pytest.raises(ValueError, match="'theta' holds NaN or inf"):
            QuGeo.load(poisoned)
        served = QuGeo.load(path)
        np.testing.assert_array_equal(served.predict_dataset(test),
                                      pipeline.predict_dataset(test))

    def test_non_finite_compressor_state_rejected(
            self, scalers, small_data_config, tmp_path):
        pipeline = _pipeline("cnn", scalers, small_data_config)
        path = str(tmp_path / "cnn.qugeo")
        pipeline.save(path)
        payload = load_checkpoint(path)
        payload["scaler"]["state"]["network"]["head.weight"][0, 0] = np.nan
        poisoned = str(tmp_path / "poisoned.qugeo")
        save_checkpoint(poisoned, payload)
        with pytest.raises(ValueError, match="'head.weight' holds NaN or inf"):
            QuGeo.load(poisoned)

    def test_cnn_pipeline_loads_without_drawing_weights(
            self, scalers, small_data_config, tiny_dataset, tmp_path,
            monkeypatch):
        """The compressor is rebuilt from its saved arrays: with the weight
        initialiser patched to raise, loading still serves bit for bit."""
        pipeline = _pipeline("cnn", scalers, small_data_config)
        path = str(tmp_path / "cnn.qugeo")
        pipeline.save(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("QuGeo.load drew initial weights")

        monkeypatch.setattr(nn_init, "kaiming_uniform", no_draw)
        served = QuGeo.load(path)
        np.testing.assert_array_equal(served.predict_dataset(tiny_dataset),
                                      pipeline.predict_dataset(tiny_dataset))
        for (name, saved), (_, loaded) in zip(
                pipeline.scaler.compressor.named_tensors(),
                served.scaler.compressor.named_tensors()):
            np.testing.assert_array_equal(loaded.data, saved.data, err_msg=name)
