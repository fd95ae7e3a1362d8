"""Tests for the unified training engine.

Covers the engine's pluggable pieces (step-strategy selection, callbacks),
checkpoint/resume bit-identity for all three model families, state_dict
round trips for optimisers, schedulers, scalers and the logger, bounded
evaluation chunking, and pipeline save/load serving.
"""

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.core import (
    BestModelTracker,
    Callback,
    Checkpoint,
    EarlyStopping,
    EvalCallback,
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
    CNNScaler,
    DSampleScaler,
    ForwardModelingScaler,
    scaler_from_state,
    scaler_state,
)
from repro.core.training import (
    ArrayDataSource,
    ClassicalAutogradStep,
    QuantumBatchedAdjointStep,
    QuBatchStep,
)
from repro.data.dataset import train_test_split
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
        assert isinstance(select_step_strategy(MODEL_BUILDERS["qubatch"]()),
                          QuBatchStep)
        assert isinstance(select_step_strategy(MODEL_BUILDERS["classical"]()),
                          ClassicalAutogradStep)
        # One reversible adjoint sweep per mini-batch on either engine.
        for backend in (EinsumBatchBackend(), NumpyLoopBackend()):
            quantum = QuGeoVQC(_vqc_config("layer"), rng=0, backend=backend)
            assert isinstance(select_step_strategy(quantum),
                              QuantumBatchedAdjointStep)

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

    def test_changed_callback_tunables_warn(self, tiny_scaled_dataset,
                                            tmp_path):
        """A resumed EarlyStopping with a different patience must not
        silently claim the old counter state."""
        path = str(tmp_path / "tunables.ckpt")
        config = _training_config(epochs=6)
        Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[EarlyStopping(monitor="train_loss", patience=50),
                       Checkpoint(path, every=3), StopAfter(2)])
        relaxed = EarlyStopping(monitor="train_loss", patience=2)
        with pytest.warns(UserWarning, match="EarlyStopping"):
            Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                  tiny_scaled_dataset, callbacks=[relaxed],
                                  resume_from=path)

    def test_train_end_save_skipped_after_best_restore(self,
                                                       tiny_scaled_dataset,
                                                       tmp_path):
        """A best-restored model mixed with final-epoch optimiser state is
        not a trajectory point and must not be written as resumable."""
        path = tmp_path / "mixed.ckpt"
        tracker = BestModelTracker(monitor="train_loss", restore_best=True)
        Trainer(_training_config(epochs=4)).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[tracker,
                       Checkpoint(str(path), every=100,
                                  save_on_train_end=True)])
        assert not path.exists()

    def test_eval_callback_validates_arguments(self):
        with pytest.raises(ValueError):
            EvalCallback(every=0)
        with pytest.raises(ValueError):
            EvalCallback(batch_size=0)

    def test_zero_epoch_resume_does_not_rewind_checkpoint(
            self, tiny_scaled_dataset, tmp_path):
        """Regression: resuming a finished run with save_on_train_end must
        re-record the restored epoch, not rewind the file to epoch 1."""
        path = str(tmp_path / "finished.ckpt")
        config = _training_config(epochs=3)
        model = MODEL_BUILDERS["quantum"]()
        Trainer(config).train(model, tiny_scaled_dataset,
                              callbacks=[Checkpoint(path, every=1)])
        assert load_checkpoint(path)["epoch"] == 3
        resumed = Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[Checkpoint(path, save_on_train_end=True)],
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


class NanAfter(ClassicalAutogradStep):
    """Step strategy that poisons one batch's loss (for the NaN guard)."""

    def __init__(self, fail_on_call, value=float("nan")):
        super().__init__()
        self.fail_on_call = int(fail_on_call)
        self.value = value
        self.calls = 0

    def step(self, model, seismic, velocity):
        self.calls += 1
        if self.calls == self.fail_on_call:
            return self.value
        return super().step(model, seismic, velocity)


class TestNanLossGuard:
    def test_stop_policy_halts_with_nan_loss_flag(self, tiny_scaled_dataset):
        model = MODEL_BUILDERS["classical"]()
        result = Trainer(_training_config(epochs=6),
                         strategy=NanAfter(fail_on_call=3)).train(
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

    def test_inf_loss_also_trips_the_guard(self, tiny_scaled_dataset):
        result = Trainer(_training_config(epochs=4),
                         strategy=NanAfter(1, value=float("inf"))).train(
            MODEL_BUILDERS["classical"](), tiny_scaled_dataset)
        assert result.history("nan_loss") == [1.0]
        assert len(result.history("train_loss")) == 1

    def test_raise_policy_surfaces_the_batch(self, tiny_scaled_dataset):
        config = _training_config(epochs=4, nan_policy="raise")
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            Trainer(config, strategy=NanAfter(2)).train(
                MODEL_BUILDERS["classical"](), tiny_scaled_dataset)

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

    def test_early_stopping_halts_training(self, tiny_scaled_dataset):
        model = MODEL_BUILDERS["quantum"]()
        stopper = EarlyStopping(monitor="train_loss", patience=1,
                                min_delta=10.0)  # nothing can improve by 10
        result = Trainer(_training_config(epochs=10)).train(
            model, tiny_scaled_dataset, callbacks=[stopper])
        assert stopper.stopped_epoch is not None
        assert len(result.history("train_loss")) < 10

    def test_best_model_tracker_restores_best(self, tiny_scaled_dataset):
        model = MODEL_BUILDERS["quantum"]()
        tracker = BestModelTracker(monitor="train_loss", restore_best=True)
        result = Trainer(_training_config(epochs=4)).train(
            model, tiny_scaled_dataset, callbacks=[tracker])
        losses = result.history("train_loss")
        assert tracker.best_epoch == int(np.argmin(losses))
        assert tracker.best_value == pytest.approx(min(losses))
        np.testing.assert_array_equal(model.theta.data,
                                      tracker.best_state["theta"])

    def test_eval_cadence_controls_metric_history(self, tiny_scaled_dataset):
        model = MODEL_BUILDERS["quantum"]()
        result = Trainer(_training_config(epochs=6, eval_every=3)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset)
        # Epochs 2 and 5 hit the cadence; epoch 5 is also the final epoch.
        assert result.logger.steps("test_ssim") == [2, 5]

    def test_custom_eval_callback_cadence_wins(self, tiny_scaled_dataset):
        model = MODEL_BUILDERS["quantum"]()
        result = Trainer(_training_config(epochs=4, eval_every=1)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset,
            callbacks=[EvalCallback(every=2)])
        assert result.logger.steps("test_ssim") == [1, 3]

    def test_callbacks_reset_between_runs(self, tiny_scaled_dataset):
        """Reusing one callback list across runs must not leak state."""
        stopper = EarlyStopping(monitor="train_loss", patience=1,
                                min_delta=10.0)
        tracker = BestModelTracker(monitor="train_loss")
        evaluator = EvalCallback()
        callbacks = [evaluator, stopper, tracker]
        histories = []
        for _ in range(2):
            model = MODEL_BUILDERS["quantum"]()
            result = Trainer(_training_config(epochs=4)).train(
                model, tiny_scaled_dataset, tiny_scaled_dataset,
                callbacks=callbacks)
            histories.append(result.history("train_loss"))
        # Identical seeds + a clean reset -> the two runs behave identically
        # (a stale EarlyStopping counter would truncate the second run).
        assert histories[0] == histories[1]
        assert tracker.best_epoch is not None

    def test_stateful_callbacks_resume_from_checkpoint(self,
                                                       tiny_scaled_dataset,
                                                       tmp_path):
        """Patience counters and best-model state survive a resume."""
        path = str(tmp_path / "cb.ckpt")
        config = _training_config(epochs=6)

        def callbacks():
            return [EarlyStopping(monitor="train_loss", patience=50),
                    BestModelTracker(monitor="train_loss")]

        full_model = MODEL_BUILDERS["quantum"]()
        full_callbacks = callbacks()
        Trainer(config).train(full_model, tiny_scaled_dataset,
                              callbacks=full_callbacks)

        interrupted = callbacks()
        Trainer(config).train(MODEL_BUILDERS["quantum"](),
                              tiny_scaled_dataset,
                              callbacks=interrupted + [Checkpoint(path, every=3),
                                                       StopAfter(2)])
        resumed = callbacks()
        Trainer(config).train(MODEL_BUILDERS["quantum"](),
                              tiny_scaled_dataset,
                              callbacks=resumed, resume_from=path)
        assert resumed[1].best_epoch == full_callbacks[1].best_epoch
        assert resumed[1].best_value == full_callbacks[1].best_value
        assert resumed[0].best == full_callbacks[0].best
        assert resumed[0].wait == full_callbacks[0].wait

    def test_checkpoint_listed_first_still_saves_fresh_callback_state(
            self, tiny_scaled_dataset, tmp_path):
        """Regression: Checkpoint hooks run after other callbacks, so the
        snapshot holds this epoch's patience counter even when the caller
        lists Checkpoint first."""
        path = str(tmp_path / "order.ckpt")
        config = _training_config(epochs=8)

        def stopper():
            # min_delta too large to ever improve -> wait grows every epoch.
            return EarlyStopping(monitor="train_loss", patience=4,
                                 min_delta=10.0)

        full_stopper = stopper()
        full = Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                     tiny_scaled_dataset,
                                     callbacks=[full_stopper])

        interrupted = stopper()
        Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[Checkpoint(path, every=1), interrupted, StopAfter(1)])
        resumed_stopper = stopper()
        resumed = Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[Checkpoint(str(tmp_path / "unused.ckpt"), every=1),
                       resumed_stopper],
            resume_from=path)
        assert resumed.history("train_loss") == full.history("train_loss")
        assert resumed_stopper.stopped_epoch == full_stopper.stopped_epoch

    def test_resume_from_stopped_run_stays_stopped(self, tiny_scaled_dataset,
                                                   tmp_path):
        """Regression: a checkpoint written at an early-stop epoch must not
        train further on resume."""
        path = str(tmp_path / "stopped.ckpt")
        config = _training_config(epochs=8)

        def stopper():
            return EarlyStopping(monitor="train_loss", patience=1,
                                 min_delta=10.0)

        reference_model = MODEL_BUILDERS["quantum"]()
        reference = Trainer(config).train(
            reference_model, tiny_scaled_dataset, callbacks=[stopper()])

        stopped_model = MODEL_BUILDERS["quantum"]()
        Trainer(config).train(stopped_model, tiny_scaled_dataset,
                              callbacks=[stopper(),
                                         Checkpoint(path, every=1)])
        resumed_model = MODEL_BUILDERS["quantum"]()
        resumed = Trainer(config).train(resumed_model, tiny_scaled_dataset,
                                        callbacks=[stopper()],
                                        resume_from=path)
        assert resumed.history("train_loss") == reference.history("train_loss")
        np.testing.assert_array_equal(resumed_model.theta.data,
                                      reference_model.theta.data)

    def test_callback_state_resumes_across_reordering(self,
                                                      tiny_scaled_dataset,
                                                      tmp_path):
        """Saved callback state pairs by class, not list position."""
        path = str(tmp_path / "reorder.ckpt")
        config = _training_config(epochs=6)
        stopper = EarlyStopping(monitor="train_loss", patience=50)
        Trainer(config).train(MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
                              callbacks=[stopper, Checkpoint(path, every=3),
                                         StopAfter(2)])
        resumed_stopper = EarlyStopping(monitor="train_loss", patience=50)
        Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[Checkpoint(str(tmp_path / "other.ckpt"), every=3),
                       resumed_stopper],
            resume_from=path)
        # The stopper claimed its saved state although its position moved.
        assert resumed_stopper.best is not None

    def test_same_class_callbacks_pair_by_monitor(self, tiny_scaled_dataset,
                                                  tmp_path):
        """Two EarlyStopping instances must reclaim their own state after a
        reorder, not swap patience counters."""
        path = str(tmp_path / "two-stoppers.ckpt")
        config = _training_config(epochs=6, eval_every=1)

        def stoppers():
            return {"loss": EarlyStopping(monitor="train_loss", patience=50),
                    "ssim": EarlyStopping(monitor="test_ssim", mode="max",
                                          patience=50)}

        original = stoppers()
        Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            tiny_scaled_dataset,
            callbacks=[original["loss"], original["ssim"],
                       Checkpoint(path, every=3), StopAfter(2)])
        resumed = stoppers()
        Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            tiny_scaled_dataset,
            callbacks=[resumed["ssim"], resumed["loss"]],  # reversed order
            resume_from=path)
        # train_loss decreases (min mode) while test_ssim grows (max mode);
        # crossed state would hand each stopper the other's best value.
        full = stoppers()
        Trainer(config).train(MODEL_BUILDERS["quantum"](),
                              tiny_scaled_dataset, tiny_scaled_dataset,
                              callbacks=[full["loss"], full["ssim"]])
        assert resumed["loss"].best == full["loss"].best
        assert resumed["ssim"].best == full["ssim"].best

    def test_resume_finished_run_rescoring_new_test_set(self,
                                                        tiny_scaled_dataset,
                                                        tmp_path):
        """Resuming a finished run against a different test split must not
        serve the old split's cached metrics."""
        from repro.core import evaluate_model

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

    def test_orphaned_callback_state_warns(self, tiny_scaled_dataset,
                                           tmp_path):
        path = str(tmp_path / "orphan.ckpt")
        config = _training_config(epochs=6)
        Trainer(config).train(
            MODEL_BUILDERS["quantum"](), tiny_scaled_dataset,
            callbacks=[EarlyStopping(monitor="train_loss", patience=50),
                       Checkpoint(path, every=3), StopAfter(2)])
        with pytest.warns(UserWarning, match="EarlyStopping"):
            Trainer(config).train(MODEL_BUILDERS["quantum"](),
                                  tiny_scaled_dataset, resume_from=path)

    def test_restore_best_final_metrics_describe_returned_model(
            self, tiny_scaled_dataset):
        """Regression: final_metrics must score the restored-best weights."""
        from repro.core import evaluate_model

        tracker = BestModelTracker(monitor="train_loss", restore_best=True)
        model = MODEL_BUILDERS["quantum"]()
        result = Trainer(_training_config(epochs=4)).train(
            model, tiny_scaled_dataset, tiny_scaled_dataset,
            callbacks=[tracker])
        rescored = evaluate_model(model, tiny_scaled_dataset)
        assert result.final_metrics["test_ssim"] == pytest.approx(
            rescored["ssim"])
        assert result.final_metrics["test_mse"] == pytest.approx(
            rescored["mse"])


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
