"""Checkpoint, resume and serve: the unified training engine end to end.

This script demonstrates the three serialization capabilities the training
engine provides, at a miniature scale that finishes in well under a minute:

1. **Checkpoint** — train a QuGeo pipeline with a :class:`Checkpoint`
   callback that persists the full training state (model, Adam moments,
   scheduler position, shuffle-RNG state, metric history) every few epochs,
   and interrupt the run partway through.
2. **Resume** — restart training from the checkpoint and verify the resumed
   run's per-epoch loss history matches an uninterrupted reference run
   exactly (bit-identical trajectories, not just "close").
3. **Serve** — save the fitted pipeline with ``QuGeo.save``, load it back
   with ``QuGeo.load`` in a fresh object, and predict velocity maps from the
   saved artifact without refitting anything.

Run with::

    python examples/resume_training.py

Checkpoint artifacts land in ``checkpoints/`` (override with the
``QUGEO_CHECKPOINT_DIR`` environment variable).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core import Callback, Checkpoint, QuGeo, Trainer
from repro.core.config import (
    QuGeoConfig,
    QuGeoDataConfig,
    QuGeoVQCConfig,
    TrainingConfig,
)
from repro.core.vqc_model import QuGeoVQC
from repro.data import build_flatvel_dataset, train_test_split
from repro.utils import env

CHECKPOINT_DIR = env.get_str(env.CHECKPOINT_DIR, "checkpoints")
EPOCHS = 12
INTERRUPT_AFTER = 5  # epochs completed before the simulated crash


class InterruptAfter(Callback):
    """Simulate a crash: stop the run once ``epoch`` has been logged."""

    def __init__(self, epoch: int) -> None:
        self.epoch = int(epoch)

    def on_epoch_logged(self, state) -> None:
        if state.epoch >= self.epoch - 1:
            state.stop_training = True
            state.stop_reason = "simulated interruption"


def build_config() -> QuGeoConfig:
    return QuGeoConfig(
        data=QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                             scaled_velocity_shape=(6, 6)),
        vqc=QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=3,
                           decoder="layer", output_shape=(6, 6)),
        training=TrainingConfig(epochs=EPOCHS, learning_rate=0.1,
                                batch_size=4, eval_every=4, seed=0),
        scaling_method="forward_modeling",
    )


def main() -> None:
    checkpoint_path = os.path.join(CHECKPOINT_DIR, "qugeo_training.ckpt")
    pipeline_path = os.path.join(CHECKPOINT_DIR, "qugeo_pipeline.qugeo")

    print("1) Generating a synthetic FlatVelA-style dataset...")
    dataset = build_flatvel_dataset(n_samples=12, velocity_shape=(24, 24),
                                    n_time_steps=120, n_sources=2, rng=0)
    train, test = train_test_split(dataset, train_size=9, rng=0)

    config = build_config()
    pipeline = QuGeo(config, rng=0)
    pipeline.build_scaler()
    scaled_train = pipeline.scaler.scale_dataset(train)
    scaled_test = pipeline.scaler.scale_dataset(test)

    print(f"2) Reference run: {EPOCHS} uninterrupted epochs...")
    reference_model = QuGeoVQC(config.vqc, rng=0)
    reference = Trainer(config.training).train(reference_model, scaled_train,
                                               scaled_test)

    print(f"3) Interrupted run: checkpoint every 5 epochs, 'crash' after "
          f"epoch {INTERRUPT_AFTER}...")
    interrupted_model = QuGeoVQC(config.vqc, rng=0)
    Trainer(config.training).train(
        interrupted_model, scaled_train, scaled_test,
        callbacks=[Checkpoint(checkpoint_path, every=5),
                   InterruptAfter(INTERRUPT_AFTER)])
    print(f"   checkpoint written to {checkpoint_path}")

    print("4) Resuming from the checkpoint...")
    resumed_model = QuGeoVQC(config.vqc, rng=0)
    resumed = Trainer(config.training).train(resumed_model, scaled_train,
                                             scaled_test,
                                             resume_from=checkpoint_path)

    reference_losses = reference.history("train_loss")
    resumed_losses = resumed.history("train_loss")
    identical = reference_losses == resumed_losses
    print(f"   reference loss history: {np.round(reference_losses, 6)}")
    print(f"   resumed   loss history: {np.round(resumed_losses, 6)}")
    print(f"   trajectories bit-identical: {identical}")
    if not identical:
        raise SystemExit("resumed trajectory diverged from the reference run")

    print("5) Saving the fitted pipeline and serving from the saved file...")
    pipeline.model = resumed_model
    pipeline.training_result = resumed
    pipeline.save(pipeline_path)
    served = QuGeo.load(pipeline_path)
    sample = test[0]
    live = pipeline.predict(sample)
    loaded = served.predict(sample)
    print(f"   pipeline saved to {pipeline_path}")
    print(f"   served prediction matches live model: "
          f"{np.array_equal(live, loaded)}")
    print(f"   final test SSIM: {served.training_result.final_metrics['test_ssim']:.4f}")
    if not np.array_equal(live, loaded):
        raise SystemExit("served prediction diverged from the live model")


if __name__ == "__main__":
    main()
