"""Oracles for the reversible adjoint sweep that share no code with it.

:func:`repro.quantum.autodiff.circuit_gradients_batched` is checked against
finite differences and the parameter-shift rule, which only evaluate the
forward circuit and the loss value:

* at the paper's depth (8 qubits, 12 blocks, 576 parameters, batch 16) for
  both decoders on both engines, plus a golden pin of one seeded batch's
  gradient that both engines must reproduce;
* on a single-gate circuit for every entry of ``PARAMETRIC_GATES``;
* for its memory, which must not grow with circuit depth;
* end to end, through a golden pin of a seeded quickstart-scale
  ``QuGeo.fit`` that holds on the default engine and the ``numpy`` oracle.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.core import QuGeo
from repro.core.config import (
    QuGeoConfig,
    QuGeoDataConfig,
    QuGeoVQCConfig,
    TrainingConfig,
)
from repro.core.vqc_model import QuGeoVQC
from repro.data import build_flatvel_dataset, train_test_split
from repro.quantum import amplitude_encode, u3_cu3_ansatz
from repro.quantum.autodiff import (
    circuit_gradients_batched,
    finite_difference_gradients,
    parameter_shift_gradients,
)
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.measurement import (
    z_expectations,
    z_expectations_backward_batched,
    z_expectations_batched,
)
from repro.quantum.parametric import PARAMETRIC_GATES

#: The default engine and the per-gate oracle, as instances.
ENGINES = (pytest.param(EinsumBatchBackend(), id="einsum"),
           pytest.param(NumpyLoopBackend(), id="numpy"))

# Gates whose every parameter enters as exp(-i theta G / 2) with G**2 = 1
# (up to a global phase), for which the two-term shift rule is exact.
SHIFT_EXACT_GATES = ("RX", "RY", "RZ", "U3")


def _random_states(n_qubits, batch, rng):
    return np.stack([amplitude_encode(rng.normal(size=2**n_qubits), n_qubits)
                     for _ in range(batch)])


# --------------------------------------------------------------------------- #
# paper depth: 8 qubits, 12 blocks, batch 16, both decoders, both engines
# --------------------------------------------------------------------------- #
N_QUBITS, N_BLOCKS, BATCH = 8, 12, 16
# Samples of the batch whose gradient rows are checked against finite
# differences (each costs ~50 forward runs of the 192-gate circuit).
FD_ROWS = 4


def _paper_parameter_subset(rng):
    """Seeded U3 and CU3 parameters of the first, middle and last blocks."""
    per_block = 6 * N_QUBITS  # 8 U3 then 8 CU3, three parameters each
    picked = []
    for block in (0, N_BLOCKS // 2, N_BLOCKS - 1):
        start = block * per_block
        u3 = np.arange(start, start + 3 * N_QUBITS)
        cu3 = np.arange(start + 3 * N_QUBITS, start + per_block)
        picked += list(rng.choice(u3, size=4, replace=False))
        picked += list(rng.choice(cu3, size=4, replace=False))
    return [int(i) for i in picked]


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("decoder", ["pixel", "layer"])
def test_paper_depth_gradients_match_finite_differences(backend, decoder):
    rng = np.random.default_rng(2009)
    model = QuGeoVQC(QuGeoVQCConfig(qubits_per_group=N_QUBITS,
                                    n_blocks=N_BLOCKS, decoder=decoder,
                                    output_shape=(8, 8)),
                     rng=7, backend=backend)
    assert model.circuit.n_params == 576
    seismic = rng.normal(size=(BATCH, model.encoder.capacity))
    targets = rng.random((BATCH, 8, 8))
    states = np.stack([model.encode(sample) for sample in seismic])

    def batched_head(outputs):
        losses, lams, _ = model._loss_terms(outputs, targets)
        return losses, lams

    _, grads = circuit_gradients_batched(model.circuit, model.theta.data,
                                         states, batched_head,
                                         backend=backend)
    assert grads.shape == (BATCH, 576)

    subset = _paper_parameter_subset(rng)
    assert len(set(subset)) >= 24
    for row in rng.choice(BATCH, size=FD_ROWS, replace=False):
        def loss_only(psi, target=targets[row]):
            return float(model._loss_terms(psi[None], target[None])[0][0]), None

        _, expected = finite_difference_gradients(
            model.circuit, model.theta.data, states[row], loss_only,
            backend=backend, indices=subset)
        np.testing.assert_allclose(grads[row, subset], expected, atol=1e-6)


#: L2 norm and index-weighted sum (weights 1..9216 over the flattened
#: ``(16, 576)`` gradient) of the seeded paper-depth layer-decoder batch.
#: Two scalars at rtol 1e-10 survive BLAS and numpy rounding differences,
#: yet catch any change to what the adjoint sweep computes.
GOLDEN_PAPER_GRADIENT = {"l2_norm": 0.07065665180632913,
                         "weighted_sum": -650.6483559814743}


@pytest.mark.parametrize("backend", ENGINES)
def test_paper_depth_gradient_pin(backend):
    rng = np.random.default_rng(2024)
    model = QuGeoVQC(QuGeoVQCConfig(qubits_per_group=N_QUBITS,
                                    n_blocks=N_BLOCKS, decoder="layer",
                                    output_shape=(8, 8)),
                     rng=11, backend=backend)
    seismic = rng.normal(size=(BATCH, model.encoder.capacity))
    targets = rng.random((BATCH, 8, 8))
    states = np.stack([model.encode(sample) for sample in seismic])

    def batched_head(outputs):
        losses, lams, _ = model._loss_terms(outputs, targets)
        return losses, lams

    _, grads = circuit_gradients_batched(model.circuit, model.theta.data,
                                         states, batched_head,
                                         backend=backend)
    assert grads.shape == (BATCH, 576)
    flat = grads.reshape(-1)
    weights = np.arange(1, flat.size + 1, dtype=np.float64)
    assert np.linalg.norm(flat) == pytest.approx(
        GOLDEN_PAPER_GRADIENT["l2_norm"], rel=1e-10, abs=0.0)
    assert float(weights @ flat) == pytest.approx(
        GOLDEN_PAPER_GRADIENT["weighted_sum"], rel=1e-10, abs=0.0)


# --------------------------------------------------------------------------- #
# one single-gate circuit per parametric gate
# --------------------------------------------------------------------------- #
def _linear_z_heads(n_qubits, weights):
    """A loss linear in the Z expectations (so parameter shift is exact)."""
    def single(psi):
        return float(z_expectations(psi, range(n_qubits), n_qubits) @ weights), None

    def batched(outputs):
        z = z_expectations_batched(np.abs(outputs)**2, range(n_qubits),
                                   n_qubits)
        grads = np.broadcast_to(weights, z.shape)
        return z @ weights, z_expectations_backward_batched(
            outputs, range(n_qubits), n_qubits, grads)

    return single, batched


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("name", sorted(PARAMETRIC_GATES))
def test_single_gate_gradient(name, backend):
    gate = PARAMETRIC_GATES[name]
    n = 3
    rng = np.random.default_rng(sorted(PARAMETRIC_GATES).index(name))
    circuit = ParameterizedCircuit(n)
    # Non-adjacent, reversed targets exercise the qubit-ordering convention.
    circuit.add_parametric_gate(name, (2, 0)[:gate.n_qubits])
    params = rng.normal(size=circuit.n_params)
    states = _random_states(n, 3, rng)
    single, batched = _linear_z_heads(n, rng.normal(size=n))

    _, grads = circuit_gradients_batched(circuit, params, states, batched,
                                         backend=backend)
    for row, state in enumerate(states):
        if name in SHIFT_EXACT_GATES:
            _, expected = parameter_shift_gradients(circuit, params, state,
                                                    single, backend=backend)
            atol = 1e-12
        else:
            _, expected = finite_difference_gradients(circuit, params, state,
                                                      single, backend=backend)
            atol = 1e-8
        np.testing.assert_allclose(grads[row], expected, atol=atol)


# --------------------------------------------------------------------------- #
# memory does not grow with depth
# --------------------------------------------------------------------------- #
def _gradient_peak_bytes(n_blocks):
    rng = np.random.default_rng(3)
    circuit = u3_cu3_ansatz(N_QUBITS, n_blocks=n_blocks)
    params = rng.normal(size=circuit.n_params)
    states = _random_states(N_QUBITS, BATCH, rng)
    _, batched = _linear_z_heads(N_QUBITS, rng.normal(size=N_QUBITS))
    # Run once first so one-time setup stays out of the measured peak.
    circuit_gradients_batched(circuit, params, states, batched)
    tracemalloc.start()
    try:
        circuit_gradients_batched(circuit, params, states, batched)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_memory_does_not_grow_with_depth():
    # One (16, 256) complex128 stack is 64 KiB; storing every pre-gate
    # stack of the 12-block circuit would take 12.5 MiB.
    peak_12 = _gradient_peak_bytes(12)
    peak_24 = _gradient_peak_bytes(24)
    assert peak_12 < 2 * 2**20, peak_12
    assert peak_24 <= 1.2 * peak_12, (peak_12, peak_24)


# --------------------------------------------------------------------------- #
# golden pin of a quickstart-scale fit across engines
# --------------------------------------------------------------------------- #
#: ``examples/quickstart.py`` final metrics, float64, seed 0.
GOLDEN_QUICKSTART = {"test_ssim": 0.47175924398903435,
                     "test_mse": 0.03610175601441464}


@pytest.fixture(scope="module")
def quickstart_split():
    dataset = build_flatvel_dataset(n_samples=16, velocity_shape=(32, 32),
                                    n_time_steps=200, n_sources=2, rng=0)
    return train_test_split(dataset, train_size=12, rng=0)


def _quickstart_fit(split, backend=None):
    train, test = split
    config = QuGeoConfig(
        data=QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                             scaled_velocity_shape=(6, 6)),
        vqc=QuGeoVQCConfig(n_groups=1, qubits_per_group=6, n_blocks=4,
                           decoder="layer", output_shape=(6, 6)),
        training=TrainingConfig(epochs=25, learning_rate=0.1, batch_size=4,
                                eval_every=5, seed=0),
        scaling_method="forward_modeling",
    )
    pipeline = QuGeo(config, rng=0)
    if backend is not None:
        # Build in fit's order, then swap in the engine before training.
        pipeline.build_scaler()
        pipeline.build_model().backend = backend
    return pipeline.fit(train, test).final_metrics


def test_quickstart_golden_pin_holds_on_default_and_oracle(quickstart_split):
    default = _quickstart_fit(quickstart_split)
    oracle = _quickstart_fit(quickstart_split, backend=NumpyLoopBackend())
    for key, pinned in GOLDEN_QUICKSTART.items():
        assert default[key] == pytest.approx(pinned, rel=1e-9, abs=0.0), key
        assert oracle[key] == pytest.approx(default[key], rel=1e-9, abs=0.0), key
