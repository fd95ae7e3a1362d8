"""Dtype-policy tests: resolution, cache keying, no-silent-upcast, parity.

The float64 policy is the default and must leave every numeric path
bit-identical to the historical behaviour (the existing parity suites pin
that).  These tests cover the float32 side: resolution through
``QUGEO_DTYPE`` and explicit specs, dtype-aware memoisation caches, an
end-to-end check that a float32 run stays in float32 on the hot path, and
relaxed-tolerance parity of the float32 engines against their float64
references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend, get_backend
from repro.quantum.autodiff import circuit_gradients_batched
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.statevector import Statevector
from repro.seismic import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
    SimulationConfig,
    SpongeBoundary,
    VelocityModelConfig,
    flat_layer_model,
    ricker_wavelet,
    stable_time_step,
)
from repro.xm import (
    FLOAT32,
    FLOAT64,
    available_policies,
    ensure_complex,
    get_dtype_policy,
)

#: float32 carries ~7 decimal digits; accumulated over a short circuit or a
#: few dozen propagation steps the error stays well inside 1e-4.
F32_ATOL = 1e-4


# --------------------------------------------------------------------------- #
# policy resolution
# --------------------------------------------------------------------------- #
def test_policy_singletons_and_resolution(monkeypatch):
    assert set(available_policies()) == {"float64", "float32"}
    assert get_dtype_policy(None) is FLOAT64
    assert get_dtype_policy("float32") is FLOAT32
    assert get_dtype_policy(FLOAT32) is FLOAT32
    monkeypatch.setenv("QUGEO_DTYPE", "float32")
    assert get_dtype_policy(None) is FLOAT32
    with pytest.raises(ValueError):
        get_dtype_policy("float16")


def test_policy_dtypes():
    assert FLOAT64.real == np.dtype(np.float64)
    assert FLOAT64.complex == np.dtype(np.complex128)
    assert FLOAT32.real == np.dtype(np.float32)
    assert FLOAT32.complex == np.dtype(np.complex64)
    # Accumulation stays at double precision under both policies.
    for policy in (FLOAT64, FLOAT32):
        assert policy.accum_real == np.dtype(np.float64)
        assert policy.accum_complex == np.dtype(np.complex128)


def test_ensure_complex_preserves_complex_kind():
    c64 = np.ones(4, dtype=np.complex64)
    assert ensure_complex(c64).dtype == np.complex64
    real = np.ones(4, dtype=np.float64)
    assert ensure_complex(real).dtype == np.complex128
    assert ensure_complex(real, FLOAT32).dtype == np.complex64


# --------------------------------------------------------------------------- #
# dtype-keyed caches
# --------------------------------------------------------------------------- #
def test_gate_cast_cache_is_dtype_keyed():
    from repro.quantum.gates import GATES, _cast_gate

    h64 = _cast_gate(GATES["H"], np.dtype(np.complex128))
    h32 = _cast_gate(GATES["H"], np.dtype(np.complex64))
    assert h64.dtype == np.complex128 and h32.dtype == np.complex64
    # Casts of the canonical gates are memoised (stable identity) and frozen.
    assert _cast_gate(GATES["H"], np.dtype(np.complex64)) is h32
    assert not h32.flags.writeable


def test_sign_matrix_cache_is_dtype_keyed():
    from repro.quantum.measurement import _sign_matrix

    s64 = _sign_matrix(3, (0, 2))
    s32 = _sign_matrix(3, (0, 2), dtype=np.dtype(np.float32))
    assert s64.dtype == np.float64 and s32.dtype == np.float32
    np.testing.assert_allclose(s32, s64)


def test_einsum_kernel_computes_in_the_stack_dtype():
    """Every view and temporary the kernel makes from a complex64 stack is
    complex64: a shared matrix enters as weakly typed Python scalars and a
    per-row stack is cast to the stack's dtype."""
    from repro.quantum.kernel import apply_gate_inplace
    from repro.quantum.gates import GATES, apply_matrix
    from repro.quantum.parametric import PARAMETRIC_GATES

    class Recorder(np.ndarray):
        dtypes = set()

        def __array_finalize__(self, obj):
            Recorder.dtypes.add(self.dtype)

    rng = np.random.default_rng(3)
    u3, cu3 = PARAMETRIC_GATES["U3"], PARAMETRIC_GATES["CU3"]
    cases = [(u3.matrix(rng.normal(size=3)), (1,)),
             (u3.matrix_stack([rng.normal(size=4) for _ in range(3)]), (2,)),
             (cu3.matrix(rng.normal(size=3)), (2, 0)),
             (cu3.matrix_stack([rng.normal(size=4) for _ in range(3)]),
              (0, 1)),
             (GATES["SWAP"], (0, 2))]
    for matrix, targets in cases:
        states = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        stack = states.astype(np.complex64).view(Recorder)
        apply_gate_inplace(stack, matrix, targets, 3)
        rows = matrix if matrix.ndim == 3 else [matrix] * 4
        expected = np.stack([apply_matrix(state, row, targets, 3)
                             for state, row in zip(states, rows)])
        np.testing.assert_allclose(np.asarray(stack), expected,
                                   atol=F32_ATOL, rtol=0)
    assert Recorder.dtypes == {np.dtype(np.complex64)}


# --------------------------------------------------------------------------- #
# no silent upcast on the float32 hot path
# --------------------------------------------------------------------------- #
def test_float32_backend_outputs_stay_complex64():
    backend = EinsumBatchBackend(policy="float32")
    assert backend.policy is FLOAT32
    rng = np.random.default_rng(0)
    circuit = ParameterizedCircuit(3)
    for q in range(3):
        circuit.add_parametric_gate("U3", [q])
    circuit.add_gate("CNOT", [0, 1])
    params = rng.normal(size=circuit.n_params)
    states = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    out = backend.run_batched(circuit, states, params)
    assert out.dtype == np.complex64
    pulled = backend.apply_gate_batched(out, np.eye(4), (0, 1), 3)
    assert pulled.dtype == np.complex64
    single = backend.run(circuit, states[0], params)
    assert single.dtype == np.complex64


def test_float32_statevector_round_trip():
    state = Statevector.zero_state(3, dtype=np.complex64)
    assert state.amplitudes.dtype == np.complex64
    evolved = state.apply(np.asarray([[1, 1], [1, -1]]) / np.sqrt(2.0), [0])
    assert evolved.amplitudes.dtype == np.complex64


def test_float32_propagator_computes_in_float32_and_accumulates_in_float64():
    velocity = flat_layer_model(
        VelocityModelConfig(shape=(24, 24), min_velocity=1500.0,
                            max_velocity=3500.0), rng=1)
    dt = stable_time_step(3500.0, dx=10.0, spatial_order=4)
    config = SimulationConfig(dx=10.0, dz=10.0, dt=dt, n_steps=40,
                              spatial_order=4,
                              boundary=SpongeBoundary(width=4))
    sim = BatchedAcousticSimulator2D(velocity, config, policy="float32")
    # Stencil operators and the boundary mask sit on the hot path: float32.
    assert sim._mask.dtype == np.float32
    assert sim._dz_op.dtype == sim._dx_op_t.dtype == np.float32
    wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
    sources = [(1, 4), (1, 18)]
    receivers = [(1, c) for c in range(0, 24, 4)]
    gather, snaps = sim.simulate_shots(sources, wavelet, receivers,
                                       record_wavefield=True,
                                       wavefield_stride=10)
    # Receiver traces are gathered at accumulation precision; the recorded
    # wavefield snapshots are the raw compute buffers.
    assert gather.dtype == np.float64
    assert all(snap.dtype == np.float32 for snap in snaps)


# --------------------------------------------------------------------------- #
# float32 vs float64 relaxed-tolerance parity
# --------------------------------------------------------------------------- #
def test_float32_einsum_parity_relaxed():
    rng = np.random.default_rng(21)
    circuit = ParameterizedCircuit(4)
    for q in range(4):
        circuit.add_parametric_gate("U3", [q])
    circuit.add_gate("CNOT", [0, 1])
    circuit.add_gate("CZ", [2, 3])
    for q in range(4):
        circuit.add_parametric_gate("RY", [q])
    params = rng.normal(size=circuit.n_params)
    states = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    reference = EinsumBatchBackend().run_batched(circuit, states, params)
    result = EinsumBatchBackend(policy="float32").run_batched(circuit, states,
                                                              params)
    np.testing.assert_allclose(result, reference, atol=F32_ATOL, rtol=0)


def test_float32_batched_adjoint_parity_relaxed():
    rng = np.random.default_rng(22)
    circuit = ParameterizedCircuit(3)
    for q in range(3):
        circuit.add_parametric_gate("U3", [q])
    circuit.add_gate("CNOT", [0, 1])
    circuit.add_parametric_gate("CU3", [1, 2])
    params = rng.normal(size=circuit.n_params)
    states = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    signs = 1.0 - 2.0 * ((np.arange(8) >> 2) & 1)

    def loss_head(psis):
        losses = (np.abs(psis) ** 2) @ signs
        return losses, signs * psis

    loss64, grads64 = circuit_gradients_batched(
        circuit, params, states, loss_head,
        backend=EinsumBatchBackend(policy="float64"))
    loss32, grads32 = circuit_gradients_batched(
        circuit, params, states, loss_head,
        backend=EinsumBatchBackend(policy="float32"))
    # Gradients accumulate in float64 under both policies.
    assert grads32.dtype == np.float64
    np.testing.assert_allclose(loss32, loss64, atol=F32_ATOL, rtol=0)
    np.testing.assert_allclose(grads32, grads64, atol=F32_ATOL, rtol=0)


def test_float32_batched_propagator_parity_relaxed():
    velocity = flat_layer_model(
        VelocityModelConfig(shape=(24, 24), min_velocity=1500.0,
                            max_velocity=3500.0), rng=3)
    dt = stable_time_step(3500.0, dx=10.0, spatial_order=4)
    config = SimulationConfig(dx=10.0, dz=10.0, dt=dt, n_steps=50,
                              spatial_order=4,
                              boundary=SpongeBoundary(width=4))
    wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
    sources = [(1, 3), (1, 12), (1, 20)]
    receivers = [(1, c) for c in range(0, 24, 3)]
    reference = AcousticSimulator2D(velocity, config).simulate_shots(
        sources, wavelet, receivers)
    result = BatchedAcousticSimulator2D(
        velocity, config, policy="float32").simulate_shots(
        sources, wavelet, receivers)
    scale = np.abs(reference).max()
    np.testing.assert_allclose(result / scale, reference / scale,
                               atol=F32_ATOL, rtol=0)


# --------------------------------------------------------------------------- #
# nn / config plumbing
# --------------------------------------------------------------------------- #
def test_tensor_preserves_float32():
    from repro.nn import Tensor

    t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    assert t.data.dtype == np.float32
    out = (t * 2.0 + 1.0).sum()
    out.backward()
    # Forward math stays in float32; gradients accumulate in float64.
    assert t.grad.dtype == np.float64
    explicit = Tensor([1.0, 2.0], dtype=np.float32)
    assert explicit.data.dtype == np.float32


def test_optimizer_keeps_param_dtype_and_float64_moments():
    from repro.nn import Adam, Tensor

    param = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    optim = Adam([param], lr=0.1)
    assert all(m.dtype == np.float64 for m in optim._m + optim._v)
    param.grad = np.full(3, 0.5)
    optim.step()
    assert param.data.dtype == np.float32
    state = optim.state_dict()
    optim.load_state_dict(state)
    assert all(m.dtype == np.float64 for m in optim._m + optim._v)


def test_normalizers_accept_dtype():
    from repro.data.normalization import MinMaxNormalizer, VelocityNormalizer

    vel = np.linspace(1500.0, 4500.0, 7)
    default = VelocityNormalizer().normalize(vel)
    assert default.dtype == np.float64
    f32 = VelocityNormalizer(dtype=np.float32).normalize(vel)
    assert f32.dtype == np.float32
    np.testing.assert_allclose(f32, default, atol=1e-6)
    mm = MinMaxNormalizer(dtype=np.float32).fit(vel)
    assert mm.transform(vel).dtype == np.float32
    assert MinMaxNormalizer().fit(vel).transform(vel).dtype == np.float64


def test_training_config_dtype_validated_and_resolved(monkeypatch):
    """The trainer has no precision setting (it never applied one);
    precision is resolved where it acts, by the engine a model is built
    with: ``QUGEO_DTYPE`` or the engine's ``policy=`` argument."""
    from repro.core.config import TrainingConfig
    from repro.core.training import Trainer
    from repro.core.vqc_model import QuGeoVQC

    for value in ("float32", "float16", None):
        with pytest.raises(TypeError):
            TrainingConfig(dtype=value)
    assert not hasattr(Trainer(TrainingConfig()), "policy")
    config = _small_vqc_config()
    monkeypatch.delenv("QUGEO_DTYPE", raising=False)
    assert QuGeoVQC(config, rng=0).backend.policy is FLOAT64
    explicit = EinsumBatchBackend(policy="float32")
    assert QuGeoVQC(config, rng=0, backend=explicit).backend.policy is FLOAT32
    with pytest.raises(ValueError, match="float16"):
        EinsumBatchBackend(policy="float16")


def test_checkpoint_config_roundtrips_dtype():
    """Configs saved with the removed ``training.dtype`` and ``vqc.backend``
    keys still load; both keys are dropped."""
    from repro.core.config import QuGeoConfig, config_from_dict, config_to_dict

    payload = config_to_dict(QuGeoConfig())
    assert "dtype" not in payload["training"]
    assert "backend" not in payload["vqc"]
    for dtype, backend in ((None, None), ("float32", "numpy")):
        legacy = config_to_dict(QuGeoConfig())
        legacy["training"]["dtype"] = dtype
        legacy["vqc"]["backend"] = backend
        assert config_from_dict(legacy) == QuGeoConfig()


def _small_vqc_config():
    from repro.core.config import QuGeoVQCConfig

    return QuGeoVQCConfig(n_groups=1, qubits_per_group=4, n_blocks=2,
                          decoder="layer", output_shape=(4, 4))


def test_dtype_set_after_a_model_reaches_the_next_model(monkeypatch):
    """Each model builds its own default engine, so a ``QUGEO_DTYPE`` change
    reaches every model built after it; nothing caches the first policy."""
    from repro.core.vqc_model import QuGeoVQC

    monkeypatch.delenv("QUGEO_DTYPE", raising=False)
    first = QuGeoVQC(_small_vqc_config(), rng=0)
    assert first.backend.policy is FLOAT64
    monkeypatch.setenv("QUGEO_DTYPE", "float32")
    assert get_dtype_policy(None) is FLOAT32
    second = QuGeoVQC(_small_vqc_config(), rng=0)
    assert second.backend.policy is FLOAT32
    assert first.backend.policy is FLOAT64
    for build in (lambda: get_backend("numpy"),
                  lambda: QuGeoVQC(_small_vqc_config(), rng=0,
                                   backend="einsum")):
        with pytest.raises(TypeError) as excinfo:
            build()
        assert "EinsumBatchBackend" in str(excinfo.value)
        assert "NumpyLoopBackend" in str(excinfo.value)
    oracle = NumpyLoopBackend(policy="float64")
    assert QuGeoVQC(_small_vqc_config(), rng=0,
                    backend=oracle).backend.policy is FLOAT64
