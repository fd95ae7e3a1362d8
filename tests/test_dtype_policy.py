"""One precision: every engine computes in float64 / complex128.

No setting selects a precision: the engines take no ``policy=`` and
``TrainingConfig`` takes no ``dtype``.  These tests pin what is left of the
old dtype policy: the compiled gate kernels compute in complex128 only,
optimiser moments stay float64, reduced-precision input is promoted on
entry, and configs saved with the removed keys still load.  Refusing a
checkpoint or pipeline file recorded under ``"float32"`` is tested with the
trainer and ``QuGeo.load`` in ``test_training_engine.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend


def test_einsum_kernel_computes_in_the_stack_dtype():
    """The compiled kernels update a complex128 stack in place in
    complex128, with a shared matrix or a per-row stack, and refuse a stack
    of any other dtype instead of computing in it."""
    from repro.quantum.gates import GATES, apply_matrix
    from repro.quantum.parametric import PARAMETRIC_GATES

    engine = EinsumBatchBackend()
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
        stack = states.copy()
        engine.apply_gate_batched_inplace(stack, matrix, targets, 3)
        assert stack.dtype == np.complex128
        rows = matrix if matrix.ndim == 3 else [matrix] * 4
        expected = np.stack([apply_matrix(state, row, targets, 3)
                             for state, row in zip(states, rows)])
        np.testing.assert_allclose(stack, expected, atol=1e-12, rtol=0)
        with pytest.raises(ValueError, match="complex128"):
            engine.apply_gate_batched_inplace(
                states.astype(np.complex64), matrix, targets, 3)


def test_reduced_precision_input_is_promoted():
    """float32 / complex64 input is promoted to float64 / complex128 on
    entry, so no caller can switch a path to reduced precision."""
    from repro.data.normalization import MinMaxNormalizer, VelocityNormalizer
    from repro.nn import Tensor
    from repro.quantum.circuit import ParameterizedCircuit
    from repro.quantum.statevector import Statevector

    assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float64
    vel = np.linspace(1500.0, 4500.0, 7, dtype=np.float32)
    assert VelocityNormalizer().normalize(vel).dtype == np.float64
    assert MinMaxNormalizer().fit(vel).transform(vel).dtype == np.float64
    state = Statevector(np.ones(4, dtype=np.complex64))
    assert state.amplitudes.dtype == np.complex128
    circuit = ParameterizedCircuit(2)
    circuit.add_parametric_gate("U3", [1])
    circuit.add_gate("CNOT", [0, 1])
    states = np.full((3, 4), 0.5, dtype=np.complex64)
    for engine in (EinsumBatchBackend(), NumpyLoopBackend()):
        out = engine.run_batched(circuit, states, np.ones(circuit.n_params))
        assert out.dtype == np.complex128
    for build in (lambda: Statevector(np.ones(4), dtype=np.complex64),
                  lambda: VelocityNormalizer(dtype=np.float32),
                  lambda: MinMaxNormalizer(dtype=np.float32),
                  lambda: Tensor([1.0], dtype=np.float32)):
        with pytest.raises(TypeError):
            build()


def test_optimizer_keeps_param_dtype_and_float64_moments():
    from repro.nn import Adam, Tensor

    param = Tensor(np.ones(3), requires_grad=True)
    optim = Adam([param], lr=0.1)
    assert all(m.dtype == np.float64 for m in optim._m + optim._v)
    param.grad = np.full(3, 0.5)
    optim.step()
    assert param.data.dtype == np.float64
    state = optim.state_dict()
    optim.load_state_dict(state)
    assert all(m.dtype == np.float64 for m in optim._m + optim._v)


def test_training_config_dtype_validated_and_resolved():
    """Neither the trainer nor an engine has a precision setting."""
    from repro.core.config import TrainingConfig
    from repro.core.training import Trainer
    from repro.core.vqc_model import QuGeoVQC

    for value in ("float32", "float16", None):
        with pytest.raises(TypeError):
            TrainingConfig(dtype=value)
    assert not hasattr(Trainer(TrainingConfig()), "policy")
    for engine in (EinsumBatchBackend, NumpyLoopBackend):
        for value in ("float64", "float32", None):
            with pytest.raises(TypeError):
                engine(policy=value)
    model = QuGeoVQC(_small_vqc_config(), rng=0)
    assert isinstance(model.backend, EinsumBatchBackend)
    assert not hasattr(model.backend, "policy")


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
