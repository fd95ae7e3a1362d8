"""Backend subsystem tests: engine parity, registry wiring, model plumbing.

The vectorised :class:`EinsumBatchBackend` must agree with the bit-exact
:class:`NumpyLoopBackend` to 1e-10 on random circuits over 1-6 qubits,
including the fixed two-qubit gates (CNOT/CZ/SWAP) and the parameterised
U3/CU3 family, in every execution mode (single state, batched states,
batched parameters, batched gate application).  Its strided-view kernel is
also checked gate by gate: every ``GATES`` and ``PARAMETRIC_GATES`` entry on
every target (and ordered target pair) of a 5-qubit register, under both
dtype policies.  Every name in ``BACKENDS``
gets a parity row against the ``numpy`` oracle by construction; the
generic registry contract is tested once in ``tests/test_utils_registry.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    EinsumBatchBackend,
    NumpyLoopBackend,
    get_backend,
)
from repro.core.config import QuGeoVQCConfig
from repro.core.qubatch import QuBatchVQC
from repro.core.vqc_model import QuGeoVQC
from repro.quantum.autodiff import (
    circuit_gradients,
    finite_difference_gradients,
    parameter_shift_gradients,
)
from repro.quantum.circuit import ParameterizedCircuit
from repro.utils import env
from repro.utils.registry import (
    DuplicateNameError,
    UnavailableError,
    UnknownNameError,
)

ATOL = 1e-10

FIXED_SINGLE = ("H", "X", "Y", "Z", "S", "T")
FIXED_DOUBLE = ("CNOT", "CZ", "SWAP")
PARAM_SINGLE = ("RX", "RY", "RZ", "U3")
PARAM_DOUBLE = ("CU3", "CRX")


def random_circuit(n_qubits: int, n_ops: int, rng) -> ParameterizedCircuit:
    """A random mix of fixed and parameterised one/two-qubit gates."""
    circuit = ParameterizedCircuit(n_qubits)
    for _ in range(n_ops):
        two_qubit = n_qubits >= 2 and rng.random() < 0.4
        parametric = rng.random() < 0.5
        if two_qubit:
            name = rng.choice(PARAM_DOUBLE if parametric else FIXED_DOUBLE)
            qubits = rng.choice(n_qubits, size=2, replace=False)
        else:
            name = rng.choice(PARAM_SINGLE if parametric else FIXED_SINGLE)
            qubits = [rng.integers(n_qubits)]
        if parametric:
            circuit.add_parametric_gate(str(name), [int(q) for q in qubits])
        else:
            circuit.add_gate(str(name), [int(q) for q in qubits])
    return circuit


def random_states(n_qubits: int, batch: int, rng) -> np.ndarray:
    states = (rng.normal(size=(batch, 2**n_qubits))
              + 1j * rng.normal(size=(batch, 2**n_qubits)))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def loop():
    return get_backend("numpy")


@pytest.fixture(scope="module")
def einsum():
    return get_backend("einsum")


# --------------------------------------------------------------------------- #
# engine parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
def test_single_state_parity_random_circuits(n_qubits, loop, einsum):
    rng = np.random.default_rng(100 + n_qubits)
    for _ in range(4):
        circuit = random_circuit(n_qubits, n_ops=18, rng=rng)
        params = rng.normal(size=circuit.n_params)
        state = random_states(n_qubits, 1, rng)[0]
        expected = loop.run(circuit, state, params)
        actual = einsum.run(circuit, state, params)
        np.testing.assert_allclose(actual, expected, atol=ATOL)


@pytest.mark.parametrize("n_qubits", [1, 3, 6])
@pytest.mark.parametrize("batch", [1, 5, 8])
def test_batched_state_parity(n_qubits, batch, loop, einsum):
    rng = np.random.default_rng(200 + 10 * n_qubits + batch)
    circuit = random_circuit(n_qubits, n_ops=15, rng=rng)
    params = rng.normal(size=circuit.n_params)
    states = random_states(n_qubits, batch, rng)
    expected = loop.run_batched(circuit, states, params)
    actual = einsum.run_batched(circuit, states, params)
    assert actual.shape == (batch, 2**n_qubits)
    np.testing.assert_allclose(actual, expected, atol=ATOL)


@pytest.mark.parametrize("n_qubits", [2, 4, 6])
def test_batched_params_parity(n_qubits, loop, einsum):
    rng = np.random.default_rng(300 + n_qubits)
    circuit = random_circuit(n_qubits, n_ops=12, rng=rng)
    batch = 6
    states = random_states(n_qubits, batch, rng)
    param_matrix = rng.normal(size=(batch, circuit.n_params))
    expected = np.stack([loop.run(circuit, state, row)
                         for state, row in zip(states, param_matrix)])
    actual = einsum.run_batched(circuit, states, param_matrix)
    np.testing.assert_allclose(actual, expected, atol=ATOL)


def test_fusion_of_adjacent_single_qubit_gates(loop, einsum):
    """Chains of single-qubit gates on one wire are fused but still correct."""
    rng = np.random.default_rng(7)
    circuit = ParameterizedCircuit(3)
    for name in ("H", "S", "T"):
        circuit.add_gate(name, [0])
    for name in ("RX", "RY", "RZ", "U3"):
        circuit.add_parametric_gate(name, [1])
    circuit.add_gate("CNOT", [0, 1])
    for name in ("U3", "U3"):
        circuit.add_parametric_gate(name, [2])
    params = rng.normal(size=circuit.n_params)
    state = random_states(3, 1, rng)[0]
    np.testing.assert_allclose(einsum.run(circuit, state, params),
                               loop.run(circuit, state, params), atol=ATOL)


def test_run_accepts_single_row_param_matrix(loop, einsum):
    """A (1, n_params) matrix is a valid parameter argument for one state."""
    rng = np.random.default_rng(19)
    circuit = random_circuit(3, n_ops=8, rng=rng)
    params = rng.normal(size=(1, circuit.n_params))
    state = random_states(3, 1, rng)[0]
    np.testing.assert_allclose(einsum.run(circuit, state, params),
                               loop.run(circuit, state, params[0]), atol=ATOL)


def _batched_params_run_peak_bytes(n_blocks):
    import tracemalloc

    from repro.quantum.ansatz import u3_cu3_ansatz

    rng = np.random.default_rng(21)
    circuit = u3_cu3_ansatz(8, n_blocks=n_blocks)
    params = rng.normal(size=(32, circuit.n_params))
    states = random_states(8, 32, rng)
    engine = get_backend("einsum")
    engine.run_batched(circuit, states, params)
    tracemalloc.start()
    try:
        engine.run_batched(circuit, states, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_params_run_memory_does_not_grow_with_depth():
    """Per-row gate tables are built window by window: with a (32, n_params)
    parameter matrix the peak stays that of a few (32, 256) stacks."""
    peak_12 = _batched_params_run_peak_bytes(12)
    peak_24 = _batched_params_run_peak_bytes(24)
    assert peak_12 < 2**20, peak_12
    assert peak_24 <= 1.2 * peak_12, (peak_12, peak_24)


def test_matrix_stack_fallback_loop_matches_vectorised():
    """matrix_stack/derivative_stack agree with a per-entry loop over the
    one-set forms matrix/derivatives, for vector and matrix columns."""
    from repro.quantum.parametric import PARAMETRIC_GATES

    rng = np.random.default_rng(20)
    for gate in PARAMETRIC_GATES.values():
        for shape in ((5,), (2, 5)):
            columns = tuple(rng.normal(size=shape)
                            for _ in range(gate.n_params))
            matrices = gate.matrix_stack(columns)
            derivatives = gate.derivative_stack(columns)
            dim = 2**gate.n_qubits
            assert matrices.shape == shape + (dim, dim)
            assert derivatives.shape == shape + (gate.n_params, dim, dim)
            for index in np.ndindex(shape):
                params = [float(column[index]) for column in columns]
                np.testing.assert_allclose(matrices[index],
                                           gate.matrix(params), atol=ATOL)
                np.testing.assert_allclose(derivatives[index],
                                           np.stack(gate.derivatives(params)),
                                           atol=ATOL)


def test_intermediate_states_parity(loop, einsum):
    """Pre-gate states stepped forward on one engine are recovered by
    uncomputing through ``U^dagger`` on the other, as the adjoint sweep does."""
    rng = np.random.default_rng(9)
    circuit = random_circuit(4, n_ops=12, rng=rng)
    params = rng.normal(size=circuit.n_params)
    states = random_states(4, 3, rng)
    forward = [states]
    for op in circuit.ops:
        forward.append(loop.apply_gate_batched(
            forward[-1], circuit.op_matrix(op, params), op.qubits, 4))
    np.testing.assert_allclose(forward[-1],
                               einsum.run_batched(circuit, states, params),
                               atol=ATOL)
    current = forward[-1]
    for index in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[index]
        current = einsum.apply_gate_batched(
            current, circuit.op_matrix(op, params).conj().T, op.qubits, 4)
        np.testing.assert_allclose(current, forward[index], atol=ATOL)


@pytest.mark.parametrize("targets", [(0,), (3,), (2, 0), (1, 3)])
def test_apply_gate_batched_parity(targets, loop, einsum):
    """The adjoint sweep's one engine call agrees across engines."""
    rng = np.random.default_rng(9)
    states = random_states(4, 6, rng)
    dim = 2**len(targets)
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    np.testing.assert_allclose(
        einsum.apply_gate_batched(states, matrix, targets, 4),
        loop.apply_gate_batched(states, matrix, targets, 4), atol=ATOL)


# --------------------------------------------------------------------------- #
# the strided-view kernel against the numpy oracle, gate by gate
# --------------------------------------------------------------------------- #
KERNEL_QUBITS = 5
#: Every ordered pair: control above and below the target, adjacent, the
#: wrap-around (4, 0) and non-adjacent pairs such as (0, 3).
KERNEL_PAIRS = [(a, b) for a in range(KERNEL_QUBITS)
                for b in range(KERNEL_QUBITS) if a != b]
#: float32 runs both engines in complex64, so they agree to its precision.
KERNEL_ATOL = {"float64": ATOL, "float32": 1e-5}


def _gate_targets(name):
    from repro.quantum.gates import GATES
    from repro.quantum.parametric import PARAMETRIC_GATES

    k = (PARAMETRIC_GATES[name].n_qubits if name in PARAMETRIC_GATES
         else int(np.log2(GATES[name].shape[0])))
    return KERNEL_PAIRS if k == 2 else [(q,) for q in range(KERNEL_QUBITS)]


def _all_gate_names():
    from repro.quantum.gates import GATES
    from repro.quantum.parametric import PARAMETRIC_GATES

    return sorted(GATES) + sorted(PARAMETRIC_GATES)


@pytest.mark.parametrize("policy", ["float64", "float32"])
@pytest.mark.parametrize("name", _all_gate_names())
def test_kernel_matches_oracle_on_every_target(name, policy):
    from repro.quantum.parametric import PARAMETRIC_GATES

    fast = EinsumBatchBackend(policy=policy)
    oracle = NumpyLoopBackend(policy=policy)
    atol = KERNEL_ATOL[policy]
    rng = np.random.default_rng(sum(map(ord, name)))
    batch = 4
    for targets in _gate_targets(name):
        circuit = ParameterizedCircuit(KERNEL_QUBITS)
        if name in PARAMETRIC_GATES:
            circuit.add_parametric_gate(name, targets)
        else:
            circuit.add_gate(name, targets)
        op = circuit.ops[0]
        params = rng.uniform(-np.pi, np.pi, size=circuit.n_params)
        states = random_states(KERNEL_QUBITS, batch, rng)
        before = states.copy()
        # One gate matrix on the whole stack; the input stays untouched.
        matrix = circuit.op_matrix(op, params)
        np.testing.assert_allclose(
            fast.apply_gate_batched(states, matrix, targets, KERNEL_QUBITS),
            oracle.apply_gate_batched(states, matrix, targets, KERNEL_QUBITS),
            atol=atol)
        np.testing.assert_array_equal(states, before)
        # The forward pass with shared parameters ...
        np.testing.assert_allclose(fast.run_batched(circuit, states, params),
                                   oracle.run_batched(circuit, states, params),
                                   atol=atol)
        np.testing.assert_array_equal(states, before)
        if not circuit.n_params:
            continue
        # ... and with one parameter row per state.
        rows = rng.uniform(-np.pi, np.pi, size=(batch, circuit.n_params))
        expected = np.stack([oracle.run(circuit, state, row)
                             for state, row in zip(states, rows)])
        np.testing.assert_allclose(fast.run_batched(circuit, states, rows),
                                   expected, atol=atol)


@pytest.mark.parametrize("engine", ["einsum", "numpy"])
def test_apply_gate_batched_inplace_updates_the_stack(engine):
    from repro.quantum.gates import GATES

    backend = get_backend(engine)
    oracle = get_backend("numpy")
    rng = np.random.default_rng(21)
    for name, targets in (("H", (2,)), ("CNOT", (3, 1)), ("SWAP", (0, 4))):
        states = random_states(5, 3, rng)
        expected = oracle.apply_gate_batched(states, GATES[name], targets, 5)
        backend.apply_gate_batched_inplace(states, GATES[name], targets, 5)
        np.testing.assert_allclose(states, expected, atol=ATOL)


def test_control_block_is_read_from_the_matrix():
    from repro.quantum.kernel import control_block
    from repro.quantum.gates import GATES
    from repro.quantum.parametric import PARAMETRIC_GATES

    rng = np.random.default_rng(22)
    for name in ("CU3", "CRX"):
        gate = PARAMETRIC_GATES[name]
        params = rng.normal(size=gate.n_params)
        matrix = gate.matrix(params)
        np.testing.assert_array_equal(control_block(matrix), matrix[2:, 2:])
        columns = [rng.normal(size=3) for _ in range(gate.n_params)]
        stack = gate.matrix_stack(columns)
        np.testing.assert_array_equal(control_block(stack), stack[:, 2:, 2:])
    for name in ("CNOT", "CZ"):
        np.testing.assert_array_equal(control_block(GATES[name]),
                                      GATES[name][2:, 2:])
    assert control_block(GATES["SWAP"]) is None
    assert control_block(GATES["H"]) is None
    assert control_block(rng.normal(size=(4, 4))) is None
    # One uncontrolled row makes the whole per-row stack uncontrolled.
    mixed = np.stack([GATES["CNOT"], GATES["SWAP"]])
    assert control_block(mixed) is None


def test_expectation_parity(loop, einsum):
    rng = np.random.default_rng(10)
    circuit = random_circuit(4, n_ops=10, rng=rng)
    params = rng.normal(size=circuit.n_params)
    states = random_states(4, 5, rng)
    expected = loop.expectation_batched(circuit, states, params, qubits=(0, 2))
    actual = einsum.expectation_batched(circuit, states, params, qubits=(0, 2))
    np.testing.assert_allclose(actual, expected, atol=ATOL)
    np.testing.assert_allclose(einsum.expectation(circuit, states[0], params),
                               loop.expectation(circuit, states[0], params),
                               atol=ATOL)


def test_circuit_run_accepts_backend_name():
    rng = np.random.default_rng(11)
    circuit = random_circuit(3, n_ops=8, rng=rng)
    params = rng.normal(size=circuit.n_params)
    state = random_states(3, 1, rng)[0]
    np.testing.assert_allclose(circuit.run(state, params, backend="einsum"),
                               circuit.run(state, params, backend="numpy"),
                               atol=ATOL)
    states = random_states(3, 4, rng)
    np.testing.assert_allclose(circuit.run_batched(states, params,
                                                   backend="einsum"),
                               circuit.run_batched(states, params,
                                                   backend="numpy"),
                               atol=ATOL)


def test_einsum_rejects_bad_shapes(einsum):
    circuit = ParameterizedCircuit(2)
    circuit.add_parametric_gate("U3", [0])
    states = random_states(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        einsum.run_batched(circuit, states[0])  # not 2-D
    with pytest.raises(ValueError):
        einsum.run_batched(circuit, states, np.zeros((2, circuit.n_params)))
    with pytest.raises(ValueError):
        einsum.run_batched(circuit, states, np.zeros((3, circuit.n_params + 1)))
    with pytest.raises(ValueError):
        einsum.run(circuit, np.zeros(3))


# --------------------------------------------------------------------------- #
# gradient parity
# --------------------------------------------------------------------------- #
def _z0_loss_head(n_qubits):
    signs = 1.0 - 2.0 * ((np.arange(2**n_qubits) >> (n_qubits - 1)) & 1)

    def loss_head(psi):
        loss = float(np.dot(signs, np.abs(psi) ** 2))
        return loss, signs * psi

    return loss_head


def test_adjoint_gradients_match_across_backends():
    rng = np.random.default_rng(12)
    circuit = random_circuit(4, n_ops=12, rng=rng)
    params = rng.normal(size=circuit.n_params)
    state = random_states(4, 1, rng)[0]
    loss_head = _z0_loss_head(4)
    loss_a, grads_a = circuit_gradients(circuit, params, state, loss_head,
                                        backend="numpy")
    loss_b, grads_b = circuit_gradients(circuit, params, state, loss_head,
                                        backend="einsum")
    assert abs(loss_a - loss_b) < ATOL
    np.testing.assert_allclose(grads_b, grads_a, atol=ATOL)
    _, grads_fd = finite_difference_gradients(circuit, params, state, loss_head)
    np.testing.assert_allclose(grads_b, grads_fd, atol=1e-5)


def test_parameter_shift_chunked_sweep_matches_loop(monkeypatch):
    """The stacked sweep stays correct when forced into tiny memory chunks."""
    import repro.quantum.autodiff as autodiff

    rng = np.random.default_rng(16)
    circuit = ParameterizedCircuit(3)
    for q in range(3):
        circuit.add_parametric_gate("RY", [q])
    params = rng.normal(size=circuit.n_params)
    state = random_states(3, 1, rng)[0]
    loss_head = _z0_loss_head(3)
    _, grads_whole = parameter_shift_gradients(circuit, params, state,
                                               loss_head, backend="einsum")
    monkeypatch.setattr(autodiff, "_SHIFT_SWEEP_MAX_ELEMENTS", 1)
    _, grads_chunked = parameter_shift_gradients(circuit, params, state,
                                                 loss_head, backend="einsum")
    np.testing.assert_allclose(grads_chunked, grads_whole, atol=ATOL)


def test_parameter_shift_stacked_sweep_matches_loop():
    rng = np.random.default_rng(13)
    circuit = ParameterizedCircuit(3)
    for q in range(3):
        circuit.add_parametric_gate("RY", [q])
    circuit.add_gate("CNOT", [0, 1])
    circuit.add_parametric_gate("RX", [2])
    params = rng.normal(size=circuit.n_params)
    state = random_states(3, 1, rng)[0]
    loss_head = _z0_loss_head(3)
    loss_a, grads_a = parameter_shift_gradients(circuit, params, state,
                                                loss_head, backend="numpy")
    loss_b, grads_b = parameter_shift_gradients(circuit, params, state,
                                                loss_head, backend="einsum")
    assert abs(loss_a - loss_b) < ATOL
    np.testing.assert_allclose(grads_b, grads_a, atol=ATOL)


# --------------------------------------------------------------------------- #
# registry wiring (the generic contract: tests/test_utils_registry.py)
# --------------------------------------------------------------------------- #
def test_known_backends_registered():
    assert BACKENDS.names() == ["einsum", "numpy", "torch"]
    assert isinstance(get_backend("numpy"), NumpyLoopBackend)
    assert isinstance(get_backend("einsum"), EinsumBatchBackend)


def test_get_backend_unknown_name():
    with pytest.raises(UnknownNameError) as excinfo:
        get_backend("definitely-not-a-backend")
    message = str(excinfo.value)
    assert "definitely-not-a-backend" in message
    assert "numpy" in message  # the error lists what *is* registered


def test_duplicate_registration_rejected():
    with pytest.raises(DuplicateNameError):
        BACKENDS.register("numpy", NumpyLoopBackend)
    assert isinstance(get_backend("numpy"), NumpyLoopBackend)


def test_register_rejects_bad_inputs():
    with pytest.raises(ValueError):
        BACKENDS.register("", NumpyLoopBackend)
    with pytest.raises(TypeError):
        BACKENDS.register("not-callable", object())


def test_get_backend_passthrough_and_bad_spec():
    instance = EinsumBatchBackend()
    assert get_backend(instance) is instance
    with pytest.raises(TypeError):
        get_backend(123)


def test_env_var_selects_default(monkeypatch):
    monkeypatch.setenv(env.BACKEND, "numpy")
    assert isinstance(get_backend(None), NumpyLoopBackend)
    monkeypatch.delenv(env.BACKEND)
    assert isinstance(get_backend(None), EinsumBatchBackend)


# --------------------------------------------------------------------------- #
# every registered engine against the numpy oracle; engines whose optional
# array library is missing (torch on the core image) skip their row.
# --------------------------------------------------------------------------- #
def _engine_or_skip(name):
    if not BACKENDS.available(name):
        pytest.skip(f"backend {name!r} is not available here")
    return get_backend(name)


@pytest.mark.parametrize("engine", BACKENDS.names())
def test_array_module_engines_registered_and_guarded(engine):
    if BACKENDS.available(engine):
        assert get_backend(engine).name == engine
    else:
        # The name resolves, but building the engine reports the missing
        # package instead of crashing deep inside the math.
        with pytest.raises(UnavailableError, match=engine):
            get_backend(engine)


@pytest.mark.parametrize("engine", BACKENDS.names())
def test_engine_parity_with_numpy_oracle(engine, loop):
    backend = _engine_or_skip(engine)
    rng = np.random.default_rng(400)
    for n_qubits in (1, 3, 5):
        circuit = random_circuit(n_qubits, n_ops=15, rng=rng)
        params = rng.normal(size=circuit.n_params)
        state = random_states(n_qubits, 1, rng)[0]
        actual = backend.run(circuit, state, params)
        assert isinstance(actual, np.ndarray)
        np.testing.assert_allclose(actual, loop.run(circuit, state, params),
                                   atol=ATOL)
    circuit = random_circuit(4, n_ops=12, rng=rng)
    states = random_states(4, 6, rng)
    params = rng.normal(size=circuit.n_params)
    np.testing.assert_allclose(backend.run_batched(circuit, states, params),
                               loop.run_batched(circuit, states, params),
                               atol=ATOL)
    param_matrix = rng.normal(size=(6, circuit.n_params))
    expected = np.stack([loop.run(circuit, state, row)
                         for state, row in zip(states, param_matrix)])
    np.testing.assert_allclose(
        backend.run_batched(circuit, states, param_matrix), expected,
        atol=ATOL)
    loss_head = _z0_loss_head(4)
    loss_a, grads_a = circuit_gradients(circuit, params, states[0], loss_head,
                                        backend="numpy")
    loss_b, grads_b = circuit_gradients(circuit, params, states[0], loss_head,
                                        backend=backend)
    assert abs(loss_a - loss_b) < ATOL
    np.testing.assert_allclose(grads_b, grads_a, atol=ATOL)


# --------------------------------------------------------------------------- #
# model plumbing
# --------------------------------------------------------------------------- #
def _small_config(**kwargs) -> QuGeoVQCConfig:
    return QuGeoVQCConfig(n_groups=1, qubits_per_group=4, n_blocks=2,
                          decoder="layer", output_shape=(4, 4), **kwargs)


def test_qugeovqc_backend_parity():
    rng = np.random.default_rng(14)
    seismic = [rng.normal(size=16) for _ in range(3)]
    model_loop = QuGeoVQC(_small_config(backend="numpy"), rng=3)
    model_einsum = QuGeoVQC(_small_config(backend="einsum"), rng=3)
    assert isinstance(model_loop.backend, NumpyLoopBackend)
    assert isinstance(model_einsum.backend, EinsumBatchBackend)
    for sample in seismic:
        np.testing.assert_allclose(model_einsum.predict(sample),
                                   model_loop.predict(sample), atol=ATOL)
    # The batched prediction path (one stacked contraction) agrees too.
    np.testing.assert_allclose(model_einsum.predict_batch(seismic),
                               model_loop.predict_batch(seismic), atol=ATOL)
    target = rng.normal(size=(4, 4))
    loss_a, grads_a = model_loop.loss_and_gradients(seismic[0], target)
    loss_b, grads_b = model_einsum.loss_and_gradients(seismic[0], target)
    assert abs(loss_a - loss_b) < ATOL
    np.testing.assert_allclose(grads_b["theta"], grads_a["theta"], atol=ATOL)


def test_qubatchvqc_backend_parity():
    rng = np.random.default_rng(15)
    config_kwargs = dict(n_batch_qubits=1)
    seismic = [rng.normal(size=16) for _ in range(2)]
    targets = [rng.normal(size=(4, 4)) for _ in range(2)]
    model_loop = QuBatchVQC(_small_config(backend="numpy", **config_kwargs),
                            rng=4)
    model_einsum = QuBatchVQC(_small_config(backend="einsum", **config_kwargs),
                              rng=4)
    np.testing.assert_allclose(model_einsum.predict_batch(seismic),
                               model_loop.predict_batch(seismic), atol=ATOL)
    loss_a, grads_a = model_loop.loss_and_gradients(seismic, targets)
    loss_b, grads_b = model_einsum.loss_and_gradients(seismic, targets)
    assert abs(loss_a - loss_b) < ATOL
    np.testing.assert_allclose(grads_b["theta"], grads_a["theta"], atol=ATOL)


def test_explicit_backend_argument_overrides_config():
    model = QuGeoVQC(_small_config(backend="numpy"), rng=5, backend="einsum")
    assert isinstance(model.backend, EinsumBatchBackend)


def test_config_rejects_non_string_backend():
    with pytest.raises(ValueError):
        _small_config(backend=123)


def test_unknown_config_backend_fails_at_model_build():
    with pytest.raises(UnknownNameError):
        QuGeoVQC(_small_config(backend="no-such-engine"), rng=0)
