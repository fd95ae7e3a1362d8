"""Backend subsystem tests: engine parity, engine resolution, model plumbing.

The vectorised :class:`EinsumBatchBackend` must agree with the bit-exact
:class:`NumpyLoopBackend` to 1e-10 on random circuits over 1-6 qubits,
including the fixed two-qubit gates (CNOT/CZ/SWAP) and the parameterised
U3/CU3 family, in every execution mode (single state, batched states,
batched parameters, batched gate application).  Its strided-view kernel is
also checked gate by gate: every ``GATES`` and ``PARAMETRIC_GATES`` entry on
every target (and ordered target pair) of a 5-qubit register.  No name or
setting selects an engine: ``get_backend()`` builds the einsum engine and
the oracle is passed in as an instance.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends
from repro.backends import (
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
from repro.quantum.measurement import z_expectations, z_expectations_batched
from repro.utils import env

ATOL = 1e-10

#: Both engines, each test id the engine's ``name``.
ENGINES = [pytest.param(EinsumBatchBackend(), id="einsum"),
           pytest.param(NumpyLoopBackend(), id="numpy")]

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
    return NumpyLoopBackend()


@pytest.fixture(scope="module")
def einsum():
    return EinsumBatchBackend()


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
    engine = EinsumBatchBackend()
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


#: Both engines compute in complex128, the one precision (test id float64);
#: the test checks the fast engine's output carries it.
@pytest.mark.parametrize("dtype", [pytest.param(np.complex128, id="float64")])
@pytest.mark.parametrize("name", _all_gate_names())
def test_kernel_matches_oracle_on_every_target(name, dtype):
    from repro.quantum.parametric import PARAMETRIC_GATES

    fast = EinsumBatchBackend()
    oracle = NumpyLoopBackend()
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
        pulled = fast.apply_gate_batched(states, matrix, targets,
                                         KERNEL_QUBITS)
        assert pulled.dtype == dtype
        np.testing.assert_allclose(
            pulled,
            oracle.apply_gate_batched(states, matrix, targets, KERNEL_QUBITS),
            atol=ATOL)
        np.testing.assert_array_equal(states, before)
        # The forward pass with shared parameters ...
        out = fast.run_batched(circuit, states, params)
        assert out.dtype == dtype
        np.testing.assert_allclose(out,
                                   oracle.run_batched(circuit, states, params),
                                   atol=ATOL)
        np.testing.assert_array_equal(states, before)
        if not circuit.n_params:
            continue
        # ... and with one parameter row per state.
        rows = rng.uniform(-np.pi, np.pi, size=(batch, circuit.n_params))
        expected = np.stack([oracle.run(circuit, state, row)
                             for state, row in zip(states, rows)])
        np.testing.assert_allclose(fast.run_batched(circuit, states, rows),
                                   expected, atol=ATOL)


@pytest.mark.parametrize("backend", ENGINES)
def test_apply_gate_batched_inplace_updates_the_stack(backend):
    from repro.quantum.gates import GATES

    oracle = NumpyLoopBackend()
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
    """The layer-wise (Q-M-LY) read-out of both engines' outputs agrees."""
    rng = np.random.default_rng(10)
    circuit = random_circuit(4, n_ops=10, rng=rng)
    params = rng.normal(size=circuit.n_params)
    states = random_states(4, 5, rng)
    expected = z_expectations_batched(
        np.abs(loop.run_batched(circuit, states, params))**2, (0, 2), 4)
    actual = z_expectations_batched(
        np.abs(einsum.run_batched(circuit, states, params))**2, (0, 2), 4)
    np.testing.assert_allclose(actual, expected, atol=ATOL)
    qubits = tuple(range(4))
    np.testing.assert_allclose(
        z_expectations(einsum.run(circuit, states[0], params), qubits, 4),
        z_expectations(loop.run(circuit, states[0], params), qubits, 4),
        atol=ATOL)


def test_circuit_run_accepts_backend_name():
    """``circuit.run`` takes an engine instance or ``None``; a name is a
    ``TypeError``, no longer a lookup."""
    rng = np.random.default_rng(11)
    circuit = random_circuit(3, n_ops=8, rng=rng)
    params = rng.normal(size=circuit.n_params)
    state = random_states(3, 1, rng)[0]
    oracle = NumpyLoopBackend()
    np.testing.assert_allclose(circuit.run(state, params),
                               circuit.run(state, params, backend=oracle),
                               atol=ATOL)
    states = random_states(3, 4, rng)
    np.testing.assert_allclose(circuit.run_batched(states, params),
                               circuit.run_batched(states, params,
                                                   backend=oracle),
                               atol=ATOL)
    for name in ("einsum", "numpy"):
        with pytest.raises(TypeError, match="NumpyLoopBackend"):
            circuit.run(state, params, backend=name)
        with pytest.raises(TypeError, match="EinsumBatchBackend"):
            circuit.run_batched(states, params, backend=name)


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
                                        backend=NumpyLoopBackend())
    loss_b, grads_b = circuit_gradients(circuit, params, state, loss_head)
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
                                               loss_head)
    monkeypatch.setattr(autodiff, "_SHIFT_SWEEP_MAX_ELEMENTS", 1)
    _, grads_chunked = parameter_shift_gradients(circuit, params, state,
                                                 loss_head)
    np.testing.assert_allclose(grads_chunked, grads_whole, atol=ATOL)


def test_parameter_shift_stacked_sweep_matches_loop():
    """Both engines' stacked sweeps match a per-parameter loop of runs."""
    rng = np.random.default_rng(13)
    circuit = ParameterizedCircuit(3)
    for q in range(3):
        circuit.add_parametric_gate("RY", [q])
    circuit.add_gate("CNOT", [0, 1])
    circuit.add_parametric_gate("RX", [2])
    params = rng.normal(size=circuit.n_params)
    state = random_states(3, 1, rng)[0]
    loss_head = _z0_loss_head(3)
    for engine in (EinsumBatchBackend(), NumpyLoopBackend()):
        expected = np.empty(circuit.n_params)
        for i in range(circuit.n_params):
            shifted = params.copy()
            shifted[i] += np.pi / 2
            plus = loss_head(circuit.run(state, shifted, backend=engine))[0]
            shifted[i] = params[i] - np.pi / 2
            minus = loss_head(circuit.run(state, shifted, backend=engine))[0]
            expected[i] = 0.5 * (plus - minus)
        loss, grads = parameter_shift_gradients(circuit, params, state,
                                                loss_head, backend=engine)
        assert loss == loss_head(circuit.run(state, params, backend=engine))[0]
        np.testing.assert_allclose(grads, expected, rtol=0, atol=1e-12,
                                   err_msg=engine.name)


# --------------------------------------------------------------------------- #
# engine resolution: no registry, no names, no environment switch
# --------------------------------------------------------------------------- #
def test_known_backends_registered():
    """The two engines exist as classes; ``repro.backends`` keeps no table."""
    assert not hasattr(repro.backends, "BACKENDS")
    assert EinsumBatchBackend.name == "einsum"
    assert NumpyLoopBackend.name == "numpy"
    assert isinstance(get_backend(), EinsumBatchBackend)
    assert get_backend().name == "einsum"


def test_get_backend_unknown_name():
    """Every string is rejected, and the message names both classes."""
    for name in ("numpy", "einsum", "definitely-not-a-backend"):
        with pytest.raises(TypeError) as excinfo:
            get_backend(name)
        message = str(excinfo.value)
        assert name in message
        assert "EinsumBatchBackend" in message
        assert "NumpyLoopBackend" in message


def test_get_backend_passthrough_and_bad_spec():
    for instance in (EinsumBatchBackend(), NumpyLoopBackend()):
        assert get_backend(instance) is instance
    # None builds a fresh engine per call: nothing is cached process-wide.
    assert get_backend(None) is not get_backend(None)
    for bad in (123, NumpyLoopBackend):
        with pytest.raises(TypeError):
            get_backend(bad)


def test_env_var_selects_default(monkeypatch):
    """No setting reaches the default engine: ``QUGEO_BACKEND`` and
    ``QUGEO_DTYPE`` are no longer known variables, and a stale value of
    either leaves it the complex128 einsum engine."""
    known = {var.name for var in env.KNOWN_VARS}
    assert not {"QUGEO_BACKEND", "QUGEO_DTYPE"} & known
    monkeypatch.setenv("QUGEO_BACKEND", "numpy")
    monkeypatch.setenv("QUGEO_DTYPE", "float32")
    engine = get_backend(None)
    assert isinstance(engine, EinsumBatchBackend)
    assert not hasattr(engine, "policy")
    circuit = ParameterizedCircuit(2)
    circuit.add_parametric_gate("U3", [0])
    states = random_states(2, 3, np.random.default_rng(0))
    out = engine.run_batched(circuit, states, np.ones(circuit.n_params))
    assert out.dtype == np.complex128
    with pytest.raises(TypeError):
        EinsumBatchBackend(policy="float32")


@pytest.mark.parametrize("engine", ["einsum", "numpy", "torch"])
def test_array_module_engines_registered_and_guarded(engine, monkeypatch):
    """NumPy is the one array library and no name selects an engine: each
    name is a ``TypeError``, and the environment cannot pick one either."""
    monkeypatch.setenv("QUGEO_BACKEND", engine)
    with pytest.raises(TypeError, match="EinsumBatchBackend"):
        get_backend(engine)
    with pytest.raises(TypeError, match="NumpyLoopBackend"):
        QuGeoVQC(_small_config(), rng=0, backend=engine)
    assert get_backend(None).name == "einsum"


# --------------------------------------------------------------------------- #
# both engines against the numpy oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ENGINES)
def test_engine_parity_with_numpy_oracle(backend, loop):
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
                                        backend=loop)
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
    model_loop = QuGeoVQC(_small_config(), rng=3, backend=NumpyLoopBackend())
    model_einsum = QuGeoVQC(_small_config(), rng=3)
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
    model_loop = QuBatchVQC(_small_config(**config_kwargs), rng=4,
                            backend=NumpyLoopBackend())
    model_einsum = QuBatchVQC(_small_config(**config_kwargs), rng=4)
    assert isinstance(model_loop.backend, NumpyLoopBackend)
    assert isinstance(model_einsum.backend, EinsumBatchBackend)
    np.testing.assert_allclose(model_einsum.predict_batch(seismic),
                               model_loop.predict_batch(seismic), atol=ATOL)
    loss_a, grads_a = model_loop.loss_and_gradients(seismic, targets)
    loss_b, grads_b = model_einsum.loss_and_gradients(seismic, targets)
    assert abs(loss_a - loss_b) < ATOL
    np.testing.assert_allclose(grads_b["theta"], grads_a["theta"], atol=ATOL)


def test_explicit_backend_argument_overrides_config():
    """The ``backend`` argument is the only way to pick an engine: an
    instance is used as it is, and ``None`` builds the default engine."""
    oracle = NumpyLoopBackend()
    assert QuGeoVQC(_small_config(), rng=5, backend=oracle).backend is oracle
    assert isinstance(QuGeoVQC(_small_config(), rng=5).backend,
                      EinsumBatchBackend)
    qubatch = QuBatchVQC(_small_config(n_batch_qubits=1), rng=5,
                         backend=oracle)
    assert qubatch.backend is oracle


def test_config_rejects_non_string_backend():
    """``QuGeoVQCConfig`` has no ``backend`` field any more."""
    for value in (123, "numpy", None):
        with pytest.raises(TypeError):
            _small_config(backend=value)
    assert not hasattr(QuGeoVQCConfig(), "backend")


def test_unknown_config_backend_fails_at_model_build():
    """An engine name fails at model build, for both model classes."""
    with pytest.raises(TypeError, match="NumpyLoopBackend"):
        QuGeoVQC(_small_config(), rng=0, backend="no-such-engine")
    with pytest.raises(TypeError, match="EinsumBatchBackend"):
        QuBatchVQC(_small_config(n_batch_qubits=1), rng=0, backend="numpy")
