"""The vectorised decoder read-out against the per-basis-state oracle.

``readout_oracle`` decodes one statevector with Python loops over basis
states.  ``QuGeoVQC.predict``, ``QuBatchVQC.predict_batch``, both models'
losses and ``FiniteShotReadout`` must agree with it: at 1e-12 on exact and
on identically drawn sampled probabilities, and within shot noise at
``2**20`` shots against the exact maps.  ``TestQuadraticForm`` checks the
exact read-outs a second way, as quadratic forms of the encoded input
under the circuit's dense unitary.
"""

import numpy as np
import pytest

from readout_oracle import decoded_maps, marginals, state_maps, z_expectations
from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.core.config import QuGeoVQCConfig
from repro.core.qubatch import QuBatchVQC
from repro.core.vqc_model import QuGeoVQC
from repro.quantum.measurement import sampled_probabilities
from repro.robustness import FiniteShotReadout

ENGINES = [pytest.param(EinsumBatchBackend(), id="einsum"),
           pytest.param(NumpyLoopBackend(), id="numpy")]
DECODERS = ["pixel", "layer"]


def _config(decoder, n_batch_qubits=0, n_groups=1):
    return QuGeoVQCConfig(n_groups=n_groups, qubits_per_group=6 // n_groups,
                          n_blocks=2, decoder=decoder, output_shape=(6, 6),
                          n_batch_qubits=n_batch_qubits)


def _seismic(n, n_features=64, seed=0):
    return np.random.default_rng(seed).normal(size=(n, n_features))


def _scale(model):
    return float(model.output_scale.data[0])


def _qubatch_states(model, seismic):
    """Exact output state of each capacity-sized execution."""
    cap = model.batch_capacity
    return [model.circuit.run(model.encode(seismic[start:start + cap]),
                              model.theta.data, backend=model.backend)
            for start in range(0, len(seismic), cap)]


class TestOracle:
    """The oracle itself, on basis states whose read-out is known."""

    def test_marginals_take_first_qubit_as_msb(self):
        probs = np.zeros(8)
        probs[0b011] = 1.0  # qubit 0 = 0, qubit 1 = 1, qubit 2 = 1
        assert marginals(probs, [1, 0], 3) == [0.0, 0.0, 1.0, 0.0]
        assert marginals(probs, [0, 2], 3) == [0.0, 1.0, 0.0, 0.0]

    def test_z_signs_follow_each_qubit(self):
        probs = np.zeros(8)
        probs[0b100] = 0.25
        probs[0b001] = 0.75
        assert z_expectations(probs, [0, 1, 2], 3) == [0.5, 1.0, -0.5]

    def test_block_normalisation_and_empty_blocks(self):
        config = _config("layer", n_batch_qubits=1)
        probs = np.zeros(2**7)
        probs[0] = 0.5  # block 0: all mass on |000000>
        maps = decoded_maps(config, 1.0, probs)
        np.testing.assert_array_equal(maps[0], np.ones((6, 6)))
        np.testing.assert_array_equal(maps[1], np.zeros((6, 6)))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("decoder", DECODERS)
class TestExactReadout:
    def test_qugeovqc_predict(self, engine, decoder):
        for n_groups in (1, 2):
            model = QuGeoVQC(_config(decoder, n_groups=n_groups), rng=1,
                             backend=engine)
            seismic = _seismic(5, model.config.input_size)
            expected = np.stack([state_maps(model.config, _scale(model),
                                            model.run_circuit(row))[0]
                                 for row in seismic])
            np.testing.assert_allclose(model.predict(seismic), expected,
                                       rtol=0.0, atol=1e-12)

    def test_qubatch_predict_batch(self, engine, decoder):
        model = QuBatchVQC(_config(decoder, n_batch_qubits=2), rng=1,
                           backend=engine)
        seismic = _seismic(6)  # a full execution and a half-empty one
        expected = np.concatenate([
            state_maps(model.config, _scale(model), state)
            for state in _qubatch_states(model, seismic)])[:6]
        np.testing.assert_allclose(model.predict_batch(list(seismic)),
                                   expected, rtol=0.0, atol=1e-12)

    def test_losses(self, engine, decoder):
        rng = np.random.default_rng(3)
        seismic, targets = _seismic(4), rng.random((4, 6, 6))
        model = QuGeoVQC(_config(decoder), rng=1, backend=engine)
        expected = [np.mean((state_maps(model.config, _scale(model),
                                        model.run_circuit(row))[0] - t)**2)
                    for row, t in zip(seismic, targets)]
        losses, _ = model.loss_and_gradients_batch(list(seismic),
                                                   list(targets))
        np.testing.assert_allclose(losses, expected, rtol=0.0, atol=1e-12)
        batched = QuBatchVQC(_config(decoder, n_batch_qubits=2), rng=1,
                             backend=engine)
        maps = state_maps(batched.config, _scale(batched),
                          _qubatch_states(batched, seismic[:3])[0])[:3]
        loss, _ = batched.loss_and_gradients(list(seismic[:3]),
                                             list(targets[:3]))
        assert loss == pytest.approx(np.mean((maps - targets[:3])**2),
                                     rel=0.0, abs=1e-12)


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("batched", [False, True], ids=["vqc", "qubatch"])
class TestFiniteShotReadout:
    @staticmethod
    def _model(decoder, batched):
        if batched:
            return QuBatchVQC(_config(decoder, n_batch_qubits=2), rng=1)
        return QuGeoVQC(_config(decoder), rng=1)

    @staticmethod
    def _state(model, row):
        """Exact output state of ``row`` run alone."""
        if isinstance(model, QuBatchVQC):
            return _qubatch_states(model, [row])[0]
        return model.run_circuit(row)

    def test_same_draw_decodes_like_the_oracle(self, decoder, batched):
        model = self._model(decoder, batched)
        seismic = _seismic(3)
        got = FiniteShotReadout(model, n_shots=4096, rng=7).predict_batch(
            seismic)
        draws = np.random.default_rng(7)
        for row, prediction in zip(seismic, got):
            probs = sampled_probabilities(self._state(model, row), 4096,
                                          rng=draws)
            expected = decoded_maps(model.config, _scale(model), probs)[0]
            np.testing.assert_allclose(prediction, expected, rtol=0.0,
                                       atol=1e-12)

    def test_batch_is_bit_identical_to_per_sample_loop(self, decoder,
                                                       batched):
        """One stacked pass draws and decodes what one pass per sample did."""
        model = self._model(decoder, batched)
        seismic = _seismic(5)
        got = FiniteShotReadout(model, n_shots=512, rng=11).predict_batch(
            seismic)
        draws = np.random.default_rng(11)
        loop = []
        for row in seismic:
            state = model.output_states([row])[0]
            probs = sampled_probabilities(state, 512, rng=draws)
            loop.append(model.readout(probs[None]).maps[0])
        assert np.array_equal(got, np.stack(loop))

    def test_many_shots_approach_the_exact_maps(self, decoder, batched):
        model = self._model(decoder, batched)
        seismic = _seismic(2)
        got = FiniteShotReadout(model, n_shots=2**20, rng=0).predict_batch(
            seismic)
        for row, prediction in zip(seismic, got):
            exact = state_maps(model.config, _scale(model),
                               self._state(model, row))[0]
            np.testing.assert_allclose(prediction, exact, rtol=0.0,
                                       atol=0.02)


def _dense_unitary(model):
    """The circuit's dense ``U``: column ``j`` is the output of basis state
    ``j``, so the circuit is run once on the identity stack."""
    dim = 2**model.n_qubits
    return model.circuit.run_batched(np.eye(dim, dtype=complex),
                                     model.theta.data,
                                     backend=model.backend).T


def _kron_all(factors):
    out = np.ones((1, 1))
    for factor in factors:
        out = np.kron(out, factor)
    return out


@pytest.mark.parametrize("n_groups", [1, 2])
class TestQuadraticForm:
    """Each read-out is a quadratic form of the encoded input ``x``
    (Schuld, arXiv:2101.11020): with the dense ``U`` and ``M`` a Pauli-Z or
    a projector written with Kronecker products (qubit 0 the leftmost
    factor), ``<x|U^dagger M U|x> = x^T Re(U^dagger M U) x`` for a real
    ``x``.  Nothing here shares code with ``VQCCore.readout``."""

    @staticmethod
    def _model(decoder, n_groups):
        config = QuGeoVQCConfig(n_groups=n_groups,
                                qubits_per_group=6 // n_groups, n_blocks=2,
                                decoder=decoder, output_shape=(4, 4))
        model = QuGeoVQC(config, rng=11 + n_groups)
        model.output_scale.data = np.array([1.7])
        return model

    @staticmethod
    def _inputs(model):
        seismic = _seismic(4, model.config.input_size, seed=5)
        xs = np.stack([model.encode(row) for row in seismic])
        np.testing.assert_array_equal(xs.imag, 0.0)
        return seismic, xs.real

    def test_layer_rows_are_z_quadratic_forms(self, n_groups):
        model = self._model("layer", n_groups)
        n = model.n_qubits
        u = _dense_unitary(model)
        seismic, xs = self._inputs(model)
        maps = model.predict(seismic)
        eye, z = np.eye(2), np.diag([1.0, -1.0])
        for r in range(model.config.output_shape[0]):
            z_r = _kron_all([z if q == r else eye for q in range(n)])
            form = (u.conj().T @ z_r @ u).real
            expected = 0.5 + 0.5 * np.einsum("bi,ij,bj->b", xs, form, xs)
            for column in range(model.config.output_shape[1]):
                np.testing.assert_allclose(maps[:, r, column], expected,
                                           atol=1e-12, rtol=0)

    def test_pixel_squares_are_projector_quadratic_forms(self, n_groups):
        model = self._model("pixel", n_groups)
        n = model.n_qubits
        u = _dense_unitary(model)
        seismic, xs = self._inputs(model)
        squares = (model.predict(seismic).reshape(len(xs), -1) / 1.7) ** 2
        cells = squares.shape[1]
        k = int(np.ceil(np.log2(cells)))
        for i in range(cells):
            outcome = np.zeros((2**k, 2**k))
            outcome[i, i] = 1.0
            p_i = np.kron(outcome, np.eye(2**(n - k)))
            form = (u.conj().T @ p_i @ u).real
            expected = np.einsum("bi,ij,bj->b", xs, form, xs)
            np.testing.assert_allclose(squares[:, i] - 1e-12, expected,
                                       atol=1e-12, rtol=0)
