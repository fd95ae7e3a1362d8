"""Per-basis-state reference read-out of the two quantum decoders.

Plain Python loops over the basis states of one register, written from the
decoder definitions: qubit 0 is the most significant bit of a basis index,
and the pixel decoder's outcome index takes its first read-out qubit as the
most significant bit.  Nothing here calls :mod:`repro.quantum.measurement`
or the models' read-out, so tests can check the vectorised decoders against
it.
"""

from __future__ import annotations

import math

import numpy as np


def _bits(index, n_qubits):
    """Basis index as a bit string; character ``q`` is qubit ``q``."""
    return format(index, f"0{n_qubits}b")


def marginals(probs, qubits, n_qubits):
    """Probabilities of each outcome of measuring ``qubits``."""
    out = [0.0] * 2**len(qubits)
    for index, p in enumerate(probs):
        bits = _bits(index, n_qubits)
        out[int("".join(bits[q] for q in qubits), 2)] += float(p)
    return out


def z_expectations(probs, qubits, n_qubits):
    """``<Z_q>`` of each qubit in ``qubits``."""
    values = []
    for q in qubits:
        total = 0.0
        for index, p in enumerate(probs):
            total += float(p) if _bits(index, n_qubits)[q] == "0" else -float(p)
        values.append(total)
    return values


def decoded_maps(config, output_scale, probs):
    """Velocity maps one execution's basis probabilities decode to.

    ``probs`` covers the whole register.  Without batch qubits it is one
    map; a QuBatch register gives one map per batch-qubit value, read off
    that block renormalised by its own total, and a block holding at most
    1e-12 reads as a zero map.
    """
    depth, width = config.output_shape
    n_block = int(math.log2(len(probs))) - config.n_batch_qubits
    size = 2**n_block
    maps = []
    for start in range(0, len(probs), size):
        block = [float(p) for p in probs[start:start + size]]
        total = sum(block) if config.n_batch_qubits else 1.0
        if total <= 1e-12:
            maps.append(np.zeros((depth, width)))
            continue
        if config.decoder == "pixel":
            qubits = list(range(config.readout_qubits_needed))
            marg = marginals(block, qubits, n_block)
            cells = [output_scale * math.sqrt(m / total + 1e-12)
                     for m in marg[:depth * width]]
            maps.append(np.array(cells).reshape(depth, width))
        else:
            z = z_expectations(block, list(range(depth)), n_block)
            maps.append(np.array([[(1.0 + value / total) / 2.0] * width
                                  for value in z]))
    return np.stack(maps)


def state_maps(config, output_scale, state):
    """:func:`decoded_maps` of the exact probabilities of ``state``."""
    return decoded_maps(config, output_scale, [abs(a)**2 for a in state])
