"""QuGeo reproduction: quantum learning for seismic full-waveform inversion.

The package is organised as:

* :mod:`repro.core` — the paper's contribution: QuGeoData physics-guided data
  scaling, the QuGeoVQC model (encoder / U3+CU3 ansatz / pixel- and
  layer-wise decoders), QuBatch, parameter-matched classical baselines and
  the training / experiment harnesses.
* :mod:`repro.quantum` — NumPy statevector simulator with analytic gradients.
* :mod:`repro.backends` — the statevector engine (vectorised, strided-view
  gate kernel) and its per-gate reference oracle.
* :mod:`repro.nn` — small autograd / neural-network substrate for the
  classical components.
* :mod:`repro.seismic` — acoustic forward modelling and velocity-model
  generators.
* :mod:`repro.data` — synthetic OpenFWI-style dataset tooling.
* :mod:`repro.metrics` — SSIM and error metrics.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
