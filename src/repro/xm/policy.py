"""Explicit precision policy for the numeric stack.

A :class:`DTypePolicy` names every dtype a numeric engine needs:

* ``real`` / ``complex`` — the *compute* dtypes carried by hot-path arrays
  (wavefield buffers, statevector stacks, gate tensors);
* ``accum_real`` / ``accum_complex`` — the *accumulation* dtypes used where
  many compute-precision values are summed into a result that callers keep
  (receiver gathers, parameter gradients, loss values).  These stay
  ``float64`` / ``complex128`` even under the ``float32`` policy, which is
  what keeps mixed-precision runs trustworthy;
* ``index`` — the integer dtype of index material (``np.intp``).

The default policy is ``float64`` (compute == accumulate), which keeps every
engine bit-identical to the historical hard-coded ``np.float64`` /
``np.complex128`` behaviour.  The ``float32`` policy halves array memory and
bandwidth on the propagator and statevector hot paths at ~1e-3 relative
accuracy.

Resolution mirrors the engine registries: an explicit policy or name beats
the ``QUGEO_DTYPE`` environment variable, which beats the ``float64``
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.utils import env


@dataclass(frozen=True)
class DTypePolicy:
    """Named bundle of compute / accumulation / index dtypes.

    Attributes
    ----------
    name:
        Registry key (``"float64"`` / ``"float32"``).
    real, complex:
        Compute dtypes of real and complex hot-path arrays.
    accum_real, accum_complex:
        Accumulation dtypes; results handed back to callers (gathers,
        gradients, losses) are produced in these.
    index:
        Integer dtype of index material.
    """

    name: str
    real: np.dtype
    complex: np.dtype
    accum_real: np.dtype
    accum_complex: np.dtype
    index: np.dtype

    @property
    def is_default_precision(self) -> bool:
        """True when compute precision equals the historical float64 path."""
        return self.real == np.dtype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DTypePolicy({self.name!r})"


def _policy(name: str, real, cplx) -> DTypePolicy:
    return DTypePolicy(name=name, real=np.dtype(real), complex=np.dtype(cplx),
                       accum_real=np.dtype(np.float64),
                       accum_complex=np.dtype(np.complex128),
                       index=np.dtype(np.intp))


#: Full precision (the default): compute == accumulate == float64/complex128.
FLOAT64 = _policy("float64", np.float64, np.complex128)

#: Reduced-precision compute with float64 accumulation.
FLOAT32 = _policy("float32", np.float32, np.complex64)

_POLICIES: Dict[str, DTypePolicy] = {p.name: p for p in (FLOAT64, FLOAT32)}

_DEFAULT_NAME = "float64"

PolicySpec = Union[None, str, DTypePolicy]


def available_policies() -> List[str]:
    """Sorted names of every known dtype policy."""
    return sorted(_POLICIES)


def default_policy_name() -> str:
    """The name :func:`get_dtype_policy` resolves when given ``None``."""
    return env.get_choice(env.DTYPE, _DEFAULT_NAME, _POLICIES)


def get_dtype_policy(spec: PolicySpec = None) -> DTypePolicy:
    """Resolve ``spec`` to a :class:`DTypePolicy`.

    ``spec`` may be ``None`` (use ``QUGEO_DTYPE`` / the default), a
    policy name, or an already-constructed policy (returned as-is).
    """
    if isinstance(spec, DTypePolicy):
        return spec
    if spec is None:
        spec = default_policy_name()
    if not isinstance(spec, str):
        raise TypeError(
            f"dtype policy spec must be None, a name or a DTypePolicy, got "
            f"{type(spec).__name__}")
    try:
        return _POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown dtype policy {spec!r}; known policies: "
            f"{available_policies()}") from None


def ensure_complex(array, policy: Optional[DTypePolicy] = None) -> np.ndarray:
    """Coerce ``array`` to a complex NumPy array without needless upcasts.

    Arrays that already carry a complex dtype are passed through unchanged
    (so a ``complex64`` stack stays ``complex64`` on the hot path); anything
    else is cast to the policy's complex compute dtype (``complex128`` when
    no policy is given — the historical behaviour).
    """
    array = np.asarray(array)
    if array.dtype.kind == "c":
        return array
    target = policy.complex if policy is not None else np.dtype(np.complex128)
    return array.astype(target)
