"""Array-module + dtype-policy seam for the numeric stack.

``repro.xm`` decouples the numeric engines from both the array library they
run on and the precision they run at:

* :class:`ArrayOps` / :func:`get_array_module` — a narrow operation set
  (allocation, reshape, einsum, matmul, host transfer) implemented for
  NumPy today and for PyTorch when installed, selected via the
  ``QUGEO_ARRAY_MODULE`` environment variable or per-engine constructor
  arguments.
* :class:`DTypePolicy` / :func:`get_dtype_policy` — named dtype bundles
  (``float64`` default, ``float32`` compute with float64 accumulation),
  selected via ``QUGEO_DTYPE``.

The default ``numpy``/``float64`` combination reproduces the historical
hard-coded behaviour bit-for-bit.
"""

from repro.xm.ops import ARRAY_MODULES, ArrayOps, NumpyOps, get_array_module
from repro.xm.policy import (
    FLOAT32,
    FLOAT64,
    DTypePolicy,
    available_policies,
    default_policy_name,
    ensure_complex,
    get_dtype_policy,
)

__all__ = [
    "ARRAY_MODULES",
    "ArrayOps",
    "NumpyOps",
    "get_array_module",
    "FLOAT32",
    "FLOAT64",
    "DTypePolicy",
    "available_policies",
    "default_policy_name",
    "ensure_complex",
    "get_dtype_policy",
]
