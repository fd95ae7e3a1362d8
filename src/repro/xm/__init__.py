"""The dtype policy of the numeric stack.

:class:`DTypePolicy` / :func:`get_dtype_policy` name the dtype bundles the
engines run at (``float64`` default, ``float32`` compute with float64
accumulation), selected per engine or via ``QUGEO_DTYPE``.  Every engine
runs on NumPy; the default ``float64`` policy reproduces the historical
hard-coded behaviour bit-for-bit.
"""

from types import SimpleNamespace

from repro.xm.policy import (
    FLOAT32,
    FLOAT64,
    DTypePolicy,
    available_policies,
    default_policy_name,
    ensure_complex,
    get_dtype_policy,
)


def get_array_module():
    """Return an object whose ``.name`` is ``"numpy"``.

    Exists only for the benchmark's resolved-engine record: NumPy is the
    one array library, so there is nothing to resolve.
    """
    return SimpleNamespace(name="numpy")


__all__ = [
    "FLOAT32",
    "FLOAT64",
    "DTypePolicy",
    "available_policies",
    "default_policy_name",
    "ensure_complex",
    "get_array_module",
    "get_dtype_policy",
]
