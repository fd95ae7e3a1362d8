"""Compatibility stubs for the benchmark's resolved-engine record.

Every engine computes on NumPy in float64 / complex128, with no setting
that changes either, so there is nothing left to resolve here.
"""

from types import SimpleNamespace


def get_array_module():
    """Return an object whose ``.name`` is ``"numpy"``.

    Exists only for the benchmark's resolved-engine record: NumPy is the
    one array library, so there is nothing to resolve.
    """
    return SimpleNamespace(name="numpy")


def get_dtype_policy(spec=None):
    """Return an object whose ``.name`` is ``"float64"``.

    Exists only for the benchmark's resolved-engine record: float64 (with
    complex128 statevectors) is the one precision, so there is nothing to
    resolve and ``spec`` is ignored.
    """
    return SimpleNamespace(name="float64")


__all__ = ["get_array_module", "get_dtype_policy"]
