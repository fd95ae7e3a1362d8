"""QG003 — xm-seamed modules route arithmetic kernels through ``ArrayOps``.

Contract guarded: :class:`repro.xm.ArrayOps` is the narrow waist between the
numeric engines and the array library (NumPy / PyTorch).  Inside the
seamed modules, a raw ``np.einsum`` / ``np.matmul`` pins the computation to
host NumPy and silently breaks the GPU path for every engine built on the
seam.

The rule checks the *arithmetic kernels* ``ArrayOps`` dispatches (einsum,
matmul, multiply, dot, tensordot).  Deliberate host-NumPy branches — the
per-gate reference engine, the BLAS-matmul Laplacian — carry per-line
suppressions with rationale; new code should reach for ``self.xm`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, SourceFile, call_name
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES

#: Modules written against the ArrayOps seam (see ROADMAP PR 7).
SEAMED_PREFIXES = (
    "src/repro/backends/",
    "src/repro/quantum/",
    "src/repro/nn/",
)
SEAMED_FILES = frozenset({"src/repro/seismic/acoustic2d.py"})

#: The ArrayOps arithmetic kernels a raw np. call would bypass.
_WAIST_OPS = frozenset({"einsum", "matmul", "multiply", "dot", "tensordot"})


def _in_scope(rel_path: str) -> bool:
    return rel_path in SEAMED_FILES or any(
        rel_path.startswith(prefix) for prefix in SEAMED_PREFIXES)


class ArrayWaistRule(Rule):
    code = "QG003"
    name = "array-waist"
    description = ("raw np.einsum/np.matmul/... in xm-seamed modules "
                   "(backends/, quantum/, nn/, seismic/acoustic2d.py) that "
                   "bypass the ArrayOps waist")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or not _in_scope(sf.rel_path):
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee is None:
                continue
            parts = callee.split(".")
            if len(parts) == 2 and parts[0] in ("np", "numpy") \
                    and parts[1] in _WAIST_OPS:
                yield sf.finding(
                    node, self.code,
                    f"raw np.{parts[1]} in an xm-seamed module bypasses the "
                    f"ArrayOps waist; use self.xm.{parts[1]} (or "
                    f"get_array_module()) so the op follows the configured "
                    f"array module, or suppress with a rationale if this "
                    f"branch is host-NumPy by design")


RULES.register(ArrayWaistRule.code, ArrayWaistRule)
