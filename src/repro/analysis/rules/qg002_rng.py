"""QG002 — all randomness flows from seeded, ``SeedSequence``-derived
generators.

Contract guarded: the bit-identical parallel-generation and perturbation
contracts (see ``repro/utils/rng.py``) require every stochastic component to
draw from a :class:`numpy.random.Generator` built by ``ensure_rng`` /
``SeedSequence`` spawning.  Global-state calls (``np.random.normal(...)``)
and unseeded constructors (``default_rng()`` with no argument,
``RandomState()``) produce streams no fingerprint can address, so a single
call site silently breaks reproducibility.

``repro/utils/rng.py`` itself is exempt — its ``ensure_rng(None)`` branch is
the one sanctioned fresh-entropy path.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.base import Rule, SourceFile, call_name
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES

#: The sanctioned RNG waist (fresh entropy lives here, nowhere else).
ALLOWED_FILES = frozenset({"src/repro/utils/rng.py"})

#: ``np.random`` attributes that are fine to touch: seeded constructors,
#: seed containers and bit generators (not stream-drawing functions).
_SAFE_RANDOM_ATTRS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "RandomState", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: Constructors that must receive a seed/SeedSequence argument.
_NEED_SEED = frozenset({"default_rng", "RandomState"})


def _is_unseeded(node: ast.Call) -> bool:
    return not node.args and not node.keywords


class SeededRngRule(Rule):
    code = "QG002"
    name = "seeded-rng"
    description = ("unseeded RNG in src/: global np.random.* calls, or "
                   "default_rng()/RandomState() without a seed")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or not sf.rel_path.startswith("src/"):
            return
        if sf.rel_path in ALLOWED_FILES:
            return
        # Names imported directly from numpy.random, e.g.
        # ``from numpy.random import default_rng``.
        from_random: Set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                from_random.update(alias.asname or alias.name
                                   for alias in node.names)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee is None:
                continue
            parts = callee.split(".")
            if len(parts) >= 3 and parts[-3] in ("np", "numpy") \
                    and parts[-2] == "random":
                attr = parts[-1]
                if attr in _NEED_SEED and _is_unseeded(node):
                    yield sf.finding(
                        node, self.code,
                        f"np.random.{attr}() without a seed; thread a "
                        f"SeedSequence / ensure_rng(rng) argument so the "
                        f"stream is reproducible")
                elif attr not in _SAFE_RANDOM_ATTRS:
                    yield sf.finding(
                        node, self.code,
                        f"global-state np.random.{attr}(...) call; draw from "
                        f"a Generator built via repro.utils.rng.ensure_rng "
                        f"instead")
            elif len(parts) == 1 and parts[0] in from_random:
                attr = parts[0]
                if attr in _NEED_SEED and _is_unseeded(node):
                    yield sf.finding(
                        node, self.code,
                        f"{attr}() without a seed; thread a SeedSequence / "
                        f"ensure_rng(rng) argument so the stream is "
                        f"reproducible")
                elif attr not in _SAFE_RANDOM_ATTRS:
                    yield sf.finding(
                        node, self.code,
                        f"global-state numpy.random.{attr}(...) call; draw "
                        f"from a Generator built via "
                        f"repro.utils.rng.ensure_rng instead")


RULES.register(SeededRngRule.code, SeededRngRule)
