"""Built-in invariant rules (QG001–QG005, QG007).

Importing this package registers every built-in rule with
:data:`repro.analysis.registry.RULES` — the same eager-registration idiom
the backend/propagator/kernel registries use.  Each rule module's docstring
names the project contract it guards; the README's rule table links back
to them.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    qg001_env,
    qg002_rng,
    qg003_xm,
    qg004_clock,
    qg005_except,
    qg007_fingerprint,
)

__all__ = [
    "qg001_env",
    "qg002_rng",
    "qg003_xm",
    "qg004_clock",
    "qg005_except",
    "qg007_fingerprint",
]
