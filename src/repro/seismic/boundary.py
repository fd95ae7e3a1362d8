"""Absorbing boundary of the acoustic propagator.

The QuGeo paper follows the KAUST 2-8 finite-difference modelling lab, which
uses a sponge (damping) layer to absorb outgoing energy at the model edges.
:class:`SpongeBoundary` implements the classic Cerjan et al. (1985)
exponential taper; the propagators multiply the pressure wavefields by its
mask after every time step.  The free surface at the top of the model is
preserved by default, mirroring land-acquisition geometry where receivers
sit on the surface.

The sponge is the only boundary kind; :func:`resolve_boundary_name` names it
for dataset fingerprints and sample metadata, and rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sponge_profile(width: int, strength: float = 0.0053) -> np.ndarray:
    """Return the 1-D damping taper for a sponge layer of ``width`` cells.

    Values decay from 1.0 at the interior edge of the sponge to
    ``exp(-(strength*width)^2)`` at the outer model edge, following Cerjan's
    formulation ``exp(-(strength * distance)^2)``.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if width == 0:
        return np.ones(0)
    distance = np.arange(1, width + 1, dtype=np.float64)
    return np.exp(-((strength * distance) ** 2))


@dataclass
class SpongeBoundary:
    """Exponential damping sponge applied on the model edges.

    Parameters
    ----------
    width:
        Sponge thickness in grid cells on each absorbing edge.
    strength:
        Cerjan damping coefficient; larger values damp faster.
    free_surface:
        If ``True`` the top edge is a free surface (no damping there), which
        matches surface seismic acquisition.
    """

    width: int = 20
    strength: float = 0.0053
    free_surface: bool = True

    def build_mask(self, shape) -> np.ndarray:
        """Return the multiplicative damping mask for an ``(nz, nx)`` grid."""
        if len(shape) != 2:
            raise ValueError(
                f"grid shape must be (nz, nx), got {tuple(shape)}")
        nz, nx = shape
        if self.width * 2 >= nx or (self.width >= nz if self.free_surface
                                    else self.width * 2 >= nz):
            raise ValueError(
                f"sponge width {self.width} too large for grid {shape}")
        mask = np.ones((nz, nx), dtype=np.float64)
        taper = sponge_profile(self.width, self.strength)
        for i, damping in enumerate(taper):
            # distance i+1 from the interior edge of the sponge
            left = self.width - 1 - i
            right = nx - self.width + i
            bottom = nz - self.width + i
            mask[:, left] *= damping
            mask[:, right] *= damping
            mask[bottom, :] *= damping
            if not self.free_surface:
                top = self.width - 1 - i
                mask[top, :] *= damping
        return mask


def resolve_boundary_name(name=None) -> str:
    """Validate a boundary kind: ``None`` and ``"sponge"`` give ``"sponge"``."""
    if name is None:
        return "sponge"
    value = str(name).strip().lower()
    if value != "sponge":
        raise ValueError(
            f"unknown boundary kind {name!r}; the sponge is the only one")
    return value
