"""Routing resource specification (the ``.route`` side of a benchmark).

Capacities are expressed in *tracks per tile boundary*.  Routing itself
operates on the horizontal/vertical **aggregates** (the resolution at
which the 2012-era contest routers and congestion estimators work), but
the spec can optionally carry the per-metal-layer breakdown
(:class:`LayerSpec`), which the ``.route`` writer uses.  Macros and
routing blockages reduce capacity locally via
:meth:`RoutingSpec.block_rect`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect
from repro.grids import BinGrid


@dataclass(frozen=True)
class LayerSpec:
    """One metal layer: routing direction and per-tile track capacity."""

    name: str
    direction: str  # "H" or "V"
    capacity: float  # tracks per tile boundary on this layer

    def __post_init__(self):
        if self.direction not in ("H", "V"):
            raise ValueError(f"layer direction must be H or V, got {self.direction!r}")
        if self.capacity < 0:
            raise ValueError("layer capacity must be non-negative")


class RoutingSpec:
    """Tile grid plus per-tile horizontal/vertical track supply."""

    def __init__(self, grid: BinGrid, hcap: np.ndarray, vcap: np.ndarray, layers=None):
        if hcap.shape != (grid.nx, grid.ny) or vcap.shape != (grid.nx, grid.ny):
            raise ValueError("capacity maps must be (nx, ny)")
        self.grid = grid
        self.hcap = hcap.astype(float)
        self.vcap = vcap.astype(float)
        self.layers = list(layers) if layers else []

    @staticmethod
    def from_layers(area: Rect, nx: int, ny: int, layers) -> "RoutingSpec":
        """Build a spec from per-layer capacities (aggregated per axis)."""
        layers = list(layers)
        hcap = sum(l.capacity for l in layers if l.direction == "H")
        vcap = sum(l.capacity for l in layers if l.direction == "V")
        grid = BinGrid(area, nx, ny)
        return RoutingSpec(
            grid,
            np.full((nx, ny), float(hcap)),
            np.full((nx, ny), float(vcap)),
            layers=layers,
        )

    @staticmethod
    def uniform(
        area: Rect, nx: int, ny: int, hcap: float = 10.0, vcap: float = 10.0
    ) -> "RoutingSpec":
        """Uniform capacity everywhere — the blank-die starting point."""
        grid = BinGrid(area, nx, ny)
        return RoutingSpec(
            grid,
            np.full((nx, ny), float(hcap)),
            np.full((nx, ny), float(vcap)),
        )

    def block_rect(self, rect: Rect, keep_fraction: float = 0.2) -> None:
        """Reduce capacity under ``rect`` (e.g. a macro) proportionally.

        A tile fully covered keeps ``keep_fraction`` of its tracks (macros
        still allow some over-the-block routing on upper layers); partial
        coverage scales linearly with the covered area.
        """
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in [0, 1]")
        cover = self.grid.zeros()
        self.grid.add_rect(cover, rect)
        frac = np.clip(cover / self.grid.bin_area, 0.0, 1.0)
        scale = 1.0 - frac * (1.0 - keep_fraction)
        self.hcap *= scale
        self.vcap *= scale

    def total_supply(self) -> float:
        return float(self.hcap.sum() + self.vcap.sum())

    def copy(self) -> "RoutingSpec":
        return RoutingSpec(
            self.grid, self.hcap.copy(), self.vcap.copy(), layers=list(self.layers)
        )
