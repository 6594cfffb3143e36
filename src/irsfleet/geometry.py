"""Manhattan-grid microcell layout and transceiver distance tables."""

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryConfig",
    "ScenarioLayout",
    "DistanceTables",
    "build_layout",
    "compute_distances",
]


@dataclass(frozen=True)
class GeometryConfig:
    """The `[geometry]` scenario section: a rows x cols grid of square
    cells and the (BS-user, site-BS, site-user) height differences."""

    grid_rows: int = 9
    grid_cols: int = 9
    cell_side_m: float = 20.0
    h1_m: float = 8.5              # BS <-> user height difference, m
    h2_m: float = 2.0              # anchor <-> BS height difference, m
    h3_m: float = 10.5             # anchor <-> user height difference, m

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid_rows", operator.index(self.grid_rows))
        object.__setattr__(self, "grid_cols", operator.index(self.grid_cols))
        if not (self.grid_rows >= 1 and self.grid_cols >= 1):
            raise ValueError("grid dimensions must be at least 1x1")
        if not 0 < self.cell_side_m < math.inf:  # NaN fails this too
            raise ValueError("cell side must be finite and positive")
        if not all(0 < h < math.inf for h in (self.h1_m, self.h2_m, self.h3_m)):
            raise ValueError("height differences must be finite and positive")


@dataclass(frozen=True, eq=False)
class ScenarioLayout:
    """Square-cell street grid with anchor sites at the lattice vertices.

    Cells are indexed row-major; candidate anchor sites are the distinct
    grid vertices (street corners), also row-major. The base station sits
    at the planar center of the covered area.
    """

    geometry: GeometryConfig
    bs_position: np.ndarray        # (2,) metres
    cell_centers: np.ndarray       # (rows*cols, 2) metres
    candidate_sites: np.ndarray    # ((rows+1)*(cols+1), 2) metres

    @property
    def n_grids(self) -> int:
        return self.geometry.grid_rows * self.geometry.grid_cols

    @property
    def n_sites(self) -> int:
        return (self.geometry.grid_rows + 1) * (self.geometry.grid_cols + 1)


def build_layout(geometry: GeometryConfig) -> ScenarioLayout:
    """Lay out the section's grid of square cells with the BS at the center."""
    rows, cols, side = geometry.grid_rows, geometry.grid_cols, geometry.cell_side_m
    cx = (np.arange(cols) + 0.5) * side
    cy = (np.arange(rows) + 0.5) * side
    gy, gx = np.meshgrid(cy, cx, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])

    vx = np.arange(cols + 1) * side
    vy = np.arange(rows + 1) * side
    sy, sx = np.meshgrid(vy, vx, indexing="ij")
    sites = np.column_stack([sx.ravel(), sy.ravel()])

    bs = np.array([cols * side / 2.0, rows * side / 2.0])
    return ScenarioLayout(
        geometry=geometry,
        bs_position=bs,
        cell_centers=centers,
        candidate_sites=sites,
    )


@dataclass(frozen=True, eq=False)
class DistanceTables:
    """All link distances needed by the channel model, in metres."""

    l_bs_ut: np.ndarray     # (I,)  3-D BS to user (height diff h1)
    r_bs_site: np.ndarray   # (J,)  3-D BS to anchor site (height diff h2)
    d_site_ut: np.ndarray   # (I, J) 3-D anchor site to user (height diff h3)
    d2_bs_ut: np.ndarray    # (I,)  planar BS to user


def compute_distances(layout: ScenarioLayout) -> DistanceTables:
    """Populate every pairwise distance table for a layout."""
    centers = layout.cell_centers
    sites = layout.candidate_sites
    bs = layout.bs_position
    geometry = layout.geometry

    d2 = np.hypot(centers[:, 0] - bs[0], centers[:, 1] - bs[1])
    l_bs_ut = np.hypot(d2, geometry.h1_m)
    r2 = np.hypot(sites[:, 0] - bs[0], sites[:, 1] - bs[1])
    r_bs_site = np.hypot(r2, geometry.h2_m)
    d_site_ut = np.hypot(
        centers[:, 0, None] - sites[:, 0], centers[:, 1, None] - sites[:, 1]
    )
    np.hypot(d_site_ut, geometry.h3_m, out=d_site_ut)
    return DistanceTables(
        l_bs_ut=l_bs_ut,
        r_bs_site=r_bs_site,
        d_site_ut=d_site_ut,
        d2_bs_ut=d2,
    )
