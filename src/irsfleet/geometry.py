"""Manhattan-grid microcell layout and transceiver distance tables."""

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["ScenarioLayout", "DistanceTables", "build_layout", "compute_distances"]


@dataclass(frozen=True, eq=False)
class ScenarioLayout:
    """Square-cell street grid with anchor sites at the lattice vertices.

    Cells are indexed row-major; candidate anchor sites are the distinct
    grid vertices (street corners), also row-major. The base station sits
    at the planar center of the covered area.
    """

    grid_rows: int
    grid_cols: int
    bs_position: np.ndarray        # (2,) metres
    cell_centers: np.ndarray       # (rows*cols, 2) metres
    candidate_sites: np.ndarray    # ((rows+1)*(cols+1), 2) metres
    h1: float                      # BS <-> user height difference, m
    h2: float                      # anchor <-> BS height difference, m
    h3: float                      # anchor <-> user height difference, m

    @property
    def n_grids(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def n_sites(self) -> int:
        return (self.grid_rows + 1) * (self.grid_cols + 1)


def check_geometry(rows: int, cols: int, cell_side: float, heights) -> None:
    """Refuse a grid below 1x1, or a length that is not finite and positive."""
    if not (rows >= 1 and cols >= 1):
        raise ValueError("grid dimensions must be at least 1x1")
    if not 0 < cell_side < math.inf:  # NaN fails this too
        raise ValueError("cell side must be finite and positive")
    if not all(0 < h < math.inf for h in heights):
        raise ValueError("height differences must be finite and positive")


def build_layout(
    rows: int,
    cols: int,
    cell_side: float,
    heights: tuple[float, float, float],
) -> ScenarioLayout:
    """Lay out a rows x cols grid of square cells with the BS at the center.

    `heights` is the (BS-user, site-BS, site-user) height-difference triple
    in metres. Raises ValueError as `check_geometry` does, and TypeError
    for a grid size that is not an integer.
    """
    rows, cols = operator.index(rows), operator.index(cols)
    h1, h2, h3 = (float(h) for h in heights)
    check_geometry(rows, cols, cell_side, (h1, h2, h3))

    side = float(cell_side)
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
        grid_rows=rows,
        grid_cols=cols,
        bs_position=bs,
        cell_centers=centers,
        candidate_sites=sites,
        h1=h1,
        h2=h2,
        h3=h3,
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

    d2 = np.hypot(centers[:, 0] - bs[0], centers[:, 1] - bs[1])
    l_bs_ut = np.hypot(d2, layout.h1)
    r2 = np.hypot(sites[:, 0] - bs[0], sites[:, 1] - bs[1])
    r_bs_site = np.hypot(r2, layout.h2)
    d_site_ut = np.hypot(
        centers[:, 0, None] - sites[:, 0], centers[:, 1, None] - sites[:, 1]
    )
    np.hypot(d_site_ut, layout.h3, out=d_site_ut)
    return DistanceTables(
        l_bs_ut=l_bs_ut,
        r_bs_site=r_bs_site,
        d_site_ut=d_site_ut,
        d2_bs_ut=d2,
    )
