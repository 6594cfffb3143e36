import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsfleet.geometry import GeometryConfig, build_layout, compute_distances

HEIGHTS = (8.5, 2.0, 10.5)


def test_default_grid_counts():
    layout = build_layout(GeometryConfig(9, 9, 20.0, *HEIGHTS))
    assert layout.cell_centers.shape == (81, 2)
    assert layout.candidate_sites.shape == (100, 2)
    assert np.allclose(layout.bs_position, [90.0, 90.0])


def test_single_cell_layout():
    layout = build_layout(GeometryConfig(1, 1, 20.0, *HEIGHTS))
    assert layout.cell_centers.shape == (1, 2)
    assert layout.candidate_sites.shape == (4, 2)
    # the lone center coincides with the BS in the plane
    assert np.allclose(layout.cell_centers[0], layout.bs_position)


def test_rectangular_counts():
    layout = build_layout(GeometryConfig(2, 3, 10.0, *HEIGHTS))
    assert layout.n_grids == 6
    assert layout.n_sites == 12


@given(
    rows=st.integers(min_value=1, max_value=7),
    cols=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=30, deadline=None)
def test_count_formulas(rows, cols):
    layout = build_layout(GeometryConfig(rows, cols, 5.0, *HEIGHTS))
    assert layout.cell_centers.shape[0] == rows * cols
    assert layout.candidate_sites.shape[0] == (rows + 1) * (cols + 1)
    # vertices are distinct
    assert len({tuple(p) for p in layout.candidate_sites}) == layout.n_sites


@pytest.mark.parametrize(
    "args",
    [
        (0, 9, 20.0, *HEIGHTS),
        (9, 0, 20.0, *HEIGHTS),
        (9, 9, 0.0, *HEIGHTS),
        (9, 9, -5.0, *HEIGHTS),
        (9, 9, 20.0, 0.0, 2.0, 10.5),
        (9, 9, 20.0, 8.5, -2.0, 10.5),
        (9, 9, math.inf, *HEIGHTS),
        (9, 9, math.nan, *HEIGHTS),
        (9, 9, 20.0, 8.5, 2.0, math.inf),
        (9, 9, 20.0, math.nan, 2.0, 10.5),
    ],
)
def test_invalid_layout_arguments(args):
    with pytest.raises(ValueError):
        GeometryConfig(*args)


@pytest.mark.parametrize("rows, cols", [(9.5, 9), (9, 9.0)])
def test_a_grid_size_that_is_not_an_integer_is_refused(rows, cols):
    # `np.arange(9.5)` lays out 10 rows of cells, which `int(9.5)` would
    # record as 9.
    with pytest.raises(TypeError):
        GeometryConfig(rows, cols, 20.0, *HEIGHTS)


def test_bs_to_user_distances():
    layout = build_layout(GeometryConfig(9, 9, 20.0, *HEIGHTS))
    tables = compute_distances(layout)
    # center at planar offset (80, 0) from the BS
    idx = int(
        np.flatnonzero(
            (layout.cell_centers[:, 0] == 170.0)
            & (layout.cell_centers[:, 1] == 90.0)
        )[0]
    )
    assert tables.d2_bs_ut[idx] == pytest.approx(80.0, abs=1e-12)
    assert tables.l_bs_ut[idx] == pytest.approx(math.sqrt(80.0**2 + 8.5**2), rel=1e-12)
    # center coincident with the BS in the plane
    center = int(
        np.flatnonzero(
            (layout.cell_centers[:, 0] == 90.0)
            & (layout.cell_centers[:, 1] == 90.0)
        )[0]
    )
    assert tables.l_bs_ut[center] == pytest.approx(8.5, abs=1e-12)


def test_bs_to_site_distance_on_345_offset():
    # 10 m cells put a vertex at planar offset (30, 40) from the BS
    layout = build_layout(GeometryConfig(10, 10, 10.0, *HEIGHTS))
    tables = compute_distances(layout)
    idx = int(
        np.flatnonzero(
            (layout.candidate_sites[:, 0] == 80.0)
            & (layout.candidate_sites[:, 1] == 90.0)
        )[0]
    )
    assert tables.r_bs_site[idx] == pytest.approx(math.sqrt(2500.0 + 4.0), rel=1e-12)


def test_distances_bounded_below_by_heights():
    layout = build_layout(GeometryConfig(5, 4, 12.0, *HEIGHTS))
    tables = compute_distances(layout)
    assert (tables.l_bs_ut >= layout.geometry.h1_m).all()
    assert (tables.r_bs_site >= layout.geometry.h2_m).all()
    assert (tables.d_site_ut >= layout.geometry.h3_m).all()
    # equality only at zero planar offset
    at_height = np.isclose(tables.d_site_ut, layout.geometry.h3_m)
    diff = layout.cell_centers[:, None, :] - layout.candidate_sites[None, :, :]
    zero_offset = (diff == 0).all(axis=2)
    assert (at_height == zero_offset).all()


def test_squared_distance_identity():
    layout = build_layout(GeometryConfig(9, 9, 20.0, *HEIGHTS))
    tables = compute_distances(layout)
    planar_sq = ((layout.cell_centers - layout.bs_position) ** 2).sum(axis=1)
    expect = planar_sq + layout.geometry.h1_m**2
    assert np.allclose(tables.l_bs_ut**2, expect, rtol=1e-12)


def test_reflection_symmetry_permutes_tables_onto_themselves():
    layout = build_layout(GeometryConfig(9, 9, 20.0, *HEIGHTS))
    tables = compute_distances(layout)
    rows, cols = layout.geometry.grid_rows, layout.geometry.grid_cols
    # mirror about the vertical axis through the BS
    grid_perm = np.array(
        [r * cols + (cols - 1 - c) for r in range(rows) for c in range(cols)]
    )
    site_perm = np.array(
        [r * (cols + 1) + (cols - c) for r in range(rows + 1) for c in range(cols + 1)]
    )
    assert np.allclose(tables.l_bs_ut[grid_perm], tables.l_bs_ut)
    assert np.allclose(tables.r_bs_site[site_perm], tables.r_bs_site)
    assert np.allclose(tables.d_site_ut[np.ix_(grid_perm, site_perm)], tables.d_site_ut)


@pytest.mark.parametrize("shape", [(1, 1), (5, 4), (17, 17)])
def test_site_to_user_distances_are_the_hypot_of_each_offset(shape):
    # Bit for bit the planar hypot of each (cell, site) offset, then the
    # hypot with the anchor height.
    layout = build_layout(GeometryConfig(*shape, 20.0, *HEIGHTS))
    diff = layout.cell_centers[:, None, :] - layout.candidate_sites[None, :, :]
    expect = np.hypot(np.hypot(diff[..., 0], diff[..., 1]), layout.geometry.h3_m)
    got = compute_distances(layout).d_site_ut
    assert got.flags.c_contiguous
    assert got.tobytes() == expect.tobytes()
