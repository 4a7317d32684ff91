"""Property tests of the local map: the per-keyframe cell tables of every
layer, merged on every keyframe change, give the grids that build_grids
makes from the stacked points of each layer of the keyframes in the
window."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.geometry import Pose2D
from refodom.layers import MARKER_LAYER, synthesize_marker_cloud
from refodom.ndt import DEFAULT_CELL_SIZE, build_grids, cell_table
from refodom.odometry import MODES, LocalMap, OdometryConfig

N_KEYFRAMES = 3
REL_TOL = 1e-9


@st.composite
def keyframe_points(draw):
    """Odometry-frame (regular, marker) points of one keyframe: noisy wall
    segments and clutter, and a few tight marker clusters. Either may be
    empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_regular = draw(st.integers(0, 150))
    n_marker = draw(st.integers(0, 12))
    ends = rng.uniform(-2.0, 2.0, (3, 2, 2))
    t = rng.uniform(0.0, 1.0, n_regular)
    wall = rng.integers(0, len(ends), n_regular)
    regular = ends[wall, 0] + t[:, None] * (ends[wall, 1] - ends[wall, 0])
    regular += rng.normal(0.0, 0.01, regular.shape)
    clutter = rng.random(n_regular) < 0.2
    regular[clutter] = rng.uniform(-2.0, 2.0, (int(clutter.sum()), 2))
    centers = rng.uniform(-2.0, 2.0, (2, 2))
    marker = centers[rng.integers(0, 2, n_marker)] + rng.normal(0.0, 0.005, (n_marker, 2))
    return regular, marker


def assert_same_grids(merged, stacked):
    """Identical keys, so identical cells in every layer and lattice, and
    half-cell tables; means, covariances (from the inverse covariances) and
    inverse covariances equal to REL_TOL relative to each cell's largest
    entry (means: to at least the cell size)."""
    assert np.array_equal(merged.keys, stacked.keys)
    assert np.array_equal(merged.half_keys, stacked.half_keys)
    assert np.array_equal(merged.half_rows, stacked.half_rows)
    for name, floor in (("means", DEFAULT_CELL_SIZE), ("covs", 0.0), ("inv_covs", 0.0)):
        a, b = (np.linalg.inv(g.inv_covs) if name == "covs" else getattr(g, name)
                for g in (merged, stacked))
        width = int(np.prod(b.shape[1:]))
        a, b = a.reshape(len(a), width), b.reshape(len(b), width)
        scale = np.maximum(np.abs(b).max(axis=1, initial=0.0), floor)
        err = np.abs(a - b).max(axis=1, initial=0.0)
        assert np.all(err <= REL_TOL * scale), (name, float((err / scale).max()))


def check_window(local_map, window, mode):
    regular = np.vstack([r for r, _ in window])
    tables = [cell_table(regular, DEFAULT_CELL_SIZE)]
    if mode == "layer":
        marker = np.vstack([m for _, m in window])
        synth = synthesize_marker_cloud(marker, local_map.config.synth_radius)
        tables.append(cell_table(synth, DEFAULT_CELL_SIZE, MARKER_LAYER))
    assert_same_grids(local_map.grids, build_grids(tables, DEFAULT_CELL_SIZE))


def push(mode, frames):
    """Add each keyframe to a local map and check every window, through and
    past evictions."""
    local_map = LocalMap(OdometryConfig(mode=mode, n_keyframes=N_KEYFRAMES))
    for i, (regular, marker) in enumerate(frames):
        local_map.add(float(i), Pose2D(), regular, marker, {})
        assert len(local_map) == min(i + 1, N_KEYFRAMES)
        check_window(local_map, frames[max(0, i + 1 - N_KEYFRAMES):i + 1], mode)
    return local_map


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None, database=None)
@given(frames=st.lists(keyframe_points(), min_size=1, max_size=2 * N_KEYFRAMES + 1))
def test_merged_map_equals_build_of_stacked_window(mode, frames):
    push(mode, frames)


@pytest.mark.parametrize("mode", MODES)
def test_empty_and_markerless_keyframes(mode):
    rng = np.random.default_rng(3)
    empty = np.empty((0, 2))
    wall = np.column_stack((rng.uniform(0, 2, 80), rng.normal(1.0, 0.01, 80)))
    markers = rng.normal(0.5, 0.005, (4, 2))
    frames = [(empty, empty), (wall, empty), (empty, markers),
              (empty, empty), (empty, empty), (empty, empty)]
    local_map = push(mode, frames)
    # The window now holds only empty keyframes: every layer is empty.
    assert len(local_map.grids.keys) == 0


def test_cell_tables_must_share_the_cell_size():
    pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
    with pytest.raises(ValueError, match="cell_size"):
        build_grids([cell_table(pts, 0.5), cell_table(pts, 0.25)], 0.5)
