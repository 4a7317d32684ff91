import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.geometry import Pose2D, inverse, transform_points
from refodom.layers import (DEFAULT_SYNTH_RADIUS, MARKER_LAYER, SYNTH_CIRCLE_POINTS,
                            build_marker_layer, marker_table, match_layered,
                            split_points, synthesize_marker_cloud)
from refodom.ndt import (DEFAULT_CELL_SIZE, NdtQuery, build_grids, cell_table, match,
                         score_terms)


class FakeDetection:
    def __init__(self, start, end):
        self.support_start = start
        self.support_end = end


def test_split_points_partition_is_exact():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(50, 2))
    beams = np.arange(50)
    dets = [FakeDetection(10, 14), FakeDetection(30, 31)]
    regular, marker = split_points(pts, beams, dets)
    assert len(regular) + len(marker) == len(pts)
    assert len(marker) == 7
    joined = np.vstack((regular, marker))
    assert np.array_equal(np.sort(joined, axis=0), np.sort(pts, axis=0))


def test_split_points_overlapping_supports_merge():
    pts = np.zeros((10, 2))
    beams = np.arange(10)
    dets = [FakeDetection(2, 5), FakeDetection(4, 7)]
    regular, marker = split_points(pts, beams, dets)
    assert len(marker) == 6  # beams 2..7 once each


def test_split_points_no_detections():
    pts = np.ones((8, 2))
    regular, marker = split_points(pts, np.arange(8), [])
    assert len(regular) == 8 and len(marker) == 0


@settings(max_examples=200, deadline=None, database=None)
@given(beams=st.lists(st.integers(0, 60), unique=True, max_size=40).map(sorted),
       supports=st.lists(st.tuples(st.integers(-2, 62), st.integers(0, 8)), max_size=6))
def test_split_points_is_an_order_keeping_partition(beams, supports):
    # Each point is a marker point exactly when its beam lies in a support
    # range, overlapping ranges included; both parts keep the scan order.
    pts = np.column_stack((np.arange(len(beams), dtype=float), np.zeros(len(beams))))
    dets = [FakeDetection(start, start + length) for start, length in supports]
    regular, marker = split_points(pts, np.array(beams, dtype=np.int64), dets)
    in_support = [any(d.support_start <= b <= d.support_end for d in dets) for b in beams]
    assert regular[:, 0].tolist() == [i for i, m in enumerate(in_support) if not m]
    assert marker[:, 0].tolist() == [i for i, m in enumerate(in_support) if m]


def test_synthesize_marker_cloud_count_and_radius():
    pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
    cloud = synthesize_marker_cloud(pts, 0.05)
    assert len(cloud) == len(pts) * (1 + SYNTH_CIRCLE_POINTS)
    ring = cloud[2:2 + SYNTH_CIRCLE_POINTS]
    assert np.linalg.norm(ring - pts[0], axis=1) == pytest.approx(0.05)


def test_synthesize_marker_cloud_empty_and_invalid():
    assert len(synthesize_marker_cloud(np.empty((0, 2)), 0.05)) == 0
    with pytest.raises(ValueError):
        synthesize_marker_cloud(np.ones((1, 2)), 0.0)


def test_single_marker_point_yields_cells():
    grids = build_marker_layer(np.array([[2.0, 1.0]]))
    assert len(grids.keys) > 0
    # the synthesized circle has radius r: each cell covariance eigenvalue is
    # bounded by r^2 (ring variance r^2/2 per axis before regularization)
    for cov in np.linalg.inv(grids.inv_covs):
        assert np.linalg.eigvalsh(cov).max() <= DEFAULT_SYNTH_RADIUS ** 2


def structured_cloud(rng):
    n = 300
    x = rng.uniform(0, 6, n)
    walls = np.vstack([np.column_stack((x, rng.normal(0, 0.01, n))),
                       np.column_stack((x, 3 + rng.normal(0, 0.01, n))),
                       np.column_stack((rng.normal(0, 0.01, n // 2),
                                        rng.uniform(0, 3, n // 2)))])
    markers = np.array([[2.0, 0.0], [4.0, 3.0]])
    return walls, markers


def make_layered(walls, markers):
    """The two-layer grids of the local map: walls in layer 0, the
    synthesized marker cloud in layer MARKER_LAYER."""
    return build_grids([cell_table(walls, DEFAULT_CELL_SIZE),
                        marker_table(markers, DEFAULT_SYNTH_RADIUS, DEFAULT_CELL_SIZE,
                                     MARKER_LAYER)], DEFAULT_CELL_SIZE)


def test_layered_score_decomposes():
    # The two-layer NDT term is s_r + w s_m over the regular grids and the
    # marker layer alone, up to summation order, with its counts over the
    # points of both layers.
    rng = np.random.default_rng(1)
    walls, markers = structured_cloud(rng)
    pose = Pose2D(0.02, -0.01, 0.005)
    query = NdtQuery(((1.0, walls), (7.0, markers)))
    s, grad, hess, n_assoc, n_pts = score_terms(make_layered(walls, markers), query, pose)
    s_r, g_r, h_r, a_r, n_r = score_terms(build_grids(walls, DEFAULT_CELL_SIZE), walls, pose)
    s_m, g_m, h_m, a_m, n_m = score_terms(build_marker_layer(markers), markers, pose)
    assert s == pytest.approx(s_r + 7.0 * s_m, rel=1e-12)
    assert grad == pytest.approx(g_r + 7.0 * g_m, rel=1e-12)
    assert hess == pytest.approx(h_r + 7.0 * h_m, rel=1e-12)
    assert (n_assoc, n_pts) == (a_r + a_m, n_r + n_m)
    assert 0 < a_m <= n_m


def test_zero_weight_no_markers_equals_plain_exactly():
    rng = np.random.default_rng(2)
    walls, _ = structured_cloud(rng)
    empty = np.empty((0, 2))
    initial = Pose2D(0.1, -0.05, 0.02)
    a = match_layered(make_layered(walls, empty), walls, empty, 0.0, initial)
    b = match(build_grids(walls, DEFAULT_CELL_SIZE), walls, initial)
    assert a.pose == b.pose
    assert a.score == b.score
    assert a.iterations == b.iterations
    assert a.associated_ratio == b.associated_ratio
    assert a.n_points == b.n_points == len(walls)


def test_layered_match_recovers_offset():
    rng = np.random.default_rng(3)
    walls, markers = structured_cloud(rng)
    g = make_layered(walls, markers)
    true = Pose2D(0.12, -0.08, 0.03)
    result = match_layered(g, transform_points(inverse(true), walls),
                           transform_points(inverse(true), markers), 10.0, Pose2D())
    assert result.converged
    assert result.n_points == len(walls) + len(markers)
    assert result.pose.x == pytest.approx(true.x, abs=1e-2)
    assert result.pose.y == pytest.approx(true.y, abs=1e-2)
    assert result.pose.theta == pytest.approx(true.theta, abs=1e-2)


def test_marker_layer_pins_corridor():
    # Parallel walls alone leave x free; one marker in the layer pins it.
    rng = np.random.default_rng(4)
    n = 1500
    x = rng.uniform(-10, 10, n)
    walls = np.vstack([np.column_stack((x, rng.normal(0, 0.005, n))),
                       np.column_stack((x, 3 + rng.normal(0, 0.005, n)))])
    markers = np.array([[2.0, 0.0]])
    g = make_layered(walls, markers)
    true = Pose2D(0.2, 0.0, 0.0)
    result = match_layered(g, transform_points(inverse(true), walls),
                           transform_points(inverse(true), markers), 10.0, Pose2D())
    assert result.pose.x == pytest.approx(0.2, abs=0.02)
