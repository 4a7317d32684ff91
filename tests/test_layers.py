from functools import partial

import numpy as np
import pytest

from refodom.geometry import Pose2D, inverse, transform_points
from refodom.layers import (DEFAULT_SYNTH_RADIUS, SYNTH_CIRCLE_POINTS,
                            build_marker_layer, match_layered, split_points,
                            synthesize_marker_cloud)
from refodom.ndt import DEFAULT_CELL_SIZE, build_grids, match, score, score_terms


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
    assert any(len(g) > 0 for g in grids)
    # the synthesized circle has radius r: each cell covariance eigenvalue is
    # bounded by r^2 (ring variance r^2/2 per axis before regularization)
    for g in grids:
        for cov in g.covs:
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
    return build_grids(walls, DEFAULT_CELL_SIZE), build_marker_layer(markers)


def test_layered_score_decomposes():
    # The two-layer objective is s_r + w s_m, bit for bit as that formula,
    # with its ratio over the points of both layers.
    rng = np.random.default_rng(1)
    walls, markers = structured_cloud(rng)
    regular, marker = make_layered(walls, markers)
    pose = Pose2D(0.02, -0.01, 0.005)
    terms = ((1.0, partial(score_terms, regular, walls)),
             (7.0, partial(score_terms, marker, markers)))
    s, grad, hess, ratio = score(terms, pose)
    s_r, g_r, h_r, a_r, n_r = score_terms(regular, walls, pose)
    s_m, g_m, h_m, a_m, n_m = score_terms(marker, markers, pose)
    assert s == s_r + 7.0 * s_m
    assert np.array_equal(grad, g_r + 7.0 * g_m)
    assert np.array_equal(hess, h_r + 7.0 * h_m)
    assert ratio == (a_r + a_m) / (n_r + n_m)
    assert 0 < ratio <= 1
    s_r, _, _, a_r, n_r = score_terms(regular, walls, pose, derivatives=False)
    s_m, _, _, a_m, n_m = score_terms(marker, markers, pose, derivatives=False)
    assert score(terms, pose, derivatives=False) == (
        s_r + 7.0 * s_m, None, None, (a_r + a_m) / (n_r + n_m))


def test_zero_weight_no_markers_equals_plain_exactly():
    rng = np.random.default_rng(2)
    walls, _ = structured_cloud(rng)
    empty = np.empty((0, 2))
    grids = (build_grids(walls, DEFAULT_CELL_SIZE), build_grids(empty, DEFAULT_CELL_SIZE))
    initial = Pose2D(0.1, -0.05, 0.02)
    a = match_layered(grids, walls, empty, 0.0, initial)
    b = match(grids[0], walls, initial)
    assert a.pose == b.pose
    assert a.score == b.score
    assert a.iterations == b.iterations
    assert a.associated_ratio == b.associated_ratio


def test_layered_match_recovers_offset():
    rng = np.random.default_rng(3)
    walls, markers = structured_cloud(rng)
    g = make_layered(walls, markers)
    true = Pose2D(0.12, -0.08, 0.03)
    result = match_layered(g, transform_points(inverse(true), walls),
                           transform_points(inverse(true), markers), 10.0, Pose2D())
    assert result.converged
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
