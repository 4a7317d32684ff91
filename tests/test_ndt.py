import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.geometry import Pose2D, transform_points
from refodom.layers import DEFAULT_SYNTH_RADIUS, MARKER_LAYER, marker_table
from refodom.ndt import (DEFAULT_CELL_SIZE, EIG_RATIO_FLOOR, GRID_SHIFTS,
                         MatchOptions, MIN_CELL_POINTS, NdtQuery, _KEY_OFFSET,
                         _KEY_STRIDE, _LATTICE_SHIFT, _LAYER_SHIFT, _ascent_direction,
                         _regularize_covariances, build_grids, cell_table, match,
                         newton_ascent, score, score_terms)
from refodom.tracking import track_terms


def ndt_score(grids, points, pose, derivatives=True):
    """The plain NDT objective: one layer, weight 1."""
    return score(((1.0, partial(score_terms, grids, points)),), pose, derivatives)


def wall_cloud(rng=None, n=400):
    """Two parallel walls plus an end cap: well constrained in all directions."""
    if rng is None:
        rng = np.random.default_rng(0)
    x = rng.uniform(0, 8, n)
    pts = [np.column_stack((x, np.zeros(n) + rng.normal(0, 0.01, n))),
           np.column_stack((x, np.full(n, 3.0) + rng.normal(0, 0.01, n))),
           np.column_stack((np.zeros(n // 2) + rng.normal(0, 0.01, n // 2),
                            rng.uniform(0, 3, n // 2)))]
    return np.vstack(pts)


def test_build_grids_four_lattices():
    # A point cloud is one layer of four lattices, holding exactly the cells
    # of its cell table with at least MIN_CELL_POINTS points.
    cloud = wall_cloud()
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    parts = list(grids)
    assert len(parts) == len(GRID_SHIFTS)
    assert all(len(part) > 0 for part in parts)
    assert np.array_equal(np.concatenate(parts), grids.keys)
    table = cell_table(cloud, DEFAULT_CELL_SIZE)
    assert np.array_equal(grids.keys, table.keys[table.counts >= MIN_CELL_POINTS])


def test_build_grids_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        build_grids(np.zeros((5, 2)), 0.0)


def test_sparse_cells_dropped():
    # Two points in one cell: below MIN_CELL_POINTS, no cell anywhere.
    pts = np.array([[0.1, 0.1], [0.2, 0.2]])
    for grid in build_grids(pts, 1.0):
        assert len(grid) == 0


def test_cell_statistics_match_numpy():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.45, size=(20, 2))  # all in one base-grid cell
    grids = build_grids(pts, DEFAULT_CELL_SIZE)
    assert len(next(iter(grids))) == 1           # the base lattice's cell is row 0
    assert grids.means[0] == pytest.approx(pts.mean(axis=0), abs=1e-12)
    d = pts - pts.mean(axis=0)
    cov = d.T @ d / (len(pts) - 1)
    # isotropic enough that regularization leaves it untouched
    assert np.linalg.inv(grids.inv_covs[0]) == pytest.approx(cov, rel=1e-6)


def test_collinear_cell_regularized():
    # Perfectly collinear points: raw covariance is singular, regularized one
    # must have eigenvalue ratio at least EIG_RATIO_FLOOR.
    pts = np.column_stack((np.linspace(0.05, 0.45, 10), np.full(10, 0.2)))
    inv_cov = build_grids(pts, DEFAULT_CELL_SIZE).inv_covs[0]
    assert np.array_equal(inv_cov, inv_cov.T)
    evals = np.linalg.eigvalsh(np.linalg.inv(inv_cov))
    assert evals[0] > 0
    assert evals[0] / evals[1] >= EIG_RATIO_FLOOR * (1 - 1e-9)


def test_regularization_keeps_nearly_diagonal_and_isotropic_covariances():
    # A tiny off-diagonal entry must not turn the eigenvector: computing it
    # as (b, l1 - a) cancels in l1 - a and swapped or tilted these cells.
    covs = np.array([[[0.3, 1e-15], [1e-15, 0.299999]],
                     [[4e-4, 1e-19], [1e-19, 0.02]],
                     [[0.02, -3e-18], [-3e-18, 4e-4]],
                     [[0.2, 0.0], [0.0, 0.2]]])
    reg, inv = _regularize_covariances(covs)
    assert np.abs(reg - covs).max() <= 1e-15
    assert np.abs(inv @ reg - np.eye(2)).max() <= 1e-12


def test_lookup_empty_inputs():
    grids = build_grids(wall_cloud(), DEFAULT_CELL_SIZE)
    rows, hit_pts, n_assoc = grids.lookup(np.empty((0, 2)), 0)
    assert len(rows) == len(hit_pts) == n_assoc == 0
    s, g, h, ratio = ndt_score(grids, np.empty((0, 2)), Pose2D())
    assert s == 0.0 and ratio == 0.0


def test_score_positive_at_identity():
    cloud = wall_cloud()
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    s, _, _, ratio = ndt_score(grids, cloud, Pose2D())
    assert s > 0
    assert ratio > 0.95


def test_score_decreases_away_from_identity():
    cloud = wall_cloud()
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    s0, _, _, _ = ndt_score(grids, cloud, Pose2D())
    s1, _, _, _ = ndt_score(grids, cloud, Pose2D(0.2, 0.1, 0.02))
    assert s1 < s0


def finite_diff_grad(objective, pose, h=1e-6):
    g = np.zeros(3)
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        sp = objective(Pose2D(pose.x + d[0], pose.y + d[1], pose.theta + d[2]))[0]
        sm = objective(Pose2D(pose.x - d[0], pose.y - d[1], pose.theta - d[2]))[0]
        g[k] = (sp - sm) / (2 * h)
    return g


def finite_diff_hess(objective, pose, h=1e-6):
    H = np.zeros((3, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        gp = objective(Pose2D(pose.x + d[0], pose.y + d[1], pose.theta + d[2]))[1]
        gm = objective(Pose2D(pose.x - d[0], pose.y - d[1], pose.theta - d[2]))[1]
        H[:, k] = (gp - gm) / (2 * h)
    return 0.5 * (H + H.T)


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(5)
    cloud = wall_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)

    def objective(pose):
        s, g, h, _ = ndt_score(grids, cloud, pose)
        return s, g, h

    for _ in range(20):
        pose = Pose2D(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                      rng.uniform(-0.05, 0.05))
        s, g, h = objective(pose)
        g_fd = finite_diff_grad(objective, pose)
        h_fd = finite_diff_hess(objective, pose)
        assert np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-9) < 1e-4
        assert np.linalg.norm(h - h_fd) / max(np.linalg.norm(h_fd), 1e-9) < 1e-4


def test_match_identity_is_fixed_point():
    cloud = wall_cloud()
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    result = match(grids, cloud, Pose2D())
    assert result.converged
    assert abs(result.pose.x) < 1e-3
    assert abs(result.pose.y) < 1e-3
    assert abs(result.pose.theta) < 1e-3


def test_match_recovers_known_offset():
    rng = np.random.default_rng(7)
    cloud = wall_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    true = Pose2D(0.15, -0.12, 0.04)
    # scan points expressed in a frame displaced by true: matching recovers it
    from refodom.geometry import inverse
    moved = transform_points(inverse(true), cloud)
    result = match(grids, moved, Pose2D())
    assert result.converged
    assert result.pose.x == pytest.approx(true.x, abs=5e-3)
    assert result.pose.y == pytest.approx(true.y, abs=5e-3)
    assert result.pose.theta == pytest.approx(true.theta, abs=5e-3)


def test_match_no_association_flags_failure():
    cloud = wall_cloud()
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    far = cloud + 1000.0
    result = match(grids, far, Pose2D())
    assert not result.converged
    assert result.associated_ratio == 0.0


def test_newton_score_never_decreases_with_iterations():
    rng = np.random.default_rng(9)
    cloud = wall_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)

    def objective(pose, derivatives=True):
        return ndt_score(grids, cloud, pose, derivatives)

    initial = Pose2D(0.2, -0.15, 0.05)
    prev = -np.inf
    for iters in range(1, 12):
        opts = MatchOptions(max_iterations=iters)
        result = newton_ascent(objective, initial, opts)
        assert result.score >= prev - 1e-12
        prev = result.score
    s0 = objective(initial)[0]
    assert prev >= s0


def test_step_respects_trust_region():
    # One iteration from far away cannot move more than the caps.
    cloud = wall_cloud()
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    opts = MatchOptions(max_iterations=1, max_step_translation=0.1,
                        max_step_rotation=0.05)
    initial = Pose2D(0.4, 0.4, 0.2)
    result = newton_ascent(lambda p, derivatives=True: ndt_score(grids, cloud, p, derivatives),
                           initial, opts)
    assert math.hypot(result.pose.x - initial.x, result.pose.y - initial.y) <= 0.1 + 1e-9
    assert abs(result.pose.theta - initial.theta) <= 0.05 + 1e-9


def test_corridor_hessian_is_anisotropic():
    # Two infinite-ish parallel walls: theta and y are stiff, x is nearly
    # free. The Hessian's stiffness ratio between the constrained and the
    # unconstrained translation must be large.
    rng = np.random.default_rng(11)
    n = 2000
    x = rng.uniform(-15, 15, n)
    pts = np.vstack([
        np.column_stack((x, rng.normal(0, 0.005, n))),
        np.column_stack((x, 3.0 + rng.normal(0, 0.005, n))),
    ])
    grids = build_grids(pts, DEFAULT_CELL_SIZE)
    sensor_pts = pts - [0.0, 1.5]
    _, _, h, _ = ndt_score(grids, sensor_pts, Pose2D(0.0, 1.5, 0.0))
    assert abs(h[1, 1]) / max(abs(h[0, 0]), 1e-12) > 1e3


def test_match_options_validation():
    MatchOptions(max_halvings=0, convergence_tol=0.0)
    for bad in ({"max_iterations": 0}, {"max_iterations": -3},
                {"max_halvings": -1}, {"convergence_tol": -1e-6},
                {"convergence_tol": math.nan}, {"max_step_translation": 0.0},
                {"max_step_rotation": -0.1}, {"max_step_rotation": math.nan}):
        with pytest.raises(ValueError):
            MatchOptions(**bad)


def random_scene(rng):
    cloud = wall_cloud(rng, n=int(rng.integers(100, 400)))
    cloud = transform_points(Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-1, 1)), cloud)
    markers = rng.uniform([0.5, 0.0], [5.5, 3.0], size=(3, 2))
    return cloud, markers


def test_score_only_equals_full_evaluation():
    # For every term and for the objectives of all three modes, a score-only
    # evaluation gives the score and ratio of the full one, bit for bit.
    rng = np.random.default_rng(21)
    for trial in range(30):
        cloud, markers = random_scene(rng)
        grids = build_grids(cloud, DEFAULT_CELL_SIZE)
        two_layers = build_grids([cell_table(cloud, DEFAULT_CELL_SIZE),
                                  marker_table(markers, DEFAULT_SYNTH_RADIUS,
                                               DEFAULT_CELL_SIZE, MARKER_LAYER)],
                                 DEFAULT_CELL_SIZE)
        ref = markers + rng.normal(0, 0.02, markers.shape)
        pts = cloud[::3]
        regular = (1.0, partial(score_terms, grids, pts))
        layered = partial(score_terms, two_layers, NdtQuery(((1.0, pts), (10.0, markers))))
        objectives = ((regular,), ((1.0, layered),),
                      (regular, (-500.0, partial(track_terms, markers, ref))))
        for _ in range(3):
            pose = Pose2D(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.1, 0.1))
            for term in (partial(score_terms, grids, pts), layered,
                         partial(track_terms, markers, ref)):
                full = term(pose)
                only = term(pose, derivatives=False)
                assert only[1] is None and only[2] is None
                assert (only[0], only[3], only[4]) == (full[0], full[3], full[4])
            for terms in objectives:
                s_full, _, _, r_full = score(terms, pose)
                s_only, g, h, r_only = score(terms, pose, derivatives=False)
                assert g is None and h is None
                assert (s_only, r_only) == (s_full, r_full)


def test_score_sums_weighted_terms():
    # score() is the weighted sum of its terms, and its ratio counts the
    # points of all terms; with no terms it is zero with ratio 0.
    def term(s, g, h, n_assoc, n_points):
        def evaluate(pose, derivatives=True):
            if not derivatives:
                return s, None, None, n_assoc, n_points
            return s, np.full(3, g), np.full((3, 3), h), n_assoc, n_points
        return evaluate

    terms = ((1.0, term(2.0, 1.0, -1.0, 3, 4)), (0.5, term(4.0, 2.0, 3.0, 1, 4)),
             (-2.0, term(1.5, 0.25, 1.0, 0, 0)))
    s, g, h, ratio = score(terms, Pose2D())
    assert s == 2.0 + 0.5 * 4.0 - 2.0 * 1.5
    assert np.array_equal(g, np.full(3, 1.0 + 0.5 * 2.0 - 2.0 * 0.25))
    assert np.array_equal(h, np.full((3, 3), -1.0 + 0.5 * 3.0 - 2.0 * 1.0))
    assert ratio == 4 / 8
    assert score(terms, Pose2D(), derivatives=False) == (s, None, None, ratio)
    s, g, h, ratio = score((), Pose2D())
    assert s == 0.0 and ratio == 0.0
    assert not g.any() and not h.any()


def per_lattice_lookup(grids, layer, lattice, points):
    """Table row of each point's cell in one (layer, lattice), -1 where the
    cell is empty: the lookup one lattice at a time, kept as the oracle of
    the half-cell lookup. The cell is the one covering the point's half
    cell, as cell_table keys it."""
    if len(grids.keys) == 0:
        return np.full(len(points), -1)
    half = np.floor(points / (0.5 * grids.cell_size)).astype(np.int64)
    ij = (half - (2 * np.array(GRID_SHIFTS[lattice])).astype(np.int64)) >> 1
    keys = ((layer << _LAYER_SHIFT) + (lattice << _LATTICE_SHIFT)
            + (ij[:, 0] + _KEY_OFFSET) * _KEY_STRIDE + (ij[:, 1] + _KEY_OFFSET))
    pos = np.searchsorted(grids.keys, keys).clip(0, len(grids.keys) - 1)
    return np.where(grids.keys[pos] == keys, pos, -1)


def check_lookup(grids, points, layer=0):
    """grids.lookup of points in one layer against per_lattice_lookup, and
    each lattice against the geometry: a hit's cell holds the point in its
    half-open box, and a point clear of every cell edge is hit exactly when
    its box is a kept cell of its layer. Edges count as clear when they are
    exact in binary, else beyond a rounding margin."""
    cell = grids.cell_size
    rows, hit_pts, n_assoc = grids.lookup(points, layer << _LAYER_SHIFT)
    hit_keys = grids.keys[rows]
    assert np.all(hit_keys >> _LAYER_SHIFT == layer)
    hit_lattice = (hit_keys >> _LATTICE_SHIFT) - (layer << 2)
    assert np.all(np.diff(hit_lattice) >= 0)          # lattice-major
    # A cell covers four half cells; the half-cell table never holds more.
    assert grids.half_rows.shape == (len(GRID_SHIFTS), len(grids.half_keys))
    assert len(grids.half_keys) <= 4 * len(grids.keys)
    exact = cell in (0.5, 1.0)
    margin = 0.0 if exact else 1e-9 * max(1.0, float(np.abs(points).max(initial=0.0)))
    any_hit = np.zeros(len(points), dtype=bool)
    for lat, shift in enumerate(np.array(GRID_SHIFTS) * cell):
        idx = per_lattice_lookup(grids, layer, lat, points)
        sel = hit_lattice == lat
        assert np.array_equal(hit_pts[sel], np.nonzero(idx >= 0)[0])
        assert np.array_equal(rows[sel], idx[idx >= 0])
        # Geometry: decode each hit's cell from its key.
        part = (layer << _LAYER_SHIFT) + (lat << _LATTICE_SHIFT)
        cell_keys = hit_keys[sel] - part
        ij = np.column_stack((cell_keys // _KEY_STRIDE - _KEY_OFFSET,
                              cell_keys % _KEY_STRIDE - _KEY_OFFSET))
        lo = shift + ij * cell
        p = points[hit_pts[sel]]
        assert np.all((lo - margin <= p) & (p < lo + cell + margin))
        box = np.floor((points - shift) / cell)
        offset = points - shift - box * cell
        clear = np.all((offset >= margin) & (offset < cell - margin), axis=1) \
            if margin else np.ones(len(points), dtype=bool)
        box = box.astype(np.int64)
        box_keys = part + (box[:, 0] + _KEY_OFFSET) * _KEY_STRIDE + (box[:, 1] + _KEY_OFFSET)
        kept = np.isin(box_keys, grids.keys)
        assert np.array_equal((idx >= 0)[clear], kept[clear])
        any_hit |= idx >= 0
    assert n_assoc == int(any_hit.sum())
    return any_hit


def test_fused_lookup_equals_per_lattice_lookup():
    rng = np.random.default_rng(5)
    cell = DEFAULT_CELL_SIZE
    grids = build_grids(wall_cloud(rng), cell)
    # Points inside the map, exactly on the cell edges of every lattice, and
    # far outside the map.
    inside = rng.uniform([-0.5, -0.5], [8.5, 3.5], size=(500, 2))
    edges = np.array([[i * cell / 2, j * cell / 2]
                      for i in range(-2, 19) for j in range(-2, 9)])
    outside = np.array([[-50.0, 1.0], [1e4, -1e4], [4.0, 1.5e3]])
    points = np.vstack((inside, edges, outside))
    # The per-scan gathers read the table rows in place.
    for table in (grids.keys, grids.means, grids.inv_covs, grids.half_rows):
        assert table.flags["C_CONTIGUOUS"]
    any_hit = check_lookup(grids, points)
    assert not any_hit[-len(outside):].any()
    assert any_hit[len(inside):-len(outside)].any()


@st.composite
def lookup_scenes(draw):
    """A map of a few noisy clusters, at negative coordinates too, and query
    points: jittered map points, exact half-cell edges, uniform points around
    the map and far points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cell = draw(st.sampled_from([0.3, 0.5, 1.0]))
    centers = rng.uniform(-30.0, 30.0, (draw(st.integers(1, 4)), 2))
    n = draw(st.integers(3, 200))
    cloud = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 1.5 * cell, (n, 2))
    if draw(st.booleans()):
        cloud = np.round(cloud / (cell / 2)) * (cell / 2)   # points on half-cell edges
    jitter = cloud + rng.normal(0.0, 0.3 * cell, cloud.shape)
    edges = np.round(cloud[:20] / (cell / 2)) * (cell / 2) + [0.0, cell / 2]
    around = rng.uniform(cloud.min(axis=0) - cell, cloud.max(axis=0) + cell, (50, 2))
    far = np.array([[1e4, -1e4], [-3e3, 2.5], [cloud[0, 0], 7e3]])
    return cloud, cell, np.vstack((jitter, edges, around, far))


@settings(max_examples=150, deadline=None, database=None)
@given(scene=lookup_scenes())
def test_half_cell_lookup_equals_per_lattice_lookup(scene):
    cloud, cell, points = scene
    grids = build_grids(cloud, cell)
    if len(grids.keys) == 0:
        assert len(grids.half_keys) == 0
        return
    assert not check_lookup(grids, points)[-3:].any()


@settings(max_examples=100, deadline=None, database=None)
@given(scene=lookup_scenes())
def test_every_map_point_finds_its_own_cells(scene):
    # With every occupied cell kept (each point doubled, two points a cell),
    # each point of the map lies in a kept cell of all four lattices, also on
    # a cell edge: the cell tables and the lookup key a point through the
    # same half cell.
    cloud, cell, _ = scene
    grids = build_grids(np.vstack((cloud, cloud)), cell, min_points=2)
    rows, hit_pts, n_assoc = grids.lookup(cloud, 0)
    assert n_assoc == len(cloud)
    lattice = grids.keys[rows] >> _LATTICE_SHIFT
    assert np.array_equal(np.bincount(lattice, minlength=len(GRID_SHIFTS)),
                          [len(cloud)] * len(GRID_SHIFTS))


FUSED_RTOL = 1e-12


@st.composite
def layered_scenes(draw):
    """One to three map layers, each with a cloud of noisy clusters, a
    weight and query points: clouds and queries may be empty, a weight may
    be 0, and the points of a layer may sit on half-cell edges. The pose is
    either random or a translation by whole half cells, which keeps points
    on the edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cell = draw(st.sampled_from([0.3, 0.5, 1.0]))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 120))
        centers = rng.uniform(-4.0, 4.0, (2, 2))
        cloud = centers[rng.integers(0, 2, n)] + rng.normal(0.0, cell, (n, 2))
        m = draw(st.integers(0, 60))
        near = cloud[rng.integers(0, n, m)] if n else rng.uniform(-4.0, 4.0, (m, 2))
        points = near + rng.normal(0.0, 0.3 * cell, (m, 2))
        if draw(st.booleans()):
            points = np.round(points / (cell / 2)) * (cell / 2)
        weight = draw(st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.01, 100.0))
        layers.append((cloud, weight, points))
    if draw(st.booleans()):
        pose = Pose2D(*(rng.integers(-2, 3, 2) * cell / 2), 0.0)
    else:
        pose = Pose2D(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.2, 0.2))
    return cell, layers, pose


def fused(cell, layers):
    """The one-table grids of every layer and the query of all of them."""
    grids = build_grids([cell_table(cloud, cell, layer)
                         for layer, (cloud, _, _) in enumerate(layers)], cell)
    return grids, NdtQuery([(weight, points) for _, weight, points in layers])


@settings(max_examples=200, deadline=None, database=None)
@given(scene=layered_scenes())
def test_fused_evaluation_is_the_weighted_sum_of_layers(scene):
    # One evaluation over the one-table grids equals the weighted sum of the
    # one-layer evaluations, up to summation order, with exact counts.
    cell, layers, pose = scene
    grids, query = fused(cell, layers)
    s, g, h, n_assoc, n_pts = score_terms(grids, query, pose)
    parts = [(w, score_terms(build_grids(cloud, cell), points, pose))
             for cloud, w, points in layers]
    assert n_assoc == sum(p[3] for _, p in parts)
    assert n_pts == sum(p[4] for _, p in parts) == len(query.points)
    for k, value in enumerate((s, g, h)):
        expected = sum(w * p[k] for w, p in parts)
        scale = max(np.abs(expected).max(), sum(w * np.abs(p[k]).max() for w, p in parts))
        assert np.abs(value - expected).max() <= FUSED_RTOL * scale, k


@settings(max_examples=100, deadline=None, database=None)
@given(scene=layered_scenes())
def test_fused_score_only_equals_full(scene):
    cell, layers, pose = scene
    grids, query = fused(cell, layers)
    full = score_terms(grids, query, pose)
    only = score_terms(grids, query, pose, derivatives=False)
    assert only[1] is None and only[2] is None
    assert (only[0], only[3], only[4]) == (full[0], full[3], full[4])


@settings(max_examples=100, deadline=None, database=None)
@given(scene=lookup_scenes(), offset=st.sampled_from([0.0, 1.0, 1e3]))
def test_points_find_only_the_cells_of_their_own_layer(scene, offset):
    # A regular cloud, shifted by offset, and a marker cloud in layer 1 with
    # every occupied cell kept: each marker point hits its cells in all four
    # lattices as a layer-1 point, and as a layer-0 point only where a
    # regular cell covers it.
    markers, cell, _ = scene
    regular = markers + offset
    tables = [cell_table(np.vstack((regular, regular)), cell),
              cell_table(np.vstack((markers, markers)), cell, 1)]
    grids = build_grids(tables, cell, min_points=2)
    as_marker = check_lookup(grids, markers, layer=1)
    assert as_marker.all()
    as_regular = check_lookup(grids, markers, layer=0)
    only_regular = build_grids(tables[:1], cell, min_points=2)
    assert np.array_equal(as_regular, check_lookup(only_regular, markers))
    if offset == 1e3:
        assert not as_regular.any()


def test_newton_full_derivatives_once_per_accepted_step():
    cloud = wall_cloud(np.random.default_rng(9))
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    for iters in range(1, 5):
        calls = {True: 0, False: 0}

        def objective(pose, derivatives=True):
            calls[derivatives] += 1
            return ndt_score(grids, cloud, pose, derivatives)

        result = newton_ascent(objective, Pose2D(0.2, -0.15, 0.05),
                               MatchOptions(max_iterations=iters))
        assert not result.converged   # every iteration took a step
        assert calls[True] == result.iterations + 1
        assert calls[False] >= result.iterations


def test_newton_returns_its_last_accepted_step():
    # A concave quadratic peaked at (1.2, -0.9, 0.3), whose ratio varies with
    # the pose; the 0.5 m cap makes the ascent accept several steps. The
    # result is the last full evaluation's pose, score, Hessian and ratio.
    full = []

    def objective(pose, derivatives=True):
        d = np.array([pose.x - 1.2, pose.y + 0.9, pose.theta - 0.3])
        s, ratio = 5.0 - float(d @ d), 1.0 / (1.0 + pose.x * pose.x)
        if not derivatives:
            return s, None, None, ratio
        out = (s, -2.0 * d, -2.0 * np.eye(3), ratio)
        full.append((pose, out))
        return out

    result = newton_ascent(objective, Pose2D(), MatchOptions())
    assert result.converged and len(full) == result.iterations >= 4
    pose, (s, _, h, ratio) = full[-1]
    assert result.pose == pose and pose != Pose2D()
    assert result.score == s and result.associated_ratio == ratio
    assert result.hessian is h
    assert [out[0] for _, out in full] == sorted(out[0] for _, out in full)


def counting_objective(grad, trial_score):
    """An objective with gradient grad and Hessian -I at every pose, scoring
    1 at the origin and trial_score elsewhere. It counts its calls by kind."""
    calls = {True: 0, False: 0}

    def objective(pose, derivatives=True):
        calls[derivatives] += 1
        s = 1.0 if (pose.x, pose.y, pose.theta) == (0.0, 0.0, 0.0) else trial_score
        if not derivatives:
            return s, None, None, 1.0
        return s, np.array(grad, dtype=float), -np.eye(3), 1.0
    return objective, calls


@pytest.mark.parametrize("tol, max_halvings, trials", [
    (1e-3, 10, 7),     # 0.1 / 2**6 >= 1e-3 > 0.1 / 2**7
    (1e-5, 20, 14),    # 0.1 / 2**13 >= 1e-5 > 0.1 / 2**14
    (1e-5, 10, 11),    # capped at max_halvings + 1
    (1e-5, 0, 1),
    (0.2, 10, 0),      # the full step is already below the tolerance
])
def test_rejected_trials_stop_at_the_step_tolerance(tol, max_halvings, trials):
    # The step (0.06, 0, 0.08) has norm 0.1 over (x, y, theta) together.
    objective, calls = counting_objective((0.06, 0.0, 0.08), trial_score=0.0)
    result = newton_ascent(objective, Pose2D(),
                           MatchOptions(convergence_tol=tol, max_halvings=max_halvings))
    assert calls[False] == trials
    assert calls[True] == 1
    assert result.converged and result.iterations == 1
    assert result.pose == Pose2D() and result.score == 1.0


def test_zero_gradient_evaluates_no_trial():
    objective, calls = counting_objective((0.0, 0.0, 0.0), trial_score=1.0)
    result = newton_ascent(objective, Pose2D())
    assert calls == {True: 1, False: 0}
    assert result.converged and result.pose == Pose2D()


def test_every_trial_step_is_at_least_the_tolerance():
    cloud = wall_cloud(np.random.default_rng(9))
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    opts = MatchOptions()
    current = [None]
    shortest = [math.inf]

    def objective(pose, derivatives=True):
        if derivatives:
            current[0] = pose
        else:
            c = current[0]
            d = (pose.x - c.x, pose.y - c.y, pose.theta - c.theta)
            shortest[0] = min(shortest[0], float(np.linalg.norm(d)))
        return ndt_score(grids, cloud, pose, derivatives)

    result = newton_ascent(objective, Pose2D(0.2, -0.15, 0.05), opts)
    assert result.converged
    assert opts.convergence_tol * (1 - 1e-9) <= shortest[0] < math.inf


@pytest.mark.parametrize("hess", [
    np.diag([-1.0, 2.0, -3.0]),                      # indefinite
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1e-12]]),  # and near-singular
    np.diag([1.0, 2.0, 3.0]),                        # emax <= 0: gradient fallback
    np.zeros((3, 3)),
])
def test_ascent_direction_is_finite(hess):
    grad = np.array([0.3, -0.2, 0.1])
    step = _ascent_direction(grad, hess)
    assert np.all(np.isfinite(step))
    assert grad @ step > 0
    if np.linalg.eigvalsh(-hess).max() <= 0:
        assert np.allclose(step, grad / np.linalg.norm(grad))
    assert np.array_equal(_ascent_direction(np.zeros(3), hess), np.zeros(3))
