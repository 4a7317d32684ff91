"""2D NDT: Gaussian-cell grids over point clouds and maximization of the
exp(-0.5 * Mahalanobis^2) score over SE(2) with analytic derivatives.

Four lattices shifted by half a cell in x, y and both remove discretization
bias without interpolation. Cell covariances are sample covariances (ddof=1),
regularized so the smaller eigenvalue is at least 1e-3 of the larger one.

A map may have several layers, such as regular and marker points. All of
them live in one table, keyed by layer, and an objective has one NDT term:
an NdtQuery stacks the points of every layer with their layer and weight, so
an evaluation is one lookup and one weighted reduction over all layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from types import SimpleNamespace

import numpy as np

from .geometry import Pose2D

GRID_SHIFTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))
MIN_CELL_POINTS = 3
EIG_RATIO_FLOOR = 1e-3
EIG_ABS_FLOOR = 1e-6  # m^2

# Cell coordinate packing into a single int64 key for vectorized lookup. A
# cell key is below 2**50; the lattice index sits above it and the map
# layer's index above that, so the keys of every layer's four lattices sort
# into one table, layer by layer and lattice by lattice. Half-cell keys use
# the same packing and layer bits, without a lattice index.
_KEY_OFFSET = 1 << 24
_KEY_STRIDE = 1 << 25
_LATTICE_SHIFT = 51
_LAYER_SHIFT = 53
_LATTICES = np.arange(len(GRID_SHIFTS))
# Each lattice's shift in half cells: 0 or 1 per axis.
_HALF_SHIFTS = (2 * np.array(GRID_SHIFTS)).astype(np.int64)


def _pack(ix, iy):
    return (ix + _KEY_OFFSET) * _KEY_STRIDE + (iy + _KEY_OFFSET)


# Key offset of the half cell at each corner of a cell, per (corner,
# lattice): _pack is affine, so the half cell 2 (i, j) + h of cell (i, j) has
# the key 2 _pack(i, j) + _pack(h) - 2 _pack(0, 0), where h is the lattice's
# half shift plus the corner.
_HALF_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])[:, None, :] + _HALF_SHIFTS
_CORNER_KEYS = _pack(_HALF_CORNERS[..., 0], _HALF_CORNERS[..., 1]) - 2 * _pack(0, 0)


def _half_cells(points, cell_size: float) -> np.ndarray:
    """Half-cell index q = floor(p * 2 / cell_size) of each point, (n, 2)
    int64. The half-cell q lies in exactly one cell of each lattice: for the
    lattice shifted by (a, b) half a cell, ((q_x - 2a) >> 1, (q_y - 2b) >> 1).
    Both the cell tables and the lookup key points through it."""
    return np.floor(points / (0.5 * cell_size)).astype(np.int64)


def check_integers(obj, low: int, *names: str) -> None:
    """Raise ValueError unless each named field of obj is an integer >= low."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}")


def check_reals(obj, *names: str, allow_zero: bool = False) -> None:
    """Raise ValueError unless each named field of obj is a finite real
    number above zero, or at least zero with allow_zero."""
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, Real)
                or not (0 <= value if allow_zero else 0 < value) or value == math.inf):
            rule = "finite and non-negative" if allow_zero else "positive and finite"
            raise ValueError(f"{name} must be {rule}")


@dataclass
class MatchOptions:
    max_iterations: int = 50
    convergence_tol: float = 1e-5      # norm of the shortest (x, y, theta) trial step
    max_halvings: int = 10
    max_step_translation: float = 0.5  # m, trust-region style clamp
    max_step_rotation: float = 0.5     # rad

    def __post_init__(self):
        check_integers(self, 1, "max_iterations")
        check_integers(self, 0, "max_halvings")
        check_reals(self, "convergence_tol", allow_zero=True)
        check_reals(self, "max_step_translation", "max_step_rotation")


@dataclass
class MatchResult:
    pose: Pose2D
    score: float
    iterations: int
    converged: bool
    hessian: np.ndarray
    associated_ratio: float
    n_points: int = 0       # query points of the objective's NDT term


class NdtGrids:
    """The four half-cell-shifted lattices of every map layer, as one table:
    cell keys sorted with the layer index above the lattice index in the
    high bits, with the cell means and inverse covariances in the same
    order. Iteration gives the key slice of each (layer, lattice), layer by
    layer.

    The lookup goes through the half cells that the cells cover: half_keys
    holds the sorted packed keys of the H half cells covered by at least one
    cell, each with its layer's bits, and half_rows (4, H) the table row of
    the covering cell in each lattice, or -1. A cell covers four half cells,
    so H is at most four times the number of cells, wherever the points
    lie."""

    __slots__ = ("cell_size", "keys", "means", "inv_covs", "half_keys", "half_rows")

    def __init__(self, cell_size, keys, means, inv_covs, half_keys, half_rows):
        self.cell_size = cell_size
        self.keys = keys
        self.means = means
        self.inv_covs = inv_covs
        self.half_keys = half_keys
        self.half_rows = half_rows

    def __iter__(self):
        n_layers = int(self.keys[-1] >> _LAYER_SHIFT) + 1 if len(self.keys) else 1
        parts = np.arange(n_layers * len(_LATTICES) + 1, dtype=np.int64) << _LATTICE_SHIFT
        bounds = np.searchsorted(self.keys, parts)
        return (self.keys[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    def lookup(self, points: np.ndarray, layer_keys):
        """Every (lattice, point) pair whose cell in the point's layer is
        filled, lattice-major with points in order: (table row per hit,
        point index per hit, number of points with at least one hit).
        layer_keys is each point's layer index shifted to _LAYER_SHIFT. Each
        point is keyed once, by its half cell. The table must hold at least
        one cell."""
        q = _half_cells(points, self.cell_size)
        keys = _pack(q[:, 0], q[:, 1]) + layer_keys
        pos = np.searchsorted(self.half_keys, keys)
        np.minimum(pos, len(self.half_keys) - 1, out=pos)
        found = self.half_keys[pos] == keys
        rows = self.half_rows.take(pos, axis=1)               # (4, N)
        hit = (rows >= 0) & found
        # Every half cell in the table lies in a filled cell.
        return rows[hit], np.nonzero(hit)[1], int(np.count_nonzero(found))


class NdtQuery:
    """The query points of one NDT term over the map layers: the points of
    every layer stacked in layer order, each point's layer index shifted to
    _LAYER_SHIFT, and each point's weight. Built from one (weight, points)
    pair per layer, once per match."""

    __slots__ = ("points", "layer_keys", "weights")

    def __init__(self, layers):
        pts = [np.asarray(p, dtype=float).reshape(-1, 2) for _, p in layers]
        sizes = [len(p) for p in pts]
        self.points = np.concatenate(pts)
        self.layer_keys = np.repeat(np.arange(len(pts), dtype=np.int64) << _LAYER_SHIFT, sizes)
        self.weights = np.repeat(np.array([w for w, _ in layers], dtype=float), sizes)


def _half_cell_table(keys: np.ndarray):
    """(half_keys, half_rows) of NdtGrids for a sorted cell-key table: the
    four half cells of each cell, keyed in the cell's layer and merged by
    key, with the cell's row in its lattice's row of half_rows."""
    layer = keys >> _LAYER_SHIFT << _LAYER_SHIFT
    lattice = (keys - layer) >> _LATTICE_SHIFT
    cell = keys - layer - (lattice << _LATTICE_SHIFT)
    # Corner-major, so the keys form 16 sorted runs per layer that the
    # stable sort merges.
    half = (2 * cell + layer + _CORNER_KEYS.take(lattice, axis=1)).ravel()
    order = np.argsort(half, kind="stable")
    half = half[order]
    first = np.ones(len(half), dtype=bool)
    first[1:] = half[1:] != half[:-1]
    n_half = np.count_nonzero(first)
    row = order % max(len(keys), 1)
    half_rows = np.full(len(_LATTICES) * n_half, -1, dtype=np.int64)
    half_rows[lattice.take(row) * n_half + np.cumsum(first) - 1] = row
    return half[first], half_rows.reshape(len(_LATTICES), n_half)


def _regularize_covariances(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor the smaller eigenvalue of each symmetric 2x2 covariance; returns
    (regularized covariances, their inverses)."""
    a = covs[:, 0, 0]
    b = covs[:, 0, 1]
    c = covs[:, 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b ** 2, 0.0))
    l1 = half_tr + disc  # larger eigenvalue
    l2 = half_tr - disc
    l1r = np.maximum(l1, EIG_ABS_FLOOR)
    l2r = np.maximum(l2, np.maximum(EIG_RATIO_FLOOR * l1r, EIG_ABS_FLOOR))

    # Eigenvector for l1: (l1 - c, b) if a >= c, else (b, l1 - a). The
    # difference l1 - min(a, c) is a sum of two non-negative terms, so it does
    # not cancel even when b is tiny or the cell is nearly isotropic. An
    # isotropic cell (zero vector) takes the x-axis.
    h = 0.5 * np.abs(a - c) + disc
    vx = np.where(a >= c, h, b)
    vy = np.where(a >= c, b, h)
    norm = np.sqrt(vx ** 2 + vy ** 2)
    flat = norm == 0.0
    norm[flat] = 1.0
    vx, vy = np.where(flat, 1.0, vx / norm), vy / norm

    reg = np.empty_like(covs)
    reg[:, 0, 0] = l1r * vx * vx + l2r * vy * vy
    reg[:, 0, 1] = reg[:, 1, 0] = l1r * vx * vy - l2r * vx * vy
    reg[:, 1, 1] = l1r * vy * vy + l2r * vx * vx

    det = reg[:, 0, 0] * reg[:, 1, 1] - reg[:, 0, 1] ** 2
    inv = np.empty_like(reg)
    inv[:, 0, 0] = reg[:, 1, 1] / det
    inv[:, 1, 1] = reg[:, 0, 0] / det
    inv[:, 0, 1] = inv[:, 1, 0] = -reg[:, 0, 1] / det
    return reg, inv


@dataclass(frozen=True)
class CellTable:
    """Statistics of one point cloud's cells in all four lattices of one map
    layer, keyed at cell_size: packed keys (the NdtGrids.keys layout,
    sorted), point counts, means and centred second moments (xx, xy, yy).
    Every occupied cell is kept, however few its points, so that tables of
    several clouds merge into exactly the cells of their union."""

    cell_size: float
    keys: np.ndarray    # (m,) int64
    counts: np.ndarray  # (m,) int64
    means: np.ndarray   # (m, 2)
    m2: np.ndarray      # (m, 3)


def _merge_rows(keys, counts, means, m2):
    """Group rows by key and merge each group with the pairwise update of
    Chan, Golub & LeVeque: N = sum n_i, mu = sum n_i mu_i / N and
    M2 = sum [M2_i + n_i (mu_i - mu)(mu_i - mu)^T]. Returns the merged rows
    in key order."""
    if len(keys) == 0:
        return keys, counts, means, m2
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    means, m2 = means.take(order, axis=0), m2.take(order, axis=0)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    n = np.add.reduceat(counts, starts)
    mu = np.add.reduceat(counts[:, None] * means, starts) / n[:, None]
    d = means - np.repeat(mu, np.diff(np.r_[starts, len(keys)]), axis=0)
    nd = counts[:, None] * d
    spread = np.column_stack((nd[:, 0] * d[:, 0], nd[:, 0] * d[:, 1],
                              nd[:, 1] * d[:, 1]))
    return keys[starts], n, mu, np.add.reduceat(m2 + spread, starts)


def cell_table(points: np.ndarray, cell_size: float, layer: int = 0) -> CellTable:
    """Cell table of a point cloud in one map layer: each point is a
    one-point cell in each lattice, the cell that covers its half cell,
    merged by key."""
    check_reals(SimpleNamespace(cell_size=cell_size), "cell_size")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ij = (_half_cells(pts, cell_size) - _HALF_SHIFTS[:, None, :]) >> 1   # (4, n, 2)
    parts = (layer << _LAYER_SHIFT) + (_LATTICES[:, None] << _LATTICE_SHIFT)
    keys = (parts + _pack(ij[..., 0], ij[..., 1])).ravel()
    rows = len(keys)
    merged = _merge_rows(keys, np.ones(rows, dtype=np.int64),
                         np.tile(pts, (len(GRID_SHIFTS), 1)), np.zeros((rows, 3)))
    return CellTable(cell_size, *merged)


def build_grids(source, cell_size: float,
                min_points: int = MIN_CELL_POINTS) -> NdtGrids:
    """Build the NDT grids of a point cloud, which forms layer 0, or of the
    map layers whose CellTables are given, one or more per layer: the tables
    are merged in one pass, cells with fewer than min_points points dropped
    and the sample covariances (ddof=1) regularized."""
    check_reals(SimpleNamespace(cell_size=cell_size), "cell_size")
    tables = source
    if not (isinstance(source, (list, tuple)) and source
            and all(isinstance(t, CellTable) for t in source)):
        tables = [cell_table(source, cell_size)]
    if any(t.cell_size != cell_size for t in tables):
        raise ValueError(f"cell tables were not keyed at cell_size {cell_size}")
    keys, counts, means, m2 = _merge_rows(*(np.concatenate(a) for a in zip(
        *((t.keys, t.counts, t.means, t.m2) for t in tables))))
    keep = counts >= min_points
    keys, counts, means, m2 = keys[keep], counts[keep], means[keep], m2[keep]
    # take() keeps the table C-contiguous, which the per-scan gathers rely on.
    covs = (m2 / (counts - 1)[:, None]).take([0, 1, 1, 2], axis=1).reshape(-1, 2, 2)
    inv_covs = _regularize_covariances(covs)[1] if len(keys) else covs
    return NdtGrids(cell_size, keys, means, inv_covs, *_half_cell_table(keys))


def score(terms, pose: Pose2D, derivatives: bool = True):
    """The matching objective: a weighted sum of terms at a pose.

    terms is a sequence of (weight, term) pairs; term(pose, derivatives)
    returns score_terms' (score, gradient, hessian, n_assoc, n_points). The
    NDT term is partial(score_terms, grids, query). Returns (score, gradient
    (3,), hessian (3,3), associated_ratio), the ratio over the points of all
    terms; with derivatives=False the gradient and Hessian are None and the
    score and ratio are those of the full evaluation, bit for bit.
    """
    total, grad, hess, n_assoc, n_pts = 0.0, None, None, 0, 0
    if derivatives:
        grad, hess = np.zeros(3), np.zeros((3, 3))
    for weight, term in terms:
        s, g, h, a, n = term(pose, derivatives)
        total += weight * s
        if derivatives:
            grad += weight * g
            hess += weight * h
        n_assoc += a
        n_pts += n
    return total, grad, hess, n_assoc / n_pts if n_pts else 0.0


# Entry (i, j) of the Hessian in the reduction vector of score_terms.
_HESS_ENTRIES = np.array([[3, 4, 6], [4, 5, 7], [6, 7, 8]])


def score_terms(grids: NdtGrids, points, pose: Pose2D, derivatives: bool = True):
    """The weighted NDT score, gradient and Hessian w.r.t. (x, y, theta) of
    query points matched against the cells of their own layers, and the raw
    association counts, so that score() can merge terms into one ratio.
    points is an NdtQuery, or a point array: one layer at weight 1.

    Each hit, a point in a filled cell of one lattice, adds its weighted
    score ws = w exp(-0.5 u^T Sigma^-1 u); the score is the sum of ws and
    the derivatives come from one product of their (9, K) factors with ws,
    so a score-only evaluation gives the full one's score bit for bit."""
    q = points if isinstance(points, NdtQuery) else NdtQuery(((1.0, points),))
    pts = q.points
    n_pts = len(pts)
    if n_pts == 0 or len(grids.keys) == 0:
        if not derivatives:
            return 0.0, None, None, 0, n_pts
        return 0.0, np.zeros(3), np.zeros((3, 3)), 0, n_pts

    c, sn = math.cos(pose.theta), math.sin(pose.theta)
    R = np.array([[c, -sn], [sn, c]])
    rp = pts @ R.T
    tp = rp + np.array([pose.x, pose.y])
    rows, hit_pts, n_assoc = grids.lookup(tp, q.layer_keys)

    # take() gathers rows far faster than fancy indexing of 2-D/3-D arrays.
    u = tp.take(hit_pts, axis=0) - grids.means.take(rows, axis=0)   # (K,2)
    icov = grids.inv_covs.take(rows, axis=0)                        # (K,2,2)
    ic00, ic01, ic11 = icov[:, 0, 0], icov[:, 0, 1], icov[:, 1, 1]
    u0, u1 = u[:, 0], u[:, 1]
    a0 = ic00 * u0 + ic01 * u1                              # Sigma^-1 u
    a1 = ic01 * u0 + ic11 * u1
    ws = np.exp(-0.5 * (u0 * a0 + u1 * a1)) * q.weights.take(hit_pts)
    total = float(ws.sum())
    if not derivatives:
        return total, None, None, n_assoc, n_pts

    dR = np.array([[-sn, -c], [c, -sn]])
    drp = (pts @ dR.T).take(hit_pts, axis=0)    # du/dtheta per hit
    rph = rp.take(hit_pts, axis=0)              # -d2u/dtheta2 per hit
    # Jacobian columns of u: (1,0), (0,1), dR p. The gradient is
    # -sum ws J^T Sigma^-1 u; the Hessian sum ws (b b^T - J^T Sigma^-1 J -
    # a . d2u), where only the theta-theta entry has a nonzero second
    # derivative of u.
    j0, j1 = drp[:, 0], drp[:, 1]
    b2 = a0 * j0 + a1 * j1
    icj0 = ic00 * j0 + ic01 * j1
    icj1 = ic01 * j0 + ic11 * j1
    factors = np.stack((a0, a1, b2,
                        a0 * a0 - ic00, a0 * a1 - ic01, a1 * a1 - ic11,
                        a0 * b2 - icj0, a1 * b2 - icj1,
                        b2 * b2 - (j0 * icj0 + j1 * icj1)
                        + (a0 * rph[:, 0] + a1 * rph[:, 1])))
    sums = factors @ ws
    return total, -sums[:3], sums[_HESS_ENTRIES], n_assoc, n_pts


# Eigenvalue floor for the step computation, relative to the stiffest
# direction. Only guards against singular / indefinite Hessians; it must stay
# far below any genuine stiffness ratio (x vs theta curvature differs by ~1e4
# in a corridor) or soft-direction corrections get crushed. Step length in
# truly unconstrained directions is bounded by the trust-region caps instead.
STEP_EIG_FLOOR = 1e-8


def _ascent_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton ascent direction from a possibly indefinite / near-singular
    Hessian: eigenvalues of -H are floored so the step cannot blow up along
    unconstrained directions."""
    A = -hess
    evals, evecs = np.linalg.eigh(A)
    emax = evals.max()
    if emax <= 0.0:
        n = np.linalg.norm(grad)
        return grad / n if n > 0 else grad
    clamped = np.maximum(evals, STEP_EIG_FLOOR * emax)
    return evecs @ ((evecs.T @ grad) / clamped)


def newton_ascent(objective, initial: Pose2D, opts: MatchOptions | None = None) -> MatchResult:
    """Damped Newton maximization of a smooth objective over (x, y, theta).

    objective(pose, derivatives=True) must return (score, grad, hess,
    associated_ratio). With derivatives=False it may return None for grad and
    hess, but the score and ratio must equal those of the full evaluation.
    The step is halved until the score is non-decreasing; the ascent has
    converged when the halvings reach a step shorter than convergence_tol,
    which is never tried, or all max_halvings + 1 trials fail. Trials are
    score-only; full derivatives come at the initial and accepted poses.
    Scores never decrease, so the last accepted pose is the best one seen:
    its pose, score, Hessian and ratio are returned.
    """
    if opts is None:
        opts = MatchOptions()
    pose = initial
    s, g, h, ratio = objective(pose)
    if ratio == 0.0:
        return MatchResult(initial, s, 0, False, h, 0.0)
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        step = _ascent_direction(g, h)
        tn = math.hypot(step[0], step[1])
        if tn > opts.max_step_translation:
            step = step * (opts.max_step_translation / tn)
        if abs(step[2]) > opts.max_step_rotation:
            step = step * (opts.max_step_rotation / abs(step[2]))

        step_norm = float(np.linalg.norm(step))
        alpha = 1.0
        accepted = False
        for _ in range(opts.max_halvings + 1):
            if alpha * step_norm < opts.convergence_tol:
                break
            cand = Pose2D(pose.x + alpha * step[0], pose.y + alpha * step[1],
                          pose.theta + alpha * step[2])
            cs, _, _, _ = objective(cand, derivatives=False)
            if cs >= s:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = True
            break

        pose = cand
        s, g, h, ratio = objective(pose)

    return MatchResult(pose, s, iterations, converged, h, ratio)


def ascend(grids: NdtGrids, query: NdtQuery, initial: Pose2D,
           opts: MatchOptions | None = None, *terms) -> MatchResult:
    """Newton ascent of the objective with one NDT term, query against
    grids at weight 1, plus the given (weight, term) pairs. The result
    carries the query's point count."""
    terms = ((1.0, partial(score_terms, grids, query)),) + terms
    result = newton_ascent(partial(score, terms), initial, opts)
    result.n_points = len(query.points)
    return result


def match(grids, points: np.ndarray, initial: Pose2D,
          opts: MatchOptions | None = None) -> MatchResult:
    """Match a point cloud against the layer-0 NDT grids starting from an
    initial pose."""
    return ascend(grids, NdtQuery(((1.0, points),)), initial, opts)


DEFAULT_CELL_SIZE = 0.5  # m
