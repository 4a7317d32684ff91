"""Detection of wall-mounted retroreflective markers in a single laser scan.

A marker is a strip of known width on a flat wall. Candidates are
high-intensity beams; each candidate is validated by a chain of gates
(range, wall-segment size, intensity-jump borders, line straightness,
incidence angle, predicted point count) before duplicates are merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndt import check_integers, check_reals
from .scan import LaserScan

# Near-equal intensity jumps (within this relative tolerance of the maximum)
# occur when beam divergence splits a marker border into two steps; we then
# prefer the outermost jump so both partially-hit edge beams count as marker
# points, consistent with the +2 point-count correction.
_JUMP_TIE_REL = 0.01


@dataclass(frozen=True)
class DetectorParams:
    r_min: float = 0.5              # m, reject returns from the vehicle itself
    r_max: float = 6.0              # m, too few beams hit a marker beyond this
    window: float = 0.15            # m, wall-segment growth radius
    l_min: float = 0.15             # m, minimum wall-segment extent
    p_min: int = 5                  # minimum wall-segment point count
    fit_error_max: float = 0.01     # m^2, max line-fit MSE
    jump_fraction: float = 0.333    # c_i: min jump magnitude as fraction of i_min
    marker_width: float = 0.05      # m
    flat_angle_max: float = math.radians(80.0)
    duplicate_merge_dist: float = 0.10  # m

    def __post_init__(self):
        check_reals(self, "r_min", "r_max", "window", "l_min", "fit_error_max",
                    "marker_width")
        if not self.r_min < self.r_max:
            raise ValueError("require r_min < r_max")
        check_integers(self, 3, "p_min")
        if not (0 < self.jump_fraction <= 1):
            raise ValueError("jump_fraction must be in (0, 1]")
        if not (0 < self.flat_angle_max < math.pi / 2):
            raise ValueError("flat_angle_max must be in (0, pi/2)")
        check_reals(self, "duplicate_merge_dist", allow_zero=True)


@dataclass(frozen=True)
class MarkerDetection:
    center: np.ndarray          # (2,), sensor frame
    normal: np.ndarray          # (2,), unit, oriented toward the sensor
    support_start: int          # first beam index on the marker
    support_end: int            # last beam index on the marker (inclusive)
    incidence_angle: float      # radians
    mean_intensity: float

    @property
    def point_count(self) -> int:
        return self.support_end - self.support_start + 1


def fit_line(points: np.ndarray):
    """Total-least-squares line fit.

    Returns (direction, normal, mse) where mse is the mean squared
    perpendicular distance and the normal points toward the origin.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least 2 points for a line fit")
    centroid = pts.mean(axis=0)
    d = pts - centroid
    cov = d.T @ d / len(pts)
    if np.abs(cov).max() <= 1e-18:
        raise ValueError("degenerate input: all points coincident")
    evals, evecs = np.linalg.eigh(cov)
    direction = evecs[:, 1]  # eigenvector of the larger eigenvalue
    mse = float(evals[0])
    normal = np.array([-direction[1], direction[0]])
    if np.dot(normal, -centroid) < 0:
        normal = -normal
    return direction, normal, mse


def expected_point_count(center, incidence: float, marker_width: float,
                         resolution: float) -> int:
    """Predicted number of beams on a marker of the given width.

    Uses the angular extent of the marker as seen from the sensor, plus 2
    for the edge beams that partially hit the marker due to beam divergence.
    """
    dist = float(np.linalg.norm(center))
    if dist <= marker_width:
        raise ValueError("marker must be farther than its own width")
    dx = 0.5 * marker_width * math.sin(incidence)
    dy = 0.5 * marker_width * math.cos(incidence)
    alpha = math.atan2(dy, dist - dx)
    beta = math.atan2(dy, dist + dx)
    return int(math.floor((alpha + beta) / resolution + 0.5)) + 2


# Beams tested per side and step of the wall-segment growth.
_GROW_CHUNK = 32


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of d (..., 2), bit for bit as
    np.linalg.norm of the row: both take the BLAS dot of the row with itself."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _grow_wall_segments(points, finite, seeds, window):
    """Wall segment [lo, hi] around each seed beam j: the beams on either side
    of j up to the first one that is not finite or lies farther than window
    from p_j, so growth stops at invalid beams and thus at depth jumps.

    All seeds grow at once, one side at a time: each step tests the next
    _GROW_CHUNK beams of every seed still growing, as one (seeds, chunk)
    array, and moves each seed's end to its first failing beam."""
    n = len(points)
    steps = np.arange(1, _GROW_CHUNK + 1)
    ends = []
    for side in (-1, 1):
        end = seeds.copy()
        growing = np.arange(len(seeds))
        while len(growing):
            beams = end[growing, None] + side * steps             # (g, chunk)
            inside = (beams >= 0) & (beams < n)
            beams = beams.clip(0, n - 1)
            d = points[beams] - points[seeds[growing], None, :]
            ok = inside & finite[beams] & (_row_norms(d) <= window)
            run = np.where(ok.all(axis=1), _GROW_CHUNK, ok.argmin(axis=1))
            end[growing] += side * run
            growing = growing[run == _GROW_CHUNK]
        ends.append(end)
    return ends[0], ends[1]


def _find_marker_borders(jumps, lo, hi, j, min_jump):
    """Locate the marker inside a wall segment from the largest intensity
    jumps, given the scan's np.diff(intensities). Returns (start, end) beam
    indices or None.

    The border is inclusive on the upward jump and exclusive on the downward
    one. Among near-equal maximal jumps the outermost is taken (see
    _JUMP_TIE_REL).
    """
    jumps = jumps[lo:hi]  # jumps[k] = I[lo+k+1] - I[lo+k]
    if len(jumps) == 0:
        return None
    up_max = jumps.max()
    down_max = -jumps.min()
    if up_max < min_jump or down_max < min_jump:
        return None
    up_candidates = np.nonzero(jumps >= up_max * (1.0 - _JUMP_TIE_REL))[0]
    down_candidates = np.nonzero(-jumps >= down_max * (1.0 - _JUMP_TIE_REL))[0]
    start = lo + int(up_candidates[0]) + 1   # first point after the upward jump
    end = lo + int(down_candidates[-1])      # last point before the downward jump
    if not (start <= j <= end):
        return None
    return start, end


def detect(scan: LaserScan, params: DetectorParams | None = None,
           i_min: float | None = None):
    """Run the full marker detector on one scan.

    i_min overrides the sensor preset threshold (used for PR sweeps).
    Returns detections sorted by support start index.
    """
    if params is None:
        params = DetectorParams()
    if i_min is None:
        i_min = scan.spec.i_min
    min_jump = params.jump_fraction * i_min

    ranges = scan.ranges
    intensities = scan.intensities
    finite = np.isfinite(ranges)
    points = scan.points()

    candidate_idx = np.nonzero(
        finite & (intensities >= i_min)
        & (ranges >= params.r_min) & (ranges <= params.r_max)
    )[0]

    lo, hi = _grow_wall_segments(points, finite, candidate_idx, params.window)
    big = ((hi - lo + 1 >= params.p_min)
           & (_row_norms(points[lo] - points[hi]) >= params.l_min))

    jumps = np.diff(intensities)
    raw = []
    seen_spans = set()
    for j, lo, hi in zip(candidate_idx[big].tolist(), lo[big].tolist(), hi[big].tolist()):
        borders = _find_marker_borders(jumps, lo, hi, j, min_jump)
        if borders is None:
            continue
        start, end = borders
        span_key = (start, end)
        if span_key in seen_spans:
            continue
        center = points[start:end + 1].mean(axis=0)
        try:
            _, normal, mse = fit_line(points[lo:hi + 1])
        except ValueError:
            continue
        if mse > params.fit_error_max:
            continue
        dist = np.linalg.norm(center)
        if dist < 1e-9:
            continue
        cos_inc = float(np.dot(normal, -center) / dist)
        incidence = math.acos(min(1.0, max(-1.0, cos_inc)))
        if incidence > params.flat_angle_max:
            continue
        expected = expected_point_count(center, incidence, params.marker_width,
                                        scan.spec.angular_resolution)
        actual = end - start + 1
        if abs(actual - expected) > scan.spec.p_d:
            continue
        seen_spans.add(span_key)
        raw.append(MarkerDetection(
            center=center,
            normal=normal,
            support_start=start,
            support_end=end,
            incidence_angle=incidence,
            mean_intensity=float(intensities[start:end + 1].mean()),
        ))

    return _merge_duplicates(raw, params.duplicate_merge_dist)


def _merge_duplicates(detections, merge_dist):
    """Keep the strongest of any cluster of detections closer than
    merge_dist (larger point count wins, ties by smaller start index)."""
    order = sorted(detections, key=lambda d: (-d.point_count, d.support_start))
    kept = []
    for det in order:
        if all(np.linalg.norm(det.center - k.center) >= merge_dist for k in kept):
            kept.append(det)
    kept.sort(key=lambda d: d.support_start)
    return kept


def detection_to_line(timestamp: float, det: MarkerDetection) -> str:
    """Structured-text record for the CLI detect command."""
    normal_angle = math.atan2(det.normal[1], det.normal[0])
    return " ".join([
        repr(float(timestamp)),
        repr(float(det.center[0])),
        repr(float(det.center[1])),
        repr(float(normal_angle)),
        str(det.point_count),
        repr(math.degrees(det.incidence_angle)),
    ])
