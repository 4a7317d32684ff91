"""Two-layer NDT matching: regular points and marker points form separate
layers of one NDT table, and the match maximizes ndt.score over both, the
marker layer weighted, as one NDT term.

Marker points may be too sparse to fill an NDT cell on their own, so each one
is augmented with points synthesized on a surrounding circle before grid
construction (construction only; synthesized points are never query points).
The local map keeps one marker_table() per keyframe, in layer 1, and merges
it with the regular tables of layer 0.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .geometry import Pose2D
from .ndt import (DEFAULT_CELL_SIZE, CellTable, MatchOptions, MatchResult,
                  NdtGrids, NdtQuery, ascend, build_grids, cell_table,
                  check_reals)

DEFAULT_MARKER_WEIGHT = 10.0
DEFAULT_SYNTH_RADIUS = 0.05  # m
SYNTH_CIRCLE_POINTS = 8
MARKER_LAYER = 1   # the marker layer's index in a two-layer map


def split_points(points: np.ndarray, beam_indices: np.ndarray, detections):
    """Partition scan points into (regular, marker) by detection support
    ranges. Overlapping support ranges merge silently; the partition is exact.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    beam_indices = np.asarray(beam_indices)
    is_marker = np.zeros(len(pts), dtype=bool)
    for det in detections:
        is_marker |= (beam_indices >= det.support_start) & (beam_indices <= det.support_end)
    return pts[~is_marker], pts[is_marker]


def synthesize_marker_cloud(marker_points: np.ndarray, radius: float) -> np.ndarray:
    """Each marker point plus SYNTH_CIRCLE_POINTS equally spaced on a circle
    of the given radius around it."""
    check_reals(SimpleNamespace(radius=radius), "radius")
    pts = np.asarray(marker_points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return pts
    ang = np.arange(SYNTH_CIRCLE_POINTS) * (2.0 * math.pi / SYNTH_CIRCLE_POINTS)
    circle = radius * np.column_stack((np.cos(ang), np.sin(ang)))
    cloud = pts[:, None, :] + circle[None, :, :]
    return np.vstack((pts, cloud.reshape(-1, 2)))


def marker_table(marker_points: np.ndarray, radius: float, cell_size: float,
                 layer: int = 0) -> CellTable:
    """Cell table of marker points augmented with synthesized circle points,
    in the given map layer."""
    return cell_table(synthesize_marker_cloud(marker_points, radius), cell_size, layer)


def build_marker_layer(markers, radius: float = DEFAULT_SYNTH_RADIUS,
                       cell_size: float = DEFAULT_CELL_SIZE) -> NdtGrids:
    """One-layer NDT grids over marker points augmented with synthesized
    circle points, so even an isolated marker point yields a valid cell."""
    return build_grids([marker_table(markers, radius, cell_size)], cell_size)


def match_layered(grids, regular_points: np.ndarray, marker_points: np.ndarray,
                  marker_weight: float, initial: Pose2D,
                  opts: MatchOptions | None = None) -> MatchResult:
    """Match regular and marker points against grids, a two-layer NdtGrids:
    the regular points against layer 0 with weight 1, the marker points
    against layer MARKER_LAYER with marker_weight."""
    query = NdtQuery(((1.0, regular_points), (marker_weight, marker_points)))
    return ascend(grids, query, initial, opts)
