import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.geometry import (IDENTITY, Pose2D, compose, inverse, relative,
                              transform_points, wrap_angle)


def random_pose(rng):
    return Pose2D(rng.uniform(-10, 10), rng.uniform(-10, 10),
                  rng.uniform(-math.pi, math.pi))


def assert_pose_close(a, b, tol=1e-12):
    assert a.x == pytest.approx(b.x, abs=tol)
    assert a.y == pytest.approx(b.y, abs=tol)
    assert wrap_angle(a.theta - b.theta) == pytest.approx(0.0, abs=tol)


def test_wrap_angle_range():
    for theta in np.linspace(-20, 20, 401):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # same angle modulo 2*pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


def test_pose_normalizes_theta():
    p = Pose2D(0, 0, 3 * math.pi)
    assert -math.pi < p.theta <= math.pi


def test_compose_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_pose(rng)
        assert_pose_close(compose(p, IDENTITY), p)
        assert_pose_close(compose(IDENTITY, p), p)


def test_inverse_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_pose(rng)
        assert_pose_close(compose(p, inverse(p)), IDENTITY, tol=1e-9)
        assert_pose_close(compose(inverse(p), p), IDENTITY, tol=1e-9)


def test_compose_associative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c = (random_pose(rng) for _ in range(3))
        assert_pose_close(compose(compose(a, b), c), compose(a, compose(b, c)),
                          tol=1e-9)


def test_relative_definition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        assert_pose_close(compose(a, relative(a, b)), b, tol=1e-9)


def test_transform_points_matches_compose():
    rng = np.random.default_rng(4)
    pose = random_pose(rng)
    pts = rng.uniform(-5, 5, size=(30, 2))
    out = transform_points(pose, pts)
    for p_in, p_out in zip(pts, out):
        as_pose = compose(pose, Pose2D(p_in[0], p_in[1], 0.0))
        assert p_out[0] == pytest.approx(as_pose.x, abs=1e-12)
        assert p_out[1] == pytest.approx(as_pose.y, abs=1e-12)


def test_transform_points_empty():
    out = transform_points(Pose2D(1, 2, 0.5), np.empty((0, 2)))
    assert out.shape == (0, 2)


def test_transform_point_single():
    p = transform_points(Pose2D(1.0, 0.0, math.pi / 2), np.array([[1.0, 0.0]]))
    assert p.shape == (1, 2)
    assert p[0] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_pose_is_immutable():
    p = Pose2D(1, 2, 3)
    with pytest.raises(AttributeError):
        p.x = 5.0


# -- group laws over random poses ---------------------------------------------

def old_compose(a, b):
    """compose before Pose2D took over the wrapping: wrapped twice."""
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    return Pose2D(a.x + ca * b.x - sa * b.y, a.y + sa * b.x + ca * b.y,
                  wrap_angle(a.theta + b.theta))


def old_inverse(p):
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2D(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), wrap_angle(-p.theta))


coords = st.floats(-1e3, 1e3)
angles = st.one_of(st.floats(-20.0, 20.0),
                   st.sampled_from([math.pi, -math.pi, 0.0, -0.0, math.tau,
                                    math.nextafter(math.pi, 4.0),
                                    math.nextafter(-math.pi, -4.0)]))
poses = st.builds(Pose2D, coords, coords, angles)


def same_bits(a, b):
    return (a.x, a.y, a.theta) == (b.x, b.y, b.theta) and \
        math.copysign(1.0, a.theta) == math.copysign(1.0, b.theta)


@settings(max_examples=300, deadline=None)
@given(a=poses, b=poses, c=poses)
def test_pose_group_laws(a, b, c):
    for p in (a, b, c, compose(a, b), inverse(a)):
        assert -math.pi < p.theta <= math.pi
    assert_pose_close(compose(a, IDENTITY), a, tol=1e-9)
    assert_pose_close(compose(IDENTITY, a), a, tol=1e-9)
    assert_pose_close(compose(a, inverse(a)), IDENTITY, tol=1e-9)
    assert_pose_close(compose(inverse(a), a), IDENTITY, tol=1e-9)
    assert_pose_close(compose(compose(a, b), c), compose(a, compose(b, c)), tol=1e-9)
    # Wrapping is idempotent, so dropping the callers' own wrap left every bit.
    assert same_bits(compose(a, b), old_compose(a, b))
    assert same_bits(inverse(a), old_inverse(a))


@given(theta=angles)
def test_wrap_angle_is_idempotent(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w and Pose2D(0.0, 0.0, w).theta == w
