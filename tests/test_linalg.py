"""Transform building blocks checked against hand-built matrices."""

import math

import numpy as np
import pytest

from softrender.linalg import (
    compose_trs,
    mat_from_column_major,
    normalize,
    perspective,
    quat_to_matrix,
    rotate_x,
    rotate_y,
    rotate_z,
    scale,
    translate,
)


def point(m, p):
    """m applied to the point p (w = 1)."""
    return (m @ np.append(np.asarray(p, dtype=np.float64), 1.0))[:3]


def test_translate_moves_points():
    np.testing.assert_allclose(point(translate(5, -1, 0.5), [1.0, 2.0, 3.0]), [6.0, 1.0, 3.5])


def test_rotations_quarter_turn():
    np.testing.assert_allclose(point(rotate_z(math.pi / 2), [1, 0, 0]), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(point(rotate_y(math.pi / 2), [1, 0, 0]), [0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(point(rotate_x(math.pi / 2), [0, 1, 0]), [0, 0, 1], atol=1e-15)


def test_rotation_matrices_are_orthonormal():
    for m in (rotate_x(0.7), rotate_y(-1.3), rotate_z(2.9)):
        r = m[:3, :3]
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


def test_quat_identity_and_half_turns():
    np.testing.assert_allclose(quat_to_matrix([0, 0, 0, 1]), np.eye(4), atol=1e-15)
    # quaternion (x,y,z,w) for a half turn about Z is (0,0,1,0)
    np.testing.assert_allclose(quat_to_matrix([0, 0, 1, 0]), rotate_z(math.pi),
                               atol=1e-15)


def test_quat_arbitrary_axis_matches_rodrigues():
    axis = normalize(np.array([1.0, 2.0, -0.5]))
    angle = 1.1
    s = math.sin(angle / 2.0)
    q = [axis[0] * s, axis[1] * s, axis[2] * s, math.cos(angle / 2.0)]
    # Rodrigues rotation formula as the independent oracle
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    r_expected = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    np.testing.assert_allclose(quat_to_matrix(q)[:3, :3], r_expected, atol=1e-12)


def test_compose_trs_order_t_r_s():
    t = [1.0, 2.0, 3.0]
    angle = 0.6
    s = [2.0, 2.0, 2.0]
    q = [0, 0, math.sin(angle / 2), math.cos(angle / 2)]
    expected = translate(*t) @ rotate_z(angle) @ scale(*s)
    np.testing.assert_allclose(compose_trs(t, q, s), expected, atol=1e-13)


def test_perspective_depth_endpoints_and_w():
    near, far = 0.5, 50.0
    proj = perspective(math.radians(60), 4 / 3, near, far)
    for z_view, expected_depth in ((-near, 0.0), (-far, 1.0)):
        clip = proj @ np.array([0.0, 0.0, z_view, 1.0])
        assert clip[3] == pytest.approx(-z_view, rel=1e-12)
        assert clip[2] / clip[3] == pytest.approx(expected_depth, abs=1e-12)


def test_perspective_fov_maps_frustum_edge_to_unit():
    fov = math.radians(70)
    near = 1.0
    proj = perspective(fov, 1.0, near, 10.0)
    # a point on the top frustum boundary at the near plane: y = near tan(fov/2)
    y = near * math.tan(fov / 2)
    clip = proj @ np.array([0.0, y, -near, 1.0])
    assert clip[1] / clip[3] == pytest.approx(1.0, rel=1e-12)


def test_perspective_depth_monotone_nonlinear():
    proj = perspective(math.radians(45), 1.0, 0.1, 100.0)
    zs = np.linspace(-0.1, -100.0, 50)
    depths = []
    for z in zs:
        clip = proj @ np.array([0.0, 0.0, z, 1.0])
        depths.append(clip[2] / clip[3])
    d = np.asarray(depths)
    assert np.all(np.diff(d) > 0)
    assert d[0] == pytest.approx(0.0, abs=1e-12)
    assert d[-1] == pytest.approx(1.0, abs=1e-12)


def test_column_major_round_trip_and_layout():
    np.testing.assert_array_equal(mat_from_column_major(range(16)),
                                  np.arange(16.0).reshape(4, 4).T)
    m = translate(1, 2, 3) @ rotate_x(0.3) @ scale(1, 2, 1)
    flat = m.T.ravel()  # column by column, as glTF stores a matrix
    assert flat[12:15].tolist() == [1.0, 2.0, 3.0]  # the translation
    np.testing.assert_array_equal(mat_from_column_major(flat), m)


def test_mat_from_column_major_rejects_wrong_length():
    with pytest.raises(ValueError):
        mat_from_column_major([1.0] * 15)


def test_vec3_and_normalize():
    v = np.array([3.0, 0.0, 4.0])
    assert v.shape == (3,)
    np.testing.assert_allclose(normalize(v), [0.6, 0.0, 0.8], atol=1e-15)
