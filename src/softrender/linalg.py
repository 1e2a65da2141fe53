"""Small-vector / 4x4-matrix helpers used throughout the engine.

Vectors are plain numpy arrays of shape (3,) and transforms are (4, 4)
float64 arrays acting on column vectors (world = M @ local).  The
column-major convention only matters at serialization boundaries (glTF
buffers and the shared transform table store the 16 floats column by
column); in-memory math is ordinary numpy.
"""

from __future__ import annotations

import math

import numpy as np

def normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n == 0.0, 1.0, n)


def translate(x, y, z) -> np.ndarray:
    m = np.eye(4, dtype=np.float64)
    m[0, 3] = x
    m[1, 3] = y
    m[2, 3] = z
    return m


def scale(x, y, z) -> np.ndarray:
    m = np.eye(4, dtype=np.float64)
    m[0, 0] = x
    m[1, 1] = y
    m[2, 2] = z
    return m


def rotate_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4, dtype=np.float64)
    m[1, 1], m[1, 2] = c, -s
    m[2, 1], m[2, 2] = s, c
    return m


def rotate_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4, dtype=np.float64)
    m[0, 0], m[0, 2] = c, s
    m[2, 0], m[2, 2] = -s, c
    return m


def rotate_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4, dtype=np.float64)
    m[0, 0], m[0, 1] = c, -s
    m[1, 0], m[1, 1] = s, c
    return m


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w), glTF component order, to a rotation."""
    x, y, z, w = (float(c) for c in q)
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if n == 0.0:
        return np.eye(4, dtype=np.float64)
    x, y, z, w = x / n, y / n, z / n, w / n
    m = np.eye(4, dtype=np.float64)
    m[0, 0] = 1 - 2 * (y * y + z * z)
    m[0, 1] = 2 * (x * y - z * w)
    m[0, 2] = 2 * (x * z + y * w)
    m[1, 0] = 2 * (x * y + z * w)
    m[1, 1] = 1 - 2 * (x * x + z * z)
    m[1, 2] = 2 * (y * z - x * w)
    m[2, 0] = 2 * (x * z - y * w)
    m[2, 1] = 2 * (y * z + x * w)
    m[2, 2] = 1 - 2 * (x * x + y * y)
    return m


def compose_trs(translation, rotation_quat, scale_xyz) -> np.ndarray:
    t = translate(*translation)
    r = quat_to_matrix(rotation_quat)
    s = scale(*scale_xyz)
    return t @ r @ s


def dot_rows(a: np.ndarray, b: np.ndarray, single: np.ndarray) -> np.ndarray:
    """Row-wise a . b of (N, 3) rows, rounded as a matrix-vector product rounds.

    A product ``A @ v`` over a group of rows rounds one way for a group of
    one row and another for two or more.  Row i takes the one-row product
    where ``single[i]``, else a stacked two-row one, so it keeps the bits
    of its group's product.
    """
    out = (np.stack([a, a], axis=1) @ b[:, :, None])[:, 0, 0]
    out[single] = (a[single, None, :] @ b[single, :, None])[:, 0, 0]
    return out


def perspective(vertical_fov: float, aspect: float, near: float, far: float) -> np.ndarray:
    """Right-handed view space (camera looks down -Z), depth range [0, 1].

    Maps z = -near to depth 0 and z = -far to depth 1, Vulkan style.
    """
    f = 1.0 / math.tan(vertical_fov / 2.0)
    m = np.zeros((4, 4), dtype=np.float64)
    m[0, 0] = f / aspect
    m[1, 1] = f
    m[2, 2] = far / (near - far)
    m[2, 3] = near * far / (near - far)
    m[3, 2] = -1.0
    return m


def mat_from_column_major(values) -> np.ndarray:
    a = np.asarray(list(values), dtype=np.float64)
    if a.shape != (16,):
        raise ValueError("expected 16 matrix components")
    return a.reshape((4, 4), order="F")
