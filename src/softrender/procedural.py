"""Procedural geometry and ready-made scenes.

These builders back the bundled demo scenes, the interchange demo's
renderable bodies, and a pile of tests that need known geometry without
a file dependency.  Flat-shaded solids duplicate vertices per face so
face normals stay exact; the sphere shares vertices for smooth normals.
"""

from __future__ import annotations

import numpy as np

from .linalg import rotate_y, rotate_z, translate
from .scene import Camera, MaterialPbr, MeshGeometry, PointLight, Scene, SceneNode, \
    refresh_world_transforms


def _flat_mesh(faces) -> MeshGeometry:
    """faces: (F, 3, 3) corner positions; normals from each face plane."""
    faces = np.asarray(faces, dtype=np.float64)
    f = len(faces)
    positions = faces.reshape(-1, 3)
    n = np.cross(faces[:, 1] - faces[:, 0], faces[:, 2] - faces[:, 0])
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    normals = np.repeat(n, 3, axis=0)
    uvs = np.tile(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), (f, 1))
    triangles = np.arange(3 * f, dtype=np.int32).reshape(f, 3)
    return MeshGeometry(positions=positions, normals=normals, uvs=uvs, triangles=triangles)


def cube_geometry(size: float = 1.0, center=(0.0, 0.0, 0.0)) -> MeshGeometry:
    h = size * 0.5
    c = np.asarray(center, dtype=np.float64)
    # six quads, CCW seen from outside
    quads = [
        [(-h, -h, h), (h, -h, h), (h, h, h), (-h, h, h)],      # +z
        [(h, -h, -h), (-h, -h, -h), (-h, h, -h), (h, h, -h)],  # -z
        [(h, -h, h), (h, -h, -h), (h, h, -h), (h, h, h)],      # +x
        [(-h, -h, -h), (-h, -h, h), (-h, h, h), (-h, h, -h)],  # -x
        [(-h, h, h), (h, h, h), (h, h, -h), (-h, h, -h)],      # +y
        [(-h, -h, -h), (h, -h, -h), (h, -h, h), (-h, -h, h)],  # -y
    ]
    faces = []
    for q in quads:
        q = [np.array(p) + c for p in q]
        faces.append([q[0], q[1], q[2]])
        faces.append([q[0], q[2], q[3]])
    return _flat_mesh(faces)


def plane_geometry(size: float = 1.0) -> MeshGeometry:
    """Square in the xz plane, +y normal, centered at the origin."""
    h = size * 0.5
    positions = np.array([[-h, 0, -h], [-h, 0, h], [h, 0, h], [h, 0, -h]], dtype=np.float64)
    normals = np.tile([0.0, 1.0, 0.0], (4, 1))
    uvs = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.float64)
    triangles = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32)
    return MeshGeometry(positions=positions, normals=normals, uvs=uvs, triangles=triangles)


def tetra_geometry(size: float = 1.0) -> MeshGeometry:
    s = size * 0.5
    a = (s, s, s)
    b = (s, -s, -s)
    c = (-s, s, -s)
    d = (-s, -s, s)
    faces = [[a, c, b], [a, b, d], [a, d, c], [b, c, d]]
    return _flat_mesh(faces)


def octa_geometry(size: float = 1.0) -> MeshGeometry:
    s = size * 0.5
    xp, xm = (s, 0, 0), (-s, 0, 0)
    yp, ym = (0, s, 0), (0, -s, 0)
    zp, zm = (0, 0, s), (0, 0, -s)
    faces = [
        [xp, yp, zp], [yp, xm, zp], [xm, ym, zp], [ym, xp, zp],
        [yp, xp, zm], [xm, yp, zm], [ym, xm, zm], [xp, ym, zm],
    ]
    return _flat_mesh(faces)


def sphere_geometry(radius: float = 0.5, lat_bands: int = 8, lon_bands: int = 12) -> MeshGeometry:
    """Lat-long sphere with shared vertices and smooth normals."""
    th = np.linspace(0.0, np.pi, lat_bands + 1)[:, None]
    ph = np.linspace(0.0, 2.0 * np.pi, lon_bands + 1)
    ring = radius * np.sin(th)
    verts = np.stack(np.broadcast_arrays(ring * np.cos(ph), radius * np.cos(th), ring * np.sin(ph)),
                     axis=-1).reshape(-1, 3)
    uvs = np.stack(np.broadcast_arrays(np.arange(lon_bands + 1) / lon_bands,
                                       np.arange(lat_bands + 1)[:, None] / lat_bands),
                   axis=-1).reshape(-1, 2)
    cols = lon_bands + 1
    v00 = (cols * np.arange(lat_bands)[:, None] + np.arange(lon_bands)).ravel()
    v10 = v00 + cols
    quads = np.stack([v00, v00 + 1, v10, v00 + 1, v10 + 1, v10], axis=1).reshape(-1, 2, 3)
    # each quad's two triangles in order; the pole rows keep only their non-degenerate one
    tris = quads[np.stack([v00 >= cols, v10 < lat_bands * cols], axis=1)]
    normals = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return MeshGeometry(positions=verts, normals=normals, uvs=uvs, triangles=tris)


def make_triangle_scene() -> Scene:
    """One triangle, one light, one camera; the smallest end-to-end scene."""
    geo = MeshGeometry(
        positions=np.array([[-1.0, -0.5, 0.0], [1.0, -0.5, 0.0], [0.0, 1.0, 0.0]]),
        normals=np.tile([0.0, 0.0, 1.0], (3, 1)),
        uvs=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int32),
    )
    scene = Scene(
        geometries=[geo],
        materials=[MaterialPbr(base_color=(0.8, 0.3, 0.2), metallic=0.0,
                               roughness=0.4, material_id=0)],
        lights=[PointLight(position=(2.0, 2.0, 4.0), intensity=(30.0, 30.0, 30.0))],
        cameras=[Camera(node="cam", vertical_fov=np.deg2rad(60.0), near=0.1, far=100.0)],
        nodes=[
            SceneNode(name="tri", parent=None, local=np.eye(4), mesh_instance=(0, 0)),
            SceneNode(name="cam", parent=None, local=translate(0.0, 0.2, 3.0)),
        ],
        clear_color=(0.05, 0.07, 0.10),
    )
    refresh_world_transforms(scene)
    return scene


def make_shadow_scene() -> Scene:
    """A blocker floating over a ground plane, lit from above and aside."""
    scene = Scene(
        geometries=[plane_geometry(8.0), cube_geometry(1.0)],
        materials=[
            MaterialPbr(base_color=(0.75, 0.75, 0.78), metallic=0.0, roughness=0.9, material_id=0),
            MaterialPbr(base_color=(0.6, 0.2, 0.2), metallic=0.0, roughness=0.35, material_id=1),
        ],
        lights=[PointLight(position=(1.5, 6.0, 2.0), intensity=(120.0, 120.0, 115.0))],
        cameras=[Camera(node="cam", vertical_fov=np.deg2rad(55.0), near=0.1, far=60.0)],
        nodes=[
            SceneNode(name="ground", parent=None, local=np.eye(4), mesh_instance=(0, 0)),
            SceneNode(name="blocker", parent=None, local=translate(0.0, 1.4, 0.0),
                      mesh_instance=(1, 1)),
            SceneNode(name="cam", parent=None,
                      local=translate(0.0, 2.6, 7.0) @ rotate_y(0.0)),
        ],
        clear_color=(0.04, 0.05, 0.08),
    )
    refresh_world_transforms(scene)
    return scene


def make_demo_scene(node_count: int = 3) -> Scene:
    """Bodies for the interchange demo; node k matches the stub roster.

    The cube geometry is centered off-origin so the stub's RotateZ term
    visibly orbits each body around its own anchor.
    """
    scene = Scene(
        geometries=[cube_geometry(0.7, center=(0.0, 1.2, 0.0))],
        materials=[MaterialPbr(base_color=(0.7, 0.45, 0.2), metallic=0.1,
                               roughness=0.5, material_id=0)],
        lights=[PointLight(position=(1.0, 3.0, 5.0), intensity=(50.0, 48.0, 45.0))],
        cameras=[Camera(node="democam", vertical_fov=np.deg2rad(50.0), near=0.1, far=50.0)],
        nodes=[],
        clear_color=(0.02, 0.02, 0.05),
    )
    for k in range(node_count):
        scene.nodes.append(SceneNode(name=f"body{k}", parent=None,
                                     local=translate(float(k), 0.0, 0.0),
                                     mesh_instance=(0, 0)))
    mid = (node_count - 1) / 2.0
    scene.nodes.append(SceneNode(name="democam", parent=None,
                                 local=translate(mid, 0.0, 7.5)))
    refresh_world_transforms(scene)
    return scene


def demo_node_names(node_count: int = 3) -> list[str]:
    return [f"body{k}" for k in range(node_count)]


def make_bench_scene() -> Scene:
    """Mixed-primitive scene sized so a 5x duplicated lattice still fits
    the camera frustum (the scaling series must rasterize every clone)."""
    geometries = [
        plane_geometry(12.0),
        cube_geometry(1.3),
        tetra_geometry(1.5),
        octa_geometry(1.6),
        sphere_geometry(0.8, lat_bands=10, lon_bands=16),
    ]
    materials = [
        MaterialPbr(base_color=(0.65, 0.65, 0.68), metallic=0.0, roughness=0.85, material_id=0),
        MaterialPbr(base_color=(0.80, 0.25, 0.20), metallic=0.0, roughness=0.40, material_id=1),
        MaterialPbr(base_color=(0.20, 0.55, 0.80), metallic=0.0, roughness=0.25, material_id=2),
        MaterialPbr(base_color=(0.95, 0.85, 0.50), metallic=1.0, roughness=0.30, material_id=3),
        MaterialPbr(base_color=(0.30, 0.70, 0.35), metallic=0.0, roughness=0.60, material_id=4),
        MaterialPbr(base_color=(0.85, 0.85, 0.90), metallic=1.0, roughness=0.15, material_id=5),
        MaterialPbr(base_color=(0.55, 0.30, 0.70), metallic=0.3, roughness=0.50, material_id=6),
    ]
    nodes = [
        SceneNode(name="ground", parent=None, local=translate(0, -1.5, 0), mesh_instance=(0, 0)),
        SceneNode(name="cube.a", parent=None,
                  local=translate(-1.8, -0.85, -1.0) @ rotate_y(0.4), mesh_instance=(1, 1)),
        SceneNode(name="cube.b", parent=None,
                  local=translate(2.0, -0.85, 0.8) @ rotate_y(-0.7), mesh_instance=(1, 2)),
        SceneNode(name="tetra.a", parent=None,
                  local=translate(0.1, -0.7, -2.2) @ rotate_z(0.3), mesh_instance=(2, 3)),
        SceneNode(name="octa.a", parent=None,
                  local=translate(-2.4, -0.6, 1.6), mesh_instance=(3, 4)),
        SceneNode(name="octa.b", parent=None,
                  local=translate(1.0, 0.4, -0.4) @ rotate_y(0.9), mesh_instance=(3, 5)),
        SceneNode(name="sphere.a", parent=None,
                  local=translate(-0.4, 0.1, 1.9), mesh_instance=(4, 6)),
        SceneNode(name="sphere.b", parent=None,
                  local=translate(3.0, 0.3, -1.7), mesh_instance=(4, 1)),
        SceneNode(name="benchcam", parent=None, local=translate(20.7, 5.2, 52.0)),
    ]
    scene = Scene(
        geometries=geometries,
        materials=materials,
        lights=[
            PointLight(position=(6.0, 9.0, 8.0), intensity=(220.0, 215.0, 205.0)),
            PointLight(position=(-7.0, 5.0, -3.0), intensity=(90.0, 95.0, 110.0)),
        ],
        cameras=[Camera(node="benchcam", vertical_fov=np.deg2rad(60.0), near=0.5, far=140.0)],
        nodes=nodes,
        clear_color=(0.03, 0.04, 0.06),
    )
    refresh_world_transforms(scene)
    return scene
