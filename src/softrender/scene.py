"""Scene graph: node hierarchy over global type-specific resource containers.

Nodes form a forest and point into shared containers of geometries,
materials, lights and cameras by dense integer id.  World transforms are
kept per scene in a name-keyed table; external pose updates overwrite a
node's world matrix directly (the update stream carries world-space
matrices, so recomputing from the hierarchy afterwards would be wrong).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import mat_from_column_major, mat_to_column_major, translate


@dataclass
class MeshGeometry:
    """Indexed triangle mesh with per-vertex normal and uv."""

    positions: np.ndarray  # (N, 3) float64, object-space meters
    normals: np.ndarray    # (N, 3) float64, unit length
    uvs: np.ndarray        # (N, 2) float64 in [0, 1]
    triangles: np.ndarray  # (M, 3) int32 vertex indices

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        self.uvs = np.asarray(self.uvs, dtype=np.float64).reshape(-1, 2)
        self.triangles = np.asarray(self.triangles, dtype=np.int32).reshape(-1, 3)

    @property
    def vertex_count(self) -> int:
        return len(self.positions)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)


@dataclass
class MaterialPbr:
    """Metallic-roughness factors; all fields clamped to range on load."""

    base_color: np.ndarray  # (3,) linear RGB in [0, 1]
    metallic: float
    roughness: float
    material_id: int

    def __post_init__(self):
        self.base_color = np.clip(np.asarray(self.base_color, dtype=np.float64), 0.0, 1.0)
        self.metallic = float(np.clip(self.metallic, 0.0, 1.0))
        self.roughness = float(np.clip(self.roughness, 0.0, 1.0))


@dataclass
class PointLight:
    position: np.ndarray   # (3,) world meters
    intensity: np.ndarray  # (3,) RGB radiant intensity, relative units

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.intensity = np.maximum(np.asarray(self.intensity, dtype=np.float64), 0.0)


@dataclass
class Camera:
    """Perspective camera; aspect comes from the output resolution."""

    node: str
    vertical_fov: float  # radians in (0, pi)
    near: float
    far: float

    def __post_init__(self):
        if not (0.0 < self.vertical_fov < np.pi):
            raise ValidationError(f"camera '{self.node}': vertical fov out of range")
        if self.near <= 0.0 or self.far <= self.near:
            raise ValidationError(f"camera '{self.node}': need 0 < near < far")


@dataclass
class SceneNode:
    name: str
    parent: str | None
    local: np.ndarray  # (4, 4)
    mesh_instance: tuple[int, int] | None = None  # (geometry id, material id)

    def __post_init__(self):
        self.local = np.asarray(self.local, dtype=np.float64).reshape(4, 4)


@dataclass
class Scene:
    geometries: list[MeshGeometry] = field(default_factory=list)
    materials: list[MaterialPbr] = field(default_factory=list)
    lights: list[PointLight] = field(default_factory=list)
    cameras: list[Camera] = field(default_factory=list)
    nodes: list[SceneNode] = field(default_factory=list)
    clear_color: np.ndarray = None  # (3,) linear RGB
    world: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.clear_color is None:
            self.clear_color = np.zeros(3, dtype=np.float64)
        self.clear_color = np.clip(np.asarray(self.clear_color, dtype=np.float64), 0.0, 1.0)

    def node_by_name(self, name: str) -> SceneNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def mesh_nodes(self) -> list[SceneNode]:
        return [n for n in self.nodes if n.mesh_instance is not None]

    def total_triangles(self) -> int:
        per_geometry = [g.triangle_count for g in self.geometries]
        return sum(per_geometry[n.mesh_instance[0]] for n in self.nodes if n.mesh_instance is not None)


def validate_scene(scene: Scene) -> None:
    """Check container references, unique names, and the forest property."""
    names = [n.name for n in scene.nodes]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})[0]
        raise ValidationError(f"duplicate node name '{dup}'")
    name_set = set(names)
    for n in scene.nodes:
        if n.parent is not None and n.parent not in name_set:
            raise ValidationError(f"node '{n.name}' references missing parent '{n.parent}'")
        if n.mesh_instance is not None:
            gid, mid = n.mesh_instance
            if not (0 <= gid < len(scene.geometries)):
                raise ValidationError(f"node '{n.name}' references missing geometry {gid}")
            if not (0 <= mid < len(scene.materials)):
                raise ValidationError(f"node '{n.name}' references missing material {mid}")
    for cam in scene.cameras:
        if cam.node not in name_set:
            raise ValidationError(f"camera references missing node '{cam.node}'")
    compute_world_transforms(scene)  # raises on parent cycles


def compute_world_transforms(scene: Scene) -> dict[str, np.ndarray]:
    """world(n) = world(parent(n)) @ local(n); roots use the identity parent."""
    by_name = {n.name: n for n in scene.nodes}
    world: dict[str, np.ndarray] = {}
    state: dict[str, int] = {}  # 1 = in progress, 2 = done

    def resolve(name: str) -> np.ndarray:
        if state.get(name) == 2:
            return world[name]
        if state.get(name) == 1:
            raise ValidationError(f"cycle in node hierarchy at '{name}'")
        state[name] = 1
        node = by_name[name]
        if node.parent is None:
            m = node.local.copy()
        else:
            if node.parent not in by_name:
                raise ValidationError(f"node '{name}' references missing parent '{node.parent}'")
            m = resolve(node.parent) @ node.local
        world[name] = m
        state[name] = 2
        return m

    for n in scene.nodes:
        resolve(n.name)
    return world


def refresh_world_transforms(scene: Scene) -> None:
    scene.world = compute_world_transforms(scene)


def check_invertible(names, mats: np.ndarray, what: str) -> None:
    """Raise ValidationError unless every one of the (N, n, n) mats is finite and invertible.

    The message names the first bad matrix as "{what} '{name}'".  The TLAS
    build and the renderer invert every node transform, so a matrix that
    fails here would otherwise surface as a LinAlgError mid-frame; the
    renderer passes the 3x3 blocks it inverts for normals.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(f"{what} '{names[int(np.argmin(finite))]}' holds a non-finite matrix")
    try:
        np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        for name, mat in zip(names, mats):  # find the culprit
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"{what} '{name}' holds a singular matrix ({exc})") from exc


def apply_transform_table(scene: Scene, snapshot) -> int:
    """Overwrite node world transforms from an interchange snapshot.

    Matching is by node name; the hierarchy is bypassed on purpose since
    the table carries world-space matrices.  Returns the number of
    snapshot records that matched no scene node (non-fatal, surfaced in
    frame stats).  Raises ValidationError, leaving the scene untouched,
    if any matrix in the snapshot is not 16 values, non-finite or singular.
    """
    try:
        mats = np.array([np.reshape(mat, (4, 4)) for _, mat in snapshot.entries],
                        dtype=np.float64).reshape(-1, 4, 4)
    except ValueError as exc:
        raise ValidationError(f"pose snapshot holds a matrix that is not 4x4 ({exc})") from exc
    check_invertible([name for name, _ in snapshot.entries], mats, "pose snapshot entry")
    unmatched = 0
    for (name, _), mat in zip(snapshot.entries, mats):
        if name in scene.world:
            scene.world[name] = mat.copy()
        else:
            unmatched += 1
    return unmatched


def scene_world_aabb(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """World-space bounds over all mesh instances ((3,) min, (3,) max)."""
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for n in scene.mesh_nodes():
        geo = scene.geometries[n.mesh_instance[0]]
        m = scene.world[n.name]
        pts = geo.positions @ m[:3, :3].T + m[:3, 3]
        lo = np.minimum(lo, pts.min(axis=0))
        hi = np.maximum(hi, pts.max(axis=0))
    if not np.all(np.isfinite(lo)):
        return np.zeros(3), np.zeros(3)
    return lo, hi


def _lattice_offset(index: int, spacing: np.ndarray) -> np.ndarray:
    """Deterministic clone placement: 4 x 4 cells per z layer."""
    ix = index % 4
    iy = (index // 4) % 4
    iz = index // 16
    return np.array([ix * spacing[0], iy * spacing[1], -iz * spacing[2]], dtype=np.float64)


def duplicate_scene_geometry(scene: Scene, doublings: int) -> Scene:
    """Clone every mesh-bearing node 2**doublings - 1 extra times.

    Clones are new instances sharing geometry and material ids, inserted
    as root nodes with a deterministic lateral lattice offset, so the
    triangle count grows by exactly 2**doublings while the geometry
    container stays untouched.
    """
    if doublings < 0:
        raise ValueError("doublings must be >= 0")
    out = Scene(
        geometries=scene.geometries,
        materials=scene.materials,
        lights=scene.lights,
        cameras=scene.cameras,
        nodes=list(scene.nodes),
        clear_color=scene.clear_color.copy(),
    )
    out.world = {k: v.copy() for k, v in scene.world.items()}
    if doublings == 0:
        return out

    lo, hi = scene_world_aabb(scene)
    spacing = np.maximum(hi - lo, 1e-6) * 1.15
    copies = (1 << doublings) - 1
    for node in scene.mesh_nodes():
        base_world = scene.world[node.name]
        for j in range(1, copies + 1):
            off = _lattice_offset(j, spacing)
            clone_name = f"{node.name}~{j}"
            if any(n.name == clone_name for n in out.nodes):
                raise ValidationError(f"clone name collision '{clone_name}'")
            local = translate(*off) @ base_world
            out.nodes.append(SceneNode(name=clone_name, parent=None, local=local,
                                       mesh_instance=node.mesh_instance))
            out.world[clone_name] = local.copy()
    return out


# ---------------------------------------------------------------------------
# Debug dump: a JSON form of every container, exact enough to round-trip.

def scene_to_dump(scene: Scene) -> str:
    doc = {
        "geometries": [
            {
                "positions": g.positions.flatten().tolist(),
                "normals": g.normals.flatten().tolist(),
                "uvs": g.uvs.flatten().tolist(),
                "triangles": g.triangles.flatten().tolist(),
            }
            for g in scene.geometries
        ],
        "materials": [
            {
                "base_color": m.base_color.tolist(),
                "metallic": m.metallic,
                "roughness": m.roughness,
                "material_id": m.material_id,
            }
            for m in scene.materials
        ],
        "lights": [
            {"position": l.position.tolist(), "intensity": l.intensity.tolist()}
            for l in scene.lights
        ],
        "cameras": [
            {"node": c.node, "vertical_fov": c.vertical_fov, "near": c.near, "far": c.far}
            for c in scene.cameras
        ],
        "nodes": [
            {
                "name": n.name,
                "parent": n.parent,
                "local": mat_to_column_major(n.local),
                "mesh_instance": list(n.mesh_instance) if n.mesh_instance else None,
            }
            for n in scene.nodes
        ],
        "clear_color": scene.clear_color.tolist(),
        "world": {k: mat_to_column_major(v) for k, v in scene.world.items()},
    }
    return json.dumps(doc, indent=1)


def scene_from_dump(text: str) -> Scene:
    doc = json.loads(text)
    scene = Scene(
        geometries=[
            MeshGeometry(
                positions=np.array(g["positions"]).reshape(-1, 3),
                normals=np.array(g["normals"]).reshape(-1, 3),
                uvs=np.array(g["uvs"]).reshape(-1, 2),
                triangles=np.array(g["triangles"], dtype=np.int32).reshape(-1, 3),
            )
            for g in doc["geometries"]
        ],
        materials=[
            MaterialPbr(base_color=m["base_color"], metallic=m["metallic"],
                        roughness=m["roughness"], material_id=m["material_id"])
            for m in doc["materials"]
        ],
        lights=[PointLight(position=l["position"], intensity=l["intensity"])
                for l in doc["lights"]],
        cameras=[Camera(node=c["node"], vertical_fov=c["vertical_fov"],
                        near=c["near"], far=c["far"]) for c in doc["cameras"]],
        nodes=[
            SceneNode(
                name=n["name"],
                parent=n["parent"],
                local=mat_from_column_major(n["local"]),
                mesh_instance=tuple(n["mesh_instance"]) if n["mesh_instance"] else None,
            )
            for n in doc["nodes"]
        ],
        clear_color=np.array(doc["clear_color"]),
    )
    scene.world = {k: mat_from_column_major(v) for k, v in doc["world"].items()}
    return scene
