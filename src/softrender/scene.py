"""Scene graph: node hierarchy over global type-specific resource containers.

Nodes form a forest and point into shared containers of geometries,
materials, lights and cameras by dense integer id.  World transforms are
kept per scene in a name-keyed table; external pose updates overwrite a
node's world matrix directly (the update stream carries world-space
matrices, so recomputing from the hierarchy afterwards would be wrong).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import translate


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
        base_color = np.asarray(self.base_color, dtype=np.float64)
        if not (np.isfinite(base_color).all() and math.isfinite(self.metallic)
                and math.isfinite(self.roughness)):
            raise ValidationError(f"material {self.material_id}: non-finite factor")
        self.base_color = np.clip(base_color, 0.0, 1.0)
        self.metallic = float(np.clip(self.metallic, 0.0, 1.0))
        self.roughness = float(np.clip(self.roughness, 0.0, 1.0))


@dataclass
class PointLight:
    position: np.ndarray   # (3,) world meters
    intensity: np.ndarray  # (3,) RGB radiant intensity, relative units

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        intensity = np.asarray(self.intensity, dtype=np.float64)
        if not (np.isfinite(self.position).all() and np.isfinite(intensity).all()):
            raise ValidationError("point light: non-finite position or intensity")
        self.intensity = np.maximum(intensity, 0.0)


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
        if not (0.0 < self.near < self.far < np.inf):  # False for a NaN too
            raise ValidationError(f"camera '{self.node}': need 0 < near < far < inf")


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

    def mesh_nodes(self) -> list[SceneNode]:
        return [n for n in self.nodes if n.mesh_instance is not None]

    def total_triangles(self) -> int:
        per_geometry = [g.triangle_count for g in self.geometries]
        return sum(per_geometry[n.mesh_instance[0]] for n in self.nodes if n.mesh_instance is not None)


def mesh_instances(scene: Scene) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Names, int64 geometry ids and int64 material ids of the mesh-bearing nodes, in node order."""
    mesh = scene.mesh_nodes()
    geometry, material = np.array(list(zip(*[n.mesh_instance for n in mesh])),
                                  dtype=np.int64).reshape(2, -1)
    return [n.name for n in mesh], geometry, material


def check_unique_names(names: list) -> set:
    """The set of names; ValidationError naming the first duplicate, in sort order."""
    unique = set(names)
    if len(unique) != len(names):
        dup = min(n for n, count in Counter(names).items() if count > 1)
        raise ValidationError(f"duplicate node name '{dup}'")
    return unique


def check_references(scene: Scene, mesh_names, geometry, material) -> None:
    """ValidationError unless node names are unique, every mesh node's ids
    index the geometry and material containers, and every camera's node
    exists; mesh_names, geometry and material are mesh_instances(scene)."""
    names = check_unique_names([n.name for n in scene.nodes])
    for what, ids, count in (("geometry", geometry, len(scene.geometries)),
                             ("material", material, len(scene.materials))):
        bad = (ids < 0) | (ids >= count)
        if bad.any():
            k = int(bad.argmax())
            raise ValidationError(f"node '{mesh_names[k]}' references missing {what} {ids[k]}")
    for cam in scene.cameras:
        if cam.node not in names:
            raise ValidationError(f"camera references missing node '{cam.node}'")


def mesh_lookup(table, mesh_names) -> list:
    """[table[name] for name in mesh_names]; ValidationError names the first
    mesh node the name-keyed table (scene.world, or a WorldTable's rows) lacks."""
    try:
        return [table[name] for name in mesh_names]
    except KeyError as exc:
        raise ValidationError(f"mesh node '{exc.args[0]}' has no world transform") from None


def compute_world_transforms(scene: Scene) -> dict[str, np.ndarray]:
    """world(n) = world(parent(n)) @ local(n); roots use the identity parent."""
    by_name = {n.name: n for n in scene.nodes}
    world: dict[str, np.ndarray] = {}
    walked: set[str] = set()  # nodes a walk has left for their parent
    for n in scene.nodes:
        node, path = by_name[n.name], []
        while node.parent is not None and node.parent not in world:  # up to a resolved parent
            if node.parent not in by_name:
                raise ValidationError(
                    f"node '{node.name}' references missing parent '{node.parent}'")
            walked.add(node.name)
            if node.parent in walked:
                raise ValidationError(f"cycle in node hierarchy at '{node.parent}'")
            path.append(node)
            node = by_name[node.parent]
        world[node.name] = (node.local.copy() if node.parent is None
                            else world[node.parent] @ node.local)
        for node in reversed(path):
            world[node.name] = world[node.parent] @ node.local
    return world


def refresh_world_transforms(scene: Scene) -> None:
    scene.world = compute_world_transforms(scene)


def check_finite(names, mats: np.ndarray, what: str) -> None:
    """ValidationError naming the first of the (N, n, n) mats that holds a NaN or inf
    as "{what} '{name}'"."""
    if not np.isfinite(mats).all():  # the per-matrix pass runs only on failure
        finite = np.isfinite(mats).all(axis=(1, 2))
        raise ValidationError(f"{what} '{names[int(np.argmin(finite))]}' holds a non-finite matrix")


def check_invertible(names, mats: np.ndarray, what: str) -> np.ndarray:
    """The inverses of the (N, n, n) mats; ValidationError unless every one is finite and invertible.

    The message names the first bad matrix as "{what} '{name}'".  This is
    the one place the package inverts a transform (poses, unposed table
    rows, TLAS instances, the camera, normal matrices), so a bad one
    never surfaces as a LinAlgError or renders as garbage.
    """
    check_finite(names, mats, what)
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        for name, mat in zip(names, mats):  # find the culprit
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"{what} '{name}' holds a singular matrix ({exc})") from exc
        raise


class WorldTable:
    """Every world transform of a scene as a row of one (N, 4, 4) array.

    Built from scene.world; rows maps a node name to its row.  Applying a
    snapshot makes the scene.world entry of each name it poses a view of
    that name's row, once per roster, so scene.world shows every applied
    pose.  scene.world must not be written while the table is in use.
    Rows are looked up once per names list: a snapshot's list of names
    (a reader's roster) must not change after it is applied.
    The table keeps the inverse of every row whose pose came with a
    checked inverse and checks and inverts the others only when asked.
    A snapshot with the last applied names list and matrices byte for byte
    equal to the last applied ones (a reader that saw no new generation)
    is not checked or written again.
    """

    def __init__(self, scene: Scene):
        self.world = scene.world
        self.names = list(scene.world)
        self.rows = dict(zip(self.names, range(len(self.names))))
        self.matrices = np.concatenate([np.zeros((0, 4)), *scene.world.values()],
                                       dtype=np.float64).reshape(-1, 4, 4)
        self._inverses = np.empty_like(self.matrices)
        self._inverted = np.zeros(len(self.matrices), dtype=bool)
        self._roster = (None, None, None, 0)  # names, source entries, their rows, unmatched
        self._applied = b""  # the bytes of the last matrices applied under that names list

    def apply(self, snapshot) -> int:
        """Overwrite world transforms from an interchange TransformSnapshot.

        Matching is by node name; the hierarchy is bypassed on purpose since
        the table carries world-space matrices.  A name given twice ends at
        its last matrix.  Returns the number of snapshot entries that matched
        no scene.world name (non-fatal, surfaced in frame stats).  Raises
        ValidationError, leaving the table untouched, if any matrix is
        non-finite or singular, checked in that order (one that is not 4x4
        fails when the snapshot is built).
        """
        names, mats = snapshot.names, snapshot.matrices
        raw = mats.tobytes()  # bytes, not values: -0.0 for 0.0 is a change
        if names is self._roster[0] and raw == self._applied:
            return self._roster[3]
        inverses = check_invertible(names, mats, "pose snapshot entry")
        if names is not self._roster[0]:  # a reader's snapshots share one roster list
            rows = np.fromiter((self.rows.get(n, -1) for n in names), np.int64, len(names))
            # a name given twice keeps its last entry: fancy-index writes have no order
            last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
            source = last[rows[last] >= 0]
            self._roster = (names, source, rows[source], int((rows < 0).sum()))
            self.world.update((names[k], self.matrices[rows[k]]) for k in source)
        _, source, rows, unmatched = self._roster
        self.matrices[rows] = mats[source]
        self._inverses[rows] = inverses[source]
        self._inverted[rows] = True
        self._applied = raw
        return unmatched

    def inverses(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), 4, 4) inverses of those rows, inverting only the rows that lack one."""
        stale = rows[~self._inverted[rows]]
        if len(stale):
            self._inverses[stale] = check_invertible([self.names[r] for r in stale],
                                                     self.matrices[stale], "node")
            self._inverted[stale] = True
        return self._inverses[rows]


def scene_world_aabb(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """World-space bounds over all mesh instances ((3,) min, (3,) max)."""
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for n in scene.mesh_nodes():
        geo = scene.geometries[n.mesh_instance[0]]
        if not geo.vertex_count:  # no triangles either: drawn and traced as absent
            continue
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
    taken = {n.name for n in out.nodes}
    for node in scene.mesh_nodes():
        base_world = scene.world[node.name]
        for j in range(1, copies + 1):
            off = _lattice_offset(j, spacing)
            clone_name = f"{node.name}~{j}"
            if clone_name in taken:
                raise ValidationError(f"clone name collision '{clone_name}'")
            taken.add(clone_name)
            local = translate(*off) @ base_world
            out.nodes.append(SceneNode(name=clone_name, parent=None, local=local,
                                       mesh_instance=node.mesh_instance))
            out.world[clone_name] = local.copy()
    return out

