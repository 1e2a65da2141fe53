"""glTF 2.0 loader for a deliberately narrow subset.

Supported: JSON form (not GLB), embedded base64 or external buffers,
node hierarchies with matrix or TRS transforms, single-primitive
triangle meshes with float32 POSITION / NORMAL / TEXCOORD_0 and
uint16/uint32 indices, pbrMetallicRoughness factor-only materials,
perspective cameras, and KHR_lights_punctual point lights.

Anything outside that subset raises UnsupportedFeatureError naming the
feature rather than degrading silently; structural problems (dangling
indices, duplicate names, cycles, non-finite or singular node transforms,
missing required keys, values of the wrong JSON type) raise
ValidationError.
"""

from __future__ import annotations

import base64
import binascii
import json
from pathlib import Path

import numpy as np

from .errors import ParseError, UnsupportedFeatureError, ValidationError
from .linalg import compose_trs, mat_from_column_major, normalize
from .scene import (Camera, MaterialPbr, MeshGeometry, PointLight, Scene, SceneNode,
                    check_invertible, check_unique_names, compute_world_transforms)

_COMPONENT_DTYPES = {
    5120: ("<i1", 1),
    5121: ("<u1", 1),
    5122: ("<i2", 2),
    5123: ("<u2", 2),
    5125: ("<u4", 4),
    5126: ("<f4", 4),
}
_TYPE_COUNTS = {"SCALAR": 1, "VEC2": 2, "VEC3": 3, "VEC4": 4, "MAT4": 16}
_ALLOWED_EXTENSIONS = {"KHR_lights_punctual"}
_ALLOWED_ATTRIBUTES = {"POSITION", "NORMAL", "TEXCOORD_0"}


def load_gltf(path) -> Scene:
    path = Path(path)
    return parse_gltf_subset(path.read_bytes(), base_dir=path.parent)


def generate_vertex_normals(positions: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals.

    Each face contributes its unnormalized cross product (length
    proportional to area) to its three vertices; the sums are then
    normalized.  Vertices used by no face get +Z.
    """
    positions = np.asarray(positions, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    acc = np.zeros_like(positions)
    a = positions[triangles[:, 0]]
    b = positions[triangles[:, 1]]
    c = positions[triangles[:, 2]]
    face = np.cross(b - a, c - a)
    for k in range(3):
        np.add.at(acc, triangles[:, k], face)
    norms = np.linalg.norm(acc, axis=1)
    degenerate = norms < 1e-20
    acc[degenerate] = (0.0, 0.0, 1.0)
    return normalize(acc)


class _Document:
    """Decoded JSON plus resolved binary buffers and accessor readers."""

    def __init__(self, doc: dict, base_dir):
        self.doc = doc
        self.base_dir = base_dir
        self.buffers = [self._load_buffer(i, b) for i, b in enumerate(doc.get("buffers", []))]

    def _load_buffer(self, index: int, buf: dict) -> bytes:
        uri = buf.get("uri")
        if uri is None:
            raise ValidationError(f"buffer {index} has no uri (GLB-style buffers unsupported)")
        if uri.startswith("data:"):
            marker = ";base64,"
            pos = uri.find(marker)
            if pos < 0:
                raise UnsupportedFeatureError("non-base64 data uri")
            try:
                data = base64.b64decode(uri[pos + len(marker):])
            except binascii.Error as e:
                raise ValidationError(f"buffer {index} has bad base64 data ({e})") from None
        else:
            if self.base_dir is None:
                raise ValidationError(f"buffer {index} uses external uri '{uri}' but no base directory was given")
            p = Path(self.base_dir) / uri
            if not p.is_file():
                raise ValidationError(f"buffer {index} uri '{uri}' not found")
            data = p.read_bytes()
        if len(data) < buf.get("byteLength", 0):
            raise ValidationError(f"buffer {index} shorter than declared byteLength")
        return data

    def read_accessor(self, index: int, want_type: str, want_ctypes, label: str,
                      want_count: int | None = None) -> np.ndarray:
        """The accessor's values as float64 (float data) or int64, one row per
        element; its type must be want_type, its componentType one of
        want_ctypes, and its count want_count when given.  Float data must be
        finite."""
        accessors = self.doc.get("accessors", [])
        if not (0 <= index < len(accessors)):
            raise ValidationError(f"{label} accessor index {index} out of range")
        acc = accessors[index]
        if acc["type"] != want_type:
            raise ValidationError(f"{label} accessor has type {acc['type']}, expected {want_type}")
        if acc["componentType"] not in want_ctypes:
            raise UnsupportedFeatureError(f"{label} component type {acc['componentType']}")
        count = acc["count"]
        if want_count is not None and count != want_count:
            raise ValidationError(f"{label} accessor has {count} entries for "
                                  f"{want_count} vertices")
        if "sparse" in acc:
            raise UnsupportedFeatureError("sparse accessor")
        if acc.get("normalized", False):
            raise UnsupportedFeatureError("normalized accessor")
        dtype, csize = _COMPONENT_DTYPES[acc["componentType"]]
        ncomp = _TYPE_COUNTS[want_type]
        if count < 1:
            raise ValidationError(f"accessor {index} is empty")
        if "bufferView" not in acc:
            raise ValidationError(f"accessor {index} has no bufferView")
        views = self.doc.get("bufferViews", [])
        if not (0 <= acc["bufferView"] < len(views)):
            raise ValidationError(f"accessor {index}: bufferView index out of range")
        view = views[acc["bufferView"]]
        if not (0 <= view["buffer"] < len(self.buffers)):
            raise ValidationError(f"accessor {index}: buffer index out of range")
        data = self.buffers[view["buffer"]]
        elem = csize * ncomp
        stride = view.get("byteStride", elem)
        if stride < elem:
            raise ValidationError(f"accessor {index}: byteStride {stride} is below the "
                                  f"element size {elem}")
        if view.get("byteOffset", 0) < 0 or acc.get("byteOffset", 0) < 0:
            raise ValidationError(f"accessor {index}: negative byteOffset")
        start = view.get("byteOffset", 0) + acc.get("byteOffset", 0)
        end = start + stride * (count - 1) + elem
        if end > len(data) or end > view.get("byteOffset", 0) + view.get("byteLength", len(data)):
            raise ValidationError(f"accessor {index} overruns its buffer view")
        raw = np.frombuffer(data, dtype=np.uint8, offset=start, count=stride * (count - 1) + elem)
        if stride == elem:
            flat = raw.view(dtype)
        else:
            # gather strided elements byte by byte, then reinterpret
            rows = np.arange(count)[:, None] * stride + np.arange(elem)[None, :]
            flat = np.ascontiguousarray(raw[rows]).view(dtype).reshape(-1)
        out = flat.astype(np.float64 if dtype == "<f4" else np.int64)
        if dtype == "<f4" and not np.isfinite(out).all():
            raise ValidationError(f"{label} accessor {index} holds non-finite values")
        return out.reshape(count, ncomp) if ncomp > 1 else out.reshape(count)


def _require_version(doc: dict) -> None:
    asset = doc.get("asset")
    if not isinstance(asset, dict) or "version" not in asset:
        raise ValidationError("missing asset.version")
    version = str(asset["version"])
    if not version.startswith("2."):
        raise UnsupportedFeatureError(f"glTF version {version}")


def _reject_global_features(doc: dict) -> None:
    for ext in doc.get("extensionsRequired", []):
        if ext not in _ALLOWED_EXTENSIONS:
            raise UnsupportedFeatureError(f"extension {ext}")
    if doc.get("animations"):
        raise UnsupportedFeatureError("animations")
    if doc.get("skins"):
        raise UnsupportedFeatureError("skinning")


def _parse_material(index: int, mat: dict) -> MaterialPbr:
    for key in ("normalTexture", "occlusionTexture", "emissiveTexture"):
        if key in mat:
            raise UnsupportedFeatureError("textures")
    if any(abs(v) > 0.0 for v in mat.get("emissiveFactor", [0, 0, 0])):
        raise UnsupportedFeatureError("emissive materials")
    if mat.get("alphaMode", "OPAQUE") != "OPAQUE":
        raise UnsupportedFeatureError(f"alpha mode {mat['alphaMode']}")
    pbr = mat.get("pbrMetallicRoughness", {})
    if "baseColorTexture" in pbr or "metallicRoughnessTexture" in pbr:
        raise UnsupportedFeatureError("textures")
    base = pbr.get("baseColorFactor", [1.0, 1.0, 1.0, 1.0])
    if len(base) == 4 and base[3] != 1.0:
        raise UnsupportedFeatureError("base color alpha")
    return MaterialPbr(
        base_color=np.asarray(base[:3], dtype=np.float64),
        metallic=pbr.get("metallicFactor", 1.0),
        roughness=pbr.get("roughnessFactor", 1.0),
        material_id=index,
    )


def _parse_camera(index: int, cam: dict, node_name: str) -> Camera:
    if cam.get("type") != "perspective":
        raise UnsupportedFeatureError(f"{cam.get('type', 'unknown')} camera")
    p = cam.get("perspective", {})
    if "yfov" not in p or "znear" not in p:
        raise ValidationError(f"camera {index} missing yfov or znear")
    if "zfar" not in p:
        raise UnsupportedFeatureError("infinite perspective camera")
    return Camera(node=node_name, vertical_fov=float(p["yfov"]),
                  near=float(p["znear"]), far=float(p["zfar"]))


def _parse_geometry(d: _Document, mesh_index: int, mesh: dict) -> MeshGeometry:
    prims = mesh.get("primitives", [])
    if len(prims) != 1:
        raise UnsupportedFeatureError("multi-primitive mesh",
                                      f"mesh {mesh_index} has {len(prims)} primitives")
    prim = prims[0]
    if prim.get("mode", 4) != 4:
        raise UnsupportedFeatureError(f"primitive mode {prim.get('mode')}")
    if "targets" in prim or mesh.get("weights"):
        raise UnsupportedFeatureError("morph targets")
    attrs = prim.get("attributes", {})
    for semantic in attrs:
        if semantic not in _ALLOWED_ATTRIBUTES:
            raise UnsupportedFeatureError(f"vertex attribute {semantic}")
    if "POSITION" not in attrs:
        raise ValidationError(f"mesh {mesh_index} primitive has no POSITION")
    if "indices" not in prim:
        raise UnsupportedFeatureError("non-indexed geometry")

    positions = d.read_accessor(attrs["POSITION"], "VEC3", {5126}, "POSITION")
    indices = d.read_accessor(prim["indices"], "SCALAR", {5123, 5125}, "index")
    if len(indices) % 3 != 0 or len(indices) < 3:
        raise ValidationError(f"mesh {mesh_index}: index count {len(indices)} is not a positive multiple of 3")
    triangles = indices.reshape(-1, 3)
    if triangles.max() >= len(positions):
        raise ValidationError(
            f"dangling index {int(triangles.max())} (mesh has {len(positions)} vertices)")

    if "NORMAL" in attrs:
        normals = d.read_accessor(attrs["NORMAL"], "VEC3", {5126}, "NORMAL", len(positions))
        lengths = np.linalg.norm(normals, axis=1)
        bad = lengths < 1e-20
        if np.any(bad):
            regenerated = generate_vertex_normals(positions, triangles)
            normals[bad] = regenerated[bad]
        normals = normalize(normals)
    else:
        normals = generate_vertex_normals(positions, triangles)

    if "TEXCOORD_0" in attrs:
        uvs = np.clip(d.read_accessor(attrs["TEXCOORD_0"], "VEC2", {5126}, "TEXCOORD_0",
                                      len(positions)), 0.0, 1.0)
    else:
        uvs = np.zeros((len(positions), 2), dtype=np.float64)

    return MeshGeometry(positions=positions, normals=normals, uvs=uvs,
                        triangles=triangles.astype(np.int32))


def _node_local(node: dict, name: str) -> np.ndarray:
    has_trs = any(k in node for k in ("translation", "rotation", "scale"))
    if "matrix" in node and has_trs:
        raise ValidationError(f"node '{name}' has both matrix and TRS")
    try:
        if "matrix" in node:
            local = mat_from_column_major(node["matrix"])
        else:
            local = compose_trs(
                node.get("translation", (0.0, 0.0, 0.0)),
                node.get("rotation", (0.0, 0.0, 0.0, 1.0)),
                node.get("scale", (1.0, 1.0, 1.0)),
            )
    except (TypeError, ValueError) as exc:  # wrong length or not numbers
        raise ValidationError(f"node '{name}' has a malformed transform ({exc})") from exc
    return local


def parse_gltf_subset(data, base_dir=None) -> Scene:
    """Parse glTF JSON bytes (or str) into a Scene.

    base_dir resolves external buffer uris; leave it None for files with
    embedded buffers only.
    """
    if isinstance(data, bytes):
        if data[:4] == b"glTF":
            raise UnsupportedFeatureError("GLB container", "supply the JSON .gltf form")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("not valid UTF-8", offset=e.start) from None
    else:
        text = data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e.msg}", offset=e.pos) from None
    if not isinstance(doc, dict):
        raise ParseError("top level is not a JSON object", offset=0)
    try:
        return _parse_document(doc, base_dir)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        # a field of the wrong JSON type or a missing required key
        raise ValidationError(f"malformed glTF document: {type(exc).__name__}: {exc}") from exc


def _parse_document(doc: dict, base_dir) -> Scene:
    _require_version(doc)
    _reject_global_features(doc)
    d = _Document(doc, base_dir)

    # Meshes parse upfront; structural errors are deferred so they can be
    # reported with the name of the node that uses the mesh.
    geometries: list[MeshGeometry | None] = []
    mesh_errors: dict[int, ValidationError] = {}
    for i, mesh in enumerate(doc.get("meshes", [])):
        try:
            geometries.append(_parse_geometry(d, i, mesh))
        except ValidationError as e:
            geometries.append(None)
            mesh_errors[i] = e

    materials = [_parse_material(i, m) for i, m in enumerate(doc.get("materials", []))]
    default_material_id = None

    light_defs = doc.get("extensions", {}).get("KHR_lights_punctual", {}).get("lights", [])
    for ld in light_defs:
        if ld.get("type") != "point":
            raise UnsupportedFeatureError(f"{ld.get('type', 'unknown')} light")

    node_defs = doc.get("nodes", [])
    names = []
    for i, nd in enumerate(node_defs):
        names.append(nd.get("name") or f"node{i}")
    check_unique_names(names)

    scenes = doc.get("scenes")
    if not scenes:
        raise ValidationError("file defines no scenes")
    scene_index = doc.get("scene", 0)
    if not (0 <= scene_index < len(scenes)):
        raise ValidationError(f"scene index {scene_index} out of range")
    roots = scenes[scene_index].get("nodes", [])

    scene = Scene(geometries=[], materials=materials)
    mesh_to_geometry: dict[int, int] = {}
    camera_defs = doc.get("cameras", [])
    light_nodes: list[tuple[str, int]] = []
    seen: set[int] = set()
    stack = [(r, None) for r in reversed(roots)]  # pre-order: children in order after their parent
    while stack:
        index, parent_name = stack.pop()
        if not (0 <= index < len(node_defs)):
            raise ValidationError(f"node index {index} out of range")
        if index in seen:
            raise ValidationError(f"node '{names[index]}' is reachable twice (cycle or shared child)")
        seen.add(index)
        nd = node_defs[index]
        name = names[index]
        if "skin" in nd:
            raise UnsupportedFeatureError("skinning")
        local = _node_local(nd, name)

        mesh_instance = None
        if "mesh" in nd:
            mi = nd["mesh"]
            if not (0 <= mi < len(geometries)):
                raise ValidationError(f"node '{name}' references missing mesh {mi}")
            if mi in mesh_errors:
                raise ValidationError(f"node '{name}': {mesh_errors[mi]}")
            if mi not in mesh_to_geometry:
                mesh_to_geometry[mi] = len(scene.geometries)
                scene.geometries.append(geometries[mi])
            prim = doc["meshes"][mi]["primitives"][0]
            if "material" in prim:
                mid = prim["material"]
                if not (0 <= mid < len(materials)):
                    raise ValidationError(f"node '{name}' uses mesh with missing material {mid}")
            else:
                if default_material_id is None:
                    default_material_id = len(scene.materials)
                    scene.materials.append(MaterialPbr(
                        base_color=np.ones(3), metallic=1.0, roughness=1.0,
                        material_id=default_material_id))
                mid = default_material_id
            mesh_instance = (mesh_to_geometry[mi], mid)

        scene.nodes.append(SceneNode(name=name, parent=parent_name, local=local,
                                     mesh_instance=mesh_instance))

        if "camera" in nd:
            ci = nd["camera"]
            if not (0 <= ci < len(camera_defs)):
                raise ValidationError(f"node '{name}' references missing camera {ci}")
            scene.cameras.append(_parse_camera(ci, camera_defs[ci], name))

        node_ext = nd.get("extensions", {}).get("KHR_lights_punctual")
        if node_ext is not None:
            li = node_ext.get("light", -1)
            if not (0 <= li < len(light_defs)):
                raise ValidationError(f"node '{name}' references missing light {li}")
            light_nodes.append((name, li))

        stack.extend((child, name) for child in reversed(nd.get("children", [])))

    # Broken meshes that no reachable node used still fail the parse.
    for mi, err in mesh_errors.items():
        if mi not in mesh_to_geometry:
            raise ValidationError(f"mesh {mi}: {err}")
    check_invertible([n.name for n in scene.nodes],
                     np.array([n.local for n in scene.nodes]).reshape(-1, 4, 4), "node")

    scene.world = compute_world_transforms(scene)
    for name, li in light_nodes:
        ld = light_defs[li]
        color = np.asarray(ld.get("color", [1.0, 1.0, 1.0]), dtype=np.float64)
        intensity = float(ld.get("intensity", 1.0))
        scene.lights.append(PointLight(position=scene.world[name][:3, 3].copy(),
                                       intensity=color * intensity))
    return scene
