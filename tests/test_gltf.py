"""glTF subset parser tests.

Documents are assembled by hand in this file (struct-packed buffers,
base64 data uris) so every expectation is independent of the writer
tooling elsewhere in the repo.
"""

import base64
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrender.accel import build_tlas
from softrender.errors import ParseError, SceneError, UnsupportedFeatureError, ValidationError
from softrender.frameloop import build_scene_blases
from softrender.gltf import generate_vertex_normals, load_gltf, parse_gltf_subset
from softrender.linalg import compose_trs
from softrender.scene import mesh_instances


def pack_floats(values):
    return struct.pack(f"<{len(values)}f", *values)


def pack_u16(values):
    return struct.pack(f"<{len(values)}H", *values)


def pack_u32(values):
    return struct.pack(f"<{len(values)}I", *values)


def data_uri(raw: bytes) -> str:
    return "data:application/octet-stream;base64," + base64.b64encode(raw).decode()


TRI_POSITIONS = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]


def tri_doc(**overrides):
    """One triangle in the z = 0 plane, indices u16, no normals."""
    pos = pack_floats(TRI_POSITIONS)
    idx = pack_u16([0, 1, 2]) + b"\x00\x00"  # pad to 4 bytes
    raw = pos + idx
    doc = {
        "asset": {"version": "2.0"},
        "buffers": [{"uri": data_uri(raw), "byteLength": len(raw)}],
        "bufferViews": [
            {"buffer": 0, "byteOffset": 0, "byteLength": len(pos)},
            {"buffer": 0, "byteOffset": len(pos), "byteLength": 6},
        ],
        "accessors": [
            {"bufferView": 0, "componentType": 5126, "count": 3, "type": "VEC3"},
            {"bufferView": 1, "componentType": 5123, "count": 3, "type": "SCALAR"},
        ],
        "meshes": [{"primitives": [{"attributes": {"POSITION": 0}, "indices": 1}]}],
        "nodes": [{"name": "tri", "mesh": 0}],
        "scenes": [{"nodes": [0]}],
        "scene": 0,
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_gltf_subset(json.dumps(doc).encode())


# ------------------------------------------------------- happy paths

def test_minimal_triangle():
    scene = parse(tri_doc())
    assert len(scene.nodes) == 1
    assert len(scene.geometries) == 1
    geo = scene.geometries[0]
    assert geo.vertex_count == 3
    assert geo.triangle_count == 1
    np.testing.assert_allclose(geo.positions,
                               np.asarray(TRI_POSITIONS).reshape(3, 3))
    np.testing.assert_array_equal(geo.triangles, [[0, 1, 2]])
    assert scene.nodes[0].mesh_instance is not None


def test_missing_normals_are_area_weighted_generated():
    scene = parse(tri_doc())
    # CCW triangle in the z = 0 plane faces +Z
    np.testing.assert_allclose(scene.geometries[0].normals,
                               [[0, 0, 1]] * 3, atol=1e-15)


def test_missing_texcoords_default_to_zero():
    geo = parse(tri_doc()).geometries[0]
    np.testing.assert_array_equal(geo.uvs, np.zeros((3, 2)))


def test_supplied_normals_are_renormalized():
    doc = tri_doc()
    nrm = pack_floats([0.0, 0.0, 2.0] * 3)  # non-unit on purpose
    raw_old = base64.b64decode(doc["buffers"][0]["uri"].split(",", 1)[1])
    raw = raw_old + nrm
    doc["buffers"][0] = {"uri": data_uri(raw), "byteLength": len(raw)}
    doc["bufferViews"].append(
        {"buffer": 0, "byteOffset": len(raw_old), "byteLength": len(nrm)})
    doc["accessors"].append(
        {"bufferView": 2, "componentType": 5126, "count": 3, "type": "VEC3"})
    doc["meshes"][0]["primitives"][0]["attributes"]["NORMAL"] = 2
    geo = parse(doc).geometries[0]
    np.testing.assert_allclose(geo.normals, [[0, 0, 1]] * 3, atol=1e-15)


def test_u32_indices():
    pos = pack_floats(TRI_POSITIONS)
    idx = pack_u32([0, 1, 2])
    raw = pos + idx
    doc = tri_doc()
    doc["buffers"][0] = {"uri": data_uri(raw), "byteLength": len(raw)}
    doc["bufferViews"] = [
        {"buffer": 0, "byteOffset": 0, "byteLength": len(pos)},
        {"buffer": 0, "byteOffset": len(pos), "byteLength": len(idx)},
    ]
    doc["accessors"][1]["componentType"] = 5125
    geo = parse(doc).geometries[0]
    np.testing.assert_array_equal(geo.triangles, [[0, 1, 2]])


def test_interleaved_positions_with_byte_stride():
    # x y z pad | x y z pad | ... stride 16
    verts = []
    for x, y, z in np.asarray(TRI_POSITIONS).reshape(3, 3):
        verts += [x, y, z, 777.0]
    pos = pack_floats(verts)
    idx = pack_u16([0, 1, 2]) + b"\x00\x00"
    raw = pos + idx
    doc = tri_doc()
    doc["buffers"][0] = {"uri": data_uri(raw), "byteLength": len(raw)}
    doc["bufferViews"] = [
        {"buffer": 0, "byteOffset": 0, "byteLength": len(pos), "byteStride": 16},
        {"buffer": 0, "byteOffset": len(pos), "byteLength": 6},
    ]
    geo = parse(doc).geometries[0]
    np.testing.assert_allclose(geo.positions, np.asarray(TRI_POSITIONS).reshape(3, 3))


def test_parent_child_chain_preserved():
    doc = tri_doc()
    doc["nodes"] = [
        {"name": "parent", "children": [1], "translation": [1, 0, 0]},
        {"name": "child", "mesh": 0, "translation": [0, 2, 0]},
    ]
    doc["scenes"] = [{"nodes": [0]}]
    scene = parse(doc)
    child = next(n for n in scene.nodes if n.name == "child")
    assert child.parent == "parent"
    np.testing.assert_allclose(scene.world["child"][:3, 3], [1, 2, 0])


def test_nodes_are_listed_in_pre_order():
    doc = tri_doc()
    doc["nodes"] = [{"name": "a", "children": [3, 1]}, {"name": "b"}, {"name": "c"},
                    {"name": "d", "children": [4]}, {"name": "e", "mesh": 0}]
    doc["scenes"] = [{"nodes": [0, 2]}]
    scene = parse(doc)
    assert [n.name for n in scene.nodes] == ["a", "d", "e", "b", "c"]
    assert [n.parent for n in scene.nodes] == [None, "a", "d", "a", None]


def test_deep_node_chain_parses():
    """1,200 nodes, each the only child of the one before."""
    doc = tri_doc()
    doc["nodes"] = [{"name": f"n{i}", "children": [i + 1], "translation": [1, 0, 0]}
                    for i in range(1199)] + [{"name": "n1199", "mesh": 0, "translation": [1, 0, 0]}]
    scene = parse(doc)
    assert [n.name for n in scene.nodes] == [f"n{i}" for i in range(1200)]
    np.testing.assert_array_equal(scene.world["n1199"][:3, 3], [1200.0, 0.0, 0.0])


def test_trs_node_equals_equivalent_matrix_node():
    t = [1.0, 2.0, 3.0]
    angle = 0.8
    q = [0.0, 0.0, math.sin(angle / 2), math.cos(angle / 2)]
    s = [2.0, 1.0, 0.5]
    m = compose_trs(t, q, s)

    doc_trs = tri_doc()
    doc_trs["nodes"][0] = {"name": "tri", "mesh": 0, "translation": t,
                           "rotation": q, "scale": s}
    doc_mat = tri_doc()
    doc_mat["nodes"][0] = {"name": "tri", "mesh": 0,
                           "matrix": [float(v) for v in np.asarray(m).flatten(order="F")]}
    w_trs = parse(doc_trs).world["tri"]
    w_mat = parse(doc_mat).world["tri"]
    np.testing.assert_allclose(w_trs, w_mat, atol=1e-12)
    np.testing.assert_allclose(w_trs, m, atol=1e-12)


def test_material_factors_mapped():
    doc = tri_doc()
    doc["materials"] = [{
        "pbrMetallicRoughness": {
            "baseColorFactor": [0.8, 0.3, 0.2, 1.0],
            "metallicFactor": 0.25,
            "roughnessFactor": 0.6,
        }}]
    doc["meshes"][0]["primitives"][0]["material"] = 0
    scene = parse(doc)
    mat = scene.materials[scene.nodes[0].mesh_instance[1]]
    np.testing.assert_allclose(mat.base_color, [0.8, 0.3, 0.2])
    assert mat.metallic == pytest.approx(0.25)
    assert mat.roughness == pytest.approx(0.6)


def test_default_material_white_metallic_rough():
    scene = parse(tri_doc())
    mat = scene.materials[scene.nodes[0].mesh_instance[1]]
    np.testing.assert_array_equal(mat.base_color, [1, 1, 1])
    assert mat.metallic == 1.0
    assert mat.roughness == 1.0


def test_camera_parsed_with_node_binding():
    doc = tri_doc()
    doc["cameras"] = [{"type": "perspective",
                       "perspective": {"yfov": 1.0, "znear": 0.5, "zfar": 80.0}}]
    doc["nodes"].append({"name": "cam", "camera": 0, "translation": [0, 0, 5]})
    doc["scenes"][0]["nodes"].append(1)
    scene = parse(doc)
    assert len(scene.cameras) == 1
    cam = scene.cameras[0]
    assert cam.node == "cam"
    assert (cam.vertical_fov, cam.near, cam.far) == (1.0, 0.5, 80.0)


def test_point_light_world_position_and_intensity():
    doc = tri_doc()
    doc["extensions"] = {"KHR_lights_punctual": {
        "lights": [{"type": "point", "color": [1.0, 0.5, 0.25], "intensity": 8.0}]}}
    doc["extensionsUsed"] = ["KHR_lights_punctual"]
    doc["nodes"] = [
        {"name": "rig", "children": [1], "translation": [0, 3, 0]},
        {"name": "lamp", "translation": [1, 0, 0],
         "extensions": {"KHR_lights_punctual": {"light": 0}}},
    ]
    scene = parse(doc)
    assert len(scene.lights) == 1
    np.testing.assert_allclose(scene.lights[0].position, [1, 3, 0])
    np.testing.assert_allclose(scene.lights[0].intensity, [8.0, 4.0, 2.0])


def test_external_buffer_with_base_dir(tmp_path):
    pos = pack_floats(TRI_POSITIONS)
    idx = pack_u16([0, 1, 2]) + b"\x00\x00"
    (tmp_path / "mesh.bin").write_bytes(pos + idx)
    doc = tri_doc()
    doc["buffers"][0] = {"uri": "mesh.bin", "byteLength": len(pos + idx)}
    gltf_path = tmp_path / "scene.gltf"
    gltf_path.write_text(json.dumps(doc))
    scene = load_gltf(gltf_path)
    assert scene.geometries[0].vertex_count == 3


# ------------------------------------------------------- error surface

def test_malformed_json_parse_error_with_offset():
    with pytest.raises(ParseError) as ei:
        parse_gltf_subset(b'{"asset": {"version": "2.0",}}')
    assert ei.value.offset is not None
    assert "byte offset" in str(ei.value)


def test_invalid_utf8_parse_error():
    with pytest.raises(ParseError):
        parse_gltf_subset(b'{"asset"\xff: 1}')


def test_glb_container_rejected():
    blob = b"glTF" + struct.pack("<II", 2, 12)
    with pytest.raises(UnsupportedFeatureError, match="GLB"):
        parse_gltf_subset(blob)


def test_version_one_rejected():
    with pytest.raises(UnsupportedFeatureError, match="version"):
        parse(tri_doc(asset={"version": "1.0"}))


@pytest.mark.parametrize("key,value,needle", [
    ("animations", [{"channels": [], "samplers": []}], "animation"),
    ("skins", [{"joints": []}], "skin"),
    ("extensionsRequired", ["EXT_custom_thing"], "EXT_custom_thing"),
])
def test_global_feature_rejections(key, value, needle):
    with pytest.raises(UnsupportedFeatureError, match=needle):
        parse(tri_doc(**{key: value}))


def test_multi_primitive_mesh_rejected():
    doc = tri_doc()
    prim = doc["meshes"][0]["primitives"][0]
    doc["meshes"][0]["primitives"] = [prim, dict(prim)]
    with pytest.raises(UnsupportedFeatureError, match="primitive"):
        parse(doc)


def test_non_triangle_mode_rejected():
    doc = tri_doc()
    doc["meshes"][0]["primitives"][0]["mode"] = 1
    with pytest.raises(UnsupportedFeatureError, match="mode"):
        parse(doc)


def test_non_indexed_geometry_rejected():
    doc = tri_doc()
    del doc["meshes"][0]["primitives"][0]["indices"]
    with pytest.raises(UnsupportedFeatureError, match="non-indexed"):
        parse(doc)


def test_unknown_vertex_attribute_rejected():
    doc = tri_doc()
    doc["meshes"][0]["primitives"][0]["attributes"]["COLOR_0"] = 0
    with pytest.raises(UnsupportedFeatureError, match="COLOR_0"):
        parse(doc)


def test_textured_material_rejected():
    doc = tri_doc()
    doc["materials"] = [{"pbrMetallicRoughness":
                         {"baseColorTexture": {"index": 0}}}]
    doc["meshes"][0]["primitives"][0]["material"] = 0
    with pytest.raises(UnsupportedFeatureError, match="texture"):
        parse(doc)


def test_emissive_material_rejected():
    doc = tri_doc()
    doc["materials"] = [{"emissiveFactor": [1.0, 0.0, 0.0]}]
    doc["meshes"][0]["primitives"][0]["material"] = 0
    with pytest.raises(UnsupportedFeatureError, match="emissive"):
        parse(doc)


def test_alpha_blend_material_rejected():
    doc = tri_doc()
    doc["materials"] = [{"alphaMode": "BLEND"}]
    doc["meshes"][0]["primitives"][0]["material"] = 0
    with pytest.raises(UnsupportedFeatureError, match="alpha"):
        parse(doc)


def test_orthographic_camera_rejected():
    doc = tri_doc()
    doc["cameras"] = [{"type": "orthographic",
                       "orthographic": {"xmag": 1, "ymag": 1, "znear": 0.1, "zfar": 10}}]
    doc["nodes"][0]["camera"] = 0
    with pytest.raises(UnsupportedFeatureError, match="camera"):
        parse(doc)


def test_infinite_perspective_rejected():
    doc = tri_doc()
    doc["cameras"] = [{"type": "perspective",
                       "perspective": {"yfov": 1.0, "znear": 0.1}}]
    doc["nodes"][0]["camera"] = 0
    with pytest.raises(UnsupportedFeatureError, match="infinite"):
        parse(doc)


def test_directional_light_rejected():
    doc = tri_doc()
    doc["extensions"] = {"KHR_lights_punctual":
                         {"lights": [{"type": "directional"}]}}
    with pytest.raises(UnsupportedFeatureError, match="directional"):
        parse(doc)


def test_dangling_vertex_index_names_the_node():
    doc = tri_doc()
    pos = pack_floats(TRI_POSITIONS)
    idx = pack_u16([0, 1, 7]) + b"\x00\x00"
    raw = pos + idx
    doc["buffers"][0] = {"uri": data_uri(raw), "byteLength": len(raw)}
    with pytest.raises(ValidationError) as ei:
        parse(doc)
    msg = str(ei.value)
    assert "tri" in msg and "dangling index 7" in msg


def test_unreferenced_broken_mesh_still_fails_naming_the_mesh():
    doc = tri_doc()
    pos = pack_floats(TRI_POSITIONS)
    idx = pack_u16([0, 1, 7]) + b"\x00\x00"
    raw = pos + idx
    doc["buffers"][0] = {"uri": data_uri(raw), "byteLength": len(raw)}
    doc["nodes"] = [{"name": "empty"}]  # nobody references mesh 0
    with pytest.raises(ValidationError, match="mesh 0"):
        parse(doc)


def test_accessor_index_out_of_range():
    doc = tri_doc()
    doc["meshes"][0]["primitives"][0]["indices"] = 5
    with pytest.raises(ValidationError):
        parse(doc)


def test_duplicate_node_names_rejected():
    doc = tri_doc()
    doc["nodes"] = [{"name": "twin"}, {"name": "twin"}]
    doc["scenes"] = [{"nodes": [0, 1]}]
    with pytest.raises(ValidationError, match="twin"):
        parse(doc)


def test_matrix_and_trs_together_rejected():
    doc = tri_doc()
    doc["nodes"][0]["matrix"] = [1.0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
    doc["nodes"][0]["translation"] = [1, 0, 0]
    with pytest.raises(ValidationError, match="matrix and TRS"):
        parse(doc)


@pytest.mark.parametrize("transform, needle", [
    ({"scale": [0.0, 0.0, 0.0]}, "holds a singular matrix"),
    ({"matrix": [1.0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}, "holds a singular matrix"),
    ({"matrix": [1.0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, float("inf"), 0, 0, 1]},
     "holds a non-finite matrix"),
    ({"matrix": [1.0, 0.0, 0.0]}, "has a malformed transform"),
    ({"scale": [1.0, 1.0]}, "has a malformed transform"),
    ({"translation": "abc"}, "has a malformed transform"),
], ids=["zero-scale", "flat-matrix", "infinite-matrix", "short-matrix", "short-scale",
        "text-translation"])
def test_bad_node_transform_rejected(transform, needle):
    doc = tri_doc()
    doc["nodes"][0].update(transform)
    with pytest.raises(ValidationError, match=f"node 'tri' {needle}"):
        parse(doc)


def lit_camera_doc():
    """tri_doc with a material, a camera and a point light, all finite."""
    doc = tri_doc()
    doc["materials"] = [{"pbrMetallicRoughness": {"baseColorFactor": [0.8, 0.3, 0.2, 1.0],
                                                  "roughnessFactor": 0.6}}]
    doc["meshes"][0]["primitives"][0]["material"] = 0
    doc["cameras"] = [{"type": "perspective",
                       "perspective": {"yfov": 1.0, "znear": 0.5, "zfar": 80.0}}]
    doc["extensions"] = {"KHR_lights_punctual": {"lights": [{"type": "point", "intensity": 8.0}]}}
    doc["nodes"] += [{"name": "cam", "camera": 0, "translation": [0, 0, 5]},
                     {"name": "lamp", "translation": [1, 2, 3],
                      "extensions": {"KHR_lights_punctual": {"light": 0}}}]
    doc["scenes"][0]["nodes"] += [1, 2]
    return doc


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("table, key, value, needle", [
    ("cameras", "znear", _NAN, "camera 'cam'"),
    ("cameras", "zfar", _INF, "camera 'cam'"),
    ("materials", "baseColorFactor", [_NAN, 0.3, 0.2, 1.0], "material 0"),
    ("materials", "roughnessFactor", _NAN, "material 0"),
    ("lights", "intensity", _NAN, "point light"),
    ("lights", "intensity", _INF, "point light"),
], ids=["nan-znear", "inf-zfar", "nan-base-color", "nan-roughness", "nan-intensity",
        "inf-intensity"])
def test_non_finite_scene_value_rejected(table, key, value, needle):
    doc = lit_camera_doc()
    assert len(parse(doc).lights) == 1
    target = {"cameras": doc["cameras"][0]["perspective"],
              "materials": doc["materials"][0]["pbrMetallicRoughness"],
              "lights": doc["extensions"]["KHR_lights_punctual"]["lights"][0]}[table]
    target[key] = value
    text = json.dumps(doc)  # Python's json writes and reads NaN and Infinity
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValidationError, match=needle):
        parse_gltf_subset(text.encode())


_DELETE = object()


@pytest.mark.parametrize("make, path, value", [
    (tri_doc, ("accessors", 0, "type"), _DELETE),
    (tri_doc, ("accessors", 0, "componentType"), _DELETE),
    (tri_doc, ("accessors", 0, "count"), _DELETE),
    (tri_doc, ("bufferViews", 0, "buffer"), _DELETE),
    (tri_doc, ("nodes", 0, "mesh"), "0"),
    (tri_doc, ("accessors", 0, "count"), "3"),
    (tri_doc, ("meshes", 0, "primitives", 0, "attributes", "POSITION"), "0"),
    (tri_doc, ("scenes", 0, "nodes"), "0"),
    (tri_doc, ("nodes", 0, "children"), 5),
    (lit_camera_doc, ("cameras", 0, "perspective", "znear"), None),
    (lit_camera_doc, ("materials", 0, "pbrMetallicRoughness", "metallicFactor"), "a"),
    (lit_camera_doc, ("materials", 0, "pbrMetallicRoughness", "roughnessFactor"), [1]),
    (tri_doc, ("nodes",), {"0": {"name": "tri", "mesh": 0}}),
    (lit_camera_doc, ("cameras", 0, "perspective", "yfov"), "x"),
    (lit_camera_doc, ("extensions", "KHR_lights_punctual", "lights", 0, "intensity"), "x"),
    (lit_camera_doc, ("extensions", "KHR_lights_punctual", "lights", 0, "color"), "abc"),
], ids=["no-type", "no-componentType", "no-count", "no-buffer", "text-mesh", "text-count",
        "text-position", "text-scene-nodes", "int-children", "null-znear", "text-metallic",
        "list-roughness", "object-nodes", "text-yfov", "text-intensity", "text-color"])
def test_malformed_document_raises_validation_error(make, path, value):
    doc = make()
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(ValidationError, match="malformed glTF document") as info:
        parse(doc)
    assert isinstance(info.value.__cause__, (KeyError, TypeError, ValueError, AttributeError))


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
def test_non_finite_position_rejected_naming_the_accessor(bad):
    doc = tri_doc()
    pos = pack_floats(TRI_POSITIONS[:4] + [bad] + TRI_POSITIONS[5:])
    raw = pos + pack_u16([0, 1, 2]) + b"\x00\x00"
    doc["buffers"][0] = {"uri": data_uri(raw), "byteLength": len(raw)}
    with pytest.raises(ValidationError, match="POSITION accessor 0 holds non-finite values"):
        parse(doc)


def test_no_scenes_rejected():
    doc = tri_doc()
    del doc["scenes"]
    with pytest.raises(ValidationError, match="scene"):
        parse(doc)


def test_node_reachable_twice_rejected():
    doc = tri_doc()
    doc["nodes"] = [
        {"name": "a", "children": [2]},
        {"name": "b", "children": [2]},
        {"name": "shared"},
    ]
    doc["scenes"] = [{"nodes": [0, 1]}]
    with pytest.raises(ValidationError, match="twice"):
        parse(doc)


def test_truncated_buffer_rejected():
    doc = tri_doc()
    doc["buffers"][0]["byteLength"] += 64
    with pytest.raises(ValidationError, match="shorter"):
        parse(doc)


def test_external_uri_without_base_dir_rejected():
    doc = tri_doc()
    doc["buffers"][0] = {"uri": "mesh.bin", "byteLength": 48}
    with pytest.raises(ValidationError, match="base directory"):
        parse(doc)


# ------------------------------------------------------- normal generation

def test_generate_vertex_normals_shared_vertex_area_weighting():
    # two triangles sharing an edge: one large in z=0 facing +Z, one
    # small ramp facing +Y-ish; the big face dominates the shared verts
    positions = np.array([
        [0.0, 0, 0], [4, 0, 0], [0, 4, 0],  # big face, cross (0,0,16)
        [0.0, 0, -0.5],
    ])
    triangles = np.array([[0, 1, 2], [0, 3, 1]])
    n = generate_vertex_normals(positions, triangles)
    # vertex 2 belongs only to the big face
    np.testing.assert_allclose(n[2], [0, 0, 1], atol=1e-15)
    # face 2 cross: (p3-p0) x (p1-p0) = (0,0,-0.5) x (4,0,0) = (0,-2,0)
    np.testing.assert_allclose(n[3], [0, -1, 0], atol=1e-15)
    # shared vertex 0: sum of (0,0,16) and (0,-2,0), normalized
    expected = np.array([0.0, -2.0, 16.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(n[0], expected, atol=1e-14)


def test_generate_vertex_normals_degenerate_fallback():
    positions = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])  # collinear
    triangles = np.array([[0, 1, 2]])
    n = generate_vertex_normals(positions, triangles)
    np.testing.assert_array_equal(n, [[0, 0, 1]] * 3)


# ------------------------------------------------------- mutated documents

@pytest.mark.parametrize("table, index, key, value, needle", [
    ("accessors", 0, "byteOffset", -4, "byteOffset"),
    ("bufferViews", 0, "byteOffset", -36, "byteOffset"),
    ("bufferViews", 0, "byteStride", 0, "byteStride"),    # every vertex would read vertex 0
    ("bufferViews", 0, "byteStride", 4, "byteStride"),    # vertices would overlap
    ("bufferViews", 0, "byteStride", -12, "byteStride"),  # rows would wrap to the buffer's end
    ("accessors", 1, "count", 2, "NORMAL"),
    ("accessors", 2, "count", 2, "TEXCOORD_0"),
])
def test_bad_offset_stride_or_count_rejected(triangle_gltf, table, index, key, value, needle):
    doc = json.loads(triangle_gltf.read_text())
    doc[table][index][key] = value
    with pytest.raises(ValidationError, match=needle):
        parse(doc)


def int_paths(node, path=()):
    """Paths to every integer in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for k, v in items for p in int_paths(v, path + (k,))]
    return [path] if isinstance(node, int) and not isinstance(node, bool) else []


_field_values = st.one_of(st.integers(-16, 128),
                          st.sampled_from([-2**31, -12, 2**31, 2**63, 10**30]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_document_fails_only_with_scene_errors(triangle_gltf, data):
    doc = json.loads(triangle_gltf.read_text())
    # every integer field, plus the strides and accessor offsets the file
    # leaves out, plus a zero scale on the mesh node
    paths = (int_paths(doc) + [("bufferViews", i, "byteStride") for i in range(4)]
             + [("accessors", i, "byteOffset") for i in range(4)] + ["zero scale"])
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        if path == "zero scale":
            doc["nodes"][0]["scale"] = [0.0, 0.0, 0.0]
            continue
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(_field_values)
    head, payload = doc["buffers"][0]["uri"].split(",")
    cut = data.draw(st.just(len(payload)) | st.integers(0, len(payload)))
    doc["buffers"][0]["uri"] = f"{head},{payload[:cut]}"
    try:
        scene = parse(doc)
    except SceneError:
        return
    names, geometry, _ = mesh_instances(scene)  # a loaded scene renders
    build_tlas([scene.world[n] for n in names], geometry, build_scene_blases(scene), names)
