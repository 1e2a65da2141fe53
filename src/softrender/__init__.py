"""softrender: a deterministic, headless CPU re-creation of a modern
real-time rendering loop.

Sorted draw submission, physically based direct lighting, multisample
plus post-process anti-aliasing, two-level BVH shadow rays, slot-cycled
frame resources with deferred destruction, and a shared-memory pose
stream from an external simulation process. Everything is float64 numpy
on the CPU and every output is reproducible byte for byte.
"""

from .accel import (
    Blas, Hit, Ray, Tlas, build_blas, build_tlas, compact_blas,
    ray_any_hit, ray_closest_hit, serialize_blas, shadow_mask, shadow_visibility,
)
from .bench import BENCH_CSV_HEADER, BenchRecord, bench_csv, default_bench_config, run_bench
from .errors import (
    ConfigurationError, ContentionError, IncompatibleRegionError,
    ParseError, RegionError, SceneError, UnsupportedFeatureError, ValidationError,
)
from .framebuffer import (
    Framebuffer, LdrImage, SAMPLE_POSITIONS, create_framebuffer, ppm_bytes,
    quantize_unit, read_ppm, resolve_msaa, write_image,
)
from .frameloop import (
    DeletionQueue, FrameResources, FrameStats, FrameTiming, RenderConfig,
    TIMING_CSV_HEADER, run_frame_loop, timing_csv,
)
from .fxaa import fxaa_pass, luma
from .gltf import generate_vertex_normals, load_gltf, parse_gltf_subset
from .interchange import (
    TransformSnapshot, TransformTableReader, TransformTableWriter,
    attach_table, create_table, physics_stub_step, region_path, region_size,
    unlink_region,
)
from .overlay import format_stats, overlay_pass
from .raster import Draws, build_draws, main_pass
from .scene import (
    Camera, MaterialPbr, MeshGeometry, PointLight, Scene, SceneNode,
    WorldTable, compute_world_transforms, duplicate_scene_geometry, refresh_world_transforms,
)
from .shading import (
    BrdfParams, ShadingSample, cook_torrance_specular, derive_f0,
    fresnel_schlick, ggx_ndf, linear_to_srgb, reinhard_tonemap, shade_direct,
    smith_g, srgb_to_linear,
)

__version__ = "0.1.0"
