"""Cook-Torrance specular shading, metallic-roughness inputs, color pipeline.

Every function here is a pure numpy computation that broadcasts over
leading dimensions, so the same code shades a single point in a test and
a whole pixel batch inside the main pass.

Conventions:
  * omega_i points from the surface toward the light,
  * omega_o points from the surface toward the viewer,
  * alpha is the microfacet roughness, alpha = roughness**2,
  * the geometry term uses the direct-lighting remap k = (alpha + 1)**2 / 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import normalize

DIELECTRIC_F0 = 0.04  # normal-incidence reflectance of the generic dielectric
_DENOM_EPS = 1e-6
_ALPHA_MIN = 1e-4


def ggx_ndf(n_dot_h, alpha):
    """Trowbridge-Reitz GGX normal distribution.

    D = alpha^2 / (pi * ((n.h)^2 (alpha^2 - 1) + 1)^2)

    Normalized so the projected hemisphere integral of D(n.h)(n.h) is 1
    for any alpha.
    """
    n_dot_h = np.clip(n_dot_h, 0.0, 1.0)
    a2 = np.square(np.clip(alpha, _ALPHA_MIN, 1.0))
    denom = n_dot_h * n_dot_h * (a2 - 1.0) + 1.0
    return a2 / (np.pi * denom * denom)


def fresnel_schlick(cos_theta, f0):
    """Schlick approximation F = F0 + (1 - F0)(1 - cos_theta)^5.

    f0 may be a scalar or an RGB triple; batches broadcast.
    """
    cos_theta = np.clip(np.asarray(cos_theta, dtype=np.float64), 0.0, 1.0)
    f0 = np.asarray(f0, dtype=np.float64)
    w = (1.0 - cos_theta) ** 5
    if f0.ndim > 0 and f0.shape[-1] == 3 and w.ndim > 0:
        w = w[..., None]
    return f0 + (1.0 - f0) * w


def smith_g(n_dot_v, n_dot_l, alpha):
    """Schlick-GGX separable Smith term with k = (alpha + 1)^2 / 8.

    Returns 0 when either direction is at or below the horizon.
    """
    n_dot_v = np.asarray(n_dot_v, dtype=np.float64)
    n_dot_l = np.asarray(n_dot_l, dtype=np.float64)
    k = (np.clip(alpha, _ALPHA_MIN, 1.0) + 1.0) ** 2 / 8.0
    safe_v = np.where(n_dot_v > 0.0, n_dot_v, 1.0)
    safe_l = np.where(n_dot_l > 0.0, n_dot_l, 1.0)
    g1v = safe_v / (safe_v * (1.0 - k) + k)
    g1l = safe_l / (safe_l * (1.0 - k) + k)
    return np.where((n_dot_v > 0.0) & (n_dot_l > 0.0), g1v * g1l, 0.0)


def derive_f0(base_color, metallic):
    """Metallic-roughness F0: lerp from the 0.04 dielectric to base color."""
    base_color = np.asarray(base_color, dtype=np.float64)
    metallic = np.asarray(metallic, dtype=np.float64)[..., None]
    return (1.0 - metallic) * DIELECTRIC_F0 + metallic * base_color


@dataclass
class BrdfParams:
    """Inputs of the specular lobe for one (or a batch of) configurations.

    The halfway vector is always recomputed from omega_i and omega_o.
    """

    n: np.ndarray        # (..., 3) unit surface normal
    omega_i: np.ndarray  # (..., 3) unit, toward the light
    omega_o: np.ndarray  # (..., 3) unit, toward the viewer
    f0: np.ndarray       # (..., 3) normal-incidence reflectance
    alpha: np.ndarray    # (...,) roughness in (0, 1]


def cook_torrance_specular(p: BrdfParams) -> np.ndarray:
    """Specular lobe  D * F * G / (4 (omega_o . n)(omega_i . n)).

    Zero whenever light or viewer is at/below the horizon; the
    denominator carries a 1e-6 guard.
    """
    return _specular_and_fresnel(
        np.asarray(p.n, dtype=np.float64), np.asarray(p.omega_i, dtype=np.float64),
        np.asarray(p.omega_o, dtype=np.float64), np.asarray(p.f0, dtype=np.float64),
        p.alpha)[0]


def _specular_and_fresnel(n, wi, wo, f0, alpha):
    """(cook_torrance_specular's lobe, its Fresnel term F) for float64 arrays."""
    h = normalize(wi + wo)
    n_dot_l = np.sum(n * wi, axis=-1)
    n_dot_v = np.sum(n * wo, axis=-1)
    n_dot_h = np.sum(n * h, axis=-1)
    h_dot_l = np.sum(h * wi, axis=-1)

    d = ggx_ndf(n_dot_h, alpha)
    f = fresnel_schlick(h_dot_l, f0)
    g = smith_g(n_dot_v, n_dot_l, alpha)
    denom = 4.0 * n_dot_v * n_dot_l + _DENOM_EPS
    spec = (d * g / denom)[..., None] * f
    above = ((n_dot_l > 0.0) & (n_dot_v > 0.0))[..., None]
    return np.where(above, spec, 0.0), f


@dataclass
class ShadingSample:
    """World-space surface point(s) ready for direct lighting.

    The normal must already face the viewer hemisphere (two-sided flip
    applied by the rasterizer before shading).
    """

    position: np.ndarray    # (..., 3)
    normal: np.ndarray      # (..., 3) unit
    view_dir: np.ndarray    # (..., 3) unit, toward the viewer
    base_color: np.ndarray  # (..., 3) linear
    metallic: np.ndarray    # (...,)
    roughness: np.ndarray   # (...,)


def shade_direct(sample: ShadingSample, lights) -> np.ndarray:
    """Sum of per-light contributions with shadow visibility gating.

    ``lights`` is a list of (PointLight, visibility) pairs; visibility is
    0/1, scalar or per-sample array.  Per light:

        V * [k_d * base/pi + f_s] * (I / d^2) * (n . omega_i)

    with k_d = (1 - F)(1 - metallic) and d the distance to the light.
    """
    pos = np.asarray(sample.position, dtype=np.float64)
    n = np.asarray(sample.normal, dtype=np.float64)
    wo = np.asarray(sample.view_dir, dtype=np.float64)
    base = np.asarray(sample.base_color, dtype=np.float64)
    metallic = np.asarray(sample.metallic, dtype=np.float64)
    roughness = np.asarray(sample.roughness, dtype=np.float64)

    alpha = np.clip(roughness * roughness, _ALPHA_MIN, 1.0)
    f0 = derive_f0(base, metallic)

    out = np.zeros(np.broadcast_shapes(pos.shape, n.shape, base.shape), dtype=np.float64)
    for light, visibility in lights:
        to_light = np.asarray(light.position, dtype=np.float64) - pos
        dist2 = np.maximum(np.sum(to_light * to_light, axis=-1), _DENOM_EPS)
        wi = to_light / np.sqrt(dist2)[..., None]
        n_dot_l = np.sum(n * wi, axis=-1)

        spec, f = _specular_and_fresnel(n, wi, wo, f0, alpha)
        k_d = (1.0 - f) * (1.0 - metallic)[..., None]
        brdf = k_d * base / np.pi + spec

        irradiance = np.asarray(light.intensity, dtype=np.float64) / dist2[..., None]
        contrib = brdf * irradiance * np.maximum(n_dot_l, 0.0)[..., None]
        vis = np.asarray(visibility, dtype=np.float64)
        if vis.ndim:
            vis = vis[..., None]
        out = out + vis * contrib
    return out


def srgb_to_linear(c):
    """Piecewise sRGB decode (threshold 0.04045), clamped to [0, 1]."""
    c = np.clip(np.asarray(c, dtype=np.float64), 0.0, 1.0)
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


def linear_to_srgb(c):
    """Piecewise sRGB encode (threshold 0.0031308), clamped to [0, 1]."""
    c = np.clip(np.asarray(c, dtype=np.float64), 0.0, 1.0)
    return np.where(c <= 0.0031308, c * 12.92, 1.055 * np.power(c, 1.0 / 2.4) - 0.055)


def reinhard_tonemap(c):
    """c / (1 + c) per channel; maps [0, inf) into [0, 1)."""
    c = np.maximum(np.asarray(c, dtype=np.float64), 0.0)
    return c / (1.0 + c)
