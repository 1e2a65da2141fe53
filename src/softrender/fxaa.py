"""Luma-driven morphological anti-aliasing over the resolved 8-bit image.

This runs after the multisample resolve, entirely in display-referred
space.  Per pixel: compute Rec.601 luma, skip low-contrast neighborhoods
(threshold max(EDGE_MIN_CONTRAST, EDGE_RELATIVE * local max luma)),
classify the edge as horizontal or vertical from 3x3 gradients, then
blend toward the neighbor across the edge by
clamp(|avg4 - L_center| / contrast, 0, BLEND_CAP) and quantize with
``framebuffer.quantize_unit``, the resolve's round-half-up rule.  Each
step is one array operation over the whole frame; the blend partners of
all pixels are one index gather.  Border pixels pass through untouched.
The filter is a pure function of the input image.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .framebuffer import LdrImage, quantize_unit

EDGE_MIN_CONTRAST = 0.0312
EDGE_RELATIVE = 0.125
BLEND_CAP = 0.75

_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def luma(pixels: np.ndarray) -> np.ndarray:
    """Rec.601 luma of (..., 3) uint8 or unit-float pixels, in [0, 1]."""
    p = np.asarray(pixels, dtype=np.float64)
    if pixels.dtype == np.uint8:
        p = p / 255.0
    return p @ _LUMA_WEIGHTS


def fxaa_pass(image: LdrImage) -> LdrImage:
    h, w = image.height, image.width
    if h < 3 or w < 3:
        return LdrImage(pixels=image.pixels.copy())

    rgb = image.pixels / 255.0
    lum = luma(rgb)

    # 3x3 neighborhood views around interior pixels
    c = lum[1:-1, 1:-1]
    n = lum[:-2, 1:-1]
    s = lum[2:, 1:-1]
    west = lum[1:-1, :-2]
    e = lum[1:-1, 2:]
    nw = lum[:-2, :-2]
    ne = lum[:-2, 2:]
    sw = lum[2:, :-2]
    se = lum[2:, 2:]

    cross_max = reduce(np.maximum, (n, s, west, e), c)
    contrast = cross_max - reduce(np.minimum, (n, s, west, e), c)
    active = contrast >= np.maximum(EDGE_MIN_CONTRAST, EDGE_RELATIVE * cross_max)
    del cross_max

    # Sobel-style gradients: a strong vertical luma gradient means a
    # horizontal edge, so the blend partner is north or south, else west
    # or east; the side farther in luma wins, ties going north or west.
    horizontal_edge = (np.abs(nw + 2.0 * n + ne - sw - 2.0 * s - se)
                       >= np.abs(nw + 2.0 * west + sw - ne - 2.0 * e - se))
    north_or_west = np.where(horizontal_edge, np.abs(n - c) >= np.abs(s - c),
                             np.abs(west - c) >= np.abs(e - c))
    step = np.where(horizontal_edge, w, 1)  # flat-index offset to south or east
    center = np.arange(1, h - 1)[:, None] * w + np.arange(1, w - 1)
    partner = np.take(rgb.reshape(-1, 3), center + np.where(north_or_west, -step, step), axis=0)
    del step, center

    factor = np.zeros_like(c)
    np.divide(np.abs((n + s + west + e) * 0.25 - c), contrast, out=factor, where=active)
    factor = np.minimum(factor, BLEND_CAP)[..., None]
    partner *= factor
    rest = rgb[1:-1, 1:-1]  # blended in place: rgb is this pass's own copy
    rest *= 1.0 - factor
    partner += rest

    out = image.pixels.copy()
    out[1:-1, 1:-1] = quantize_unit(partner)
    return LdrImage(pixels=out)
