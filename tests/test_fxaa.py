"""Post-resolve anti-aliasing filter tests.

The step-edge expectations are hand derived: for a black/white vertical
step the edge-adjacent pixel sees contrast 1, avg4 luma 0.25 away from
its own, so it blends 25% toward the opposite side (0 -> 64, 255 -> 191).
"""

import hashlib
import tracemalloc

import numpy as np

from softrender.fxaa import EDGE_MIN_CONTRAST, fxaa_pass, luma
from softrender.framebuffer import LdrImage, resolve_msaa

LUMA_W = np.array([0.299, 0.587, 0.114])


def solid(h, w, rgb):
    return LdrImage(pixels=np.tile(np.asarray(rgb, np.uint8), (h, w, 1)))


def vertical_step(h, w, split, left, right):
    px = np.zeros((h, w, 3), np.uint8)
    px[:, :split] = left
    px[:, split:] = right
    return LdrImage(pixels=px)


def staircase_metric(pixels):
    lum = pixels.astype(np.float64) @ LUMA_W / 255.0
    return int(np.sum(np.abs(lum[1:, :] - lum[:-1, :]) > 0.5))


def test_flat_image_is_unchanged():
    for rgb in [(0, 0, 0), (255, 255, 255), (37, 180, 92)]:
        img = solid(16, 16, rgb)
        out = fxaa_pass(img)
        assert np.array_equal(out.pixels, img.pixels)


def test_idempotent_on_flat_and_pure():
    img = solid(12, 12, (200, 10, 10))
    before = img.pixels.copy()
    once = fxaa_pass(img)
    twice = fxaa_pass(once)
    assert np.array_equal(once.pixels, twice.pixels)
    assert np.array_equal(img.pixels, before)  # input never mutated
    assert once.pixels is not img.pixels


def test_luma_weights_and_range():
    assert abs(luma(np.array([255, 255, 255], np.uint8)) - 1.0) < 1e-12
    assert luma(np.array([0, 0, 0], np.uint8)) == 0.0
    g = luma(np.array([0, 255, 0], np.uint8))
    assert abs(g - 0.587) < 1e-12


def test_vertical_step_blends_only_edge_columns():
    split = 8
    img = vertical_step(16, 16, split, 0, 255)
    out = fxaa_pass(img).pixels

    # interior rows: black-side edge column 25% toward white, white side
    # 25% toward black, everything two or more columns away untouched
    interior = slice(1, 15)
    assert np.all(out[interior, split - 1] == 64)
    assert np.all(out[interior, split] == 191)
    assert np.all(out[:, : split - 1] == 0)
    assert np.all(out[:, split + 1 :] == 255)

    # border rows pass through
    assert np.all(out[0] == img.pixels[0])
    assert np.all(out[-1] == img.pixels[-1])


def test_below_threshold_contrast_is_skipped():
    # luma step of 5/255 ~ 0.0196, under the 0.0312 activation floor
    assert 5 / 255 < EDGE_MIN_CONTRAST
    img = vertical_step(12, 12, 6, 128, 133)
    out = fxaa_pass(img)
    assert np.array_equal(out.pixels, img.pixels)


def test_tiny_image_passes_through():
    img = solid(2, 2, (9, 9, 9))
    out = fxaa_pass(img)
    assert np.array_equal(out.pixels, img.pixels)


def test_staircase_metric_strictly_decreases_on_slanted_edge():
    # ideal one-sample rasterization of a near-vertical slanted edge:
    # pixel is black iff its center lies left of the line
    h = w = 64
    p1 = np.array([20.3, -10.0])
    p2 = np.array([38.7, 74.0])
    d = p2 - p1
    a, b = d[1], -d[0]
    c = a * p1[0] + b * p1[1]
    if a * 1.0 + b * 32.0 > c:
        a, b, c = -a, -b, -c
    ys, xs = np.mgrid[0:h, 0:w]
    black = a * (xs + 0.5) + b * (ys + 0.5) <= c
    px = np.repeat(np.where(black[..., None], 0, 255), 3, axis=2).astype(np.uint8)
    img = LdrImage(pixels=px)

    before = staircase_metric(img.pixels)
    after = staircase_metric(fxaa_pass(img).pixels)
    assert before >= 5
    assert after < before


def slanted_edge(h, w, rng):
    """Two random colours split by a random line through the image."""
    ys, xs = np.mgrid[0:h, 0:w] + 0.5
    angle = rng.uniform(0.0, np.pi)
    side = (xs - rng.uniform(0, w)) * np.cos(angle) + (ys - rng.uniform(0, h)) * np.sin(angle)
    a, b = rng.integers(0, 256, (2, 3))
    return np.where(side[..., None] < 0.0, a, b)


def corpus_images(rng):
    """Random sizes 1..40 with 3xN and Nx3 among them, each as noise, binary
    noise, noise over 0, A and 2A (luma(2A) - luma(A) == luma(A) exactly, so
    the side tests tie between different colours), grey 7g/8g noise (contrast
    exactly at the relative activation floor), low-contrast noise near the
    absolute floor, a flat colour and a two-tone slanted edge."""
    sizes = [tuple(rng.integers(1, 41, 2)) for _ in range(30)]
    sizes += [(3, n) for n in (1, 3, 4, 17, 40)] + [(n, 3) for n in (2, 3, 5, 29, 40)]
    for h, w in sizes:
        yield rng.integers(0, 256, (h, w, 3))
        yield rng.integers(0, 2, (h, w, 1)) * rng.integers(0, 256, 3)
        yield rng.integers(0, 3, (h, w, 1)) * rng.integers(0, 128, 3)
        yield (7 + rng.integers(0, 2, (h, w, 1))) * rng.choice([8, 16]) * np.ones(3, int)
        yield rng.integers(0, 256, 3) + rng.integers(-10, 11, (h, w, 3))
        yield np.broadcast_to(rng.integers(0, 256, 3), (h, w, 3))
        yield slanted_edge(h, w, rng)


# recorded from the filter that picked each blend partner with three
# full-frame selections and quantized inline
PINNED_FXAA_SHA256 = "9f3116a3003bbb8b13bc107220428864abc865ab26172a621e095bf85a84f6e2"


def test_fxaa_corpus_matches_pinned_sha256(render_targets):
    """The seeded image corpus and resolved renders of bench.gltf d=0..2 and
    demo.gltf at MSAA 1, 4 and 8."""
    rng = np.random.default_rng(9)
    images = [LdrImage(pixels=np.clip(p, 0, 255)) for p in corpus_images(rng)]
    images += [resolve_msaa(fb) for fb in render_targets]
    digest = hashlib.sha256()
    for image in images:
        pixels = fxaa_pass(image).pixels
        digest.update(np.array(pixels.shape).tobytes())
        digest.update(pixels.tobytes())
    assert digest.hexdigest() == PINNED_FXAA_SHA256


def test_fxaa_traced_peak_is_at_most_four_float_frames():
    """With frames in flight this pass's working set coexists with the next
    frame's main pass, so it blends in place on its own float copy."""
    h, w = 240, 320
    image = LdrImage(pixels=slanted_edge(h, w, np.random.default_rng(4)))
    tracemalloc.start()
    try:
        fxaa_pass(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * h * w * 3 * np.dtype(np.float64).itemsize, peak
