"""Framebuffer, resolve, quantization, and PPM byte-format tests."""

import hashlib

import numpy as np
import pytest

from softrender.errors import ConfigurationError
from softrender.framebuffer import (
    SAMPLE_POSITIONS,
    LdrImage,
    clear_framebuffer,
    create_framebuffer,
    ppm_bytes,
    quantize_unit,
    read_ppm,
    resolve_msaa,
    write_image,
)


def test_sample_tables_cover_supported_counts():
    assert set(SAMPLE_POSITIONS) == {1, 2, 4, 8}
    for count, table in SAMPLE_POSITIONS.items():
        assert table.shape == (count, 2)
        assert np.all((table > 0.0) & (table < 1.0))
    np.testing.assert_array_equal(SAMPLE_POSITIONS[1], [[0.5, 0.5]])
    np.testing.assert_array_equal(
        SAMPLE_POSITIONS[4],
        [[0.375, 0.125], [0.875, 0.375], [0.125, 0.625], [0.625, 0.875]])


def test_create_framebuffer_shapes_and_clear():
    fb = create_framebuffer(5, 3, 4)
    assert fb.color.shape == (3, 5, 4, 3)
    assert fb.depth.shape == (3, 5, 4)
    assert np.all(np.isinf(fb.depth))
    clear_framebuffer(fb, [0.25, 0.5, 0.75])
    assert np.all(fb.color[..., 0] == np.float32(0.25))
    assert np.all(fb.color[..., 2] == np.float32(0.75))


@pytest.mark.parametrize("width, height, samples", [(1, 1, 1), (7, 1, 2), (1, 5, 4), (9, 6, 8)])
def test_clear_overwrites_every_sample(width, height, samples):
    """Colour to the float32 of each channel and depth to +inf, whatever the
    target held before, down to a single row, column or pixel."""
    fb = create_framebuffer(width, height, samples)
    rng = np.random.default_rng(width * height * samples)
    fb.color[:] = rng.random(fb.color.shape)
    fb.depth[:] = rng.random(fb.depth.shape)
    color = np.array([0.1, 2.0 / 3.0, 1.0 + 2.0 ** -30])
    clear_framebuffer(fb, color)
    assert np.array_equal(fb.color, np.broadcast_to(color.astype(np.float32), fb.color.shape))
    assert np.all(fb.depth == np.inf)


def test_create_framebuffer_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        create_framebuffer(4, 4, 3)
    with pytest.raises(ConfigurationError):
        create_framebuffer(0, 4, 1)


def test_quantize_round_half_up():
    # 0.5/255 boundary cases: floor(v*255 + 0.5)
    values = np.array([0.0, 0.5 / 255.0, 0.499 / 255.0, 1.0, 127.5 / 255.0])
    np.testing.assert_array_equal(quantize_unit(values), [0, 1, 0, 255, 128])


def test_quantize_clamps_out_of_range():
    np.testing.assert_array_equal(quantize_unit(np.array([-0.5, 1.5])), [0, 255])


def test_resolve_is_mean_over_samples():
    fb = create_framebuffer(1, 1, 4)
    fb.color[0, 0, :, :] = 0.0
    fb.color[0, 0, :2, :] = 1.0  # 2 of 4 samples white
    img = resolve_msaa(fb)
    np.testing.assert_array_equal(img.pixels[0, 0], [128, 128, 128])


def test_resolve_single_sample_is_quantization_only():
    fb = create_framebuffer(2, 1, 1)
    fb.color[0, 0, 0] = [0.2, 0.4, 0.6]
    fb.color[0, 1, 0] = [1.0, 0.0, 0.5]
    img = resolve_msaa(fb)
    np.testing.assert_array_equal(img.pixels[0, 0], quantize_unit(np.array([0.2, 0.4, 0.6])))
    np.testing.assert_array_equal(img.pixels[0, 1], [255, 0, 128])


def boundary_sums(rng, count, samples):
    """(count, samples, 3) float32 samples, in random sample order, whose float64
    sum lies within a few ulps of samples * (k + 0.5) / 255: x0 + x1 carry the
    boundary to 48 bits and x2 and x3 tip the last bit, so the order of the
    additions decides the quantized mean."""
    target = samples * ((rng.integers(0, 255, (count, 3)) + 0.5) / 255.0)
    x0 = target.astype(np.float32)
    x1 = (target - x0).astype(np.float32)
    rest = target - x0 - x1
    x2 = (rest * rng.uniform(0.3, 0.7, rest.shape)).astype(np.float32)
    x3 = (rest - x2 + rng.normal(0.0, 2.0 ** -55, rest.shape)).astype(np.float32)
    out = np.zeros((count, 3, samples), dtype=np.float32)
    out[..., :4] = np.stack([x0, x1, x2, x3], axis=-1)
    return rng.permuted(out, axis=-1).transpose(0, 2, 1)


def edge_targets(seed):
    """Seeded float32 targets at S = 1, 2, 4 and 8 whose samples mix signed
    zeros, 1.0, values above 1 and values within 3 ulps of every quantizer
    boundary (k + 0.5) / 255.  A third of the pixels hold one value in every
    sample, so the boundary values reach the quantizer unaveraged; at S >= 4
    another third hold boundary sums."""
    rng = np.random.default_rng(seed)
    half = np.float32((np.arange(255) + 0.5) / 255.0)
    near = [half]
    for toward in (np.float32(2.0), np.float32(-1.0)):
        v = half
        for _ in range(3):
            v = np.nextafter(v, toward)
            near.append(v)
    pool = np.concatenate(near + [np.float32([0.0, -0.0, 1.0, 1.0 + 2 ** -23, 1.5, 4.0, -0.25])])
    for samples in (1, 2, 4, 8):
        h, w = rng.integers(1, 81, 2)
        fb = create_framebuffer(int(w), int(h), samples)
        fb.color[:] = np.where(rng.random((h, w, samples, 3)) < 0.5,
                               rng.choice(pool, (h, w, samples, 3)),
                               rng.random((h, w, samples, 3), dtype=np.float32))
        kind = rng.integers(0, 3, (h, w))
        fb.color[kind == 1] = rng.choice(pool, (int((kind == 1).sum()), 1, 3))
        if samples >= 4:
            fb.color[kind == 2] = boundary_sums(rng, int((kind == 2).sum()), samples)
        yield fb


def test_resolve_equals_quantized_float64_mean():
    """Byte for byte against the float64 mean over samples, quantized: the
    samples add in sample order."""
    for seed in range(6):
        for fb in edge_targets(seed):
            want = quantize_unit(fb.color.astype(np.float64).mean(axis=2))
            assert resolve_msaa(fb).pixels.tobytes() == want.tobytes()


# recorded from the resolve that averaged a float64 copy of the whole target
PINNED_RESOLVE_SHA256 = "44c5dec40d377cf24a18118c5c5a6cbfef9742454a00dfa98b01e9c112c45709"


def test_resolve_corpus_matches_pinned_sha256(render_targets):
    """Resolved renders of bench.gltf d=0..2 and demo.gltf at MSAA 1, 4 and 8,
    and the seeded edge-value targets."""
    digest = hashlib.sha256()
    for fb in render_targets + [fb for seed in range(6) for fb in edge_targets(seed)]:
        pixels = resolve_msaa(fb).pixels
        digest.update(np.array(pixels.shape).tobytes())
        digest.update(pixels.tobytes())
    assert digest.hexdigest() == PINNED_RESOLVE_SHA256


def test_ppm_bytes_one_white_pixel():
    img = LdrImage(pixels=np.full((1, 1, 3), 255, dtype=np.uint8))
    assert ppm_bytes(img) == b"P6\n1 1\n255\n\xff\xff\xff"


def test_ppm_bytes_red_blue_payload():
    pixels = np.zeros((1, 2, 3), dtype=np.uint8)
    pixels[0, 0] = [255, 0, 0]
    pixels[0, 1] = [0, 0, 255]
    img = LdrImage(pixels=pixels)
    assert ppm_bytes(img) == b"P6\n2 1\n255\n\xff\x00\x00\x00\x00\xff"


def test_write_and_read_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
    p = tmp_path / "img.ppm"
    write_image(LdrImage(pixels=pixels), p)
    back = read_ppm(p)
    np.testing.assert_array_equal(back.pixels, pixels)


def test_write_image_rejects_unknown_format(tmp_path):
    img = LdrImage(pixels=np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(ConfigurationError, match="must end in .ppm or .png"):
        write_image(img, tmp_path / "x.bmp")
    assert not (tmp_path / "x.bmp").exists()


def test_write_image_suffix_picks_the_format_in_any_case(tmp_path):
    img = LdrImage(pixels=np.full((2, 3, 3), 7, dtype=np.uint8))
    p = write_image(img, tmp_path / "x.Ppm")
    assert p == tmp_path / "x.Ppm"
    assert p.read_bytes() == ppm_bytes(img)
    try:
        import PIL  # noqa: F401
    except ImportError:
        with pytest.raises(ConfigurationError, match="Pillow"):
            write_image(img, tmp_path / "x.PNG")
    else:
        assert write_image(img, tmp_path / "x.PNG").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


def test_read_ppm_rejects_other_files(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        read_ppm(p)


def test_ldr_image_validates_shape():
    with pytest.raises(ValueError):
        LdrImage(pixels=np.zeros((4, 4), dtype=np.uint8))
