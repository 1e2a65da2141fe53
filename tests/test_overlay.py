"""Stats overlay tests: formatting, stamping, clipping, determinism."""

import hashlib

import numpy as np

from softrender.framebuffer import LdrImage, ppm_bytes
from softrender.frameloop import RenderConfig, run_frame_loop
from softrender.overlay import CELL, format_stats, overlay_pass, render_text
from softrender.procedural import make_triangle_scene


def gray(h, w, v=90):
    return np.full((h, w, 3), v, dtype=np.uint8)


def test_format_stats_layout():
    s = format_stats(7, 36, (1.5, -2.25, 0.0))
    assert s == "FRAME 0007     36 TRI CAM (+1.50 -2.25 +0.00)"


def test_format_stats_pads_frame_and_triangles():
    s = format_stats(1234, 19904, (0.0, 0.0, 0.0))
    assert s.startswith("FRAME 1234  19904 TRI ")
    s2 = format_stats(0, 0, (10.0, 0.0, -3.5))
    assert "(+10.00 +0.00 -3.50)" in s2
    # the box framebench masks is sized from this line, so its length is fixed
    assert len(format_stats(0, 0.0, (0.0, 0.0, 0.0))) == len("FRAME 0000    0.00 MS CAM (+0.00 +0.00 +0.00)")


def test_frames_with_overlay_repeat_byte_for_byte():
    config = RenderConfig(width=320, height=60, overlay=True)
    shas = {hashlib.sha256(ppm_bytes(run_frame_loop(make_triangle_scene(), config, 1)[0][0])).hexdigest()
            for _ in range(2)}
    assert len(shas) == 1


def test_render_text_stamps_opaque_cell():
    px = gray(12, 12)
    render_text(px, "T", 0, 0)
    cell = px[:CELL, :CELL]
    # opaque cell: every pixel either ink or background, nothing bleeds
    assert set(np.unique(cell)) <= {0, 255}
    assert np.count_nonzero(cell[:, :, 0] == 255) >= 5
    # untouched outside the 8x8 cell
    assert np.all(px[CELL:, :] == 90)
    assert np.all(px[:, CELL:] == 90)


def test_render_text_minus_glyph_exact():
    px = gray(8, 8, 200)
    render_text(px, "-", 0, 0)
    expected = np.zeros((8, 8), dtype=np.uint8)
    expected[3, 0:5] = 255  # a 5 px horizontal bar on the middle row
    np.testing.assert_array_equal(px[:, :, 0], expected)
    np.testing.assert_array_equal(px[:, :, 1], expected)
    np.testing.assert_array_equal(px[:, :, 2], expected)


def test_render_text_dot_glyph_exact():
    px = gray(8, 8, 200)
    render_text(px, ".", 0, 0)
    expected = np.zeros((8, 8), dtype=np.uint8)
    expected[5:7, 1:3] = 255  # 2x2 dot near the baseline
    np.testing.assert_array_equal(px[:, :, 0], expected)


def test_unknown_character_renders_blank_cell():
    px = gray(8, 8)
    render_text(px, "~", 0, 0)
    assert np.all(px[:CELL, :CELL] == 0)


def test_render_text_advances_one_cell_per_character():
    px = gray(8, 40)
    render_text(px, "--", 2, 0)
    assert np.all(px[3, 2:7] == 255)
    assert np.all(px[3, 10:15] == 255)
    assert np.all(px[3, 18:] == 90)  # nothing past the second cell


def test_render_text_clips_at_right_edge():
    px = gray(10, 20)
    before = px.copy()
    render_text(px, "AB", 16, 1)
    # first cell shows only its leftmost 4 columns; second starts past
    # the border and is skipped outright
    assert px.shape == before.shape
    assert np.any(px[1:9, 16:20] != 90)
    assert np.all(px[:, :16] == 90)


def test_render_text_clips_at_left_and_top():
    px = gray(10, 10)
    render_text(px, "H", -3, -2)
    assert np.any(px[:6, :5] != 90)  # visible remainder of the glyph
    assert np.all(px[6:, :] == 90)


def test_lowercase_maps_to_uppercase():
    a = gray(8, 8)
    b = gray(8, 8)
    render_text(a, "k", 0, 0)
    render_text(b, "K", 0, 0)
    np.testing.assert_array_equal(a, b)


def test_overlay_pass_disabled_is_identity():
    img = LdrImage(pixels=gray(24, 200))
    out = overlay_pass(img, 3, 36, (0, 0, 0), enabled=False)
    assert out is img


def test_overlay_pass_copies_and_stamps_top_left():
    img = LdrImage(pixels=gray(24, 400))
    before = img.pixels.copy()
    out = overlay_pass(img, 12, 36, (1.0, 2.0, 3.0))
    assert np.array_equal(img.pixels, before)  # source untouched
    assert not np.array_equal(out.pixels, before)
    assert np.all(out.pixels[0:2, :] == 90)   # stamp starts at (2, 2)
    assert np.all(out.pixels[:, 0:2] == 90)
    assert np.any(out.pixels[2:10, 2:10] != 90)


def test_overlay_pass_deterministic():
    img = LdrImage(pixels=gray(32, 400))
    a = overlay_pass(img, 5, 36, (0.5, -0.5, 4.0))
    b = overlay_pass(img, 5, 36, (0.5, -0.5, 4.0))
    assert np.array_equal(a.pixels, b.pixels)
    c = overlay_pass(img, 6, 36, (0.5, -0.5, 4.0))
    assert not np.array_equal(a.pixels, c.pixels)
