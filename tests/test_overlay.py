"""Stats overlay tests: formatting, glyphs, stamping, clipping, determinism."""

import hashlib

import numpy as np

from softrender.framebuffer import LdrImage, ppm_bytes
from softrender.frameloop import RenderConfig, run_frame_loop
from softrender.overlay import CELL, _line_ink, format_stats, overlay_pass
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


def test_line_ink_minus_glyph_exact():
    expected = np.zeros((CELL, CELL), dtype=bool)
    expected[3, 0:5] = True  # a 5 px horizontal bar on the middle row
    np.testing.assert_array_equal(_line_ink("-"), expected)


def test_line_ink_dot_glyph_exact():
    expected = np.zeros((CELL, CELL), dtype=bool)
    expected[5:7, 1:3] = True  # 2x2 dot near the baseline
    np.testing.assert_array_equal(_line_ink("."), expected)


def test_line_ink_t_glyph_ink_count():
    assert np.count_nonzero(_line_ink("T")) == 11  # a 5 px bar over a 6 px stem


def test_unknown_character_renders_blank_cell():
    ink = _line_ink("~")
    assert ink.shape == (CELL, CELL)
    assert not ink.any()


def test_line_ink_advances_one_cell_per_character():
    ink = _line_ink("--")
    assert ink.shape == (CELL, 2 * CELL)
    np.testing.assert_array_equal(ink[:, CELL:], _line_ink("-"))
    np.testing.assert_array_equal(ink[:, :CELL], _line_ink("-"))


def test_lowercase_maps_to_uppercase():
    np.testing.assert_array_equal(_line_ink("k"), _line_ink("K"))
    assert _line_ink("k").any()


def test_overlay_pass_stamps_opaque_box():
    img = LdrImage(pixels=gray(24, 400))
    out = overlay_pass(img, 12, 36, (1.0, 2.0, 3.0)).pixels
    ink = _line_ink(format_stats(12, 36, (1.0, 2.0, 3.0)))
    box = out[2:2 + CELL, 2:2 + ink.shape[1]]
    # opaque box: every pixel either ink or background, exactly the line's ink
    assert set(np.unique(box)) <= {0, 255}
    for c in range(3):
        np.testing.assert_array_equal(box[:, :, c], np.where(ink, 255, 0))
    outside = np.ones(out.shape[:2], dtype=bool)
    outside[2:2 + CELL, 2:2 + ink.shape[1]] = False
    assert np.all(out[outside] == 90)


def test_overlay_pass_clips_at_right_edge():
    ink = _line_ink(format_stats(3, 36, (0.0, 0.0, 0.0)))
    w = 50  # the 45-cell line is far wider
    assert ink.shape[1] > w
    out = overlay_pass(LdrImage(pixels=gray(12, w)), 3, 36, (0.0, 0.0, 0.0)).pixels
    assert out.shape == (12, w, 3)
    np.testing.assert_array_equal(out[2:2 + CELL, 2:, 0], np.where(ink[:, :w - 2], 255, 0))
    assert np.all(out[:2] == 90) and np.all(out[2 + CELL:] == 90)
    assert np.all(out[:, :2] == 90)


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
