"""Stats overlay composited over the 8-bit image as a text layer.

Glyphs are an 8x8 bitmap font covering digits, uppercase letters and
the punctuation the stats line needs.  Cells are opaque: black cell,
white glyph pixels, advancing 8 px per character on a fixed grid, so the
overlay is deterministic and cheap to compare in goldens.  Characters
without a glyph render as blank cells; cells clip at the image border.
"""

from __future__ import annotations

import numpy as np

from .framebuffer import LdrImage

CELL = 8

_GLYPH_ROWS = {
    " ": ["........"] * 8,
    "A": ["..##....", ".#..#...", "#....#..", "#....#..", "######..", "#....#..", "#....#..", "........"],
    "B": ["#####...", "#....#..", "#....#..", "#####...", "#....#..", "#....#..", "#####...", "........"],
    "C": [".####...", "#....#..", "#.......", "#.......", "#.......", "#....#..", ".####...", "........"],
    "D": ["#####...", "#....#..", "#....#..", "#....#..", "#....#..", "#....#..", "#####...", "........"],
    "E": ["######..", "#.......", "#.......", "#####...", "#.......", "#.......", "######..", "........"],
    "F": ["######..", "#.......", "#.......", "#####...", "#.......", "#.......", "#.......", "........"],
    "G": [".####...", "#....#..", "#.......", "#..###..", "#....#..", "#....#..", ".####...", "........"],
    "H": ["#....#..", "#....#..", "#....#..", "######..", "#....#..", "#....#..", "#....#..", "........"],
    "I": [".###....", "..#.....", "..#.....", "..#.....", "..#.....", "..#.....", ".###....", "........"],
    "J": ["...###..", "....#...", "....#...", "....#...", "....#...", "#...#...", ".###....", "........"],
    "K": ["#....#..", "#...#...", "#..#....", "##......", "#..#....", "#...#...", "#....#..", "........"],
    "L": ["#.......", "#.......", "#.......", "#.......", "#.......", "#.......", "######..", "........"],
    "M": ["#....#..", "##..##..", "#.##.#..", "#.##.#..", "#....#..", "#....#..", "#....#..", "........"],
    "N": ["#....#..", "##...#..", "#.#..#..", "#..#.#..", "#...##..", "#....#..", "#....#..", "........"],
    "O": [".####...", "#....#..", "#....#..", "#....#..", "#....#..", "#....#..", ".####...", "........"],
    "P": ["#####...", "#....#..", "#....#..", "#####...", "#.......", "#.......", "#.......", "........"],
    "Q": [".####...", "#....#..", "#....#..", "#....#..", "#..#.#..", "#...#...", ".###.#..", "........"],
    "R": ["#####...", "#....#..", "#....#..", "#####...", "#..#....", "#...#...", "#....#..", "........"],
    "S": [".#####..", "#.......", "#.......", ".####...", ".....#..", ".....#..", "#####...", "........"],
    "T": ["#####...", "..#.....", "..#.....", "..#.....", "..#.....", "..#.....", "..#.....", "........"],
    "U": ["#....#..", "#....#..", "#....#..", "#....#..", "#....#..", "#....#..", ".####...", "........"],
    "V": ["#....#..", "#....#..", "#....#..", "#....#..", ".#..#...", ".#..#...", "..##....", "........"],
    "W": ["#....#..", "#....#..", "#....#..", "#.##.#..", "#.##.#..", "##..##..", "#....#..", "........"],
    "X": ["#....#..", ".#..#...", "..##....", "..##....", "..##....", ".#..#...", "#....#..", "........"],
    "Y": ["#...#...", "#...#...", ".#.#....", "..#.....", "..#.....", "..#.....", "..#.....", "........"],
    "Z": ["######..", ".....#..", "....#...", "...#....", "..#.....", ".#......", "######..", "........"],
    "0": [".####...", "#....#..", "#...##..", "#.#..#..", "##...#..", "#....#..", ".####...", "........"],
    "1": ["..#.....", ".##.....", "..#.....", "..#.....", "..#.....", "..#.....", ".###....", "........"],
    "2": [".####...", "#....#..", ".....#..", "...##...", "..#.....", ".#......", "######..", "........"],
    "3": [".####...", "#....#..", ".....#..", "..###...", ".....#..", "#....#..", ".####...", "........"],
    "4": ["....#...", "...##...", "..#.#...", ".#..#...", "######..", "....#...", "....#...", "........"],
    "5": ["######..", "#.......", "#####...", ".....#..", ".....#..", "#....#..", ".####...", "........"],
    "6": [".####...", "#.......", "#.......", "#####...", "#....#..", "#....#..", ".####...", "........"],
    "7": ["######..", ".....#..", "....#...", "...#....", "..#.....", "..#.....", "..#.....", "........"],
    "8": [".####...", "#....#..", "#....#..", ".####...", "#....#..", "#....#..", ".####...", "........"],
    "9": [".####...", "#....#..", "#....#..", ".#####..", ".....#..", ".....#..", ".####...", "........"],
    ".": ["........", "........", "........", "........", "........", ".##.....", ".##.....", "........"],
    ",": ["........", "........", "........", "........", ".##.....", ".##.....", "..#.....", ".#......"],
    ":": ["........", ".##.....", ".##.....", "........", ".##.....", ".##.....", "........", "........"],
    "(": ["...#....", "..#.....", ".#......", ".#......", ".#......", "..#.....", "...#....", "........"],
    ")": [".#......", "..#.....", "...#....", "...#....", "...#....", "..#.....", ".#......", "........"],
    "+": ["........", "..#.....", "..#.....", "#####...", "..#.....", "..#.....", "........", "........"],
    "-": ["........", "........", "........", "#####...", "........", "........", "........", "........"],
    "/": [".....#..", "....#...", "...#....", "..##....", "..#.....", ".#......", "#.......", "........"],
}

FONT = {ch: np.array([[c == "#" for c in row] for row in rows], dtype=bool)
        for ch, rows in _GLYPH_ROWS.items()}

# glyphs indexed by ASCII code so a whole line renders as one gather;
# codes without a glyph stay blank cells
_GLYPH_LUT = np.zeros((128, CELL, CELL), dtype=bool)
for _ch, _glyph in FONT.items():
    _GLYPH_LUT[ord(_ch)] = _glyph


def _line_ink(text: str) -> np.ndarray:
    """(CELL, CELL * n) ink mask of the whole text line."""
    codes = np.frombuffer(text.upper().encode("ascii", "replace"), dtype=np.uint8)
    glyphs = _GLYPH_LUT[codes % 128]
    return glyphs.transpose(1, 0, 2).reshape(CELL, len(codes) * CELL)


def _clip_box(x: int, y: int, lw: int, lh: int, w: int, h: int):
    gx0, gy0 = max(-x, 0), max(-y, 0)
    gx1, gy1 = min(w - x, lw), min(h - y, lh)
    return gx0, gy0, gx1, gy1


def render_text(pixels: np.ndarray, text: str, x: int, y: int) -> None:
    """Stamp text cells into (H, W, 3) uint8 pixels in place, clipped.

    Cells are opaque: the whole text box is zeroed, ink pixels are 255.
    """
    if not text:
        return
    h, w = pixels.shape[:2]
    ink = _line_ink(text)
    gx0, gy0, gx1, gy1 = _clip_box(x, y, ink.shape[1], ink.shape[0], w, h)
    if gx1 <= gx0 or gy1 <= gy0:
        return
    box = pixels[y + gy0:y + gy1, x + gx0:x + gx1]
    box[:] = np.where(ink[gy0:gy1, gx0:gx1, None], np.uint8(255), np.uint8(0))


def format_stats(frame_index: int, triangle_count: int, camera_position) -> str:
    """The stats line: only values derived from the input, so frames repeat byte for byte."""
    p = np.asarray(camera_position, dtype=np.float64)
    return (f"FRAME {frame_index:04d} {int(triangle_count):6d} TRI "
            f"CAM ({p[0]:+.2f} {p[1]:+.2f} {p[2]:+.2f})")


def overlay_pass(image: LdrImage, frame_index: int, triangle_count: int,
                 camera_position, enabled: bool = True) -> LdrImage:
    """Composite the stats line over the frame as a full-size layer.

    The text renders into a screen-size ink/coverage pair and one
    select paints the output, so the pass touches every pixel and its
    cost tracks the resolution, never the scene.  The stats box itself
    is opaque: black cell background, white ink, anchored at (2, 2).
    """
    if not enabled:
        return image
    text = format_stats(frame_index, triangle_count, camera_position)
    h, w = image.height, image.width
    line = _line_ink(text)
    ink = np.zeros((h, w), dtype=bool)
    covered = np.zeros((h, w), dtype=bool)
    x = y = 2
    gx0, gy0, gx1, gy1 = _clip_box(x, y, line.shape[1], line.shape[0], w, h)
    if gx1 > gx0 and gy1 > gy0:
        ink[y + gy0:y + gy1, x + gx0:x + gx1] = line[gy0:gy1, gx0:gx1]
        covered[y + gy0:y + gy1, x + gx0:x + gx1] = True
    glyph_layer = np.where(ink[..., None], np.uint8(255), np.uint8(0))
    out = np.where(covered[..., None], glyph_layer, image.pixels)
    return LdrImage(pixels=out)
