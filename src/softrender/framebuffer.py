"""Multisampled render targets and 8-bit image output.

Color is stored per sample in display-referred float32 (tone mapping and
the transfer function are applied at shading time, before the write).
Resolve averages samples and quantizes with round-half-up, which pins
the exact byte values golden tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

# Subpixel sample positions in [0, 1), per supported sample count.
# 1x is the pixel center, 2x the diagonal pair, 4x the rotated grid,
# 8x the common 8-point pattern on the 1/16 lattice.
SAMPLE_POSITIONS = {
    1: np.array([[0.5, 0.5]]),
    2: np.array([[0.75, 0.75], [0.25, 0.25]]),
    4: np.array([[0.375, 0.125], [0.875, 0.375], [0.125, 0.625], [0.625, 0.875]]),
    8: np.array([
        [0.5625, 0.3125], [0.4375, 0.6875], [0.8125, 0.5625], [0.3125, 0.1875],
        [0.1875, 0.8125], [0.0625, 0.4375], [0.6875, 0.9375], [0.9375, 0.0625],
    ]),
}


@dataclass
class Framebuffer:
    width: int
    height: int
    samples: int
    color: np.ndarray  # (H, W, S, 3) float32, display-referred
    depth: np.ndarray  # (H, W, S) float32, cleared to +inf


def create_framebuffer(width: int, height: int, samples: int) -> Framebuffer:
    if samples not in SAMPLE_POSITIONS:
        raise ConfigurationError(f"unsupported sample count {samples} (use 1, 2, 4 or 8)")
    if width < 1 or height < 1:
        raise ConfigurationError("framebuffer must be at least 1x1")
    return Framebuffer(
        width=width, height=height, samples=samples,
        color=np.zeros((height, width, samples, 3), dtype=np.float32),
        depth=np.full((height, width, samples), np.inf, dtype=np.float32),
    )


def clear_framebuffer(fb: Framebuffer, color) -> None:
    """Every sample to `color` and depth +inf.

    One pixel is written, copied along the first row, and that row down
    the image: contiguous copies, where a 3-float broadcast over the whole
    target is an order of magnitude slower.
    """
    fb.color[0, 0] = np.asarray(color, dtype=np.float32)
    fb.color[0, 1:] = fb.color[0, 0]
    fb.color[1:] = fb.color[0]
    fb.depth.fill(np.inf)


@dataclass
class LdrImage:
    pixels: np.ndarray  # (H, W, 3) uint8

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError("LdrImage expects (H, W, 3)")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def quantize_unit(values: np.ndarray) -> np.ndarray:
    """[0, 1] float64 values to uint8 by round-half-up: floor(v * 255 + 0.5).

    Works in place: values is clipped and scaled, so pass an array the
    caller owns and no longer needs.
    """
    v = np.clip(values, 0.0, 1.0, out=values)
    v *= 255.0
    v += 0.5
    return np.floor(v, out=v).astype(np.uint8)


def resolve_msaa(fb: Framebuffer) -> LdrImage:
    """Arithmetic mean over samples, then quantize.

    The sample planes add in float64 in sample order, as a float64 mean
    over the sample axis adds them, without a float64 copy of the target.
    """
    total = fb.color[:, :, 0].astype(np.float64)
    for s in range(1, fb.samples):
        total += fb.color[:, :, s]
    total /= fb.samples
    return LdrImage(pixels=quantize_unit(total))


def ppm_bytes(image: LdrImage) -> bytes:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def check_image_path(path) -> str:
    """'ppm' or 'png', as the path's suffix (any case) says; ConfigurationError
    for any other suffix, and for '.png' without the optional Pillow."""
    suffix = Path(path).suffix.lower()
    if suffix == ".png":
        try:
            import PIL  # noqa: F401
        except ImportError as e:
            raise ConfigurationError("PNG output needs the optional Pillow dependency") from e
    elif suffix != ".ppm":
        raise ConfigurationError(f"image path '{path}' must end in .ppm or .png")
    return suffix[1:]


def write_image(image: LdrImage, path) -> Path:
    """Write binary PPM or, with the optional Pillow, PNG, as check_image_path says."""
    path = Path(path)
    if check_image_path(path) == "ppm":
        path.write_bytes(ppm_bytes(image))
    else:
        from PIL import Image
        Image.fromarray(image.pixels, mode="RGB").save(path, format="PNG")
    return path


def read_ppm(path) -> LdrImage:
    """Strict reader for the P6 form this package writes."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError(f"{path}: not a packaged P6 file")
    w, h = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3).reshape(h, w, 3)
    return LdrImage(pixels=pixels.copy())
