"""Image decoding/encoding, grayscale conversion, and synthetic distortions.

File support is deliberately narrow: binary and ASCII PGM/PPM (P2, P3,
P5, P6) with maxval 255 or 65535. Color input is reduced to luma with
the Rec.601 weights. Values are held as float32 in [0, 1]. Tokens are
split by filler: the six whitespace bytes (space, tab, LF, CR, VT, FF)
and ``#`` comments, which run to the newline in the header and in a plain
raster alike and also end a token. The magic number starts the file.
Exactly one whitespace byte precedes a binary raster. A plain (P2/P3)
file holds one image, so only filler may follow its last sample; a
binary file may hold several, so bytes after its raster are ignored. A
ParseError's offset is a byte offset into the file.

The distortion bank is one table, ``_FAMILIES``, of three parametric
families with severity 1..5; ``DISTORTION_KINDS`` is its keys, and
``DistortionSpec`` is the one check of a kind and a severity. The noise
family draws from the counter-based generator in :mod:`tempqt.rng`, so
a given (image, spec) pair produces bit-identical output on every run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ParseError
from .rng import CounterRng, derive_seed

_LUMA_R, _LUMA_G, _LUMA_B = 0.299, 0.587, 0.114


@dataclass
class GrayImage:
    """A whole single-channel image, loaded, synthesized or written: float32
    pixels in [0, 1], shape (H, W). Its crops are read-only pixel views."""

    height: int
    width: int
    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape != (self.height, self.width):
            raise ArgumentError(
                f"pixel array shape {arr.shape} does not match {self.height}x{self.width}"
            )
        arr = arr.astype(np.float32, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ArgumentError("pixels must be finite")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ArgumentError("pixels must lie in [0, 1]")
        self.pixels = arr

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        arr = np.asarray(arr)
        return cls(arr.shape[0], arr.shape[1], arr)


@dataclass
class ImageBatch:
    """Equal-size grayscale images as one float32 pixel stack (B, H, W):
    what the model reads.

    ``pixels`` is a (B, H, W) array, or a list or tuple of equal-size
    2-D arrays such as crops, which it stacks into one new array: the
    batch holds their only copy. ``as_batch`` makes a single GrayImage a
    batch of one.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float32)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise ArgumentError(f"an image batch needs (B, H, W) pixels with B >= 1, got {arr.shape}")
        self.pixels = arr


def as_batch(images) -> ImageBatch:
    """An ImageBatch as it is, a GrayImage as a batch of one."""
    if isinstance(images, ImageBatch):
        return images
    return ImageBatch(images.pixels[None])


# filler (a whitespace byte, or a comment through its newline), then one token
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n?)*([^ \t\n\r\x0b\x0c#]*)")


def _token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """The next token at or after ``pos``: its bytes, its offset, the position after it."""
    start, end = _TOKEN.match(data, pos).span(1)
    if start == end:
        raise ParseError(f"unexpected end of file while reading {what}", start)
    return data[start:end], start, end


def _integer(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    tok, start, end = _token(data, pos, what)
    if not tok.isdigit():
        raise ParseError(f"expected an integer for {what}, got {tok!r}", start)
    return int(tok), start, end


def _parse_pnm(data: bytes) -> tuple[str, int, int, int, np.ndarray]:
    magic, off, pos = _token(data, 0, "magic number")
    if off:
        raise ParseError("the magic number must start the file", 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ParseError(f"unsupported magic {magic!r}", off)
    magic = magic.decode()
    width, off, pos = _integer(data, pos, "width")
    if width < 1:
        raise ParseError("width must be positive", off)
    height, off, pos = _integer(data, pos, "height")
    if height < 1:
        raise ParseError("height must be positive", off)
    maxval, off, pos = _integer(data, pos, "maxval")
    if maxval not in (255, 65535):
        raise ParseError(f"unsupported maxval {maxval} (expected 255 or 65535)", off)
    count = width * height * (3 if magic in ("P3", "P6") else 1)

    if magic in ("P5", "P6"):
        # exactly one whitespace byte separates the header from the raster
        if not data[pos : pos + 1].isspace():
            raise ParseError("expected a whitespace byte after maxval", pos)
        dtype = np.dtype(">u2" if maxval == 65535 else np.uint8)
        need, have = count * dtype.itemsize, len(data) - pos - 1
        if have < need:
            raise ParseError(f"truncated raster: need {need} bytes, file has {have}", len(data))
        samples = np.frombuffer(data, dtype, count=count, offset=pos + 1).astype(np.float64)
    else:
        # each sample needs a digit and a separator; check before allocating
        raster = len(data) - pos - 1
        if raster < 2 * count - 1:
            raise ParseError(
                f"truncated raster: {count} samples need at least {2 * count - 1} bytes, file has {max(raster, 0)}",
                len(data),
            )
        samples = np.empty(count, dtype=np.float64)
        for i in range(count):
            v, off, pos = _integer(data, pos, "sample value")
            if v > maxval:
                raise ParseError(f"sample {v} exceeds maxval {maxval}", off)
            samples[i] = v
        start, end = _TOKEN.match(data, pos).span(1)
        if start < end:
            raise ParseError("extra data after the last sample", start)

    return magic, width, height, maxval, samples


def load_image(path) -> GrayImage:
    """Load a PGM or PPM file as a grayscale image in [0, 1]; a ParseError names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, width, height, maxval, samples = _parse_pnm(data)
    except ParseError as err:
        raise ParseError(f"{path}: {err.message}", err.offset) from None
    scaled = samples / float(maxval)
    if magic in ("P3", "P6"):
        rgb = scaled.reshape(height, width, 3)
        gray = _LUMA_R * rgb[:, :, 0] + _LUMA_G * rgb[:, :, 1] + _LUMA_B * rgb[:, :, 2]
    else:
        gray = scaled.reshape(height, width)
    return GrayImage(height, width, np.clip(gray, 0.0, 1.0).astype(np.float32))


def _levels(img: GrayImage) -> np.ndarray:
    """Pixels rounded to the 8-bit grid, as float64 levels 0..255."""
    return np.clip(np.rint(img.pixels.astype(np.float64) * 255.0), 0, 255)


def save_image(img: GrayImage, path) -> None:
    """Write an 8-bit binary PGM; pixels are rounded to the 255 grid."""
    q = _levels(img).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())


def quantize_to_8bit(img: GrayImage) -> GrayImage:
    """Snap pixels to the 8-bit grid, matching a save/load round trip."""
    q = _levels(img) / 255.0
    return GrayImage(img.height, img.width, q.astype(np.float32))


# ---------------------------------------------------------------------------
# distortions


def _gaussian_blur(img: GrayImage, severity: int, seed: int) -> np.ndarray:
    sigma = 0.5 * severity
    radius = max(1, int(np.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    # separable pass with edge replication
    p = img.pixels.astype(np.float64)
    padded = np.pad(p, ((0, 0), (radius, radius)), mode="edge")
    rows = np.zeros_like(p)
    for k, wgt in enumerate(kernel):
        rows += wgt * padded[:, k : k + img.width]
    padded = np.pad(rows, ((radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(p)
    for k, wgt in enumerate(kernel):
        out += wgt * padded[k : k + img.height, :]
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def _white_noise(img: GrayImage, severity: int, seed: int) -> np.ndarray:
    std = 0.04 * severity
    rng = CounterRng(seed)
    noise = rng.normal(img.height * img.width).reshape(img.height, img.width) * std
    return np.clip(img.pixels.astype(np.float64) + noise, 0.0, 1.0).astype(np.float32)


def _block_quantize(img: GrayImage, severity: int, seed: int) -> np.ndarray:
    """Round each 8x8 block's deviations from its mean to a 2**(severity - 7) step.

    The block grid is anchored at the top-left pixel. Where a side is not
    a multiple of 8, the right and bottom edge blocks are smaller, and
    each is quantized about its own mean. The work is done in float64,
    and the output bytes match those of the per-block loop kept as the
    reference in tests/test_imaging.py.
    """
    step = 1.0 / 2 ** (7 - severity)
    p = img.pixels.astype(np.float64)
    out = np.empty_like(p)
    h8, w8 = img.height - img.height % 8, img.width - img.width % 8
    # the aligned blocks, the right strip, the bottom strip and the
    # corner, each as one (block rows, bh, block cols, bw) view
    for rows in (slice(0, h8), slice(h8, None)):
        for cols in (slice(0, w8), slice(w8, None)):
            region = p[rows, cols]
            if region.size == 0:
                continue
            rh, rw = region.shape
            bh, bw = min(rh, 8), min(rw, 8)
            blocks = region.reshape(rh // bh, bh, rw // bw, bw)
            # Quantize deviations from each block's mean so a fully
            # flattened block settles exactly at its original average.
            m = blocks.mean(axis=(1, 3), keepdims=True)
            out[rows, cols] = (m + np.rint((blocks - m) / step) * step).reshape(rh, rw)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


# kind -> (image, severity, seed) -> pixels; only the noise family reads the seed
_FAMILIES = {
    "gaussian_blur": _gaussian_blur,
    "white_noise": _white_noise,
    "block_quantize": _block_quantize,
}
DISTORTION_KINDS = tuple(_FAMILIES)
SEVERITIES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class DistortionSpec:
    """One distortion to apply: a family, a severity, and a noise seed."""

    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ArgumentError(f"unknown distortion kind {self.kind!r}")
        if not isinstance(self.severity, (int, np.integer)) or self.severity not in SEVERITIES:
            raise ArgumentError(
                f"severity must be an integer in {SEVERITIES[0]}..{SEVERITIES[-1]}, got {self.severity!r}"
            )


def pseudo_mos(spec: DistortionSpec) -> float:
    """Synthetic subjective score: 0.82 at severity 1, falling 0.18 per step."""
    return float(1.0 - 0.18 * spec.severity)


def apply_distortion(img: GrayImage, spec: DistortionSpec) -> GrayImage:
    """Apply one distortion from the family table."""
    return GrayImage(img.height, img.width, _FAMILIES[spec.kind](img, spec.severity, spec.seed))


# ---------------------------------------------------------------------------
# procedural content for experiments and tests


def make_texture(height: int, width: int, seed: int) -> GrayImage:
    """Procedural base texture: a fixed multi-band grid with seeded jitter.

    All instances share the same four-band spectrum (checkerboard plus
    gratings at periods ~6, ~12, and ~20 pixels) and differ in phases,
    small amplitude jitter, and axis orientation. Every blur severity
    removes a distinct band, every 8x8 block carries contrast for
    quantization to bite, and the shared spectrum keeps the family
    narrow enough for short training schedules to generalize across
    instances. Content diversity is deliberately traded away: these
    textures exercise distortion-severity ordering, not cross-content
    robustness.
    """
    if height < 1 or width < 1:
        raise ArgumentError("texture dims must be positive")
    rng = CounterRng(derive_seed(seed, "texture"))
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    checker = 2.0 * ((xs + ys) % 2) - 1.0
    field = (0.42 + 0.08 * rng.random()) * checker
    # (period, base weight, direction pair) per grating band
    bands = [(6.0, 0.95, (1.0, 0.7)), (12.0, 0.80, (0.6, -1.0)), (20.0, 0.60, (1.0, -0.35))]
    for period, weight, (dx, dy) in bands:
        phase = 2.0 * np.pi * rng.random()
        w = weight * (0.9 + 0.2 * rng.random())
        field += w * np.sin(2.0 * np.pi * (dx * xs + dy * ys) / period + phase)
    if rng.random() < 0.5:
        field = field[:, ::-1]
    if rng.random() < 0.5:
        field = field[::-1, :]
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-9:
        return GrayImage(height, width, np.full((height, width), 0.5, dtype=np.float32))
    # leave headroom at both ends so additive noise is not mostly clipped
    norm = 0.08 + 0.84 * (field - lo) / (hi - lo)
    return GrayImage(height, width, np.ascontiguousarray(norm).astype(np.float32))
