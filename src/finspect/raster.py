"""Image containers and a minimal netpbm codec.

Supported formats are PGM (P2 ASCII, P5 binary) and PPM (P3 ASCII, P6
binary) with maxval 255. Headers are whitespace tolerant and may contain
``#`` comments anywhere before the maxval token. A gray image is its 8-bit
levels, ``GrayImage.levels``; its intensities in [0, 1], ``pixels``, are
level / 255, derived on first read. A decoded PGM keeps its samples, and
floats enter through ``GrayImage.from_pixels``, which rounds them
(``gray_levels``). Color images keep their 8-bit channels; an RgbImage
built from non-integer channels rounds them the same way. Segmentation and
the encoder read only the levels.

RGB reduction follows f = (alpha*i + beta*j + gamma*k) / 255 with the luma
defaults alpha=0.299, beta=0.587, gamma=0.114, and rounds f to its level.
Each coefficient must lie in [0, 1] and the three must sum to 1;
GrayscaleCoefficients checks both on construction, and so rejects NaN and
infinite coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PnmDecodeError, ShapeError, readonly

_WHITESPACE = b" \t\n\r\x0b\x0c"
_DIGITS = b"0123456789"
_LEVEL_VALUES = readonly(np.arange(256) / 255.0)  # each level's intensity, as in ``pixels``


@dataclass(frozen=True)
class GrayImage:
    """Row-major grid of 8-bit levels, a non-empty 2-D uint8 array."""

    levels: np.ndarray

    def __post_init__(self):
        levels = readonly(self.levels)
        if levels.dtype != np.uint8 or levels.ndim != 2 or levels.size == 0:
            raise ShapeError("GrayImage levels must be a non-empty 2-D uint8 array")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def from_pixels(cls, pixels) -> GrayImage:
        """The image of intensities in [0, 1], each rounded to its level (``gray_levels``)."""
        px = np.asarray(pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise ShapeError("GrayImage requires a non-empty 2-D array")
        if not np.isfinite(px).all():
            raise ShapeError("GrayImage intensities must be finite")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ShapeError("GrayImage intensities must lie in [0, 1]")
        return cls(gray_levels(px))

    @functools.cached_property
    def pixels(self) -> np.ndarray:
        """Each pixel's intensity, level / 255, computed on first read."""
        return readonly(self.levels / 255.0)

    @property
    def height(self) -> int:
        return self.levels.shape[0]

    @property
    def width(self) -> int:
        return self.levels.shape[1]


def as_pixels(img) -> np.ndarray:
    """A feature extractor's input, a 2-D array of intensities, as floats."""
    px = np.asarray(img, dtype=np.float64)
    if px.ndim != 2 or px.size == 0:
        raise ShapeError("expected a non-empty 2-D intensity array")
    return px


@dataclass(frozen=True)
class RgbImage:
    """Row-major grid of (i, j, k) channel triples, each in [0, 255], kept as uint8;
    a non-integer channel c is rounded to floor(c + 0.5)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.size == 0:
            raise ShapeError("RgbImage requires a non-empty (h, w, 3) array")
        if not (px.min() >= 0 and px.max() <= 255):  # NaN fails both
            raise ShapeError("RgbImage channels must lie in [0, 255]")
        if not np.issubdtype(px.dtype, np.integer):
            px = np.floor(px + 0.5)  # round to the nearest level, half up, as gray_levels
        object.__setattr__(self, "pixels", readonly(px, np.uint8))


@dataclass(frozen=True)
class BinaryImage:
    """Row-major grid of bits; 0 is background, 1 is foreground."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.size == 0:
            raise ShapeError("BinaryImage requires a non-empty 2-D array")
        if not ((b == 0) | (b == 1)).all():
            raise ShapeError("BinaryImage bits must be 0 or 1")
        object.__setattr__(self, "bits", readonly(b, np.uint8))


@dataclass(frozen=True)
class GrayscaleCoefficients:
    """Channel weights for RGB reduction. alpha + beta + gamma must be 1."""

    alpha: float = 0.299
    beta: float = 0.587
    gamma: float = 0.114

    def __post_init__(self):
        # each check states what must hold, so NaN (every comparison false) fails it
        if not all(0 <= c <= 1 for c in (self.alpha, self.beta, self.gamma)):
            raise ParameterError("grayscale coefficients must lie in [0, 1]")
        if not abs(self.alpha + self.beta + self.gamma - 1.0) <= 1e-9:
            raise ParameterError(
                "grayscale coefficients must sum to 1 within 1e-9, got "
                f"{self.alpha + self.beta + self.gamma!r}"
            )


def _next_token(data: bytes, pos: int, allow_comments: bool) -> tuple[bytes, int, int]:
    """Return (token, token_start, next_pos), skipping whitespace and comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#" and allow_comments:
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PnmDecodeError("unexpected end of header", n)
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], start, pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, pos = _next_token(data, pos, allow_comments=True)
    if not token.isdigit():  # int() would also take "+3", "1_0" and "-0"
        raise PnmDecodeError(f"invalid {what} token {token!r}", start)
    return int(token), start, pos


def _ascii_samples_by_token(data: bytes, pos: int, count: int) -> np.ndarray:
    """Read ``count`` ASCII samples one token at a time, naming the offset of a bad one."""
    samples = np.empty(count, dtype=np.uint8)
    for idx in range(count):
        try:
            token, start, pos = _next_token(data, pos, allow_comments=False)
        except PnmDecodeError:
            raise PnmDecodeError(
                f"truncated payload: expected {count} samples, got {idx}", len(data)
            ) from None
        if not token.isdigit():
            raise PnmDecodeError(f"invalid sample token {token!r}", start)
        value = int(token)
        if value > 255:
            raise PnmDecodeError(f"sample {value} out of range [0, 255]", start)
        samples[idx] = value
    return samples


def _ascii_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    """Parse the ASCII payload in one array pass; input it rejects goes token by token.

    The fast path takes payloads of digits and whitespace whose first
    ``count`` tokens have at most 3 digits each and are at most 255. The
    token walker decides every other payload, so it alone reports the
    failing byte offset, and a valid payload gives the same samples either way.
    """
    payload = data[pos:]
    if not payload.translate(None, _DIGITS + _WHITESPACE):
        # each byte's digit value; every whitespace byte lies below b"0"
        digits = np.frombuffer(payload, dtype=np.uint8).astype(np.int64) - ord("0")
        edges = np.flatnonzero(np.diff(digits >= 0, prepend=False, append=False))
        starts, ends = edges[0::2][:count], edges[1::2][:count]
        length = ends - starts
        if starts.size == count and length.max() <= 3:
            # units, tens and hundreds, a place past the token's start adding 0
            samples = sum(np.where(length > place, digits[ends - 1 - place], 0) * 10**place
                          for place in range(3))
            if samples.max() <= 255:
                return samples.astype(np.uint8)
    return _ascii_samples_by_token(data, pos, count)


def decode_image(data: bytes) -> RgbImage | GrayImage:
    """Decode PGM/PPM bytes into a GrayImage or RgbImage.

    Raises PnmDecodeError (with the failing byte offset) on malformed
    headers, truncated payloads, out-of-range samples, or maxval != 255.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise PnmDecodeError("input must be bytes", 0)
    data = bytes(data)
    magic, magic_at, pos = _next_token(data, 0, allow_comments=True)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmDecodeError(f"unsupported magic {magic!r}", magic_at)
    width, w_at, pos = _header_int(data, pos, "width")
    height, h_at, pos = _header_int(data, pos, "height")
    if width <= 0:
        raise PnmDecodeError(f"width must be positive, got {width}", w_at)
    if height <= 0:
        raise PnmDecodeError(f"height must be positive, got {height}", h_at)
    maxval, m_at, pos = _header_int(data, pos, "maxval")
    if maxval != 255:
        raise PnmDecodeError(f"unsupported maxval {maxval}, only 255", m_at)

    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels

    if magic in (b"P2", b"P3"):
        samples = _ascii_samples(data, pos, count)
    else:
        # exactly one whitespace byte separates the maxval token from the payload
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise PnmDecodeError("missing whitespace before binary payload", pos)
        start = pos + 1
        if len(data) - start < count:
            raise PnmDecodeError(
                f"truncated payload: expected {count} bytes, got {len(data) - start}",
                len(data),
            )
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)

    if channels == 1:
        return GrayImage(samples.reshape(height, width))
    return RgbImage(samples.reshape(height, width, 3))


def gray_levels(pixels: np.ndarray) -> np.ndarray:
    """8-bit level floor(g * 255 + 0.5) of each intensity g in [0, 1], as uint8."""
    scaled = pixels * 255.0
    scaled += 0.5  # in place: a second canvas-sized temporary costs more than the sum
    return scaled.astype(np.uint8)  # on these nonnegative values truncation is floor


_LEVEL_TEXT = tuple(str(level).encode() for level in range(256))


def encode_pgm(img: GrayImage) -> bytes:
    """Encode a GrayImage as ASCII PGM (P2): its ``levels``."""
    words = [_LEVEL_TEXT[s] for s in img.levels.ravel().tolist()]
    lines = [b"P2", f"{img.width} {img.height}".encode(), b"255"]
    # hold every line under the conventional 70-character limit
    per_line = 17
    lines += [b" ".join(words[i : i + per_line]) for i in range(0, len(words), per_line)]
    return b"\n".join(lines) + b"\n"


def to_grayscale(img: RgbImage,
                 coeff: GrayscaleCoefficients = GrayscaleCoefficients()) -> GrayImage:
    """Reduce an RGB image to the levels of f = (alpha*i + beta*j + gamma*k) / 255."""
    px = img.pixels.astype(np.float64)
    f = (coeff.alpha * px[:, :, 0] + coeff.beta * px[:, :, 1] + coeff.gamma * px[:, :, 2]) / 255.0
    return GrayImage.from_pixels(np.clip(f, 0.0, 1.0))
