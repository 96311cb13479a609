"""Noise removal, Otsu binarization, and random-walker segmentation.

The segmentation path is: median filter, Otsu threshold, binarize, derive
one seed set per 4-connected foreground component plus a background seed
set, then solve the random-walker Dirichlet problem on the pixel graph and
assign each pixel to its argmax shape. A component's seed set is its core,
the component eroded by ``SEED_EROSION`` = 3 pixels, so that seeds lie on
both sides of every boundary, as Grady's method assumes, and the walker
decides only a thin band along each boundary (the automatic markers of
marker-controlled watershed, Beucher & Meyer 1993). A speck that erosion
empties keeps the one pixel nearest its centroid.

The median filter is an exact min/max selection network: Batcher's
odd-even merge sort, pruned to the comparators the middle output depends
on, applied to shifted views of the edge-padded image. Every image is
filtered, counted and thresholded on its 8-bit ``levels`` alone: a decoded
PGM's samples, or the rounded pixels of any other image, such as a
grayscale-reduced color image. Only the median filter and Otsu's histogram
see the whole canvas:
``segment_image`` binarizes, seeds and walks in the foreground's bounding
box grown by one pixel, which holds every free pixel and their neighbours,
and falls back to the whole canvas when the box spans its width or height
or covers more than half of it (``_window``). The random walker assembles
its reduced system from each free pixel's own in-image 4-neighbours, so
its cost follows the free band rather than the canvas. Each degree is
summed in the order the pixel's neighbours are gathered, not in the
canvas's edge order, so gamma can differ from a whole-canvas assembly by
about 1e-14. The system is solved by banded Cholesky in reverse
Cuthill-McKee order, with one right-hand column per seed set. The
``Segmentation`` keeps the label map, each label's pixel count and gamma
for the free pixels only; a shape's masked crop is built when a caller
asks for it (``Segmentation.crop``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.ndimage
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .errors import (
    DegenerateHistogramError,
    EmptyBackgroundError,
    EmptyForegroundError,
    ImageTooSmallError,
    ParameterError,
    SolverError,
    is_integer,
)
from .raster import _LEVEL_VALUES, BinaryImage, GrayImage, encode_pgm

SIGMA_FLOOR = 1e-6
RESIDUAL_TOL = 1e-8
ROW_SUM_TOL = 1e-6  # largest |sum_j gamma_ij - 1| accepted on a free row
SEED_EROSION = 3  # depth in pixels of each foreground seed core inside its component
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _batcher_pairs(size: int):
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on ``size`` wires.

    ``size`` is a power of two. Each comparator leaves the smaller value on
    wire i and the larger on wire j, so the network sorts ascending.
    """
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(min(k, size - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield i + j, i + j + k
            k //= 2
        p *= 2


@functools.lru_cache(maxsize=None)
def _median_network(side: int) -> tuple[int, tuple[tuple, ...], int]:
    """Min/max program that selects the median of side * side inputs.

    Batcher's network is padded to a power of two with +inf wires. Every
    comparator that touches a +inf wire is dropped, and so is every min or
    max the middle output does not depend on. Registers 0 .. side**2 - 1
    hold the inputs and are only read; each step is ``(ufunc, a, b, out)``
    and writes a scratch register, reusing the one of an operand it is the
    last reader of. Returns the scratch register count, the steps and the
    register that ends up holding the median.
    """
    count = side * side
    wire = list(range(count))  # the value each real wire holds
    ops: list[tuple] = []  # value count + k is ops[k] = (ufunc, a, b)
    for i, j in _batcher_pairs(1 << (count - 1).bit_length()):
        # the padding wires count.. hold +inf; as i < j, a comparator that
        # touches one leaves it in place, so padding never moves and is dropped
        if j >= count:
            continue
        a, b = wire[i], wire[j]
        ops.append((np.minimum, a, b))
        wire[i] = count + len(ops) - 1
        ops.append((np.maximum, a, b))
        wire[j] = count + len(ops) - 1
    median = wire[count // 2]

    needed = {median}
    for k in range(len(ops) - 1, -1, -1):
        if count + k in needed:
            needed.update(ops[k][1:])
    kept = [k for k in range(len(ops)) if count + k in needed]
    last_read = {v: k for k in kept for v in ops[k][1:]}

    register = {v: v for v in range(count)}
    spare: list[int] = []
    scratch = 0
    steps = []
    for k in kept:
        ufunc, a, b = ops[k]
        dying = [register[v] for v in (a, b) if v >= count and last_read[v] == k]
        if dying:
            out = dying.pop()
            spare.extend(dying)
        elif spare:
            out = spare.pop()
        else:
            out = count + scratch
            scratch += 1
        steps.append((ufunc, register[a], register[b], out))
        register[count + k] = out
    return scratch, tuple(steps), register[median]


def median_filter(img: GrayImage, side: int = 3) -> GrayImage:
    """Replace each pixel by the median of its side x side neighborhood.

    Borders replicate the edge row/column, so output dimensions match the
    input and no level outside the input's levels is ever produced.
    The median is selected by a pruned min/max network (``_median_network``)
    run over the side**2 shifted views of the edge-padded ``levels``; its
    output is an order statistic of the window, so it equals a sorting
    median exactly. The result is the image of the median levels. As
    rounding to a level is nondecreasing, it is also the rounded median of
    the pixels.
    """
    if not (is_integer(side) and side >= 1 and side % 2 == 1):
        raise ParameterError(f"median window side must be odd and positive, an int: {side!r}")
    if side > min(img.width, img.height):
        raise ImageTooSmallError(
            f"median window {side} exceeds image extent {img.width}x{img.height}"
        )
    scratch, steps, median = _median_network(int(side))
    h, w = img.levels.shape
    padded = np.pad(img.levels, side // 2, mode="edge")
    registers = [padded[dy:dy + h, dx:dx + w] for dy in range(side) for dx in range(side)]
    registers += [np.empty((h, w), dtype=np.uint8) for _ in range(scratch)]
    for ufunc, a, b, out in steps:
        ufunc(registers[a], registers[b], out=registers[out])
    return GrayImage.from_levels(registers[median])


@dataclass(frozen=True)
class OtsuResult:
    theta: float
    sigma_in: float
    sigma_out: float
    variance: float  # the histogram's total variance, sigma_in + sigma_out up to rounding


def histogram256(img: GrayImage) -> np.ndarray:
    """Counts over 256 bins, one per level; a pixel lands in the bin of its ``levels``."""
    return np.bincount(img.levels.ravel(), minlength=256)


def otsu_threshold(img: GrayImage) -> OtsuResult:
    """Threshold maximizing the interclass variance.

    sigma_out(t) = w_b (mu_b - mu)^2 + w_a (mu_a - mu)^2 where the
    background class is every bin <= t. Tied optima are averaged. The
    complementary intraclass variance is returned alongside so the
    decomposition sigma_in + sigma_out = total variance can be checked, and
    so is the total variance, which is the variance of level / 255 over the
    image.
    """
    counts = histogram256(img)
    if np.count_nonzero(counts) < 2:
        raise DegenerateHistogramError(
            "single-valued image: no threshold separates background from foreground"
        )
    p = counts.astype(np.float64) / counts.sum()
    v = np.arange(256, dtype=np.float64) / 255.0
    mu = float(p @ v)

    w_b = np.cumsum(p)
    first_moment = np.cumsum(p * v)
    w_a = 1.0 - w_b
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_b = np.where(w_b > 0, first_moment / w_b, 0.0)
        mu_a = np.where(w_a > 0, (mu - first_moment) / w_a, 0.0)
    sigma_out = np.where(w_b > 0, w_b * (mu_b - mu) ** 2, 0.0) + np.where(
        w_a > 0, w_a * (mu_a - mu) ** 2, 0.0
    )

    best = sigma_out.max()
    tied = np.flatnonzero(sigma_out == best)
    theta = float(tied.mean() / 255.0)

    t0 = int(tied[0])
    below = v <= v[t0]
    var_b = float(p[below] @ (v[below] - mu_b[t0]) ** 2)
    var_a = float(p[~below] @ (v[~below] - mu_a[t0]) ** 2) if w_a[t0] > 0 else 0.0
    return OtsuResult(theta=theta, sigma_in=var_b + var_a, sigma_out=float(sigma_out[t0]),
                      variance=float(p @ (v - mu) ** 2))


def binarize(img: GrayImage, theta: float) -> BinaryImage:
    """h(x, y) = 0 where the pixel's level l has l / 255 <= theta, else 1.

    So a pixel is background exactly when Otsu's histogram puts its bin in
    the background class of a threshold ``theta``.
    """
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {theta}")
    cut = np.count_nonzero(_LEVEL_VALUES <= theta) - 1  # the largest background level
    return BinaryImage((img.levels > cut).astype(np.uint8))


@dataclass(frozen=True)
class ShapeCrop:
    label: int
    image: GrayImage
    bbox: tuple[int, int, int, int]  # y0, x0, y1, x1 inclusive-exclusive
    pixel_count: int


@dataclass(frozen=True)
class Segmentation:
    image: GrayImage            # the image the walker ran on
    labels: np.ndarray          # (h, w) argmax seed set per pixel; the last set is the background
    pixel_counts: np.ndarray    # (s,) pixels per label
    free: np.ndarray            # flat indices of the unseeded pixels, in solve order
    gamma: np.ndarray           # (s, free.size) clipped probabilities of the free pixels

    def crop(self, j: int) -> ShapeCrop:
        """Label j's pixels, the other labels zeroed, in the box its mask touches.

        Seeds keep their own label, so no label is empty. The other labels'
        pixels are zeroed inside the box only, so no call lists a label's
        pixel indices over the whole canvas.
        """
        mask = self.labels == j
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        y0, y1 = int(rows[0]), int(rows[-1]) + 1
        x0, x1 = int(cols[0]), int(cols[-1]) + 1
        crop = np.where(mask[y0:y1, x0:x1], self.image.pixels[y0:y1, x0:x1], 0.0)
        return ShapeCrop(label=j, image=GrayImage(crop), bbox=(y0, x0, y1, x1),
                         pixel_count=int(self.pixel_counts[j]))


def random_walker_segment(img: GrayImage, seeds: list[np.ndarray], *,
                          sigma: float | None = None) -> Segmentation:
    """Per-shape Dirichlet solves on the free pixels of the 4-neighbour graph.

    The edge between 4-neighbours i and j weighs
    eta_ij = exp(-(g_i - g_j)^2 / sigma), sigma = max(var g, 1e-6), with
    var g the intensity variance of the image, or the given ``sigma``, which
    must be finite and positive (``segment_image`` gives the whole canvas's
    from Otsu's histogram, as it may walk a part of it). For
    shape j the seeded pixels of set j are held at 1 and all other seeds at
    0, and the free pixels solve Grady's reduced system L_U x = -B^T m
    ("Random Walks for Image Segmentation", IEEE TPAMI 2006), one
    right-hand column per shape.
    L_U and the right-hand side are built straight from each free pixel's
    in-image 4-neighbours, so a free-free edge is met once from each end;
    the full Laplacian is never formed.

    L_U is symmetric positive definite when every free region touches a
    seed. Reverse Cuthill-McKee (Cuthill & McKee 1969) orders it, which
    numbers each connected free region as one run and gives a thin free
    band a small bandwidth, and LAPACK's banded Cholesky
    (``scipy.linalg.solveh_banded``) solves it. A factor that is not
    positive definite, a residual above 1e-8 of the right-hand side, or a
    free row whose probabilities miss a sum of 1 by more than 1e-6 (a
    region that reaches the seeds only through underflowing weights) raises
    ``SolverError``. Each pixel is assigned to its argmax shape; ties pick
    the lower index. Probabilities are kept for the free pixels only: a
    seeded pixel's are one-hot on its own set.
    """
    if sigma is not None and not 0.0 < sigma < np.inf:
        raise ParameterError(f"not 0 < sigma < inf: {sigma!r}")
    pixels = img.pixels
    h, w = pixels.shape
    n = h * w
    seed_sets = [np.asarray(s, dtype=np.int64).ravel() for s in seeds]
    if len(seed_sets) < 2:
        raise ParameterError("need at least 2 seed sets")
    s_count = len(seed_sets)
    owner = np.full(n, -1, dtype=np.int64)  # seed set of each pixel, -1 where free
    for j, s in enumerate(seed_sets):
        if s.size == 0:
            raise ParameterError("seed sets must be nonempty")
        # before indexing: a negative index would wrap
        if s.min() < 0 or s.max() >= n:
            raise ParameterError("seed index out of range")
        owner[s] = j
    sizes = np.array([s.size for s in seed_sets])
    if np.count_nonzero(owner >= 0) != sizes.sum():
        raise ParameterError("seed sets overlap or repeat a pixel")

    free = np.flatnonzero(owner < 0)
    m = free.size
    solution = np.zeros((s_count, 0))
    if m:
        owner[free] = -1 - np.arange(m)  # free pixel i of L_U now holds -1 - i, still negative
        # row u of L_U and neighbour pixel q for each in-image 4-neighbour of a free
        # pixel, grouped by row, each row's neighbours in the order left, right, up, down
        y, x = np.divmod(free, w)
        u, side = np.nonzero(np.stack((x > 0, x < w - 1, y > 0, y < h - 1), axis=1))
        q = free[u] + np.array([-1, 1, -w, w])[side]
        flat = pixels.ravel()
        variance = max(float(pixels.var()) if sigma is None else sigma, SIGMA_FLOOR)
        weight = np.exp(-((flat[q] - flat[free[u]]) ** 2) / variance)
        degree = np.bincount(u, weight, minlength=m)
        neighbour = owner[q]
        # both ends free: the edge is met once from each end, so each of its two
        # symmetric off-diagonal entries of L_U comes out once
        inner = neighbour < 0
        row, col, weight_in = u[inner], -1 - neighbour[inner], weight[inner]
        graph = scipy.sparse.csr_array((weight_in, col, np.searchsorted(row, np.arange(m + 1))),
                                       shape=(m, m))
        order = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        rank = np.empty(m, dtype=np.int64)  # position of each free pixel in RCM order
        rank[order] = np.arange(m)
        row, col = rank[row], rank[col]

        # columns are the rows of an (s, m) array; an edge to a pixel of seed set j adds
        # its weight to j's column of its free end's row
        edge = ~inner
        rhs = np.bincount(neighbour[edge] * m + rank[u[edge]], weight[edge],
                          minlength=s_count * m).reshape(s_count, m)

        # LAPACK's lower band storage: band[d, i] holds L_U[i + d, i] in RCM order
        offset = np.abs(row - col)
        band = np.zeros((int(offset.max(initial=0)) + 1, m))
        band[0] = degree[order]
        band[offset, np.minimum(row, col)] = -weight_in
        try:
            solution = scipy.linalg.solveh_banded(band, rhs.T, lower=True, overwrite_ab=True,
                                                  check_finite=False).T
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"reduced system is not positive definite: {exc}") from exc
        if not np.isfinite(solution).all():
            raise SolverError("reduced system produced non-finite probabilities")
        unordered = solution[:, rank]  # back in free-pixel order, as graph and degree are
        residual = degree * unordered - (graph @ unordered.T).T - rhs[:, rank]
        scale = max(float(np.abs(rhs).max()), 1.0)
        if float(np.abs(residual).max()) / scale > RESIDUAL_TOL:
            raise SolverError("linear solve exceeded the 1e-8 relative residual budget")
        if float(np.abs(solution.sum(axis=0) - 1.0).max()) > ROW_SUM_TOL:
            raise SolverError("a free region is cut off from every seed: "
                              "its probabilities do not sum to 1")

        solution = np.clip(solution, 0.0, 1.0)
        free = free[order]
        owner[free] = np.argmax(solution, axis=0)  # owner is now the label map

    return Segmentation(image=img, labels=owner.reshape(h, w),
                        pixel_counts=np.bincount(owner[free], minlength=s_count) + sizes,
                        free=free, gamma=solution)


def _erode(bits: np.ndarray, iterations: int) -> np.ndarray:
    """Binary erosion by the 4-connected cross, pixels outside the image counting as 0.

    Equals ``scipy.ndimage.binary_erosion(bits, _CROSS, iterations,
    border_value=0)``, the tests' reference. Shifted ANDs of a zero-padded
    copy take about a third of that call's time on a 192 px image; with the
    call, ``derive_seeds`` was slower than single-pixel seeding had been.
    """
    core = np.pad(bits.astype(bool), 1)
    for _ in range(iterations):
        inner = core[1:-1, 1:-1] & core[:-2, 1:-1]
        inner &= core[2:, 1:-1]
        inner &= core[1:-1, :-2]
        inner &= core[1:-1, 2:]
        core[1:-1, 1:-1] = inner
    return core[1:-1, 1:-1]


def derive_seeds(binary: BinaryImage, *, background: int | None = None) -> list[np.ndarray]:
    """Seed sets from a binary image.

    One seed set per 4-connected foreground component: its core, the
    component eroded by ``SEED_EROSION`` pixels with the 4-connected cross,
    pixels outside the image counting as background. Only a band about
    ``SEED_EROSION`` pixels wide along each boundary is left to the walker,
    as with the markers of marker-controlled watershed. A component that
    erosion empties (a speck) keeps one seed, the pixel nearest its
    centroid. The final set is every pixel of the largest background
    component, ties to the first in raster order, or of the component that
    holds flat index ``background`` when it is given; it is not eroded. Two
    4-connected components never share a 4-neighbour, so one erosion of the
    whole image erodes each component on its own.
    """
    bits = binary.bits
    if not bits.any():
        raise EmptyForegroundError("binary image has no foreground pixels")
    fg_labels, fg_count = scipy.ndimage.label(bits, structure=_CROSS)
    w = bits.shape[1]

    core = np.flatnonzero(_erode(bits, SEED_EROSION))
    owner = fg_labels.ravel()[core]
    sizes = np.bincount(owner, minlength=fg_count + 1)[1:]
    # a stable sort keeps each core in row-major order
    seeds = np.split(core[np.argsort(owner, kind="stable")], np.cumsum(sizes)[:-1])
    specks = np.flatnonzero(sizes == 0)
    if specks.size:
        # every speck pixel in row-major order, with its component's label
        is_speck = np.zeros(fg_count + 1, dtype=bool)
        is_speck[specks + 1] = True
        flat = fg_labels.ravel()
        pixels = np.flatnonzero(is_speck[flat])
        label = flat[pixels]
        ys, xs = np.divmod(pixels, w)
        # integer sums are exact in float64, so these equal ys.mean(), xs.mean()
        area = np.bincount(label)[label]
        cy = np.bincount(label, weights=ys)[label] / area
        cx = np.bincount(label, weights=xs)[label] / area
        # each speck's nearest pixel first, ties to the lowest flat index (a stable sort)
        order = np.lexsort(((ys - cy) ** 2 + (xs - cx) ** 2, label))
        first = order[np.flatnonzero(np.diff(label[order], prepend=-1))]
        for comp, at in zip(specks.tolist(), first.tolist()):
            seeds[comp] = pixels[at : at + 1]

    bg_labels, bg_count = scipy.ndimage.label(1 - bits, structure=_CROSS)
    if bg_count == 0:
        raise EmptyBackgroundError("image has no background pixels to seed")
    if background is None:
        chosen = 1 + int(np.argmax(np.bincount(bg_labels.ravel())[1:]))
    elif is_integer(background) and 0 <= background < bits.size and not bits.flat[background]:
        chosen = bg_labels.flat[background]
    else:
        raise ParameterError(f"background seed {background!r} is not a background pixel index")
    seeds.append(np.flatnonzero(bg_labels == chosen))
    return seeds


def _window(levels: np.ndarray, theta: float) -> tuple[int, int, int, int, int | None]:
    """Where ``segment_image`` segments: (y0, y1, x0, x1) and a background pixel.

    The window is the box of the foreground (the pixels ``binarize`` sets,
    levels l with l / 255 > theta) grown by one pixel, the ring, clipped to
    the canvas; the pixel is the flat index in the window of a ring pixel. Every pixel outside the box is background.
    When the box spans neither the canvas's width nor its height, those
    pixels are 4-connected, and so is the ring, which joins every part of
    their component that enters the window. When the box also holds at most
    half the canvas, any other background component, which lies inside the
    box, is smaller than that outer one, so a whole-canvas ``derive_seeds``
    seeds the outer one too. Otherwise the window is the canvas and the
    pixel None.
    """
    h, w = levels.shape
    # Otsu's threshold lies below the top populated bin, so neither is empty
    rows = np.flatnonzero(_LEVEL_VALUES[levels.max(axis=1)] > theta)
    cols = np.flatnonzero(_LEVEL_VALUES[levels.max(axis=0)] > theta)
    top, bottom, left, right = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    box_h, box_w = bottom - top, right - left
    if box_h == h or box_w == w or 2 * box_h * box_w > h * w:
        return 0, h, 0, w, None
    y0, y1, x0, x1 = max(top - 1, 0), min(bottom + 1, h), max(left - 1, 0), min(right + 1, w)
    ring_y = top - 1 if top > 0 else bottom  # above the box, or below it if it touches the top
    return y0, y1, x0, x1, (ring_y - y0) * (x1 - x0) + left - x0


def segment_image(img: GrayImage, median_side: int = 3) -> Segmentation:
    """Full preprocessing chain on the median-filtered image.

    Labels 0 .. s - 2 are the foreground shapes and s - 1 the background.
    Binarizing, seeding and the walk run on ``_window``'s part of the
    filtered canvas. Every free pixel lies in the foreground's box, and its
    4-neighbours in the window, so the reduced system is the whole
    canvas's; every pixel outside the window is background. The walk, in
    the window or on the canvas, weighs by the whole canvas's variance as
    Otsu's histogram, which holds every level, gives it.
    """
    smoothed = median_filter(img, median_side)
    otsu = otsu_threshold(smoothed)
    y0, y1, x0, x1, ring = _window(smoothed.levels, otsu.theta)
    part = GrayImage.from_levels(smoothed.levels[y0:y1, x0:x1])
    seeds = derive_seeds(binarize(part, otsu.theta), background=ring)
    seg = random_walker_segment(part, seeds, sigma=otsu.variance)

    h, w = smoothed.levels.shape
    labels = np.full((h, w), seg.pixel_counts.size - 1)
    labels[y0:y1, x0:x1] = seg.labels
    y, x = np.divmod(seg.free, x1 - x0)
    counts = seg.pixel_counts.copy()
    counts[-1] += h * w - part.pixels.size
    return dataclasses.replace(seg, image=smoothed, labels=labels, pixel_counts=counts,
                               free=(y + y0) * w + x + x0)


def export_segmentation(seg: Segmentation, directory: str | Path) -> Path:
    """Write one cropped PGM per label, the background included, plus a JSON sidecar.

    Returns the sidecar path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for crop in map(seg.crop, range(seg.pixel_counts.size)):
        name = f"shape_{crop.label:02d}.pgm"
        (directory / name).write_bytes(encode_pgm(crop.image))
        records.append(
            {
                "shape": crop.label,
                "file": name,
                "bbox": list(crop.bbox),
                "pixel_count": crop.pixel_count,
            }
        )
    sidecar = directory / "segments.json"
    sidecar.write_text(json.dumps({"shapes": records}, indent=2, sort_keys=True) + "\n")
    return sidecar
