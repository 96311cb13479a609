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
on, applied to shifted views of the edge-padded image. It runs on the
uint8 levels of an image whose pixels are exactly level / 255, as every
decoded PGM's are, and on the float pixels otherwise; both give the same
output. The random walker assembles its reduced system from each free
pixel's own in-image 4-neighbours, so its cost follows the free band
rather than the canvas. Each degree is summed in the order the pixel's
neighbours are gathered, not in the canvas's edge order, so gamma can
differ from a whole-canvas assembly by about 1e-14. The system is solved
by banded Cholesky in reverse Cuthill-McKee order, with one right-hand
column per seed set.
"""

from __future__ import annotations

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
    ShapeError,
    SolverError,
)
from .raster import BinaryImage, GrayImage, encode_pgm, gray_levels

SIGMA_FLOOR = 1e-6
RESIDUAL_TOL = 1e-8
ROW_SUM_TOL = 1e-6  # largest |sum_j gamma_ij - 1| accepted on a free row
SEED_EROSION = 3  # depth in pixels of each foreground seed core inside its component
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_LEVEL_VALUES = np.arange(256) / 255.0  # the intensity of each 8-bit level, as decoded


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
    input and no intensity value outside the input set is ever produced.
    The median is selected by a pruned min/max network (``_median_network``)
    run over the side**2 shifted views of the edge-padded image; its output
    is an order statistic of the window, so it equals a sorting median
    exactly. When every pixel is exactly its 8-bit level over 255, as every
    decoded PGM is, the network runs on the uint8 levels and its output is
    mapped back through ``_LEVEL_VALUES``; as the map is increasing, the
    result is the one the float pixels give, with scratch arrays an eighth
    of the size.
    """
    if side < 1 or side % 2 == 0:
        raise ParameterError(f"median window side must be odd and positive, got {side}")
    if side > min(img.width, img.height):
        raise ImageTooSmallError(
            f"median window {side} exceeds image extent {img.width}x{img.height}"
        )
    if side == 1:
        return img
    scratch, steps, median = _median_network(side)
    levels = gray_levels(img.pixels)
    exact = np.array_equal(levels / 255.0, img.pixels)
    values = levels if exact else img.pixels
    h, w = values.shape
    padded = np.pad(values, side // 2, mode="edge")
    registers = [padded[dy:dy + h, dx:dx + w] for dy in range(side) for dx in range(side)]
    registers += [np.empty((h, w), dtype=values.dtype) for _ in range(scratch)]
    for ufunc, a, b, out in steps:
        ufunc(registers[a], registers[b], out=registers[out])
    return GrayImage(np.take(_LEVEL_VALUES, registers[median]) if exact else registers[median])


@dataclass(frozen=True)
class OtsuResult:
    theta: float
    sigma_in: float
    sigma_out: float


def histogram256(img: GrayImage) -> np.ndarray:
    """Counts over 256 bins; intensity g lands in bin ``gray_levels(g)``, round(g * 255)."""
    return np.bincount(gray_levels(img.pixels).ravel(), minlength=256)


def otsu_threshold(img: GrayImage) -> OtsuResult:
    """Threshold maximizing the interclass variance.

    sigma_out(t) = w_b (mu_b - mu)^2 + w_a (mu_a - mu)^2 where the
    background class is every bin <= t. Tied optima are averaged. The
    complementary intraclass variance is returned alongside so the
    decomposition sigma_in + sigma_out = total variance can be checked.
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
    return OtsuResult(theta=theta, sigma_in=var_b + var_a, sigma_out=float(sigma_out[t0]))


def binarize(img: GrayImage, theta: float) -> BinaryImage:
    """h(x, y) = 0 where g <= theta, else 1."""
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {theta}")
    return BinaryImage((img.pixels > theta).astype(np.uint8))


@dataclass(frozen=True)
class PixelGraph:
    height: int
    width: int
    sigma: float
    laplacian: scipy.sparse.csr_matrix


def build_pixel_graph(img: GrayImage) -> PixelGraph:
    """4-neighborhood graph with weights eta_ij = exp(-(g_i - g_j)^2 / sigma).

    sigma is the intensity variance of the image, floored at 1e-6. The
    Laplacian carries the degree on the diagonal and -eta off it. This full
    Laplacian is the reference the tests solve densely; the library itself
    builds only the reduced system inside ``random_walker_segment``.
    """
    g = img.pixels
    h, w = g.shape
    n = h * w
    if n < 2:
        raise ShapeError("pixel graph needs at least 2 pixels")
    sigma = max(float(g.var()), SIGMA_FLOOR)

    idx = np.arange(n).reshape(h, w)
    rows = []
    cols = []
    vals = []
    if w > 1:
        diff = g[:, 1:] - g[:, :-1]
        rows.append(idx[:, :-1].ravel())
        cols.append(idx[:, 1:].ravel())
        vals.append(np.exp(-(diff**2) / sigma).ravel())
    if h > 1:
        diff = g[1:, :] - g[:-1, :]
        rows.append(idx[:-1, :].ravel())
        cols.append(idx[1:, :].ravel())
        vals.append(np.exp(-(diff**2) / sigma).ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)

    weights = scipy.sparse.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()
    degree = np.asarray(weights.sum(axis=1)).ravel()
    laplacian = scipy.sparse.diags(degree) - weights
    return PixelGraph(height=h, width=w, sigma=sigma, laplacian=laplacian.tocsr())


@dataclass(frozen=True)
class ShapeCrop:
    label: int
    image: GrayImage
    bbox: tuple[int, int, int, int]  # y0, x0, y1, x1 inclusive-exclusive
    pixel_count: int


@dataclass(frozen=True)
class Segmentation:
    labels: np.ndarray          # (h, w) argmax shape index per pixel
    gamma: np.ndarray           # (h, w, s) per-shape probabilities
    shapes: tuple[ShapeCrop, ...]


def _crops(img: GrayImage, labels: np.ndarray, shape_count: int) -> tuple[ShapeCrop, ...]:
    """One crop per label; seed pixels keep one-hot gamma, so no label is empty.

    The box comes from the rows and columns the label's mask touches, and
    the other labels' pixels are zeroed inside the box only, so no call
    lists a label's pixel indices over the whole canvas.
    """
    out = []
    for j in range(shape_count):
        mask = labels == j
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        y0, y1 = int(rows[0]), int(rows[-1]) + 1
        x0, x1 = int(cols[0]), int(cols[-1]) + 1
        box = mask[y0:y1, x0:x1]
        crop = np.where(box, img.pixels[y0:y1, x0:x1], 0.0)
        out.append(ShapeCrop(label=j, image=GrayImage(crop), bbox=(y0, x0, y1, x1),
                             pixel_count=int(np.count_nonzero(box))))
    return tuple(out)


def random_walker_segment(img: GrayImage, seeds: list[np.ndarray]) -> Segmentation:
    """Per-shape Dirichlet solves on the free pixels of the 4-neighbour graph.

    Edge weights are those of ``build_pixel_graph``. For shape j the seeded
    pixels of set j are held at 1 and all other seeds at 0, and the free
    pixels solve Grady's reduced system L_U x = -B^T m ("Random Walks for
    Image Segmentation", IEEE TPAMI 2006), one right-hand column per shape.
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
    the lower index.
    """
    pixels = img.pixels
    h, w = pixels.shape
    n = h * w
    seed_sets = [np.asarray(s, dtype=np.int64).ravel() for s in seeds]
    if len(seed_sets) < 2:
        raise ParameterError("need at least 2 seed sets")
    s_count = len(seed_sets)
    owner = np.full(n, -1, dtype=np.int64)  # seed set of each pixel, -1 where free
    gamma = np.zeros((n, s_count), dtype=np.float64)
    for j, s in enumerate(seed_sets):
        if s.size == 0:
            raise ParameterError("seed sets must be nonempty")
        # before indexing: a negative index would wrap
        if s.min() < 0 or s.max() >= n:
            raise ParameterError("seed index out of range")
        owner[s] = j
        gamma[:, j][s] = 1.0
    if np.count_nonzero(owner >= 0) != sum(s.size for s in seed_sets):
        raise ParameterError("seed sets overlap or repeat a pixel")

    labels = owner.copy()  # a seeded pixel's one-hot gamma row peaks at its own set
    free = np.flatnonzero(owner < 0)
    m = free.size
    if m:
        owner[free] = -1 - np.arange(m)  # free pixel i of L_U now holds -1 - i, still negative
        # row u of L_U and neighbour pixel q for each in-image 4-neighbour of a free
        # pixel, grouped by row, each row's neighbours in the order left, right, up, down
        y, x = np.divmod(free, w)
        u, side = np.nonzero(np.stack((x > 0, x < w - 1, y > 0, y < h - 1), axis=1))
        q = free[u] + np.array([-1, 1, -w, w])[side]
        flat = pixels.ravel()
        sigma = max(float(pixels.var()), SIGMA_FLOOR)
        weight = np.exp(-((flat[q] - flat[free[u]]) ** 2) / sigma)
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
        band[0] = diag = degree[order]
        band[offset, np.minimum(row, col)] = -weight_in
        try:
            solution = scipy.linalg.solveh_banded(band, rhs.T, lower=True, overwrite_ab=True,
                                                  check_finite=False).T
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"reduced system is not positive definite: {exc}") from exc
        if not np.isfinite(solution).all():
            raise SolverError("reduced system produced non-finite probabilities")
        coupled = np.bincount((np.arange(s_count)[:, None] * m + row).ravel(),
                              (weight_in * np.take(solution, col, axis=1)).ravel(),
                              minlength=s_count * m).reshape(s_count, m)
        residual = diag * solution - coupled - rhs
        scale = max(float(np.abs(rhs).max()), 1.0)
        if float(np.abs(residual).max()) / scale > RESIDUAL_TOL:
            raise SolverError("linear solve exceeded the 1e-8 relative residual budget")
        if float(np.abs(solution.sum(axis=0) - 1.0).max()) > ROW_SUM_TOL:
            raise SolverError("a free region is cut off from every seed: "
                              "its probabilities do not sum to 1")

        solution = np.clip(solution, 0.0, 1.0)
        pixel = free[order]
        labels[pixel] = np.argmax(solution, axis=0)
        gamma[pixel] = solution.T

    labels = labels.reshape(h, w)
    return Segmentation(labels=labels, gamma=gamma.reshape(h, w, s_count),
                        shapes=_crops(img, labels, s_count))


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


def derive_seeds(binary: BinaryImage) -> list[np.ndarray]:
    """Seed sets from a binary image.

    One seed set per 4-connected foreground component: its core, the
    component eroded by ``SEED_EROSION`` pixels with the 4-connected cross,
    pixels outside the image counting as background. Only a band about
    ``SEED_EROSION`` pixels wide along each boundary is left to the walker,
    as with the markers of marker-controlled watershed. A component that
    erosion empties (a speck) keeps one seed, the pixel nearest its
    centroid. The final set is every pixel of the largest background
    component, not eroded. Two 4-connected components never share a
    4-neighbour, so one erosion of the whole image erodes each component
    on its own.
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
    specks = [comp for comp, seed in enumerate(seeds) if not seed.size]
    boxes = scipy.ndimage.find_objects(fg_labels) if specks else []
    for comp in specks:
        box = boxes[comp]
        ys, xs = np.nonzero(fg_labels[box] == comp + 1)
        ys, xs = ys + box[0].start, xs + box[1].start
        cy, cx = ys.mean(), xs.mean()
        nearest = np.argmin((ys - cy) ** 2 + (xs - cx) ** 2)
        seeds[comp] = np.array([ys[nearest] * w + xs[nearest]], dtype=np.int64)

    bg_labels, bg_count = scipy.ndimage.label(1 - bits, structure=_CROSS)
    if bg_count == 0:
        raise EmptyBackgroundError("image has no background pixels to seed")
    largest = 1 + int(np.argmax(np.bincount(bg_labels.ravel())[1:]))
    seeds.append(np.flatnonzero(bg_labels == largest))
    return seeds


def segment_image(img: GrayImage, median_side: int = 3) -> tuple[Segmentation, list[int]]:
    """Full preprocessing chain. Returns the segmentation and the foreground labels."""
    smoothed = median_filter(img, median_side)
    theta = otsu_threshold(smoothed).theta
    binary = binarize(smoothed, theta)
    seeds = derive_seeds(binary)
    seg = random_walker_segment(smoothed, seeds)
    fg = [crop.label for crop in seg.shapes if crop.label != len(seeds) - 1]
    return seg, fg


def export_segmentation(seg: Segmentation, directory: str | Path) -> Path:
    """Write one cropped PGM per shape plus a JSON sidecar. Returns the sidecar path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for crop in seg.shapes:
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
