"""Two-stage region-of-interest selection.

Stage one (coarse): cull to the frustum of the viewer's predicted camera,
grid the result, score blocks by mean motion magnitude, and keep the top
fraction. The caller predicts the camera (`predict_pose`). Motion is
nearest-neighbor flow from the previous frame; a point equal to the
previous frame's point at its own index has zero flow without a neighbor
search, so only changed points reach the KD-tree, and that tree holds only
the previous points near them (`estimate_flow`'s box rule). It is a
`cloud.OPEN_SPACE_TREE`, as the metric trees are: the changed points are
mostly the moved subject, which searches open space.

Stage two (fine): re-grid the survivors, score blocks by viewpoint
proximity/angle times geometric-texture distinctiveness, and downsample
each block proportionally to its normalized static saliency. The texture
neighbors come from a default (balanced) KD-tree over the block centres:
they sit on a regular lattice, so equal distances are common, and another
tree may return another of two equidistant neighbors.

The fine draw is `Generator.choice(n, k, replace=False)` once per block
row, in row order, on one seeded generator, replayed without the per-row
calls. On numpy 2.4.6, choice runs Floyd's sampler (Bentley & Floyd, CACM
1987) unless n > CHOICE_FLOYD_MAX and k > n // CHOICE_TAIL_CUTOFF, when it
tail-shuffles instead. Floyd's k steps and the shuffle of its picks make
2k - 1 bounded draws (none for k = 0), each one Lemire draw (Lemire, ACM
TOMACS 2019), the draw `rng.integers` makes over an array of bounds. So a
run of Floyd-regime rows takes one `integers` call, and a tail-shuffle row
calls choice in its turn: the picks and the generator's state after are
those of the per-row calls. If a numpy release changes choice's
algorithm, `test_fine_select_equals_per_block_loop` fails first.

The stages pass plain arrays: the flow is an (N, 3) float64 array and
block scores are (B,) arrays in block-row order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._util import (
    ceil_count, check_count, check_positive, check_real, stable_argsort,
)
from .cloud import (
    OPEN_SPACE_TREE, BlockGrid, Camera, PointCloud, Pose, bounds,
    frustum_cull, frustum_mask, partition, quat_conjugate, quat_multiply,
    quat_normalize,
)

log = logging.getLogger(__name__)

CHI2_EPS = 1e-8
TEXTURE_BINS = 8  # trailing entries of every block feature vector
# numpy's Generator.choice(n, k, replace=False) tail-shuffles when
# n > CHOICE_FLOYD_MAX and k > n // CHOICE_TAIL_CUTOFF, else runs Floyd
CHOICE_FLOYD_MAX = 10_000
CHOICE_TAIL_CUTOFF = 50


@dataclass
class RoiConfig:
    coarse_keep_fraction: float = 0.60
    beta: float = 0.5
    lambda_: float = 0.35
    R: int = 6
    coarse_cell_size: float = 0.5
    fine_cell_size: float = 0.25
    r_min: float = 0.1
    r_max: float = 1.0
    sub_bins: int = 2

    def __post_init__(self):
        for name in ("coarse_keep_fraction", "beta", "lambda_", "r_min",
                     "r_max"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.coarse_keep_fraction <= 1.0:
            raise ValueError("coarse_keep_fraction must lie in (0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.lambda_ < math.inf:
            raise ValueError("lambda_ must be finite and >= 0")
        if not 0.0 <= self.r_min <= self.r_max <= 1.0:
            raise ValueError("require 0 <= r_min <= r_max <= 1")
        for name in ("coarse_cell_size", "fine_cell_size"):
            check_positive(name, getattr(self, name))
        for name in ("R", "sub_bins"):
            check_count(name, getattr(self, name))


# ---------------------------------------------------------------------------
# stage one

def predict_pose(prev: Pose, last: Pose) -> Pose:
    """Extrapolate the pose one step after the last of two samples.

    Position advances at the last observed velocity; orientation repeats the
    last relative rotation (renormalized). The timestamps must increase.
    """
    if not last.timestamp > prev.timestamp:
        raise ValueError("pose timestamps must be strictly increasing")
    dt = last.timestamp - prev.timestamp
    velocity = (last.position - prev.position) / dt
    delta = quat_normalize(quat_multiply(last.orientation,
                                         quat_conjugate(prev.orientation)))
    return Pose(last.position + velocity * dt,
                quat_normalize(quat_multiply(delta, last.orientation)),
                last.timestamp + dt)


def estimate_flow(prev: PointCloud, curr: PointCloud) -> np.ndarray:
    """Nearest-neighbor flow, (N, 3) float64 in meters/frame: each current
    point minus its closest previous point (the pluggable stand-in for a
    learned scene-flow model). Both clouds hold only finite points, so the
    flow is finite.

    Zero-flow rule: a current point equal in all three coordinates to the
    previous point at the same index is its own nearest neighbor (distance
    0) and gets zero flow without a query. Only the other points, and those
    past the end of prev, are queried; when there are none, no tree is
    built.

    Box rule: a changed point c_i is R_i = |c_i - p_i| from prev's point at
    its own index, so its nearest neighbor, and every tie at that distance,
    lies within R_i of it. The tree is built over only the prev points
    inside the changed points' bounding box grown by R, the largest R_i
    (plus a relative margin, so that rounding cannot shrink the box), and
    its indices are mapped back to prev. A changed point past the end of
    prev has no bound: R is then infinite and the box holds all of prev.

    The tree is an OPEN_SPACE_TREE (see `cloud`): the queried points are
    mostly the moved subject, up to ~1.5 m from prev's nearest point.
    Equidistant scene points are rare: it found the default tree's
    neighbor over all of prev for every query of the 920 consecutive frame
    pairs of 40 `generate_scene(rooms=1, frames=24)` scenes.
    """
    if len(prev) == 0 or len(curr) == 0:
        raise ValueError("flow estimation requires non-empty clouds")
    p, c = prev.points, curr.points
    n = min(len(p), len(c))
    changed = np.ones(len(c), dtype=bool)
    changed[:n] = c[:n, 0] != p[:n, 0]
    for a in (1, 2):
        changed[:n] |= c[:n, a] != p[:n, a]
    idx = np.arange(len(c))
    query = np.flatnonzero(changed)
    if len(query):
        q = c[query].astype(np.float64)
        if query[-1] < len(p):
            step = q - p[query]
            reach = math.sqrt(np.einsum("ij,ij->i", step, step).max())
        else:
            reach = math.inf
        reach *= 1.0 + 1e-6
        lo, hi = bounds(q)
        lo, hi = lo - reach, hi + reach
        inside = (p[:, 0] >= lo[0]) & (p[:, 0] <= hi[0])
        for a in (1, 2):
            inside &= (p[:, a] >= lo[a]) & (p[:, a] <= hi[a])
        near = np.flatnonzero(inside)
        _, found = cKDTree(p[near], **OPEN_SPACE_TREE).query(q)
        idx[query] = near[found]
    return c.astype(np.float64) - p[idx].astype(np.float64)


def dynamic_saliency(grid: BlockGrid, flow: np.ndarray) -> np.ndarray:
    """Mean flow magnitude of every block row of the gridded frame, (B,),
    from the (N, 3) flow of the gridded points."""
    if len(flow) != len(grid.rows):
        raise ValueError("flow field does not annotate this grid")
    return np.bincount(grid.rows, weights=np.linalg.norm(flow, axis=1),
                       minlength=len(grid.ids)) / grid.counts


def _coarse_kept_rows(grid: BlockGrid, scores: np.ndarray,
                      cfg: RoiConfig) -> np.ndarray:
    """Block rows kept by the coarse stage, best first: the top
    coarse_keep_fraction of the blocks by descending score, ties broken by
    ascending block id."""
    ranked = np.lexsort((grid.ids, -scores))
    return ranked[:ceil_count(cfg.coarse_keep_fraction, len(ranked))]


def coarse_select_details(frame: PointCloud, prev_frame: PointCloud,
                          camera: Camera, cfg: RoiConfig):
    """Stage-one ROI: cull to the predicted camera's frustum, then keep
    blocks ranked by motion.

    Returns (cloud, grid, scores). The grid and the (B,) per-row
    scores cover the whole culled cloud. An empty frustum returns an empty
    cloud, empty scores and grid None.

    Flow is estimated on the whole frame, so that frame indices line up
    with prev_frame for estimate_flow's zero-flow rule, and then sliced to
    the frustum.
    """
    inside = np.flatnonzero(frustum_mask(frame, camera))
    culled = frame.select(inside)
    if len(culled) == 0:
        log.warning("frame %d: predicted frustum is empty", frame.frame_index)
        return culled, None, np.zeros(0)
    grid = partition(culled, cfg.coarse_cell_size)
    scores = dynamic_saliency(grid, estimate_flow(prev_frame, frame)[inside])
    keep = np.zeros(len(grid.ids), dtype=bool)
    keep[_coarse_kept_rows(grid, scores, cfg)] = True
    return culled.select(np.flatnonzero(keep[grid.rows])), grid, scores


# ---------------------------------------------------------------------------
# stage two

def texture_descriptor(features, neighbor_features, lambda_: float) -> float:
    """Distinctiveness of a block relative to its R neighbors, in [0, 1).

    Feature vectors carry the geometry histogram followed by TEXTURE_BINS
    luminance bins; both parts are compared with the chi-square histogram
    distance, the texture part weighted by lambda_.
    """
    t_i = np.asarray(features, dtype=np.float64)
    neighbors = [np.asarray(t, dtype=np.float64) for t in neighbor_features]
    if not neighbors:
        raise ValueError("texture descriptor needs at least one neighbor")
    if any(t.shape != t_i.shape for t in neighbors):
        raise ValueError("feature vectors must have matching lengths")
    return float(_texture_scores(t_i[None], np.stack(neighbors)[None],
                                 lambda_)[0])


def _viewpoint_scores(centers, viewpoint, view_direction, beta: float):
    """Distance/angle significance of every row of centers.

    Distance enters as beta/ln(phi) with phi clamped to at least e, angle as
    (1-beta) times the cosine between the center direction and the view
    direction.
    """
    v = np.asarray(viewpoint, dtype=np.float64)
    w = np.asarray(view_direction, dtype=np.float64)
    w_norm = np.linalg.norm(w)
    if w_norm == 0.0:
        raise ValueError("view direction must be non-zero")
    d = centers - v
    phi = np.linalg.norm(d, axis=1)
    cos_theta = np.divide(d @ w, phi * w_norm, out=np.ones_like(phi),
                          where=phi != 0.0)  # a block at the eye: ahead
    return beta / np.log(np.maximum(phi, math.e)) + (1.0 - beta) * cos_theta


def _feature_matrix(cloud: PointCloud, grid: BlockGrid,
                    sub_bins: int) -> np.ndarray:
    """(B, F) block features: an occupancy histogram over the sub_bins^3
    sub-cells of each block row's cell, then TEXTURE_BINS luminance bins
    (zeros without color), both normalized by the block's point count."""
    rows, counts = grid.rows, grid.counts
    n_blocks, cells = len(counts), sub_bins ** 3
    lo = grid.cell_lows()
    hi = lo + grid.cell_size
    span = np.where(hi > lo, hi - lo, 1.0)
    pts = cloud.points.astype(np.float64)
    sub = np.floor((pts - lo[rows]) / span[rows] * sub_bins).astype(np.int64)
    sub = np.clip(sub, 0, sub_bins - 1)
    flat = sub[:, 0] + sub_bins * (sub[:, 1] + sub_bins * sub[:, 2])
    geo = np.bincount(rows * cells + flat, minlength=n_blocks * cells)
    geo = geo.reshape(n_blocks, cells) / counts[:, None]

    tex = np.zeros((n_blocks, TEXTURE_BINS))
    if cloud.colors is not None:
        rgb = cloud.colors.astype(np.float64)
        luma = 0.299 * rgb[:, 0] + 0.587 * rgb[:, 1] + 0.114 * rgb[:, 2]
        bins = np.clip((luma / 256.0 * TEXTURE_BINS).astype(np.int64),
                       0, TEXTURE_BINS - 1)
        tex = np.bincount(rows * TEXTURE_BINS + bins,
                          minlength=n_blocks * TEXTURE_BINS)
        tex = tex.reshape(n_blocks, TEXTURE_BINS) / counts[:, None]
    return np.concatenate([geo, tex], axis=1)


def _neighbor_rows(nbrs: np.ndarray, k: int) -> np.ndarray:
    """Per row i, the first k entries of nbrs[i] other than i."""
    keep = nbrs != np.arange(len(nbrs))[:, None]
    keep[keep.all(axis=1), -1] = False  # self absent: drop the farthest
    return nbrs[keep].reshape(len(nbrs), k)


def _texture_scores(t_i: np.ndarray, t_j: np.ndarray, lambda_: float):
    """texture_descriptor of every (F,) row of t_i against its (k, F)
    neighbor rows in t_j."""
    t_i = t_i[:, None, :]
    diff = t_i - t_j
    chi = diff ** 2 / (t_i + t_j + CHI2_EPS)
    split = t_i.shape[-1] - TEXTURE_BINS
    psi2 = chi[..., :split].sum(axis=-1) + lambda_ * chi[..., split:].sum(axis=-1)
    acc = (psi2 / (1.0 + np.linalg.norm(diff, axis=-1))).sum(axis=1)
    return 1.0 - np.exp(-acc / t_j.shape[1])


def _static_scores(grid: BlockGrid, cloud: PointCloud, viewpoint,
                   view_direction, cfg: RoiConfig):
    """Per-row (centers, viewpoint, texture, static) scores on a fine grid."""
    centers = grid.cell_lows() + 0.5 * grid.cell_size
    view_scores = _viewpoint_scores(centers, viewpoint, view_direction,
                                    cfg.beta)

    n_blocks = len(centers)
    tex_scores = np.zeros(n_blocks)
    if n_blocks > 1:
        feats = _feature_matrix(cloud, grid, cfg.sub_bins)
        k = min(cfg.R, n_blocks - 1)
        _, nbrs = cKDTree(centers).query(centers, k=k + 1)
        tex_scores = _texture_scores(feats, feats[_neighbor_rows(nbrs, k)],
                                     cfg.lambda_)
    return centers, view_scores, tex_scores, view_scores * tex_scores


def _floyd_positions(rng, starts: np.ndarray, counts: np.ndarray,
                     takes: np.ndarray) -> np.ndarray:
    """Grid positions that `rng.choice(n, k, replace=False)` picks in each
    block (n = counts[b], k = takes[b], shifted by starts[b]), in block
    order, with every bounded draw made by one `rng.integers` call. Every
    block must be in the Floyd regime. A position may appear twice.

    Floyd's step j, for m = n - k <= j < n, draws t_j in [0, j] and inserts
    t_j, or j when t_j is already in. choice then shuffles its k picks with
    k - 1 draws, bounds k - 1 down to 1, which are made and dropped: the
    caller sorts the picks. v is picked if some step drew it, or if v >= m
    and step v inserted v, c(v): t_v = v, or t_v was drawn at an earlier
    step, or m <= t_v < v and c(t_v). The chains of c resolve by pointer
    doubling.
    """
    draws_per_block = np.maximum(2 * takes - 1, 0)
    block = np.repeat(np.arange(len(takes)), draws_per_block)
    first_draw = np.cumsum(draws_per_block) - draws_per_block
    i = np.arange(len(block)) - first_draw[block]
    k, m = takes[block], (counts - takes)[block]
    floyd = i < k
    bounds = np.where(floyd, m + i, 2 * k - 1 - i)
    t = rng.integers(0, bounds, endpoint=True, dtype=np.int64)[floyd]
    j, m, start = bounds[floyd], m[floyd], starts[block[floyd]]

    drawn = start + t
    by_value = stable_argsort(drawn)
    ranked = drawn[by_value]
    repeat = np.zeros(len(t), dtype=bool)
    repeat[by_value[1:]] = ranked[1:] == ranked[:-1]
    # c per step, found along link (step j -> step t_j); a false sink ends
    # every chain
    sink = len(t)
    inserted = np.append((t == j) | repeat, False)
    link = np.append(np.where(inserted[:-1] | (t < m), sink,
                              np.arange(sink) - (j - t)), sink)
    while (link[:-1] != sink).any():
        inserted |= inserted[link]
        link = np.where(inserted, sink, link[link])
    return np.concatenate([drawn, (start + j)[inserted[:-1]]])


def _block_choices(rng, order: np.ndarray, offsets: np.ndarray,
                   takes: np.ndarray) -> np.ndarray:
    """The ascending union of `rng.choice(order[offsets[i]:offsets[i + 1]],
    takes[i], replace=False)` over the blocks i in order, with the
    generator left as those calls leave it. Each run of Floyd-regime blocks
    is one `_floyd_positions` call; a tail-shuffle block calls choice."""
    starts, counts = offsets[:-1], np.diff(offsets)
    keep = np.zeros(len(order), dtype=bool)
    shuffled = np.flatnonzero((counts > CHOICE_FLOYD_MAX)
                              & (takes > counts // CHOICE_TAIL_CUTOFF))
    first = 0
    for row in [*shuffled.tolist(), len(counts)]:
        run = slice(first, row)
        keep[order[_floyd_positions(rng, starts[run], counts[run],
                                    takes[run])]] = True
        if row < len(counts):
            block = order[offsets[row]:offsets[row + 1]]
            keep[rng.choice(block, size=takes[row], replace=False)] = True
        first = row + 1
    return np.flatnonzero(keep)


def fine_select_details(coarse: PointCloud, viewpoint, view_direction,
                        cfg: RoiConfig, seed: int):
    """Stage-two ROI: saliency-proportional per-block downsampling.
    Returns the downsampled cloud.

    Block row i keeps the take_i = ceil(ratio_i * n_i) points that
    `rng.choice(points_i, take_i, replace=False)` picks, called once per
    row in row order on a generator seeded with `seed`.
    `_block_choices` draws them without those calls (see the module
    docstring): the same points, checked on numpy 2.4.6.
    """
    if len(coarse) == 0:
        raise ValueError("fine_select_details requires a non-empty coarse ROI")
    grid = partition(coarse, cfg.fine_cell_size)
    *_, static = _static_scores(grid, coarse, viewpoint, view_direction, cfg)

    lo, hi = static.min(), static.max()
    if hi > lo:
        norm = (static - lo) / (hi - lo)
    else:
        norm = np.ones_like(static)  # constant saliency: keep fully

    ratios = cfg.r_min + (cfg.r_max - cfg.r_min) * norm
    takes = ceil_count(ratios, grid.counts)
    rng = np.random.default_rng(seed)
    return coarse.select(_block_choices(rng, grid.order, grid.offsets, takes))


# ---------------------------------------------------------------------------
# full pipeline

@dataclass(frozen=True)
class RoiResult:
    cloud: PointCloud
    frustum_points: int  # points inside the predicted frustum


def select_roi(frame: PointCloud, prev_frame: PointCloud, camera: Camera,
               cfg: RoiConfig, seed: int) -> RoiResult:
    """Run both ROI stages on one frame for the predicted camera; an empty
    frustum yields an empty ROI."""
    coarse, grid, _ = coarse_select_details(frame, prev_frame, camera, cfg)
    if grid is None:  # empty frustum
        return RoiResult(coarse, 0)
    cloud = fine_select_details(coarse, camera.pose.position,
                                camera.pose.forward(), cfg, seed)
    return RoiResult(cloud, len(grid.rows))
