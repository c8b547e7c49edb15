"""Two-stage region-of-interest selection.

Stage one (coarse): extrapolate the viewer pose, cull to the predicted
frustum, grid the result, score blocks by mean motion magnitude, and keep
the top fraction. Motion is nearest-neighbor flow from the previous frame;
a point equal to the previous frame's point at its own index has zero flow
without a neighbor search, so only changed points reach the KD-tree. That
tree is a `cloud.OPEN_SPACE_TREE`, as the metric trees are: the changed
points are mostly the moved subject, which searches open space.

Stage two (fine): re-grid the survivors, score blocks by viewpoint
proximity/angle times geometric-texture distinctiveness, and downsample
each block proportionally to its normalized static saliency. The texture
neighbors come from a default (balanced) KD-tree over the block centres:
they sit on a regular lattice, so equal distances are common, and another
tree may return another of two equidistant neighbors.

The stages pass plain arrays: the flow is an (N, 3) float64 array and
block scores are (B,) arrays in block-row order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._util import ceil_count
from .cloud import (
    OPEN_SPACE_TREE, BlockGrid, Camera, Intrinsics, PointCloud, Pose,
    frustum_cull, frustum_mask, partition, quat_conjugate, quat_multiply,
    quat_normalize,
)

log = logging.getLogger(__name__)

CHI2_EPS = 1e-8
TEXTURE_BINS = 8  # trailing entries of every block feature vector


@dataclass(frozen=True)
class PoseHistory:
    """Recent viewer poses, oldest first; timestamps strictly increasing."""

    samples: tuple[Pose, ...]

    def __init__(self, samples):
        object.__setattr__(self, "samples", tuple(samples))
        if len(self.samples) < 2:
            raise ValueError("pose history needs at least 2 samples")
        times = [p.timestamp for p in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("pose timestamps must be strictly increasing")

    def __len__(self):
        return len(self.samples)


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
        if not 0.0 < self.coarse_keep_fraction <= 1.0:
            raise ValueError("coarse_keep_fraction must lie in (0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.lambda_ < math.inf:
            raise ValueError("lambda_ must be finite and >= 0")
        if not 0.0 <= self.r_min <= self.r_max <= 1.0:
            raise ValueError("require 0 <= r_min <= r_max <= 1")
        for name in ("coarse_cell_size", "fine_cell_size"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("R", "sub_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


# ---------------------------------------------------------------------------
# stage one

def predict_pose(history: PoseHistory) -> Pose:
    """Extrapolate the next pose from the last two samples.

    Position advances at the last observed velocity; orientation repeats the
    last relative rotation (renormalized).
    """
    prev, last = history.samples[-2], history.samples[-1]
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
    past the end of prev, are queried against a KD-tree over all of prev;
    when there are none, no tree is built. The tree is an OPEN_SPACE_TREE
    (see `cloud`): the queried points are mostly the moved subject, up to
    ~1.5 m from prev's nearest point. Equidistant scene points are rare: it
    found the default tree's neighbor for every query of the 920
    consecutive frame pairs of 40 `generate_scene(rooms=1, frames=24)`
    scenes.
    """
    if len(prev) == 0 or len(curr) == 0:
        raise ValueError("flow estimation requires non-empty clouds")
    p, c = prev.points, curr.points
    n = min(len(p), len(c))
    changed = np.ones(len(c), dtype=bool)
    changed[:n] = (c[:n] != p[:n]).any(axis=1)
    idx = np.arange(len(c))
    query = np.flatnonzero(changed)
    if len(query):
        _, idx[query] = cKDTree(p, **OPEN_SPACE_TREE).query(c[query])
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
                          history: PoseHistory, cfg: RoiConfig,
                          camera_intrinsics: Intrinsics):
    """Stage-one ROI: predicted-frustum cull plus motion-ranked block keep.

    Returns (cloud, grid, scores, camera). The grid and the (B,) per-row
    scores cover the whole culled cloud. An empty frustum returns an empty
    cloud, empty scores and grid None.

    Flow is estimated on the whole frame, so that frame indices line up
    with prev_frame for estimate_flow's zero-flow rule, and then sliced to
    the frustum.
    """
    camera = Camera(predict_pose(history), camera_intrinsics)
    inside = np.flatnonzero(frustum_mask(frame, camera))
    culled = frame.select(inside)
    if len(culled) == 0:
        log.warning("frame %d: predicted frustum is empty", frame.frame_index)
        return culled, None, np.zeros(0), camera
    grid = partition(culled, cfg.coarse_cell_size)
    scores = dynamic_saliency(grid, estimate_flow(prev_frame, frame)[inside])
    keep = np.zeros(len(grid.ids), dtype=bool)
    keep[_coarse_kept_rows(grid, scores, cfg)] = True
    return culled.select(np.flatnonzero(keep[grid.rows])), grid, scores, camera


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


def fine_select_details(coarse: PointCloud, viewpoint, view_direction,
                        cfg: RoiConfig, seed: int):
    """Stage-two ROI: saliency-proportional per-block downsampling.
    Returns the downsampled cloud."""
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
    takes = map(ceil_count, ratios.tolist(), grid.counts.tolist())
    rng = np.random.default_rng(seed)
    indices = np.sort(np.concatenate([
        rng.choice(grid.indices(i), size=take, replace=False)
        for i, take in enumerate(takes)]))
    return coarse.select(indices)


# ---------------------------------------------------------------------------
# full pipeline

@dataclass(frozen=True)
class RoiResult:
    cloud: PointCloud
    frustum_points: int  # points inside the predicted frustum


def select_roi(frame: PointCloud, prev_frame: PointCloud,
               history: PoseHistory, cfg: RoiConfig,
               camera_intrinsics: Intrinsics, seed: int) -> RoiResult:
    """Run both ROI stages on one frame; empty frustum yields an empty ROI."""
    coarse, grid, _, camera = coarse_select_details(
        frame, prev_frame, history, cfg, camera_intrinsics)
    if grid is None:  # empty frustum
        return RoiResult(coarse, 0)
    cloud = fine_select_details(coarse, camera.pose.position,
                                camera.pose.forward(), cfg, seed)
    return RoiResult(cloud, len(grid.rows))
