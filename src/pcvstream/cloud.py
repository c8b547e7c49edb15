"""Point cloud core: frame/pose/camera types, spatial partitioning, frustum
culling, and geometric quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._util import check_count, check_positive, run_starts, stable_argsort

# cKDTree build options for queries that search open space. The tree splits
# at sliding midpoints and keeps full-size node boxes (not balanced, not
# compact): a query far from the data then visits far fewer leaves
# (Maneewongvatana & Mount, "It's okay to be skinny, if your friends are
# fat", 1999). Distances are the same as on a default tree, but of two
# equidistant neighbours it may return the other one. The metric trees
# (decoded points off q's surfaces) and the flow tree (moved subject points
# off the previous frame) use it; the fine stage's lattice tree does not,
# because its block centres tie often.
OPEN_SPACE_TREE = {"balanced_tree": False, "compact_nodes": False}

# Query rows from which `nearest_distances` searches on two threads. The
# threads are cKDTree's own (`workers`), not BLAS, so a BLAS thread pin
# does not limit them. Each threaded call costs a fixed ~0.5-1 ms, so
# small queries stay on one thread. Two-worker time over one-worker time
# on stream-full codec decodes sub-sampled to n query rows (2-vCPU x86-64
# VM, 6 scenes, 9 interleaved reps):
#
#   n                      2k    4k    6k    8k    12k   16k   20k
#   2 workers / 1 worker   1.20  1.01  0.85  0.78  0.69  0.66  0.61
#
# The fixed cost depends on how busy the second vCPU is: a re-run on a
# quieter host read 0.84 at 2k and 0.73 from 6k up.
PARALLEL_QUERY_ROWS = 8192


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z convention, Hamilton product)

def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return q / n


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q):
    """Rotation matrix R with R @ v rotating a local vector into world frame."""
    w, x, y, z = quat_normalize(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class PointCloud:
    """One frame of point cloud video.

    points: (N, 3) float32 coordinates in meters.
    colors: optional (N, 3) uint8 RGB.
    """

    points: np.ndarray
    colors: np.ndarray | None = None
    frame_index: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float32).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.colors is not None:
            col = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 3)
            if len(col) != len(pts):
                raise ValueError("color count must match point count")
            col.flags.writeable = False
            object.__setattr__(self, "colors", col)
        check_count("frame_index", self.frame_index, low=0)

    def __len__(self):
        return len(self.points)

    def select(self, indices) -> "PointCloud":
        """New cloud keeping the given point indices (order preserved).

        Indices must be integers: a boolean mask or float indices raise
        ValueError, where numpy would read a mask as indices 0 and 1 and
        truncate floats. An empty sequence selects nothing.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            indices = indices.astype(np.intp)
        elif not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"select takes integer indices, got dtype "
                             f"{indices.dtype}")
        colors = self.colors[indices] if self.colors is not None else None
        return PointCloud(self.points[indices], colors, self.frame_index)


@dataclass(frozen=True)
class Pose:
    """6-DoF viewer state: position in meters plus a unit quaternion."""

    position: np.ndarray
    orientation: np.ndarray  # (w, x, y, z)
    timestamp: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(3)
        quat = np.asarray(self.orientation, dtype=np.float64).reshape(4)
        # a NaN passes the unit-norm comparison below, so check it first
        if not (np.isfinite(pos).all() and np.isfinite(quat).all()
                and math.isfinite(self.timestamp)):
            raise ValueError("pose position, orientation and timestamp "
                             "must be finite")
        if abs(np.linalg.norm(quat) - 1.0) > 1e-6:
            raise ValueError("orientation must be a unit quaternion")
        pos.flags.writeable = False
        quat.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)

    def forward(self):
        """World-space view direction; local camera forward is +z."""
        return quat_to_matrix(self.orientation) @ np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Intrinsics:
    """Projection parameters shared by cameras along a pose track."""

    vertical_fov: float = 90.0  # degrees
    aspect: float = 1.0
    near: float = 0.1
    far: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.vertical_fov < 180.0:
            raise ValueError("vertical_fov must lie strictly inside (0, 180)")
        check_positive("aspect", self.aspect)
        # a negated comparison, so that NaN fails it too
        if not 0.0 < self.near < self.far:
            raise ValueError("require 0 < near < far")


@dataclass(frozen=True)
class Camera:
    """Perspective camera: a pose plus its frustum parameters."""

    pose: Pose
    intrinsics: Intrinsics


@dataclass(frozen=True)
class BlockGrid:
    """Uniform spatial partition of one cloud; empty cells are omitted.

    Block row i is the occupied cell with flat id ids[i] (ascending) and
    owns the point indices order[offsets[i]:offsets[i + 1]] (ascending);
    rows[p] is the block row of point p.
    """

    origin: np.ndarray
    cell_size: float
    dims: tuple[int, int, int]
    ids: np.ndarray      # (B,)
    rows: np.ndarray     # (N,)
    order: np.ndarray    # (N,)
    offsets: np.ndarray  # (B + 1,)

    @property
    def counts(self) -> np.ndarray:
        """Points per block row, (B,)."""
        return np.diff(self.offsets)

    def cell_lows(self) -> np.ndarray:
        """(B, 3) minimum corner of every block row's cell."""
        nx, ny, _ = self.dims
        coords = np.stack([self.ids % nx, (self.ids // nx) % ny,
                           self.ids // (nx * ny)], axis=1)
        return self.origin + coords * self.cell_size


# ---------------------------------------------------------------------------
# spatial operations

def bounds(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis (min, max) of an (N, D) array, one column at a time.

    The same values as `pts.min(axis=0)` and `pts.max(axis=0)` in the
    input dtype (NaN propagates), about 10x faster on (N, 3) arrays. Only
    where a column's extreme is a zero held with both signs may the sign
    of that zero differ.
    """
    cols = range(pts.shape[1])
    return (np.array([pts[:, a].min() for a in cols]),
            np.array([pts[:, a].max() for a in cols]))


def partition(cloud: PointCloud, cell_size: float) -> BlockGrid:
    """Partition a cloud into uniform cells of edge `cell_size`.

    Cells are half-open [lo, hi) per axis; points on the grid's max corner
    are clamped into the last cell so every point lands in exactly one block.
    One stable sort of the flat cell ids orders the points, by
    `_util.stable_argsort`: it packs each id with its point index into one
    word, unless an id is too wide to pack. The runs of equal ids in that
    order are the block rows, so no second sort is made.
    """
    check_positive("cell_size", cell_size)
    if len(cloud) == 0:
        raise ValueError("cannot partition an empty cloud")
    pts = cloud.points.astype(np.float64)
    origin, top = bounds(pts)
    extent = top - origin
    dims = np.maximum(np.ceil(extent / cell_size - 1e-12), 1.0)
    # counted in float64: int64 flat ids past 2^63 - 1 would wrap silently
    if not dims.prod() < 2.0 ** 63:
        raise ValueError(f"cell_size {cell_size} cuts the cloud's bounds into "
                         "more cells than int64 cell ids can number")
    dims = dims.astype(np.int64)
    idx = np.floor((pts - origin) / cell_size).astype(np.int64)
    idx = np.clip(idx, 0, dims - 1)
    flat = idx[:, 0] + dims[0] * (idx[:, 1] + dims[1] * idx[:, 2])
    order = stable_argsort(flat)
    ordered = flat[order]
    starts = run_starts(ordered)
    ids = ordered[starts]
    offsets = np.append(starts, len(flat))
    rows = np.empty(len(flat), dtype=np.intp)
    rows[order] = np.repeat(np.arange(len(ids)), np.diff(offsets))
    for arr in (origin, ids, rows, order, offsets):
        arr.flags.writeable = False
    return BlockGrid(origin, float(cell_size), tuple(int(d) for d in dims),
                     ids, rows, order, offsets)


def frustum_cull(cloud: PointCloud, camera: Camera) -> PointCloud:
    """Keep exactly the points inside the camera's 6-plane view frustum.

    Camera space has +z forward; a point is kept when near <= z <= far and
    |x| <= z*tan(fov_x/2), |y| <= z*tan(fov_y/2) (boundary inclusive).
    """
    mask = frustum_mask(cloud, camera)
    return cloud.select(np.nonzero(mask)[0])


def frustum_mask(cloud: PointCloud, camera: Camera) -> np.ndarray:
    if len(cloud) == 0:
        return np.zeros(0, dtype=bool)
    rot = quat_to_matrix(camera.pose.orientation)
    local = (cloud.points.astype(np.float64) - camera.pose.position) @ rot
    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    intr = camera.intrinsics
    tan_y = math.tan(math.radians(intr.vertical_fov) / 2.0)
    tan_x = tan_y * intr.aspect
    return ((z >= intr.near) & (z <= intr.far)
            & (np.abs(x) <= z * tan_x) & (np.abs(y) <= z * tan_y))


# ---------------------------------------------------------------------------
# quality metrics

def _as_points(obj) -> np.ndarray:
    pts = obj.points if isinstance(obj, PointCloud) else np.asarray(obj)
    return pts.reshape(-1, 3).astype(np.float64)


def nearest_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For each row of p, Euclidean distance to its nearest row of q.

    The tree over q is an OPEN_SPACE_TREE: untrained decodes sit far from
    q's surfaces. A query of at least PARALLEL_QUERY_ROWS rows runs on two
    threads, a smaller one on one thread, where a thread's fixed start-up
    cost outweighs its share of the search. Each row is searched on its
    own, so the distances are the same bits at any worker count.
    """
    workers = 2 if len(p) >= PARALLEL_QUERY_ROWS else 1
    return cKDTree(q, **OPEN_SPACE_TREE).query(p, workers=workers)[0]


def chamfer_hausdorff(p, q) -> tuple[float, float]:
    """(Chamfer, Hausdorff) distance from one pair of NN queries.

    Chamfer is the mean NN distance summed over both directions, Hausdorff
    the worst NN distance in either.
    """
    pa, qa = _as_points(p), _as_points(q)
    if len(pa) == 0 or len(qa) == 0:
        raise ValueError("cloud distances require non-empty clouds")
    d_pq, d_qp = nearest_distances(pa, qa), nearest_distances(qa, pa)
    return (float(d_pq.mean() + d_qp.mean()),
            float(max(d_pq.max(), d_qp.max())))


def chamfer_distance(p, q) -> float:
    """Symmetric Chamfer distance: mean NN distance in both directions."""
    return chamfer_hausdorff(p, q)[0]


def hausdorff_distance(p, q) -> float:
    """Symmetric Hausdorff distance: worst-case NN distance, both ways."""
    return chamfer_hausdorff(p, q)[1]
