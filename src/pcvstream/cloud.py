"""Point cloud core: frame/pose/camera types, spatial partitioning, frustum
culling, and geometric quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


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
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")

    def __len__(self):
        return len(self.points)

    def select(self, indices) -> "PointCloud":
        """New cloud keeping the given point indices (order preserved)."""
        indices = np.asarray(indices, dtype=np.intp)
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
        if self.aspect <= 0.0:
            raise ValueError("aspect must be positive")
        if self.near <= 0.0 or self.far <= self.near:
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

    def indices(self, row: int) -> np.ndarray:
        """Point indices of one block row, ascending."""
        return self.order[self.offsets[row]:self.offsets[row + 1]]

    def cell_lows(self) -> np.ndarray:
        """(B, 3) minimum corner of every block row's cell."""
        nx, ny, _ = self.dims
        coords = np.stack([self.ids % nx, (self.ids // nx) % ny,
                           self.ids // (nx * ny)], axis=1)
        return self.origin + coords * self.cell_size


# ---------------------------------------------------------------------------
# spatial operations

def partition(cloud: PointCloud, cell_size: float) -> BlockGrid:
    """Partition a cloud into uniform cells of edge `cell_size`.

    Cells are half-open [lo, hi) per axis; points on the grid's max corner
    are clamped into the last cell so every point lands in exactly one block.
    """
    if cell_size <= 0.0:
        raise ValueError("cell_size must be positive")
    if len(cloud) == 0:
        raise ValueError("cannot partition an empty cloud")
    pts = cloud.points.astype(np.float64)
    origin = pts.min(axis=0)
    extent = pts.max(axis=0) - origin
    dims = np.maximum(np.ceil(extent / cell_size - 1e-12).astype(np.int64), 1)
    idx = np.floor((pts - origin) / cell_size).astype(np.int64)
    idx = np.clip(idx, 0, dims - 1)
    flat = idx[:, 0] + dims[0] * (idx[:, 1] + dims[1] * idx[:, 2])
    order = np.argsort(flat, kind="stable")
    ids, starts, inverse = np.unique(flat[order], return_index=True,
                                     return_inverse=True)
    rows = np.empty(len(flat), dtype=np.intp)
    rows[order] = inverse
    offsets = np.append(starts, len(flat))
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

    The tree splits at sliding midpoints and keeps full-size node boxes
    (not balanced, not compact): decoded points far from q's surfaces then
    visit far fewer leaves, and the distances are the same.
    """
    return cKDTree(q, balanced_tree=False, compact_nodes=False).query(p)[0]


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
