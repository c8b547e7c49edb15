"""Point cloud core: frame/pose/camera types, PLY I/O, spatial partitioning,
frustum culling, seeded downsampling, and geometric quality metrics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._util import ceil_count


class PlyError(ValueError):
    """Malformed or unsupported PLY content. `offset` is the byte position."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


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


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    axis = axis / n
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])


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
    """Perspective camera: pose plus frustum parameters."""

    pose: Pose
    vertical_fov: float = 90.0
    aspect: float = 1.0
    near: float = 0.1
    far: float = 100.0

    def __post_init__(self):
        # reuse the Intrinsics checks
        Intrinsics(self.vertical_fov, self.aspect, self.near, self.far)

    @classmethod
    def at(cls, pose: Pose, intrinsics: Intrinsics) -> "Camera":
        return cls(pose, intrinsics.vertical_fov, intrinsics.aspect,
                   intrinsics.near, intrinsics.far)


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
# PLY I/O

_PLY_SCALAR_SIZES = {
    b"char": 1, b"int8": 1, b"uchar": 1, b"uint8": 1,
    b"short": 2, b"int16": 2, b"ushort": 2, b"uint16": 2,
    b"int": 4, b"int32": 4, b"uint": 4, b"uint32": 4,
    b"float": 4, b"float32": 4, b"double": 8, b"float64": 8,
}

_PLY_NUMPY = {
    b"char": "i1", b"int8": "i1", b"uchar": "u1", b"uint8": "u1",
    b"short": "i2", b"int16": "i2", b"ushort": "u2", b"uint16": "u2",
    b"int": "i4", b"int32": "i4", b"uint": "u4", b"uint32": "u4",
    b"float": "f4", b"float32": "f4", b"double": "f8", b"float64": "f8",
}


def _parse_ply_header(data: bytes):
    """Returns (fmt, vertex_count, vertex_props, body_offset).

    vertex_props is a list of (name, ply_type) in declaration order.
    """
    offset = 0

    def next_line():
        nonlocal offset
        end = data.find(b"\n", offset)
        if end < 0:
            raise PlyError("unterminated header", offset)
        line = data[offset:end]
        line_off = offset
        offset = end + 1
        return line.strip(), line_off

    line, off = next_line()
    if line != b"ply":
        raise PlyError("not a PLY file: missing 'ply' magic", off)
    line, off = next_line()
    parts = line.split()
    if len(parts) != 3 or parts[0] != b"format":
        raise PlyError("expected format line", off)
    fmt = parts[1].decode("ascii", "replace")
    if fmt not in ("ascii", "binary_little_endian"):
        raise PlyError(f"unsupported PLY format '{fmt}'", off)

    vertex_count = None
    vertex_props: list[tuple[str, bytes]] = []
    current_element = None
    while True:
        line, off = next_line()
        if line == b"end_header":
            break
        parts = line.split()
        if not parts or parts[0] == b"comment" or parts[0] == b"obj_info":
            continue
        if parts[0] == b"element":
            current_element = parts[1]
            if current_element == b"vertex":
                if vertex_count is not None:
                    raise PlyError("duplicate vertex element", off)
                vertex_count = int(parts[2])
            elif vertex_count is None and fmt != "ascii":
                # binary payload before the vertex block cannot be skipped
                raise PlyError(
                    "element precedes vertex data in binary file", off)
        elif parts[0] == b"property":
            if current_element != b"vertex":
                continue
            if parts[1] == b"list":
                raise PlyError("unsupported property type: list", off)
            if parts[1] not in _PLY_SCALAR_SIZES:
                raise PlyError(
                    f"unsupported property type {parts[1].decode()}", off)
            vertex_props.append((parts[2].decode("ascii"), parts[1]))
    if vertex_count is None:
        raise PlyError("header declares no vertex element", offset)
    return fmt, vertex_count, vertex_props, offset


def load_ply(path) -> PointCloud:
    """Read an ASCII or binary little-endian PLY file into a PointCloud.

    Requires float x/y/z vertex properties; uchar red/green/blue are picked
    up when present. Other scalar properties are skipped with a warning.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fmt, count, props, body = _parse_ply_header(data)

    names = [name for name, _ in props]
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise PlyError(f"missing vertex property '{coord}'", body)
        if props[names.index(coord)][1] not in (b"float", b"float32"):
            raise PlyError(f"vertex property '{coord}' must be float", body)
    has_color = all(c in names for c in ("red", "green", "blue"))
    if has_color:
        for c in ("red", "green", "blue"):
            if props[names.index(c)][1] not in (b"uchar", b"uint8"):
                raise PlyError(f"vertex property '{c}' must be uchar", body)
    wanted = {"x", "y", "z"} | ({"red", "green", "blue"} if has_color else set())
    extras = [n for n in names if n not in wanted]
    if extras:
        warnings.warn(f"skipping PLY vertex properties: {', '.join(extras)}")

    if fmt == "binary_little_endian":
        dtype = np.dtype([(name, "<" + _PLY_NUMPY[t]) for name, t in props])
        expected = count * dtype.itemsize
        if len(data) - body < expected:
            raise PlyError(
                f"truncated payload: need {expected} bytes, have "
                f"{len(data) - body}", len(data))
        table = np.frombuffer(data, dtype=dtype, count=count, offset=body)
    else:
        rows = []
        offset = body
        for i in range(count):
            end = data.find(b"\n", offset)
            if end < 0:
                end = len(data)
            tokens = data[offset:end].split()
            if len(tokens) < len(props):
                raise PlyError(f"truncated payload at vertex {i}", offset)
            rows.append(tokens[: len(props)])
            offset = end + 1
            if offset > len(data) and i + 1 < count:
                raise PlyError(f"truncated payload at vertex {i + 1}", len(data))
        table = {}
        if count:
            text = np.array(rows)
            for j, (name, t) in enumerate(props):
                table[name] = text[:, j].astype(_PLY_NUMPY[t])
        else:
            table = {name: np.empty(0, dtype=_PLY_NUMPY[t])
                     for name, t in props}

    pts = np.stack([np.asarray(table["x"], dtype=np.float32),
                    np.asarray(table["y"], dtype=np.float32),
                    np.asarray(table["z"], dtype=np.float32)], axis=1)
    colors = None
    if has_color:
        colors = np.stack([np.asarray(table[c], dtype=np.uint8)
                           for c in ("red", "green", "blue")], axis=1)
    return PointCloud(pts, colors)


def save_ply(cloud: PointCloud, path, encoding: str = "binary") -> None:
    """Write a cloud as PLY. `encoding` is 'binary' or 'ascii'."""
    if encoding not in ("binary", "ascii"):
        raise ValueError("encoding must be 'binary' or 'ascii'")
    fmt = "binary_little_endian" if encoding == "binary" else "ascii"
    has_color = cloud.colors is not None
    header = [
        "ply",
        f"format {fmt} 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if has_color:
        header += ["property uchar red", "property uchar green",
                   "property uchar blue"]
    header.append("end_header")

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if encoding == "binary":
            if has_color:
                dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                                  ("red", "u1"), ("green", "u1"), ("blue", "u1")])
                rec = np.empty(len(cloud), dtype=dtype)
                rec["x"], rec["y"], rec["z"] = cloud.points.T
                rec["red"], rec["green"], rec["blue"] = cloud.colors.T
            else:
                rec = cloud.points.astype("<f4")
            fh.write(rec.tobytes())
        else:
            for i in range(len(cloud)):
                coords = " ".join(
                    np.format_float_positional(v, unique=True, trim="0")
                    for v in cloud.points[i])
                if has_color:
                    coords += " " + " ".join(str(int(v)) for v in cloud.colors[i])
                fh.write((coords + "\n").encode("ascii"))


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
    tan_y = math.tan(math.radians(camera.vertical_fov) / 2.0)
    tan_x = tan_y * camera.aspect
    return ((z >= camera.near) & (z <= camera.far)
            & (np.abs(x) <= z * tan_x) & (np.abs(y) <= z * tan_y))


def downsample(cloud: PointCloud, ratio: float, seed: int) -> PointCloud:
    """Keep ceil(ratio*N) points by seeded uniform sampling w/o replacement."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    n = len(cloud)
    if n == 0:
        return cloud
    keep = ceil_count(ratio, n)
    rng = np.random.default_rng(seed)
    indices = rng.choice(n, size=keep, replace=False)
    return cloud.select(indices)


# ---------------------------------------------------------------------------
# quality metrics

def _as_points(obj) -> np.ndarray:
    pts = obj.points if isinstance(obj, PointCloud) else np.asarray(obj)
    return pts.reshape(-1, 3).astype(np.float64)


def _normalize_pair(p, q):
    lo = np.minimum(p.min(axis=0), q.min(axis=0))
    hi = np.maximum(p.max(axis=0), q.max(axis=0))
    scale = float((hi - lo).max())
    if scale <= 0.0:
        scale = 1.0
    return (p - lo) / scale, (q - lo) / scale


def nearest_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For each row of p, Euclidean distance to its nearest row of q.

    The tree splits at sliding midpoints and keeps full-size node boxes
    (not balanced, not compact): decoded points far from q's surfaces then
    visit far fewer leaves, and the distances are the same.
    """
    return cKDTree(q, balanced_tree=False, compact_nodes=False).query(p)[0]


def chamfer_hausdorff(p, q, normalize: bool = False) -> tuple[float, float]:
    """(Chamfer, Hausdorff) distance from one pair of NN queries.

    Chamfer is the mean NN distance summed over both directions, Hausdorff
    the worst NN distance in either. With normalize=True both clouds are
    first mapped into the unit cube of their joint bounding box (the
    raw-coordinate form is the default).
    """
    pa, qa = _as_points(p), _as_points(q)
    if len(pa) == 0 or len(qa) == 0:
        raise ValueError("cloud distances require non-empty clouds")
    if normalize:
        pa, qa = _normalize_pair(pa, qa)
    d_pq, d_qp = nearest_distances(pa, qa), nearest_distances(qa, pa)
    return (float(d_pq.mean() + d_qp.mean()),
            float(max(d_pq.max(), d_qp.max())))


def chamfer_distance(p, q, normalize: bool = False) -> float:
    """Symmetric Chamfer distance: mean NN distance in both directions."""
    return chamfer_hausdorff(p, q, normalize)[0]


def hausdorff_distance(p, q, normalize: bool = False) -> float:
    """Symmetric Hausdorff distance: worst-case NN distance, both ways."""
    return chamfer_hausdorff(p, q, normalize)[1]
