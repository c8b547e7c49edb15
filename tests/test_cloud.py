import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import block_indices
from pcvstream import cloud, roi
from pcvstream.cloud import (
    OPEN_SPACE_TREE, PARALLEL_QUERY_ROWS, Camera, Intrinsics, PointCloud,
    Pose, bounds, chamfer_distance, chamfer_hausdorff, frustum_cull,
    hausdorff_distance, nearest_distances, partition,
)
from pcvstream.codec import (
    chunk_blocks, decode, denormalize_block, encode, make_codec_model,
    normalize_block, octree_decode, octree_encode,
)
from pcvstream.roi import RoiConfig, predict_pose, select_roi
from pcvstream.sim import generate_scene


def brute_chamfer(p, q):
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    return d.min(axis=1).mean() + d.min(axis=0).mean()


def brute_hausdorff(p, q):
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def identity_pose(position=(0.0, 0.0, 0.0)):
    return Pose(position, (1.0, 0.0, 0.0, 0.0))


def quat_from_axis_angle(axis, angle):
    """Unit quaternion (w, x, y, z) of a rotation by `angle` about `axis`."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])


# ---------------------------------------------------------------------------
# types

def test_pointcloud_rejects_nan():
    with pytest.raises(ValueError):
        PointCloud([[0.0, 0.0, float("nan")]])


def test_pointcloud_color_length_mismatch():
    with pytest.raises(ValueError):
        PointCloud([[0, 0, 0], [1, 1, 1]], colors=[[255, 0, 0]])


def test_pose_requires_unit_quaternion():
    with pytest.raises(ValueError):
        Pose((0, 0, 0), (1.0, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("position, orientation, timestamp", [
    ((0.0, math.nan, 0.0), (1.0, 0.0, 0.0, 0.0), 0.0),
    ((0.0, 0.0, math.inf), (1.0, 0.0, 0.0, 0.0), 0.0),
    ((0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0), 0.0),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, math.nan), 0.0),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), math.nan),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), -math.inf),
], ids=["nan position", "inf position", "nan w", "nan z", "nan timestamp",
        "-inf timestamp"])
def test_pose_rejects_non_finite_values(position, orientation, timestamp):
    # a NaN quaternion would pass the unit-norm check: |nan - 1| > eps is
    # False
    with pytest.raises(ValueError, match="must be finite"):
        Pose(position, orientation, timestamp)


def test_camera_validation():
    # a camera's frustum parameters are validated by its Intrinsics
    with pytest.raises(ValueError):
        Camera(identity_pose(), Intrinsics(vertical_fov=180.0))
    with pytest.raises(ValueError):
        Camera(identity_pose(), Intrinsics(near=1.0, far=0.5))


@pytest.mark.parametrize("field, value, message", [
    ("aspect", math.nan, "aspect must be finite and positive"),
    ("aspect", 0.0, "aspect must be finite and positive"),
    ("aspect", math.inf, "aspect must be finite and positive"),
    ("near", math.nan, "0 < near < far"),
    ("far", math.nan, "0 < near < far"),
    ("vertical_fov", math.nan, "vertical_fov"),
])
def test_intrinsics_reject_nan_and_nonpositive_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        Intrinsics(**{field: value})


def colored_cloud():
    pts = np.arange(12, dtype=np.float32).reshape(4, 3)
    return PointCloud(pts, np.arange(12).reshape(4, 3), frame_index=3)


def test_select_keeps_integer_indices_in_order():
    cloud = colored_cloud()
    picked = cloud.select(np.array([3, 1], dtype=np.int32))
    np.testing.assert_array_equal(picked.points, cloud.points[[3, 1]])
    np.testing.assert_array_equal(picked.colors, cloud.colors[[3, 1]])
    assert picked.frame_index == 3
    for empty in ([], np.array([], dtype=np.float64), np.empty(0, bool)):
        assert len(cloud.select(empty)) == 0


@pytest.mark.parametrize("indices", [
    [False, True, False, True], np.ones(4, dtype=bool), [0.0, 2.7],
    np.array([1.0])], ids=["bool list", "bool array", "floats", "float"])
def test_select_rejects_a_mask_and_float_indices(indices):
    # numpy would read the mask as indices 0, 1, 0, 1 and truncate 2.7 to 2
    with pytest.raises(ValueError, match="integer indices"):
        colored_cloud().select(indices)


# ---------------------------------------------------------------------------
# partition

def test_partition_two_corner_points():
    cloud = PointCloud([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
    grid = partition(cloud, 0.5)
    assert len(grid.ids) == 2
    np.testing.assert_allclose(grid.cell_lows(),
                               [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]], atol=1e-7)


def test_partition_single_point():
    grid = partition(PointCloud([[1.0, 2.0, 3.0]]), 0.5)
    assert len(grid.ids) == 1
    np.testing.assert_array_equal(block_indices(grid, 0), [0])
    np.testing.assert_array_equal(grid.cell_lows(), [[1.0, 2.0, 3.0]])


def test_partition_covers_exactly_once():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((1000, 3)).astype(np.float32))
    grid = partition(cloud, 0.25)
    assert len(grid.cell_lows()) == len(grid.ids)
    everything = np.concatenate([block_indices(grid, i)
                                 for i in range(len(grid.ids))])
    assert len(everything) == 1000
    assert set(everything.tolist()) == set(range(1000))


def test_partition_rejects_more_cells_than_int64_ids():
    # a 1 um grid over a room frame has 5.27M x 2.88M x 4.54M cells: the
    # flat ids wrapped, and most points fell outside their row's cell
    frame = generate_scene(rooms=1, frames=3, seed=0).frames[0]
    with pytest.raises(ValueError, match="more cells than int64"):
        partition(frame, 1e-6)
    # a unit cube at 2^21 cells per axis has 2^63 cells, one past int64
    cube = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="more cells than int64"):
        partition(cube, 2.0 ** -21)
    grid = partition(cube, 2.0 ** -20)
    assert grid.dims == (2 ** 20,) * 3
    assert grid.ids.tolist() == [0, 2 ** 60 - 1]


def test_partition_points_inside_cell_bounds():
    rng = np.random.default_rng(19)
    cloud = PointCloud((rng.random((500, 3)) * 4 - 2).astype(np.float32))
    grid = partition(cloud, 0.7)
    for i, lo in enumerate(grid.cell_lows()):
        hi = lo + grid.cell_size
        pts = cloud.points[block_indices(grid, i)].astype(np.float64)
        assert (pts >= lo - 1e-9).all()
        # half-open upper bound except for max-corner clamping
        assert (pts <= hi + 1e-9).all()


@pytest.mark.parametrize("n, cell", [(1, 0.5), (500, 0.7), (2000, 0.25)])
def test_partition_arrays_are_consistent(n, cell):
    rng = np.random.default_rng(n)
    cloud = PointCloud((rng.random((n, 3)) * 3).astype(np.float32))
    grid = partition(cloud, cell)
    assert (np.diff(grid.ids) > 0).all()
    assert grid.offsets[0] == 0 and grid.offsets[-1] == n
    assert len(grid.offsets) == len(grid.ids) + 1
    assert len(grid.rows) == n and (grid.counts > 0).all()
    for i in range(len(grid.ids)):
        idx = block_indices(grid, i)
        assert (np.diff(idx) > 0).all()
        assert (grid.rows[idx] == i).all()
    # ids are the flat cell index x + nx * (y + ny * z) of each cell
    nx, ny, _ = grid.dims
    cell_idx = np.round((grid.cell_lows() - grid.origin) / cell).astype(int)
    np.testing.assert_array_equal(
        cell_idx[:, 0] + nx * (cell_idx[:, 1] + ny * cell_idx[:, 2]), grid.ids)


def unique_partition(cloud, cell):
    """(ids, rows, order, offsets) of partition's cells from one np.unique
    call: the oracle for its run starts."""
    pts = cloud.points.astype(np.float64)
    origin = pts.min(axis=0)
    dims = np.maximum(np.ceil((pts.max(axis=0) - origin) / cell - 1e-12),
                      1.0).astype(np.int64)
    idx = np.clip(np.floor((pts - origin) / cell).astype(np.int64), 0,
                  dims - 1)
    flat = idx[:, 0] + dims[0] * (idx[:, 1] + dims[1] * idx[:, 2])
    ids, rows = np.unique(flat, return_inverse=True)
    order = np.argsort(rows, kind="stable")
    offsets = np.append(np.searchsorted(rows[order], np.arange(len(ids))),
                        len(flat))
    return ids, rows, order, offsets


PARTITION_CASES = {
    "random": (PointCloud(np.random.default_rng(5).normal(
        size=(3000, 3)).astype(np.float32)), 0.3),
    "random coarse": (PointCloud(np.random.default_rng(6).random(
        (500, 3)).astype(np.float32) * 4), 1.1),
    "one point": (PointCloud([[1.0, -2.0, 3.0]]), 0.5),
    "all duplicates": (PointCloud(np.tile([[0.5, 0.25, -1.0]], (40, 1))),
                       0.25),
    "single cell": (PointCloud(np.random.default_rng(7).random(
        (64, 3)).astype(np.float32) * 0.2), 1.0),
}


@pytest.mark.parametrize("cloud, cell", PARTITION_CASES.values(),
                         ids=PARTITION_CASES)
def test_partition_equals_np_unique_reference(cloud, cell):
    grid = partition(cloud, cell)
    ids, rows, order, offsets = unique_partition(cloud, cell)
    for got, want in ((grid.ids, ids), (grid.rows, rows),
                      (grid.order, order), (grid.offsets, offsets)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_partition_rejects_empty_and_bad_cell():
    with pytest.raises(ValueError):
        partition(PointCloud(np.empty((0, 3), np.float32)), 1.0)
    for cell in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            partition(PointCloud([[0, 0, 0], [1, 1, 1]]), cell)


def bounds_cases():
    rng = np.random.default_rng(12)
    big = rng.normal(scale=5.0, size=(20000, 3))
    nan_rows = rng.normal(size=(50, 3))
    nan_rows[7, 1] = np.nan
    nan_rows[31] = np.nan
    return {"20k rows": big, "one row": big[:1], "two rows": big[:2],
            "NaN rows": nan_rows, "all NaN": np.full((3, 3), np.nan)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(bounds_cases()))
def test_bounds_equal_axis_reductions_bitwise(case, dtype):
    pts = bounds_cases()[case].astype(dtype)
    lo, hi = bounds(pts)
    assert lo.dtype == hi.dtype == dtype and lo.shape == hi.shape == (3,)
    assert lo.tobytes() == pts.min(axis=0).tobytes()
    assert hi.tobytes() == pts.max(axis=0).tobytes()


# ---------------------------------------------------------------------------
# frustum culling

def camera_at_origin():
    return Camera(identity_pose(), Intrinsics(vertical_fov=90.0, aspect=1.0,
                                              near=0.1, far=100.0))


def test_point_behind_camera_excluded():
    cloud = PointCloud([[0.0, 0.0, -1.0]])
    assert len(frustum_cull(cloud, camera_at_origin())) == 0


def test_point_on_axis_included():
    cloud = PointCloud([[0.0, 0.0, 1.0]])
    assert len(frustum_cull(cloud, camera_at_origin())) == 1


def random_camera(rng):
    axis = rng.normal(size=3)
    quat = quat_from_axis_angle(axis, rng.uniform(0, 2 * math.pi))
    pose = Pose(rng.uniform(-2, 2, size=3), quat)
    near = rng.uniform(0.05, 0.5)
    return Camera(pose, Intrinsics(vertical_fov=rng.uniform(30, 120),
                                   aspect=rng.uniform(0.5, 2.0), near=near,
                                   far=near + rng.uniform(2.0, 30.0)))


def clip_space_mask(points, cam):
    """Independent oracle: perspective matrix + clip-space bound tests."""
    from pcvstream.cloud import quat_to_matrix

    rot = quat_to_matrix(cam.pose.orientation)
    intr = cam.intrinsics
    t = math.tan(math.radians(intr.vertical_fov) / 2.0)
    n, f = intr.near, intr.far
    proj = np.array([
        [1.0 / (intr.aspect * t), 0, 0, 0],
        [0, 1.0 / t, 0, 0],
        [0, 0, (f + n) / (f - n), -2.0 * f * n / (f - n)],
        [0, 0, 1.0, 0],
    ])
    keep = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(points.astype(np.float64)):
        local = rot.T @ (p - cam.pose.position)
        clip = proj @ np.concatenate([local, [1.0]])
        w = clip[3]
        keep[i] = (w > 0 and -w <= clip[0] <= w and -w <= clip[1] <= w
                   and -w <= clip[2] <= w)
    return keep


def test_frustum_matches_clip_space_oracle():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-10, 10, size=(500, 3)).astype(np.float32)
    cloud = PointCloud(pts)
    for _ in range(5):
        cam = random_camera(rng)
        culled = frustum_cull(cloud, cam)
        expect = cloud.points[clip_space_mask(cloud.points, cam)]
        np.testing.assert_array_equal(culled.points, expect)


def test_frustum_monotone_in_far_and_fov():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-5, 5, size=(400, 3)).astype(np.float32))
    intr = Intrinsics(vertical_fov=60, aspect=1.2, near=0.2, far=6.0)
    cam = Camera(identity_pose((0, 0, -4)), intr)
    base = set(map(tuple, frustum_cull(cloud, cam).points.tolist()))
    wider = Camera(cam.pose, Intrinsics(90, intr.aspect, intr.near, 9.0))
    bigger = set(map(tuple, frustum_cull(cloud, wider).points.tolist()))
    assert base <= bigger


# ---------------------------------------------------------------------------
# metrics

def test_chamfer_self_distance_zero():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.random((40, 3)).astype(np.float32))
    assert chamfer_distance(cloud, cloud) == 0.0
    assert hausdorff_distance(cloud, cloud) == 0.0


def test_chamfer_analytic_pair():
    p = PointCloud([[0, 0, 0]])
    q = PointCloud([[1, 0, 0]])
    assert chamfer_distance(p, q) == pytest.approx(2.0, abs=1e-12)


def test_hausdorff_analytic_pair():
    p = PointCloud([[0, 0, 0], [2, 0, 0]])
    q = PointCloud([[0, 0, 0]])
    assert hausdorff_distance(p, q) == pytest.approx(2.0, abs=1e-12)


def test_metrics_match_bruteforce_oracle():
    rng = np.random.default_rng(8)
    sizes = [(8, 8)] * 30 + [(13, 5), (5, 13), (1, 9), (9, 1), (1, 1)]
    for n_p, n_q in sizes:
        p = rng.normal(size=(n_p, 3))
        q = rng.normal(size=(n_q, 3))
        cd, hd = chamfer_hausdorff(p, q)
        assert cd == pytest.approx(brute_chamfer(p, q), abs=1e-9)
        assert hd == pytest.approx(brute_hausdorff(p, q), abs=1e-9)
        assert (cd, hd) == (chamfer_distance(p, q), hausdorff_distance(p, q))


def test_nearest_distances_equal_default_tree_distances():
    rng = np.random.default_rng(10)
    surface = rng.random((3000, 3)) * [4.0, 4.0, 0.01]  # a thin slab
    clouds = [
        (rng.normal(scale=3.0, size=(500, 3)), surface),  # far from q
        (surface[::7] + 1e-3, surface),
        (np.repeat(surface[:50], 3, axis=0), surface[:50]),  # exact ties
        (rng.normal(size=(1, 3)), rng.normal(size=(1, 3))),
    ]
    for p, q in clouds:
        want = cKDTree(q).query(p)[0]
        np.testing.assert_array_equal(nearest_distances(p, q), want)


def codec_decode(points, model):
    """The decoded points of a frame, as a codec session rebuilds them."""
    blocks, _ = chunk_blocks(points, model.n_points)
    norm, centroid, scale = normalize_block(blocks)
    rebuilt = decode(model, encode(model, norm))
    return denormalize_block(rebuilt, centroid, scale).reshape(-1, 3)


@pytest.mark.parametrize("seed", [0, 5])
def test_parallel_nearest_distances_equal_one_worker(seed):
    """Queries of PARALLEL_QUERY_ROWS rows and more run on two threads and
    give the one-worker distances bit for bit: on 20k-point frames against
    their codec and octree:10 decodes, both ways, and on exact ties."""
    frame = generate_scene(rooms=1, frames=2, seed=seed).frames[0]
    truth = frame.points.astype(np.float64)
    decodes = [
        codec_decode(truth, make_codec_model(256, seed=seed)),
        octree_decode(octree_encode(frame, 10)).points.astype(np.float64),
    ]
    lattice = np.stack(np.meshgrid(*[np.arange(24.0)] * 3), -1).reshape(-1, 3)
    pairs = [(truth, d) for d in decodes] + [(d, truth) for d in decodes]
    # every midpoint is 0.5 from two lattice points; the lattice repeats
    pairs.append((lattice + [0.5, 0.0, 0.0], np.repeat(lattice, 2, axis=0)))
    for p, q in pairs:
        assert len(p) > PARALLEL_QUERY_ROWS
        want = cKDTree(q, **OPEN_SPACE_TREE).query(p)[0]
        for n in (PARALLEL_QUERY_ROWS - 1, PARALLEL_QUERY_ROWS, len(p)):
            assert nearest_distances(p[:n], q).tobytes() == want[:n].tobytes()


def test_only_queries_from_the_floor_up_run_on_two_workers(monkeypatch):
    """Every KD query of cloud and roi, as (module, rows, workers): metric
    queries of PARALLEL_QUERY_ROWS rows and more use two workers, smaller
    ones and every roi query one."""
    queries = []

    def recording_tree(module):
        class RecordingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                assert not args  # workers is passed by name
                queries.append((module, len(x), kwargs.get("workers", 1)))
                return super().query(x, **kwargs)
        return RecordingTree

    monkeypatch.setattr(cloud, "cKDTree", recording_tree("cloud"))
    monkeypatch.setattr(roi, "cKDTree", recording_tree("roi"))
    rng = np.random.default_rng(11)
    q = rng.random((500, 3))
    for n in (1, PARALLEL_QUERY_ROWS - 1, PARALLEL_QUERY_ROWS, 20000):
        nearest_distances(rng.random((n, 3)), q)
    chamfer_hausdorff(rng.random((20000, 3)), rng.random((3000, 3)))
    scene = generate_scene(rooms=1, frames=24, seed=0)
    camera = Camera(predict_pose(*scene.poses[:2]), scene.intrinsics)
    select_roi(scene.frames[1], scene.frames[0], camera, RoiConfig(), seed=0)
    metric = [(n, w) for module, n, w in queries if module == "cloud"]
    assert metric == [(1, 1), (PARALLEL_QUERY_ROWS - 1, 1),
                      (PARALLEL_QUERY_ROWS, 2), (20000, 2), (20000, 2),
                      (3000, 1)]
    # the flow query and the fine stage's lattice query
    assert [w for module, _, w in queries if module == "roi"] == [1, 1]


def test_metrics_symmetric():
    rng = np.random.default_rng(9)
    p, q = rng.normal(size=(12, 3)), rng.normal(size=(7, 3))
    assert chamfer_distance(p, q) == pytest.approx(chamfer_distance(q, p), abs=1e-12)
    assert hausdorff_distance(p, q) == pytest.approx(hausdorff_distance(q, p), abs=1e-12)


def test_metrics_reject_empty():
    empty = PointCloud(np.empty((0, 3), np.float32))
    full = PointCloud([[0, 0, 0]])
    with pytest.raises(ValueError):
        chamfer_distance(empty, full)
    with pytest.raises(ValueError):
        hausdorff_distance(full, empty)
    for p, q in ((empty, full), (full, empty), (empty, empty)):
        with pytest.raises(ValueError):
            chamfer_hausdorff(p, q)


def test_chamfer_scales_with_coordinates():
    p = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    q = np.array([[0.0, 0, 0], [10.0, 1.0, 0]])
    raw = chamfer_distance(p, q)
    scaled = chamfer_distance(p * 3, q * 3)
    assert scaled == pytest.approx(3 * raw, rel=1e-9)
