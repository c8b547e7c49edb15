import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pcvstream.cloud import (
    Camera, Intrinsics, PointCloud, Pose, chamfer_distance, chamfer_hausdorff,
    frustum_cull, hausdorff_distance, nearest_distances, partition,
)


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


def test_camera_validation():
    # a camera's frustum parameters are validated by its Intrinsics
    with pytest.raises(ValueError):
        Camera(identity_pose(), Intrinsics(vertical_fov=180.0))
    with pytest.raises(ValueError):
        Camera(identity_pose(), Intrinsics(near=1.0, far=0.5))


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
    np.testing.assert_array_equal(grid.indices(0), [0])
    np.testing.assert_array_equal(grid.cell_lows(), [[1.0, 2.0, 3.0]])


def test_partition_covers_exactly_once():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((1000, 3)).astype(np.float32))
    grid = partition(cloud, 0.25)
    assert len(grid.cell_lows()) == len(grid.ids)
    everything = np.concatenate([grid.indices(i) for i in range(len(grid.ids))])
    assert len(everything) == 1000
    assert set(everything.tolist()) == set(range(1000))


def test_partition_points_inside_cell_bounds():
    rng = np.random.default_rng(19)
    cloud = PointCloud((rng.random((500, 3)) * 4 - 2).astype(np.float32))
    grid = partition(cloud, 0.7)
    for i, lo in enumerate(grid.cell_lows()):
        hi = lo + grid.cell_size
        pts = cloud.points[grid.indices(i)].astype(np.float64)
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
        idx = grid.indices(i)
        assert (np.diff(idx) > 0).all()
        assert (grid.rows[idx] == i).all()
    # ids are the flat cell index x + nx * (y + ny * z) of each cell
    nx, ny, _ = grid.dims
    cell_idx = np.round((grid.cell_lows() - grid.origin) / cell).astype(int)
    np.testing.assert_array_equal(
        cell_idx[:, 0] + nx * (cell_idx[:, 1] + ny * cell_idx[:, 2]), grid.ids)


def test_partition_rejects_empty_and_bad_cell():
    with pytest.raises(ValueError):
        partition(PointCloud(np.empty((0, 3), np.float32)), 1.0)
    with pytest.raises(ValueError):
        partition(PointCloud([[0, 0, 0]]), 0.0)


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
