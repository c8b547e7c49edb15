import math

import numpy as np
import pytest

from pcvstream.cloud import (
    BlockGrid, Camera, Intrinsics, PlyError, PointCloud, Pose,
    chamfer_distance, chamfer_hausdorff, downsample, frustum_cull,
    hausdorff_distance, load_ply, partition, quat_from_axis_angle, save_ply,
)


def brute_chamfer(p, q):
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    return d.min(axis=1).mean() + d.min(axis=0).mean()


def brute_hausdorff(p, q):
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def identity_pose(position=(0.0, 0.0, 0.0)):
    return Pose(position, (1.0, 0.0, 0.0, 0.0))


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
    with pytest.raises(ValueError):
        Camera(identity_pose(), vertical_fov=180.0)
    with pytest.raises(ValueError):
        Camera(identity_pose(), near=1.0, far=0.5)


# ---------------------------------------------------------------------------
# PLY round trips

ASCII_3PT = b"""ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
"""


def test_load_ascii_three_points(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_bytes(ASCII_3PT)
    cloud = load_ply(path)
    assert len(cloud) == 3
    assert cloud.colors is None
    np.testing.assert_array_equal(
        cloud.points, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], np.float32))


@pytest.mark.parametrize("encoding", ["ascii", "binary"])
@pytest.mark.parametrize("with_color", [False, True])
def test_save_load_round_trip(tmp_path, encoding, with_color):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(257, 3)).astype(np.float32)
    colors = rng.integers(0, 256, size=(257, 3), dtype=np.uint8) if with_color else None
    cloud = PointCloud(pts, colors)
    path = tmp_path / "rt.ply"
    save_ply(cloud, path, encoding)
    back = load_ply(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    if with_color:
        np.testing.assert_array_equal(back.colors, cloud.colors)
    else:
        assert back.colors is None


def test_binary_and_ascii_encode_same_points(tmp_path):
    # one generator, two encodings, identical multiset back
    rng = np.random.default_rng(42)
    cloud = PointCloud(rng.normal(scale=5.0, size=(1000, 3)).astype(np.float32))
    pa, pb = tmp_path / "a.ply", tmp_path / "b.ply"
    save_ply(cloud, pa, "ascii")
    save_ply(cloud, pb, "binary")
    a, b = load_ply(pa), load_ply(pb)
    sa = a.points[np.lexsort(a.points.T)]
    sb = b.points[np.lexsort(b.points.T)]
    np.testing.assert_array_equal(sa, sb)


def test_save_empty_cloud(tmp_path):
    path = tmp_path / "empty.ply"
    save_ply(PointCloud(np.empty((0, 3), np.float32)), path, "ascii")
    assert b"element vertex 0" in path.read_bytes()
    assert len(load_ply(path)) == 0


def test_color_header_properties(tmp_path):
    cloud = PointCloud([[0, 0, 0]], colors=[[10, 20, 30]])
    path = tmp_path / "c.ply"
    save_ply(cloud, path, "ascii")
    header = path.read_bytes().split(b"end_header")[0]
    for prop in (b"property uchar red", b"property uchar green",
                 b"property uchar blue"):
        assert prop in header


def test_binary_file_size_formula(tmp_path):
    # no color: payload is 12 bytes per point
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(10_000, 3)).astype(np.float32))
    path = tmp_path / "sz.ply"
    save_ply(cloud, path, "binary")
    raw = path.read_bytes()
    header_len = raw.index(b"end_header\n") + len(b"end_header\n")
    assert len(raw) == header_len + 12 * 10_000


def test_load_reports_byte_offsets(tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\n"
                    b"property float x\nproperty float y\nproperty float z\n"
                    b"end_header\n0 0 0\n")
    with pytest.raises(PlyError) as err:
        load_ply(bad)
    assert err.value.offset is not None

    nomagic = tmp_path / "nomagic.ply"
    nomagic.write_bytes(b"poly\nwhatever\n")
    with pytest.raises(PlyError):
        load_ply(nomagic)

    listprop = tmp_path / "list.ply"
    listprop.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                         b"property list uchar int vertex_indices\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n")
    with pytest.raises(PlyError):
        load_ply(listprop)


def test_unknown_property_skipped_with_warning(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                     b"property float x\nproperty float y\nproperty float z\n"
                     b"property float intensity\nend_header\n1 2 3 9\n")
    with pytest.warns(UserWarning, match="intensity"):
        cloud = load_ply(path)
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3]])


def test_truncated_binary_payload(tmp_path):
    cloud = PointCloud(np.ones((4, 3), np.float32))
    path = tmp_path / "trunc.ply"
    save_ply(cloud, path, "binary")
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(PlyError, match="truncated"):
        load_ply(path)


# ---------------------------------------------------------------------------
# partition

def test_partition_two_corner_points():
    cloud = PointCloud([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
    grid = partition(cloud, 0.5)
    assert len(grid.blocks) == 2


def test_partition_single_point():
    grid = partition(PointCloud([[1.0, 2.0, 3.0]]), 0.5)
    assert len(grid.blocks) == 1
    np.testing.assert_array_equal(next(iter(grid.blocks.values())), [0])


def test_partition_covers_exactly_once():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((1000, 3)).astype(np.float32))
    grid = partition(cloud, 0.25)
    everything = np.concatenate(list(grid.blocks.values()))
    assert len(everything) == 1000
    assert set(everything.tolist()) == set(range(1000))


def test_partition_points_inside_cell_bounds():
    rng = np.random.default_rng(19)
    cloud = PointCloud((rng.random((500, 3)) * 4 - 2).astype(np.float32))
    grid = partition(cloud, 0.7)
    for bid, idx in grid.blocks.items():
        lo, hi = grid.cell_bounds(bid)
        pts = cloud.points[idx].astype(np.float64)
        assert (pts >= lo - 1e-9).all()
        # half-open upper bound except for max-corner clamping
        assert (pts <= hi + 1e-9).all()


def test_partition_rejects_empty_and_bad_cell():
    with pytest.raises(ValueError):
        partition(PointCloud(np.empty((0, 3), np.float32)), 1.0)
    with pytest.raises(ValueError):
        partition(PointCloud([[0, 0, 0]]), 0.0)


# ---------------------------------------------------------------------------
# frustum culling

def camera_at_origin():
    return Camera(identity_pose(), vertical_fov=90.0, aspect=1.0,
                  near=0.1, far=100.0)


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
    return Camera(pose, vertical_fov=rng.uniform(30, 120),
                  aspect=rng.uniform(0.5, 2.0), near=near,
                  far=near + rng.uniform(2.0, 30.0))


def clip_space_mask(points, cam):
    """Independent oracle: perspective matrix + clip-space bound tests."""
    from pcvstream.cloud import quat_to_matrix

    rot = quat_to_matrix(cam.pose.orientation)
    t = math.tan(math.radians(cam.vertical_fov) / 2.0)
    n, f = cam.near, cam.far
    proj = np.array([
        [1.0 / (cam.aspect * t), 0, 0, 0],
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
    cam = Camera(identity_pose((0, 0, -4)), vertical_fov=60, aspect=1.2,
                 near=0.2, far=6.0)
    base = set(map(tuple, frustum_cull(cloud, cam).points.tolist()))
    wider = Camera(cam.pose, 90, cam.aspect, cam.near, 9.0)
    bigger = set(map(tuple, frustum_cull(cloud, wider).points.tolist()))
    assert base <= bigger


# ---------------------------------------------------------------------------
# downsample

def test_downsample_identity_ratio():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.random((50, 3)).astype(np.float32))
    out = downsample(cloud, 1.0, seed=9)
    assert sorted(map(tuple, out.points.tolist())) == \
        sorted(map(tuple, cloud.points.tolist()))


def test_downsample_cardinality():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.random((100, 3)).astype(np.float32))
    out = downsample(cloud, 0.6, seed=1)
    assert len(out) == 60
    members = set(map(tuple, cloud.points.tolist()))
    assert all(tuple(p) in members for p in out.points.tolist())


def test_downsample_deterministic():
    rng = np.random.default_rng(4)
    cloud = PointCloud(rng.random((200, 3)).astype(np.float32))
    a = downsample(cloud, 0.35, seed=77)
    b = downsample(cloud, 0.35, seed=77)
    np.testing.assert_array_equal(a.points, b.points)


def test_downsample_ceil_cardinality_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 400))
        ratio = float(rng.uniform(0.01, 1.0))
        cloud = PointCloud(rng.random((n, 3)).astype(np.float32))
        expect = math.ceil(ratio * n - 1e-9)
        assert len(downsample(cloud, ratio, seed=0)) == expect


def test_downsample_empty_cloud():
    empty = PointCloud(np.empty((0, 3), np.float32))
    assert len(downsample(empty, 0.5, seed=0)) == 0


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


def test_metrics_normalize_flag():
    p = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    q = np.array([[0.0, 0, 0], [10.0, 1.0, 0]])
    raw = chamfer_distance(p, q)
    scaled = chamfer_distance(p * 3, q * 3)
    assert scaled == pytest.approx(3 * raw, rel=1e-9)
    assert chamfer_distance(p, q, normalize=True) == \
        pytest.approx(chamfer_distance(p * 3, q * 3, normalize=True), rel=1e-9)
