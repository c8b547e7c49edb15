import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import block_indices
from pcvstream.cloud import (
    OPEN_SPACE_TREE, Camera, Intrinsics, PointCloud, Pose, frustum_cull,
    frustum_mask, partition, quat_to_matrix,
)
from pcvstream import roi
from pcvstream._util import ceil_count
from pcvstream.roi import (
    CHI2_EPS, TEXTURE_BINS, RoiConfig,
    _block_choices, _coarse_kept_rows, _feature_matrix, _neighbor_rows,
    _static_scores, _viewpoint_scores, coarse_select_details,
    dynamic_saliency, estimate_flow, fine_select_details, predict_pose,
    select_roi, texture_descriptor,
)
from pcvstream.sim import generate_scene

IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# scalar oracles: one block at a time, for the array code in roi

def blocks_of(grid):
    """{flat cell id: ascending point indices} of every occupied cell."""
    return {int(b): block_indices(grid, i) for i, b in enumerate(grid.ids)}


def cell_bounds(grid, block_id):
    nx, ny, _ = grid.dims
    idx = np.array([block_id % nx, (block_id // nx) % ny,
                    block_id // (nx * ny)], dtype=np.float64)
    lo = grid.origin + idx * grid.cell_size
    return lo, lo + grid.cell_size


def viewpoint_descriptor(block_center, viewpoint, view_direction, beta):
    """Distance/angle significance of one block center; a block at the eye
    counts as straight ahead."""
    o = np.asarray(block_center, dtype=np.float64)
    v = np.asarray(viewpoint, dtype=np.float64)
    w = np.asarray(view_direction, dtype=np.float64)
    w_norm = np.linalg.norm(w)
    if w_norm == 0.0:
        raise ValueError("view direction must be non-zero")
    d = o - v
    phi = float(np.linalg.norm(d))
    cos_theta = 1.0 if phi == 0.0 else float(d @ w / (phi * w_norm))
    return beta / math.log(max(phi, math.e)) + (1.0 - beta) * cos_theta


def chi2(a, b):
    return float(((a - b) ** 2 / (a + b + CHI2_EPS)).sum())


def scalar_texture_descriptor(features, neighbor_features, lambda_):
    """texture_descriptor as a loop over the neighbors."""
    t_i = np.asarray(features, dtype=np.float64)
    split = t_i.size - TEXTURE_BINS
    acc = 0.0
    for t_j in neighbor_features:
        t_j = np.asarray(t_j, dtype=np.float64)
        psi2 = (chi2(t_i[:split], t_j[:split])
                + lambda_ * chi2(t_i[split:], t_j[split:]))
        acc += psi2 / (1.0 + float(np.linalg.norm(t_i - t_j)))
    return 1.0 - math.exp(-acc / len(neighbor_features))


def block_features(points, sub_bins, bounds, colors=None):
    """Feature vector of one block: occupancy histogram over sub_bins^3
    sub-cells of bounds (lo, hi) plus an 8-bin luminance histogram (zeros
    without color)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
    span = np.where(hi > lo, hi - lo, 1.0)
    idx = np.floor((pts - lo) / span * sub_bins).astype(np.int64)
    idx = np.clip(idx, 0, sub_bins - 1)
    flat = idx[:, 0] + sub_bins * (idx[:, 1] + sub_bins * idx[:, 2])
    geo = np.bincount(flat, minlength=sub_bins ** 3).astype(np.float64)
    geo /= geo.sum()

    tex = np.zeros(TEXTURE_BINS)
    if colors is not None and len(colors):
        rgb = np.asarray(colors, dtype=np.float64)
        luma = 0.299 * rgb[:, 0] + 0.587 * rgb[:, 1] + 0.114 * rgb[:, 2]
        tex = np.bincount(np.clip((luma / 256.0 * TEXTURE_BINS).astype(np.int64),
                                  0, TEXTURE_BINS - 1),
                          minlength=TEXTURE_BINS).astype(np.float64)
        tex /= tex.sum()
    return np.concatenate([geo, tex])


def coarse_kept_ids(scores, cfg):
    """Coarse keep as a loop: block ids by descending score, ties to the
    lower id, cut by block count."""
    ranked = sorted(scores, key=lambda b: (-scores[b], b))
    return ranked[:ceil_count(cfg.coarse_keep_fraction, len(ranked))]


def static_camera(position, intrinsics):
    """The camera predicted from two poses at rest at position."""
    prev, last = (Pose(position, IDENTITY_Q, float(t)) for t in (1, 2))
    return Camera(predict_pose(prev, last), intrinsics)


# ---------------------------------------------------------------------------
# pose prediction

def test_predict_pose_stationary():
    pose = predict_pose(Pose((1.0, 2.0, 3.0), IDENTITY_Q, 1.0),
                        Pose((1.0, 2.0, 3.0), IDENTITY_Q, 2.0))
    np.testing.assert_allclose(pose.position, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(pose.orientation, IDENTITY_Q)
    assert pose.timestamp == 3.0


def test_predict_pose_linear():
    pred = predict_pose(Pose((1, 0, 0), IDENTITY_Q, 1.0),
                        Pose((3, 0, 0), IDENTITY_Q, 2.0))
    np.testing.assert_allclose(pred.position, [5.0, 0.0, 0.0])
    assert pred.timestamp == pytest.approx(3.0)


def test_predict_pose_rotation_matches_matrix_oracle():
    step = math.radians(10.0)
    pred = predict_pose(  # unit quaternions of rotations about +z
        Pose((0, 0, 0), (1.0, 0.0, 0.0, 0.0), 0.0),
        Pose((0, 0, 0), (math.cos(step / 2), 0.0, 0.0, math.sin(step / 2)),
             1.0))
    # compose the per-frame rotation matrix twice: 10 deg * (1 + 1)
    per_frame = np.array([[math.cos(step), -math.sin(step), 0],
                          [math.sin(step), math.cos(step), 0],
                          [0, 0, 1.0]])
    expect = np.linalg.matrix_power(per_frame, 2)
    np.testing.assert_allclose(quat_to_matrix(pred.orientation), expect,
                               atol=1e-6)


@pytest.mark.parametrize("last_time", [1.0, 0.5], ids=["equal", "decreasing"])
def test_predict_pose_rejects_timestamps_that_do_not_increase(last_time):
    with pytest.raises(ValueError, match="strictly increasing"):
        predict_pose(Pose((0, 0, 0), IDENTITY_Q, 1.0),
                     Pose((0, 0, 0), IDENTITY_Q, last_time))


# ---------------------------------------------------------------------------
# configuration

@pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
@pytest.mark.parametrize("field", ["coarse_cell_size", "fine_cell_size"])
def test_roi_config_rejects_bad_cell_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RoiConfig(**{field: value})


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan, math.inf])
def test_roi_config_rejects_beta_outside_unit_interval(value):
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
        RoiConfig(beta=value)
    assert RoiConfig(beta=0.0).beta == 0.0 and RoiConfig(beta=1.0).beta == 1.0


@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
def test_roi_config_rejects_bad_lambda(value):
    with pytest.raises(ValueError, match="lambda_ must be finite and >= 0"):
        RoiConfig(lambda_=value)
    assert RoiConfig(lambda_=0.0).lambda_ == 0.0


@pytest.mark.parametrize("field", ["R", "sub_bins"])
def test_roi_config_rejects_counts_below_one(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        RoiConfig(**{field: 0})
    assert getattr(RoiConfig(**{field: 1}), field) == 1


# ---------------------------------------------------------------------------
# flow

def test_flow_static_scene():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((30, 3)).astype(np.float32))
    flow = estimate_flow(cloud, cloud)
    assert flow.dtype == np.float64
    np.testing.assert_array_equal(flow, np.zeros((30, 3)))


def test_flow_rigid_translation():
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0, 3.0, 0]], np.float32)
    curr = PointCloud(pts)
    prev = PointCloud(pts - np.array([0.1, 0, 0], np.float32))
    flow = estimate_flow(prev, curr)
    np.testing.assert_allclose(flow, np.tile([0.1, 0, 0], (3, 1)), atol=1e-6)


def test_flow_recovers_known_shift():
    rng = np.random.default_rng(1)
    # grid-separated points so the small shift has unambiguous matches
    base = rng.permutation(5 * 5 * 2).astype(np.float64)[:50]
    pts = np.stack([base % 5, (base // 5) % 5, base // 25], axis=1) * 0.1
    pts = pts.astype(np.float32)
    shift = np.array([0.01, 0.0, 0.0], np.float32)
    flow = estimate_flow(PointCloud(pts), PointCloud(pts + shift))
    np.testing.assert_allclose(flow, np.tile(shift, (50, 1)), atol=1e-5)


def kd_flow(prev, curr):
    """Flow from one query of every current point on a default (balanced,
    compact) KD-tree: the oracle for estimate_flow's zero-flow rule and its
    open-space tree."""
    _, idx = cKDTree(prev.points).query(curr.points)
    return curr.points.astype(np.float64) - prev.points[idx].astype(np.float64)


def assert_flow_equals_kd_flow(prev, curr):
    flow, want = estimate_flow(prev, curr), kd_flow(prev, curr)
    assert flow.shape == want.shape and flow.dtype == np.float64
    assert np.linalg.norm(flow, axis=1).tobytes() == \
        np.linalg.norm(want, axis=1).tobytes()
    np.testing.assert_array_equal(flow, want)  # -0.0 == 0.0
    return flow


def scene_pair(seed):
    """(prev, frame, camera) around frame 2 of a small scene, the camera
    predicted from poses 1 and 2 as a session does."""
    scene = generate_scene(rooms=1, frames=4, subject_points=400,
                           background_points=3000, seed=seed)
    return (scene.frames[1], scene.frames[2],
            Camera(predict_pose(*scene.poses[1:3]), scene.intrinsics))


@pytest.mark.parametrize("seed", range(16))
def test_flow_equals_kd_flow_on_scene_pairs(seed):
    prev, curr, _ = scene_pair(seed)
    assert_flow_equals_kd_flow(prev, curr)


def flow_box_count(prev, curr):
    """Points of prev inside the changed points' bounding box grown by
    their largest same-index displacement, or len(prev) when a changed
    point has no index in prev: the size of estimate_flow's tree."""
    p, c = prev.points, curr.points
    if len(c) > len(p):
        return len(p)
    moved = np.flatnonzero((c != p[:len(c)]).any(axis=1))
    reach = np.linalg.norm(c[moved].astype(np.float64) - p[moved], axis=1)
    lo = c[moved].min(axis=0) - reach.max()
    hi = c[moved].max(axis=0) + reach.max()
    return int(np.all((p >= lo) & (p <= hi), axis=1).sum())


def test_flow_finds_a_neighbor_exactly_its_displacement_away(kd_calls):
    """The nearest prev point of the one moved point sits on the face of
    the grown box; prev points just outside the box are farther off."""
    prev = np.array([[0.0, 0.0, 1.0],    # moved to (0, 0, 0): 1 m along z
                     [3.0, 3.0, 3.0],
                     [0.9, 0.9, 0.0],    # in the box, 1.27 m off
                     [1.25, 0.0, 0.0],   # past the box's +x face
                     [0.0, -1.5, 0.5],   # past its -y face
                     [4.0, 4.0, 4.0]], np.float32)
    curr = prev.copy()
    curr[0] = (0.0, 0.0, 0.0)
    flow = assert_flow_equals_kd_flow(PointCloud(prev), PointCloud(curr))
    np.testing.assert_array_equal(flow[0], [0.0, 0.0, -1.0])
    assert not flow[1:].any()
    assert kd_calls[0][1] == flow_box_count(PointCloud(prev),
                                            PointCloud(curr)) == 2


def test_a_curr_longer_than_prev_searches_all_of_prev(kd_calls):
    prev, curr = flow_case("prev shorter")
    assert_flow_equals_kd_flow(prev, curr)
    assert [c[0] for c in kd_calls] == ["build", "query"]
    assert kd_calls[0][1:] == (len(prev), OPEN_SPACE_TREE)


def benchmark_pair(seed):
    """(prev, curr, step): frames 0 and 1 of a benchmark-sized scene (20k
    points, 2k of them the moving subject) and the subject's step in m."""
    scene = generate_scene(rooms=1, frames=24, seed=seed)
    prev, curr = scene.frames[0], scene.frames[1]
    subject = scene.subject_masks[0]
    step = np.linalg.norm(curr.points[subject] - prev.points[subject],
                          axis=1).mean()
    return prev, curr, float(step)


# steps of 0.41, 0.68, 1.10 and 1.45 m: the last two are the open-space
# tail, where the moved points sit ~1 m from prev's nearest point
@pytest.mark.parametrize("seed, tail", [(6, False), (0, False), (4, True),
                                        (12, True)])
def test_flow_equals_kd_flow_on_benchmark_pairs(seed, tail):
    prev, curr, step = benchmark_pair(seed)
    assert len(curr) == 20000 and (step >= 1.0) == tail
    assert_flow_equals_kd_flow(prev, curr)


@pytest.mark.parametrize("layout", ["appended", "interleaved"])
def test_flow_equals_kd_flow_on_a_prev_with_duplicates(layout):
    prev, curr, _ = benchmark_pair(4)
    p = prev.points
    if layout == "appended":  # the zero-flow rule still lines up rows
        dup = np.concatenate([p, p[::3], p[-2000:]])
    else:  # every point twice: nearly every row is queried
        dup = np.repeat(p, 2, axis=0)
    flow = assert_flow_equals_kd_flow(PointCloud(dup), curr)
    assert flow.any()


def flow_case(name):
    """(prev, curr) clouds for one edge case of the zero-flow rule."""
    pts = np.random.default_rng(3).random((60, 3)).astype(np.float32)
    moved = pts.copy()
    moved[::7] += np.float32(0.01)
    if name == "prev shorter":
        return PointCloud(pts[:40]), PointCloud(moved)
    if name == "prev longer":
        return PointCloud(pts), PointCloud(moved[:40])
    if name == "no row unchanged":
        return PointCloud(pts), PointCloud(pts + np.float32(0.01))
    if name == "every row unchanged":
        return PointCloud(pts), PointCloud(pts.copy())
    if name == "equal at another index":
        return PointCloud(pts), PointCloud(np.roll(pts, 1, axis=0))
    assert name == "signed zeros"
    prev = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                     [-0.0, -0.0, -0.0]], np.float32)
    curr = np.array([[0.0, 0.0, 1.0], [0.0, -0.0, 0.0], [1.0, 1.0, 1.5],
                     [0.0, 0.0, 0.0]], np.float32)
    return PointCloud(prev), PointCloud(curr)


@pytest.mark.parametrize("name", [
    "prev shorter", "prev longer", "no row unchanged", "every row unchanged",
    "equal at another index", "signed zeros"])
def test_flow_edge_cases_equal_kd_flow(name):
    flow = assert_flow_equals_kd_flow(*flow_case(name))
    if name in ("every row unchanged", "equal at another index"):
        assert not flow.any()


@pytest.fixture
def kd_calls(monkeypatch):
    """Every KD-tree roi builds, as ("build", point count, build options),
    and every query it makes, as ("query", query points)."""
    calls = []

    class RecordingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            calls.append(("build", len(data), kwargs))
            super().__init__(data, *args, **kwargs)

        def query(self, x, *args, **kwargs):
            calls.append(("query", np.array(x)))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(roi, "cKDTree", RecordingTree)
    return calls


def test_equal_at_another_index_goes_through_the_tree(kd_calls):
    prev, curr = flow_case("equal at another index")
    estimate_flow(prev, curr)
    assert [c[0] for c in kd_calls] == ["build", "query"]
    np.testing.assert_array_equal(kd_calls[1][1], curr.points)


def test_coarse_select_queries_only_points_changed_at_their_index(kd_calls):
    prev, frame, camera = scene_pair(3)
    coarse_select_details(frame, prev, camera, RoiConfig())
    changed = (frame.points != prev.points).any(axis=1)
    assert [c[0] for c in kd_calls] == ["build", "query"]
    assert kd_calls[0][1] == flow_box_count(prev, frame)
    np.testing.assert_array_equal(kd_calls[1][1], frame.points[changed])
    assert 0 < changed.sum() <= 400  # at most the subject moved


def test_only_the_flow_tree_is_an_open_space_tree(kd_calls):
    prev, frame, camera = scene_pair(3)
    select_roi(frame, prev, camera, RoiConfig(), seed=0)
    builds = [c for c in kd_calls if c[0] == "build"]
    assert len(builds) == 2
    # estimate_flow
    assert builds[0][1:] == (flow_box_count(prev, frame), OPEN_SPACE_TREE)
    assert builds[1][2] == {}  # _static_scores: the lattice of centres


def test_coarse_select_on_a_static_pair_builds_no_tree(kd_calls):
    _, frame, camera = scene_pair(3)
    coarse, _, scores = coarse_select_details(frame, frame, camera,
                                              RoiConfig())
    assert len(coarse) > 0
    assert kd_calls == []
    assert not scores.any()
    assert not estimate_flow(frame, frame).any()
    assert kd_calls == []


@pytest.mark.parametrize("seed", [0, 1])
def test_coarse_select_equals_culled_kd_flow_path(seed):
    prev, frame, camera = scene_pair(seed)
    cfg = RoiConfig()
    coarse, grid, scores = coarse_select_details(frame, prev, camera, cfg)
    culled = frustum_cull(frame, camera)
    want_grid = partition(culled, cfg.coarse_cell_size)
    want_flow = kd_flow(prev, culled)
    want_scores = dynamic_saliency(want_grid, want_flow)
    keep = np.zeros(len(want_grid.ids), dtype=bool)
    keep[_coarse_kept_rows(want_grid, want_scores, cfg)] = True
    kept = np.flatnonzero(keep[want_grid.rows])
    assert coarse.points.tobytes() == culled.points[kept].tobytes()
    assert grid.ids.tobytes() == want_grid.ids.tobytes()
    assert grid.rows.tobytes() == want_grid.rows.tobytes()
    assert scores.tobytes() == want_scores.tobytes()
    # the whole-frame flow that the coarse stage slices to the frustum
    flow = estimate_flow(prev, frame)[frustum_mask(frame, camera)]
    assert np.linalg.norm(flow[kept], axis=1).tobytes() == \
        np.linalg.norm(want_flow[kept], axis=1).tobytes()
    np.testing.assert_array_equal(flow[kept], want_flow[kept])


# ---------------------------------------------------------------------------
# dynamic saliency

def test_dynamic_saliency_zero_flow():
    cloud = PointCloud(np.random.default_rng(2).random((40, 3)).astype(np.float32))
    grid = partition(cloud, 0.5)
    scores = dynamic_saliency(grid, np.zeros((40, 3)))
    assert scores.shape == grid.ids.shape
    assert all(v == 0.0 for v in scores)


def test_dynamic_saliency_rejects_a_flow_of_another_size():
    cloud = PointCloud(np.random.default_rng(2).random((40, 3)).astype(np.float32))
    grid = partition(cloud, 0.5)
    for rows in (39, 41):
        with pytest.raises(ValueError, match="does not annotate this grid"):
            dynamic_saliency(grid, np.zeros((rows, 3)))


def test_dynamic_saliency_constant_block():
    cloud = PointCloud([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    grid = partition(cloud, 1.0)
    vecs = np.tile([0.2, 0.0, 0.0], (2, 1))
    scores = dynamic_saliency(grid, vecs)
    assert scores.tolist() == [pytest.approx(0.2)]


def test_dynamic_saliency_matches_direct_summation():
    rng = np.random.default_rng(3)
    cloud = PointCloud((rng.random((200, 3)) * 3).astype(np.float32))
    grid = partition(cloud, 0.8)
    vecs = rng.normal(size=(200, 3))
    scores = dynamic_saliency(grid, vecs)
    assert len(scores) == len(grid.ids)
    for row, idx in enumerate(blocks_of(grid).values()):
        expect = np.mean([np.sqrt((vecs[i] ** 2).sum()) for i in idx])
        assert scores[row] == pytest.approx(expect, abs=1e-12)


def test_dynamic_saliency_ranking_scale_invariant():
    rng = np.random.default_rng(4)
    cloud = PointCloud((rng.random((300, 3)) * 4).astype(np.float32))
    grid = partition(cloud, 1.0)
    vecs = rng.normal(size=(300, 3))
    s1 = dynamic_saliency(grid, vecs)
    s2 = dynamic_saliency(grid, vecs * 3.7)
    rank = lambda s: sorted(range(len(s)), key=lambda i: (-s[i], i))
    assert rank(s1) == rank(s2)


# ---------------------------------------------------------------------------
# coarse stage

def cluster_scene(moving=(2, 5, 7), shift=0.05, n_clusters=10, per=20):
    """Clusters inside unit cells at integer x positions; `moving` ones are
    displaced in the previous frame. A point at the origin pins the grid."""
    rng = np.random.default_rng(11)
    points = []
    for i in range(n_clusters):
        c = rng.uniform(0.0, 0.4, size=(per, 3)) + np.array([i, 0.0, 0.0])
        points.append(c)
    curr = np.concatenate(points)
    curr[0] = (0.0, 0.0, 0.0)  # grid origin anchor
    curr = curr.astype(np.float32)
    prev = curr.copy()
    for i in moving:
        prev[i * per:(i + 1) * per] -= np.array([shift, 0, 0], np.float32)
    return PointCloud(prev), PointCloud(curr)


def wide_camera():
    return static_camera((4.7, 0.2, -6.0), Intrinsics(90.0, 2.0, 0.1, 50.0))


def test_coarse_select_keep_all_equals_frustum():
    prev, curr = cluster_scene(moving=())
    cam = wide_camera()
    cfg = RoiConfig(coarse_keep_fraction=1.0, coarse_cell_size=1.0)
    out = coarse_select_details(curr, prev, cam, cfg)[0]
    np.testing.assert_array_equal(out.points, frustum_cull(curr, cam).points)


def test_coarse_select_finds_moving_blocks():
    prev, curr = cluster_scene(moving=(2, 5, 7))
    cfg = RoiConfig(coarse_keep_fraction=0.3, coarse_cell_size=1.0)
    out, grid, scores = coarse_select_details(curr, prev, wide_camera(), cfg)
    assert len(grid.ids) == 10
    assert len(out) == 3 * 20
    xs = np.floor(out.points[:, 0] + 0.5).astype(int)
    assert set(xs.tolist()) == {2, 5, 7}


def test_coarse_select_default_block_count():
    prev, curr = cluster_scene(moving=(1,))
    cfg = RoiConfig(coarse_cell_size=1.0)  # default 60% keep
    out, grid, scores = coarse_select_details(curr, prev, wide_camera(), cfg)
    b = len(grid.ids)
    kept_blocks = math.ceil(0.6 * b - 1e-9)
    assert len(out) == kept_blocks * 20


def test_coarse_select_empty_frustum():
    prev, curr = cluster_scene(moving=())
    # looking away from the scene
    cam = static_camera((0.0, 0.0, 1000.0), Intrinsics(60.0, 1.0, 0.1, 10.0))
    out = coarse_select_details(curr, prev, cam,
                                RoiConfig(coarse_cell_size=1.0))[0]
    assert len(out) == 0


def test_coarse_subset_of_frustum_subset_of_frame():
    prev, curr = cluster_scene()
    cam = wide_camera()
    cfg = RoiConfig(coarse_keep_fraction=0.5, coarse_cell_size=1.0)
    out = coarse_select_details(curr, prev, cam, cfg)[0]
    frustum = set(map(tuple, frustum_cull(curr, cam).points.tolist()))
    frame = set(map(tuple, curr.points.tolist()))
    kept = set(map(tuple, out.points.tolist()))
    assert kept <= frustum <= frame


# ---------------------------------------------------------------------------
# descriptors

def test_viewpoint_descriptor_distance_term():
    value = viewpoint_descriptor([math.e, 0, 0], [0, 0, 0], [0, 0, 1.0], beta=1.0)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_viewpoint_descriptor_angle_extremes():
    ahead = viewpoint_descriptor([0, 0, 5.0], [0, 0, 0], [0, 0, 1.0], beta=0.0)
    side = viewpoint_descriptor([5.0, 0, 0], [0, 0, 0], [0, 0, 1.0], beta=0.0)
    assert ahead == pytest.approx(1.0, abs=1e-12)
    assert side == pytest.approx(0.0, abs=1e-12)


def test_viewpoint_descriptor_hand_value():
    d = math.e ** 2
    value = viewpoint_descriptor([0, 0, d], [0, 0, 0], [0, 0, 1.0], beta=0.5)
    assert value == pytest.approx(0.75, abs=1e-12)


def test_viewpoint_descriptor_block_at_eye():
    value = viewpoint_descriptor([0, 0, 0], [0, 0, 0], [0, 0, 1.0], beta=0.25)
    assert value == pytest.approx(0.25 / 1.0 + 0.75 * 1.0, abs=1e-12)
    with pytest.raises(ValueError):
        viewpoint_descriptor([1, 0, 0], [0, 0, 0], [0, 0, 0], beta=0.5)


def test_texture_descriptor_identical_neighbors():
    t = np.concatenate([np.array([0.5, 0.5, 0.0, 0.0]), np.zeros(8)])
    assert texture_descriptor(t, [t.copy(), t.copy()], 0.35) == 0.0


def test_texture_descriptor_hand_computation():
    eps = 1e-8
    lam = 0.35
    geo_i = np.array([0.25, 0.25, 0.25, 0.25])
    tex_i = np.zeros(8)
    tex_i[0] = 1.0
    geo_a = np.array([0.5, 0.5, 0.0, 0.0])
    tex_a = np.zeros(8)
    tex_a[1] = 1.0
    geo_b = np.array([0.25, 0.25, 0.5, 0.0])
    tex_b = tex_i.copy()
    t_i = np.concatenate([geo_i, tex_i])
    t_a = np.concatenate([geo_a, tex_a])
    t_b = np.concatenate([geo_b, tex_b])

    def chi2(a, b):
        return sum((x - y) ** 2 / (x + y + eps) for x, y in zip(a, b))

    psi_a = chi2(geo_i, geo_a) + lam * chi2(tex_i, tex_a)
    psi_b = chi2(geo_i, geo_b) + lam * chi2(tex_i, tex_b)
    term_a = psi_a / (1.0 + np.linalg.norm(t_i - t_a))
    term_b = psi_b / (1.0 + np.linalg.norm(t_i - t_b))
    expect = 1.0 - math.exp(-(term_a + term_b) / 2.0)
    got = texture_descriptor(t_i, [t_a, t_b], lam)
    assert got == pytest.approx(expect, abs=1e-12)


def test_texture_descriptor_monotone_in_distinctiveness():
    base = np.concatenate([np.array([0.25, 0.25, 0.25, 0.25]), np.zeros(8)])
    values = []
    for delta in (0.0, 0.05, 0.1):
        nb = base.copy()
        nb[0] += delta
        nb[1] -= delta
        values.append(texture_descriptor(base, [nb, base.copy()], 0.35))
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("k", [1, 3, 6])
def test_texture_descriptor_matches_scalar_loop(k):
    rng = np.random.default_rng(k)
    feats = rng.dirichlet(np.ones(8 + TEXTURE_BINS), size=k + 1)
    got = texture_descriptor(feats[0], list(feats[1:]), 0.35)
    assert got == pytest.approx(
        scalar_texture_descriptor(feats[0], feats[1:], 0.35), abs=1e-15)


def test_texture_descriptor_validation():
    t = np.zeros(12)
    with pytest.raises(ValueError):
        texture_descriptor(t, [], 0.35)
    with pytest.raises(ValueError):
        texture_descriptor(t, [np.zeros(10)], 0.35)


def test_block_features_uniform():
    rng = np.random.default_rng(5)
    pts = rng.random((8000, 3))
    feats = block_features(pts, 2, bounds=(np.zeros(3), np.ones(3)))
    np.testing.assert_allclose(feats[:8], np.full(8, 0.125), atol=0.02)
    np.testing.assert_array_equal(feats[8:], np.zeros(8))


def test_block_features_one_hot():
    pts = np.full((10, 3), 0.1)
    feats = block_features(pts, 2, bounds=(np.zeros(3), np.ones(3)))
    assert feats[:8].max() == 1.0
    assert feats[:8].sum() == 1.0


def test_block_features_color_histogram():
    pts = np.zeros((4, 3))
    colors = np.array([[255, 255, 255]] * 4)
    feats = block_features(pts, 2, bounds=(np.zeros(3), np.ones(3)),
                           colors=colors)
    assert feats[8:].sum() == pytest.approx(1.0)
    assert feats[-1] == pytest.approx(1.0)  # bright pixels in the top bin


# ---------------------------------------------------------------------------
# fine stage

def two_cluster_cloud():
    """Near block: points spread over its 5 m cell. Far block: a tight
    clump in one sub-cell. Distinct histograms, distinct viewpoint scores."""
    rng = np.random.default_rng(6)
    near = rng.uniform(0.0, 4.5, size=(10, 3))
    near[0] = (0.0, 0.0, 0.0)  # grid origin anchor
    far = rng.uniform(-0.05, 0.05, size=(10, 3)) + np.array([0.2, 0.2, 35.2])
    return PointCloud(np.concatenate([near, far]).astype(np.float32))


def test_fine_select_constant_saliency_keeps_r_max():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((30, 3)).astype(np.float32))
    cfg = RoiConfig(fine_cell_size=10.0, r_min=0.2, r_max=0.8)  # single block
    out = fine_select_details(cloud, [0, 0, -5.0], [0, 0, 1.0], cfg, seed=1)
    assert len(out) == math.ceil(0.8 * 30 - 1e-9)


def test_fine_select_two_blocks_extreme_ratios():
    cloud = two_cluster_cloud()
    cfg = RoiConfig(fine_cell_size=5.0, r_min=0.2, r_max=1.0, R=1)
    viewpoint, direction = [2.5, 2.5, -10.0], [0, 0, 1.0]
    out = fine_select_details(cloud, viewpoint, direction, cfg, seed=3)
    grid = partition(cloud, cfg.fine_cell_size)
    _, _, texture, static = _static_scores(grid, cloud, viewpoint, direction,
                                           cfg)
    assert len(grid.ids) == 2
    # same texture both ways (single mutual neighbor), so the nearer
    # on-axis block carries the larger static score
    assert texture[0] == pytest.approx(texture[1], abs=1e-12)
    assert texture[0] > 0.0
    assert static[0] > static[1]
    near_kept = int((out.points[:, 2] < 20).sum())
    far_kept = len(out) - near_kept
    assert near_kept == 10    # ceil(r_max * 10)
    assert far_kept == 2      # ceil(r_min * 10)


def test_fine_select_cardinality_oracle():
    rng = np.random.default_rng(8)
    cloud = PointCloud((rng.random((400, 3)) * 3).astype(np.float32))
    cfg = RoiConfig(fine_cell_size=0.75, r_min=0.3, r_max=0.9)
    viewpoint, direction = [1.5, 1.5, -4.0], [0, 0, 1.0]
    out = fine_select_details(cloud, viewpoint, direction, cfg, seed=5)
    grid = partition(cloud, cfg.fine_cell_size)
    blocks = blocks_of(grid)
    static = _static_scores(grid, cloud, viewpoint, direction, cfg)[3]
    lo, hi = static.min(), static.max()
    norm = (static - lo) / (hi - lo) if hi > lo else np.ones_like(static)
    expect = 0
    for i, bid in enumerate(grid.ids):
        r = cfg.r_min + (cfg.r_max - cfg.r_min) * norm[i]
        assert cfg.r_min - 1e-12 <= r <= cfg.r_max + 1e-12
        expect += math.ceil(r * len(blocks[int(bid)]) - 1e-9)
    assert len(out) == expect


def loop_fine_select(coarse, viewpoint, view_direction, cfg, seed):
    """fine_select_details as one take and one rng.choice per block row,
    in row order: the oracle for its array takes."""
    grid = partition(coarse, cfg.fine_cell_size)
    static = _static_scores(grid, coarse, viewpoint, view_direction, cfg)[3]
    lo, hi = static.min(), static.max()
    norm = (static - lo) / (hi - lo) if hi > lo else np.ones_like(static)
    rng = np.random.default_rng(seed)
    picked = []
    for i, count in enumerate(grid.counts.tolist()):
        ratio = cfg.r_min + (cfg.r_max - cfg.r_min) * float(norm[i])
        take = max(0, min(count, math.ceil(ratio * count - 1e-9)))
        picked.append(rng.choice(block_indices(grid, i), size=take,
                                 replace=False))
    return coarse.select(np.sort(np.concatenate(picked)))


@pytest.mark.parametrize("seed", range(20))
def test_fine_select_equals_per_block_loop(seed):
    cloud = colored_cloud(300 + 40 * seed, seed, colors=seed % 3 > 0)
    cfg = RoiConfig(fine_cell_size=(0.25, 0.4, 0.75)[seed % 3],
                    r_min=(0.1, 0.0, 0.3, 1.0)[seed % 4],
                    r_max=1.0 if seed % 4 == 3 else 0.9)
    args = (cloud, [1.5, 1.5, -4.0], [0, 0.2, 1.0], cfg, 100 + seed)
    want = loop_fine_select(*args)
    got = fine_select_details(*args)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.colors is None or got.colors.tobytes() == want.colors.tobytes()


class CountingGenerator:
    """A numpy Generator that counts its `choice` calls."""

    def __init__(self, seed):
        self.rng, self.choices = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)


def assert_block_choices_are_per_block_choices(counts, takes, seed):
    """_block_choices picks what one rng.choice per block picks, in block
    order, leaves the generator in the same state, and calls choice itself
    only for the blocks where numpy tail-shuffles; returns that count."""
    counts, takes = np.asarray(counts), np.asarray(takes)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    order = np.random.default_rng(seed).permutation(offsets[-1])
    fused, loop = CountingGenerator(seed), np.random.default_rng(seed)
    got = _block_choices(fused, order, offsets, takes)
    want = np.sort(np.concatenate([
        loop.choice(order[a:b], size=k, replace=False)
        for a, b, k in zip(offsets[:-1], offsets[1:], takes)]))
    assert got.tolist() == want.tolist(), f"seed {seed}"
    assert fused.rng.bit_generator.state == loop.bit_generator.state, \
        f"seed {seed}"
    return fused.choices


def test_block_choices_equal_per_block_choice_on_random_frames():
    """2,000 frames of 1-40 blocks: one-point blocks, and takes of 0 and of
    the whole block, are common."""
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        n_blocks = int(rng.integers(1, 41))
        counts = np.where(rng.random(n_blocks) < 0.2, 1,
                          rng.integers(1, 300, n_blocks))
        kind = rng.random(n_blocks)
        takes = np.where(kind < 0.15, 0, np.where(
            kind < 0.3, counts, rng.integers(0, counts + 1)))
        assert assert_block_choices_are_per_block_choices(
            counts, takes, seed) == 0


@pytest.mark.parametrize("counts, takes, shuffled", [
    ([4], [0], 0),
    ([1, 1, 1, 1], [0, 1, 1, 0], 0),
    ([10_000], [200], 0),
    ([10_000], [201], 0),
    ([10_000], [10_000], 0),
    ([10_001], [200], 0),
    ([10_001], [201], 1),
    ([10_001], [10_001], 1),
    ([5, 12_000, 1, 7], [3, 5_000, 1, 0], 1),
    ([5, 12_000, 1, 7], [3, 240, 1, 7], 0),
    ([3, 10_001, 4, 12_000, 2], [2, 201, 4, 241, 1], 2),
    ([12_000, 9, 10_001], [12_000, 0, 9_000], 2),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else str(v))
def test_block_choices_follow_numpys_regime_switch(counts, takes, shuffled):
    """Blocks of 10,000 and 10,001 points at take n // 50 and n // 50 + 1,
    and tail-shuffled blocks among small ones, first and last."""
    for seed in range(3):
        assert assert_block_choices_are_per_block_choices(
            counts, takes, seed) == shuffled


def test_fine_select_deterministic():
    cloud = two_cluster_cloud()
    cfg = RoiConfig(fine_cell_size=5.0, r_min=0.5, r_max=0.9, R=1)
    a = fine_select_details(cloud, [0, 0, 0], [0, 0, 1.0], cfg, seed=9)
    b = fine_select_details(cloud, [0, 0, 0], [0, 0, 1.0], cfg, seed=9)
    np.testing.assert_array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# full pipeline

def test_identity_bypass_equals_frustum():
    prev, curr = cluster_scene()
    cam = wide_camera()
    cfg = RoiConfig(coarse_keep_fraction=1.0, r_min=1.0, r_max=1.0,
                    coarse_cell_size=1.0, fine_cell_size=0.5)
    result = select_roi(curr, prev, cam, cfg, seed=0)
    np.testing.assert_array_equal(result.cloud.points,
                                  frustum_cull(curr, cam).points)


def test_select_roi_rejects_a_coarse_stage_that_keeps_nothing():
    prev, curr = cluster_scene()
    # ceil_count rounds 1e-12 of 10 blocks down to 0
    cfg = RoiConfig(coarse_keep_fraction=1e-12, coarse_cell_size=1.0)
    with pytest.raises(ValueError, match="non-empty coarse ROI"):
        select_roi(curr, prev, wide_camera(), cfg, seed=0)


def test_fine_scores_on_the_coarse_roi():
    """The fine-stage scores select_roi ranks by: one row per fine block of
    the coarse ROI, texture in [0, 1), static = viewpoint * texture."""
    prev, frame, camera = scene_pair(0)
    cfg = RoiConfig()
    result = select_roi(frame, prev, camera, cfg, seed=0)
    coarse = coarse_select_details(frame, prev, camera, cfg)[0]
    pose = camera.pose
    grid = partition(coarse, cfg.fine_cell_size)
    scores = _static_scores(grid, coarse, pose.position, pose.forward(), cfg)
    for row in scores:
        assert len(row) == len(grid.ids) > 1
    _, viewpoint, texture, static = scores
    assert ((0.0 <= texture) & (texture < 1.0)).all() and texture.any()
    np.testing.assert_allclose(static, viewpoint * texture)
    assert 0 < len(result.cloud) < len(coarse)


# ---------------------------------------------------------------------------
# vectorised scoring against the scalar descriptors

def scalar_static_scores(grid, cloud, viewpoint, view_direction, cfg):
    """Per-block loop over block_features, viewpoint_descriptor and
    texture_descriptor: the oracle for the vectorised scoring."""
    blocks = blocks_of(grid)
    ids = sorted(blocks)
    centers = np.array([cell_bounds(grid, b)[0] + 0.5 * grid.cell_size
                        for b in ids])
    feats = [block_features(cloud.points[blocks[b]], cfg.sub_bins,
                            bounds=cell_bounds(grid, b),
                            colors=None if cloud.colors is None
                            else cloud.colors[blocks[b]])
             for b in ids]
    view = np.array([viewpoint_descriptor(c, viewpoint, view_direction,
                                          cfg.beta) for c in centers])
    tex = np.zeros(len(ids))
    if len(ids) > 1:
        k = min(cfg.R, len(ids) - 1)
        _, nbrs = cKDTree(centers).query(centers, k=k + 1)
        for i in range(len(ids)):
            others = [j for j in nbrs[i] if j != i][:k]
            tex[i] = scalar_texture_descriptor(
                feats[i], [feats[j] for j in others], cfg.lambda_)
    return ids, centers, np.array(feats), view, tex


def colored_cloud(n, seed, colors=True, extent=3.0):
    rng = np.random.default_rng(seed)
    pts = (rng.random((n, 3)) * extent).astype(np.float32)
    rgb = rng.integers(0, 256, size=(n, 3)) if colors else None
    return PointCloud(pts, rgb)


@pytest.mark.parametrize("cloud, cell, R", [
    (colored_cloud(500, 20), 0.5, 6),             # many blocks, colours
    (colored_cloud(500, 21, colors=False), 0.6, 6),
    (colored_cloud(300, 22), 0.75, 4),
    (colored_cloud(40, 23, extent=1.0), 0.5, 8),  # B <= R, so k = B - 1
    (colored_cloud(20, 24, extent=1.0), 5.0, 6),  # B = 1, texture 0
])
def test_static_scores_match_scalar_oracle(cloud, cell, R):
    cfg = RoiConfig(fine_cell_size=cell, R=R)
    grid = partition(cloud, cell)
    viewpoint, direction = [1.0, 0.5, 1.2], [0.1, 0.0, 1.0]  # blocks behind too
    ids, centers, feats, view, tex = scalar_static_scores(
        grid, cloud, viewpoint, direction, cfg)
    assert grid.ids.tolist() == ids
    got = _static_scores(grid, cloud, viewpoint, direction, cfg)
    np.testing.assert_array_equal(got[0], centers)
    np.testing.assert_allclose(got[1], view, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[2], tex, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[3], view * tex, rtol=0, atol=1e-12)
    if len(ids) == 1:
        assert got[2].tolist() == [0.0]
    np.testing.assert_array_equal(
        grid.cell_lows(), [cell_bounds(grid, b)[0] for b in ids])
    np.testing.assert_array_equal(
        _feature_matrix(cloud, grid, cfg.sub_bins), feats)


@pytest.mark.parametrize("cell, xs", [(0.3, [2.25]),
                                      (0.1, [4.25, 4.75, 5.25, 5.75])])
def test_feature_matrix_bins_sub_cell_edges_like_block_features(cell, xs):
    # each x sits on a sub-cell edge where (x - lo) / cell_size and
    # (x - lo) / (hi - lo) fall on opposite sides of the bin boundary
    pts = [[0.0, 0.0, 0.0]] + [[x, 0.01, 0.01] for x in xs]
    cloud = PointCloud(pts)
    grid = partition(cloud, cell)
    expect = [block_features(cloud.points[idx], 2,
                             bounds=cell_bounds(grid, b))
              for b, idx in blocks_of(grid).items()]
    np.testing.assert_array_equal(
        _feature_matrix(cloud, grid, 2), np.array(expect))


def test_viewpoint_scores_match_scalar_descriptor():
    centers = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 0, 5.0], [0, 1.0, -3.0]])
    expect = [viewpoint_descriptor(c, [0, 0, 0], [0, 0, 2.0], 0.25)
              for c in centers]  # includes a block at the eye
    np.testing.assert_allclose(
        _viewpoint_scores(centers, [0, 0, 0], [0, 0, 2.0], 0.25), expect,
        rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        _viewpoint_scores(centers, [0, 0, 0], [0, 0, 0], 0.25)


def test_neighbor_rows_match_list_filter():
    nbrs = np.array([[0, 2, 1], [0, 1, 2], [1, 0, 3], [3, 2, 0]])
    expect = [[j for j in row if j != i][:2] for i, row in enumerate(nbrs)]
    assert _neighbor_rows(nbrs, 2).tolist() == expect


def scalar_select_roi(frame, prev, camera, cfg, seed):
    """Both ROI stages from the scalar pieces, with a second flow pass on
    the coarse cloud; returns (ROI point indices into the culled cloud,
    culled cloud)."""
    culled = frustum_cull(frame, camera)
    blocks = blocks_of(partition(culled, cfg.coarse_cell_size))
    mags = np.linalg.norm(estimate_flow(prev, culled), axis=1)
    scores = {b: float(mags[idx].mean()) for b, idx in blocks.items()}
    kept = coarse_kept_ids(scores, cfg)
    coarse_idx = np.sort(np.concatenate([blocks[b] for b in kept]))
    coarse = culled.select(coarse_idx)
    fine = partition(coarse, cfg.fine_cell_size)
    fine_blocks = blocks_of(fine)
    ids, _, _, view, tex = scalar_static_scores(
        fine, coarse, camera.pose.position, camera.pose.forward(), cfg)
    static = view * tex
    lo, hi = static.min(), static.max()
    norm = (static - lo) / (hi - lo) if hi > lo else np.ones_like(static)
    rng = np.random.default_rng(seed)
    picked = []
    for i, b in enumerate(ids):
        idx = fine_blocks[b]
        ratio = cfg.r_min + (cfg.r_max - cfg.r_min) * norm[i]
        picked.append(rng.choice(idx, size=math.ceil(ratio * len(idx) - 1e-9),
                                 replace=False))
    return coarse_idx[np.sort(np.concatenate(picked))], culled


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_roi_matches_scalar_oracle(seed):
    prev, frame, camera = scene_pair(seed)
    cfg = RoiConfig()
    result = select_roi(frame, prev, camera, cfg, seed=7)
    idx, culled = scalar_select_roi(frame, prev, camera, cfg, seed=7)
    assert result.frustum_points == len(culled)
    np.testing.assert_array_equal(result.cloud.points, culled.points[idx])


def test_coarse_flow_equals_second_flow_pass():
    prev, curr = cluster_scene(moving=(2, 5, 7))
    cfg = RoiConfig(coarse_keep_fraction=0.5, coarse_cell_size=1.0)
    coarse = coarse_select_details(curr, prev, wide_camera(), cfg)[0]
    frame_index = {p: i for i, p in enumerate(map(tuple, curr.points.tolist()))}
    assert len(frame_index) == len(curr)  # every point is distinct
    kept = [frame_index[p] for p in map(tuple, coarse.points.tolist())]
    np.testing.assert_array_equal(estimate_flow(prev, curr)[kept],
                                  estimate_flow(prev, coarse))


# ---------------------------------------------------------------------------
# coarse ranking against the loop over block ids

RANK_COUNTS = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)  # points per block, 39 in all


def counted_grid():
    """One block per count in RANK_COUNTS, at every other cell along x, so
    block ids (0, 2, 4, ...) differ from block rows."""
    pts = [[2 * i + 0.25 + 0.05 * j, 0.25, 0.25]
           for i, n in enumerate(RANK_COUNTS) for j in range(n)]
    grid = partition(PointCloud(pts), 1.0)
    assert grid.counts.tolist() == list(RANK_COUNTS)
    assert grid.ids.tolist() == list(range(0, 20, 2))
    return grid


RANK_SCORES = {
    "distinct": np.random.default_rng(0).random(len(RANK_COUNTS)),
    # ties go to the lower block id
    "tied": np.array([0.5, 0.2, 0.5, 0.5, 0.2, 0.9, 0.2, 0.5, 0.0, 0.9]),
    "all equal": np.zeros(len(RANK_COUNTS)),
}


@pytest.mark.parametrize("scores", RANK_SCORES.values(), ids=RANK_SCORES)
@pytest.mark.parametrize("fraction", [1e-3, 0.6, 1.0])
def test_coarse_kept_rows_match_id_loop(scores, fraction):
    grid = counted_grid()
    cfg = RoiConfig(coarse_keep_fraction=fraction)
    rows = _coarse_kept_rows(grid, scores, cfg)
    expect = coarse_kept_ids(dict(zip(grid.ids.tolist(), scores.tolist())),
                             cfg)
    assert grid.ids[rows].tolist() == expect
