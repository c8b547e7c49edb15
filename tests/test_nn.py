import itertools

import numpy as np
import pytest

from pcvstream import nn
from pcvstream.codec import DEFAULT_BLOCK_POINTS, make_codec_model
from pcvstream.nn import (
    EMD_CAP, Layer, LossSpec, Network, NumericsError, _pairwise_distances,
    backward, chamfer_loss, dense, emd_loss, forward, rotate_points,
    rotate_points_backward, adam_step, rotation_matrix, total_loss,
)

H = 1e-5


def finite_diff(f, x, h=H):
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------------------
# forward

def test_identity_dense_layer():
    net = Network([Layer("dense", np.eye(4), np.zeros(4))])
    x = np.array([1.0, -2.0, 3.0, 0.5])
    out, _ = forward(net, x)
    np.testing.assert_allclose(out, x)


def test_relu_forward():
    net = Network([Layer("relu")])
    out, _ = forward(net, np.array([-1.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 2.0])


def test_two_layer_hand_arithmetic():
    w1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    b1 = np.array([0.5, 0.0])
    w2 = np.array([[2.0, 1.0]])
    net = Network([Layer("dense", w1, b1), Layer("relu"),
                   Layer("dense", w2, np.array([1.0]))])
    x = np.array([1.0, 3.0])
    # dense: (1+6+0.5, -3) = (7.5, -3); relu: (7.5, 0); dense: 2*7.5+0+1
    out, _ = forward(net, x)
    assert out[0] == pytest.approx(16.0, abs=1e-12)


def test_dense_uses_prune_mask():
    layer = Layer("dense", np.array([[2.0, 3.0]]), np.zeros(1))
    layer.prune_mask = np.array([[1.0, 0.0]])
    out, _ = forward(Network([layer]), np.array([1.0, 1.0]))
    assert out[0] == 2.0


def test_layer_rejects_unknown_kinds():
    for kind in ("actor_head", "critic_head", "conv"):
        with pytest.raises(ValueError, match="unknown layer kind"):
            Layer(kind)


def test_forward_rejects_nan():
    net = Network([Layer("dense", np.array([[np.inf]]), np.zeros(1))])
    with pytest.raises(NumericsError):
        forward(net, np.array([1.0]))


def test_maxpool_symmetry():
    rng = np.random.default_rng(0)
    net = Network([dense(8, 3, rng), Layer("relu"), Layer("maxpool_points")])
    x = rng.normal(size=(12, 3))
    out1, _ = forward(net, x)
    out2, _ = forward(net, x[rng.permutation(12)])
    np.testing.assert_allclose(out1, out2)


def point_stack(count, n_points=DEFAULT_BLOCK_POINTS, seed=40):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n_points, 3))


@pytest.mark.parametrize("count", [1, 7, 8, 9])
def test_stacked_forward_equals_per_block_forward(count):
    # one 2-D GEMM over count * 128 rows per dense layer gives the values of
    # one product per block, for the codec's layer sizes
    encoder = make_codec_model(64, seed=41).encoder
    blocks = point_stack(count)
    for net in (encoder, Network(encoder.layers[:-1])):
        got = forward(net, blocks)[0]
        want = np.stack([forward(net, b)[0] for b in blocks])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def argmax_gather_maxpool(x, d_out):
    """The max-pool as an argmax plus a gather, and its scatter backward."""
    arg = np.argmax(x, axis=-2)
    lead = np.indices(arg.shape, sparse=True)
    out = x[(*lead[:-1], arg, lead[-1])]
    d_x = np.zeros_like(x)
    d_x[(*lead[:-1], arg, lead[-1])] = d_out
    return out, d_x


def pooled_net_inputs(rng):
    """(net, x) pairs whose pooled features tie: duplicated points, and
    ReLU columns that are 0 at every point."""
    net = Network([dense(16, 3, rng), Layer("relu"), dense(8, 16, rng),
                   Layer("relu"), Layer("maxpool_points")])
    net.layers[2].bias[:3] = -50.0  # these features are 0 everywhere
    for shape in ((12, 3), (1, 12, 3), (3, 12, 3), (8, 12, 3)):
        x = rng.normal(size=shape)
        x[..., 5, :] = x[..., 2, :]
        yield net, x


def test_maxpool_backward_matches_argmax_gather_oracle():
    rng = np.random.default_rng(42)
    for net, x in pooled_net_inputs(rng):
        out, caches = forward(net, x)
        d_out = rng.normal(size=out.shape)
        d_x, grads = backward(net, caches, d_out)

        # the same net with the max-pool done by the oracle
        body = Network(net.layers[:-1])
        feats, body_caches = forward(body, x)
        assert (feats == feats.max(axis=-2, keepdims=True)).sum() > \
            feats.size // feats.shape[-2]  # the case has ties
        want_out, d_feats = argmax_gather_maxpool(feats, d_out)
        want_dx, want_grads = backward(body, body_caches, d_feats)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(d_x, want_dx)
        for got, want in zip(grads, want_grads + [None]):
            if want is None:
                assert got is None
                continue
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def test_maxpool_rejects_a_point_vector():
    with pytest.raises(ValueError, match="maxpool_points expects"):
        forward(Network([Layer("maxpool_points")]), np.zeros(4))


def test_nan_weight_in_a_middle_layer_of_a_stack_names_that_layer():
    rng = np.random.default_rng(43)
    net = Network([dense(8, 3, rng), Layer("relu"), dense(8, 8, rng),
                   Layer("relu"), dense(4, 8, rng), Layer("maxpool_points")])
    net.layers[2].weights[3, 1] = np.nan
    with pytest.raises(NumericsError, match=r"layer 2 \(dense\) output"):
        forward(net, rng.normal(size=(5, 16, 3)))


# ---------------------------------------------------------------------------
# layer gradient checks (finite differences)

def layer_nets(rng):
    yield "dense", Network([dense(5, 4, rng)]), (7, 4)
    yield "relu", Network([dense(5, 4, rng), Layer("relu")]), (7, 4)
    yield "tanh", Network([dense(5, 4, rng), Layer("tanh")]), (7, 4)
    yield "maxpool", Network([dense(5, 4, rng), Layer("maxpool_points")]), (7, 4)


@pytest.mark.parametrize("case", range(10))
def test_layer_gradients_match_finite_differences(case):
    rng = np.random.default_rng(100 + case)
    for name, net, shape in layer_nets(rng):
        x = rng.normal(size=shape)
        target = rng.normal(size=forward(net, x)[0].shape)

        def loss_of_input(xv):
            out, _ = forward(net, xv)
            return 0.5 * ((out - target) ** 2).sum()

        out, caches = forward(net, x)
        dx, grads = backward(net, caches, out - target)
        fd = finite_diff(loss_of_input, x.copy())
        assert rel_err(dx, fd) <= 1e-4, name

        for li, layer in enumerate(net.layers):
            if layer.weights is None:
                continue

            def loss_of_weights(w, li=li):
                old = net.layers[li].weights
                net.layers[li].weights = w
                try:
                    out, _ = forward(net, x)
                finally:
                    net.layers[li].weights = old
                return 0.5 * ((out - target) ** 2).sum()

            fd_w = finite_diff(loss_of_weights, net.layers[li].weights.copy())
            assert rel_err(grads[li][0], fd_w) <= 1e-4, name


# ---------------------------------------------------------------------------
# losses

def test_chamfer_loss_zero_on_identical():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(2, 9, 3))
    loss, grad = chamfer_loss(p, p.copy())
    np.testing.assert_array_equal(loss, [0.0, 0.0])
    np.testing.assert_array_equal(grad, np.zeros_like(p))


def test_chamfer_loss_hand_pair():
    loss, grad = chamfer_loss(np.array([[[0.0, 0, 0]]]),
                              np.array([[[1.0, 0, 0]]]))
    assert loss.shape == (1,)
    assert loss[0] == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(grad, [[[-2.0, 0.0, 0.0]]], atol=1e-12)


def test_chamfer_gradient_finite_difference():
    # samples are independent, so the gradient of the summed losses is the
    # per-sample gradient
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.normal(size=(3, 6, 3))
        q = rng.normal(size=(3, 6, 3))
        _, grad = chamfer_loss(p, q)
        fd = finite_diff(lambda x: chamfer_loss(x, q)[0].sum(), p.copy())
        assert rel_err(grad, fd) <= 1e-4


def scalar_chamfer(pred, target):
    """Chamfer loss and gradient of one (n, 3) / (m, 3) pair, one point
    set at a time: the reference for the stacked chamfer_loss."""
    d = _pairwise_distances(pred, target)
    n_p, n_q = pred.shape[0], target.shape[0]
    j_star = d.argmin(axis=1)
    i_star = d.argmin(axis=0)
    loss = d[np.arange(n_p), j_star].mean() + d[i_star, np.arange(n_q)].mean()
    grad = np.zeros_like(pred)
    diff = pred - target[j_star]
    dist = d[np.arange(n_p), j_star]
    nz = dist > 0.0
    grad[nz] += diff[nz] / dist[nz, None] / n_p
    diff2 = pred[i_star] - target
    dist2 = d[i_star, np.arange(n_q)]
    nz2 = dist2 > 0.0
    np.add.at(grad, i_star[nz2], diff2[nz2] / dist2[nz2, None] / n_q)
    return loss, grad


def test_chamfer_stack_equals_per_sample():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 5, 3))
    q = rng.normal(size=(4, 7, 3))
    q[1, :5] = p[1]                  # coincident points: zero distances
    q[2, :3] = p[2, 0]               # one pred point nearest to three
    p[3, 0], q[3, 0] = [-0.0, 0.0, 0.0], [0.0, -0.0, 0.0]
    loss, grad = chamfer_loss(p, q)
    assert loss.shape == (4,) and grad.shape == p.shape
    for i in range(4):
        one_loss, one_grad = chamfer_loss(p[i:i + 1], q[i:i + 1])
        assert loss[i] == one_loss[0]
        np.testing.assert_array_equal(grad[i], one_grad[0])
        want_loss, want_grad = scalar_chamfer(p[i], q[i])
        assert loss[i] == want_loss
        assert grad[i].tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("bad", ["longer", "shorter", "empty", "single"])
def test_chamfer_batch_must_match_its_targets(bad):
    rng = np.random.default_rng(12)
    pred, target = rng.normal(size=(4, 5, 3)), rng.normal(size=(4, 5, 3))
    pred, target = {"longer": (pred, np.concatenate([target, target])),
                    "shorter": (pred, target[:2]),
                    "empty": (pred[:0], target[:0]),
                    "single": (pred, target[0])}[bad]
    with pytest.raises(ValueError):
        chamfer_loss(pred, target)


def norm_distances(p, q):
    return np.linalg.norm(p[..., :, None, :] - q[..., None, :, :], axis=-1)


def test_pairwise_distances_equal_the_norm_oracle():
    rng = np.random.default_rng(13)
    for scale in (1e-6, 1.0, 1e5):
        p = rng.normal(scale=scale, size=(6, 40, 3))
        q = rng.normal(scale=scale, size=(6, 40, 3))
        q[:, :7] = p[:, :7]          # coincident points: distance 0
        q[:, 7:9] = q[:, 9:11]       # duplicated targets
        p[:, 20] = [0.0, -0.0, 0.0]
        q[:, 20] = [-0.0, 0.0, 0.0]
        got = _pairwise_distances(p, q)
        np.testing.assert_array_equal(got, norm_distances(p, q))
        np.testing.assert_array_equal(_pairwise_distances(p[2], q[2]),
                                      norm_distances(p[2], q[2]))
        assert (got[:, np.arange(7), np.arange(7)] == 0.0).all()


def test_emd_stack_equals_per_sample_emd():
    rng = np.random.default_rng(14)
    for n in (1, 6, 128):
        p = rng.normal(size=(5, n, 3))
        q = rng.normal(size=(5, n, 3))
        q[1] = p[1]                  # every pair coincident: zero gradient
        q[3, :n // 2] = p[3, :n // 2]
        losses, grads = emd_loss(p, q)
        assert losses.shape == (5,) and grads.shape == p.shape
        for j in range(5):
            loss, grad = emd_loss(p[j:j + 1], q[j:j + 1])
            assert loss.shape == (1,) and losses[j] == loss[0]
            np.testing.assert_array_equal(grads[j], grad[0])
        assert losses[1] == 0.0 and not grads[1].any()


def test_emd_rejects_an_empty_stack():
    with pytest.raises(ValueError, match="non-empty"):
        emd_loss(np.zeros((0, 4, 3)), np.zeros((0, 4, 3)))


@pytest.mark.parametrize("n_pred, n_target", [
    (5, 5), (7, 5), (EMD_CAP + 1, EMD_CAP + 1)])
def test_total_loss_stack_equals_per_sample(n_pred, n_target):
    # equal cardinality within the cap takes EMD, otherwise Chamfer
    spec = LossSpec(lambda_rec=1.3, rotation_penalty=0.8)
    rng = np.random.default_rng(15)
    p = rng.normal(size=(4, n_pred, 3))
    q = rng.normal(size=(4, n_target, 3))
    rot = rng.normal(scale=0.3, size=(4, 3))
    losses, d_pred, d_rot = total_loss(p, q, rot, spec)
    assert losses.shape == (4,)
    for j in range(4):
        loss, dp, dr = total_loss(p[j:j + 1], q[j:j + 1], rot[j:j + 1], spec)
        assert loss.shape == (1,) and losses[j] == loss[0]
        np.testing.assert_array_equal(d_pred[j], dp[0])
        np.testing.assert_array_equal(d_rot[j], dr[0])


def test_emd_identical_and_crossed():
    p = np.array([[[0.0, 0, 0], [1.0, 0, 0]]])
    assert emd_loss(p, p.copy())[0][0] == 0.0
    assert emd_loss(p, p[:, ::-1].copy())[0][0] == \
        pytest.approx(0.0, abs=1e-12)


def test_emd_matches_permutation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = rng.normal(size=(n, 3))
        q = rng.normal(size=(n, 3))
        best = min(
            sum(np.linalg.norm(p[i] - q[pi[i]]) for i in range(n))
            for pi in itertools.permutations(range(n)))
        assert emd_loss(p[None], q[None])[0][0] == \
            pytest.approx(best, abs=1e-9)


def test_emd_permutation_invariance_and_positivity():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(1, 8, 3))
    q = rng.normal(size=(1, 8, 3))
    base = emd_loss(p, q)[0][0]
    assert base >= 0.0
    shuffled = emd_loss(p[:, rng.permutation(8)],
                        q[:, rng.permutation(8)])[0][0]
    assert shuffled == pytest.approx(base, abs=1e-9)


def test_emd_gradient_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.normal(size=(2, 5, 3))
        q = rng.normal(size=(2, 5, 3))
        _, grad = emd_loss(p, q)
        fd = finite_diff(lambda x: emd_loss(x, q)[0].sum(), p.copy())
        assert rel_err(grad, fd) <= 1e-4


def test_emd_rejects_mismatch_and_cap():
    with pytest.raises(ValueError, match="equal-cardinality"):
        emd_loss(np.zeros((1, 3, 3)), np.zeros((1, 4, 3)))
    with pytest.raises(ValueError, match="equal-cardinality"):
        emd_loss(np.zeros((2, 3, 3)), np.zeros((1, 3, 3)))
    with pytest.raises(ValueError, match="capped"):
        emd_loss(np.zeros((1, EMD_CAP + 1, 3)),
                 np.zeros((1, EMD_CAP + 1, 3)))


def test_chamfer_bounded_by_emd():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        p = rng.normal(size=(1, n, 3))
        q = rng.normal(size=(1, n, 3))
        assert chamfer_loss(p, q)[0][0] <= emd_loss(p, q)[0][0] + 1e-12


def test_total_loss_pure_penalty():
    spec = LossSpec(lambda_rec=0.0)
    p = np.zeros((1, 2, 3))
    loss, _, d_rot = total_loss(p, p, np.array([[1.0, 2.0, 2.0]]), spec)
    assert loss[0] == pytest.approx(9.0, abs=1e-12)
    np.testing.assert_allclose(d_rot, [[2.0, 4.0, 4.0]])


def test_total_loss_zero_rotation():
    spec = LossSpec(lambda_rec=0.7)
    rng = np.random.default_rng(8)
    p, q = rng.normal(size=(1, 5, 3)), rng.normal(size=(1, 5, 3))
    loss, _, _ = total_loss(p, q, np.zeros((1, 3)), spec)
    assert loss[0] == pytest.approx(0.7 * emd_loss(p, q)[0][0], abs=1e-12)


def test_total_loss_joint_gradient_finite_difference():
    spec = LossSpec(lambda_rec=1.3, rotation_penalty=0.8)
    rng = np.random.default_rng(9)
    p, q = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
    rot = rng.normal(scale=0.3, size=(2, 3))
    _, d_pred, d_rot = total_loss(p, q, rot, spec)
    fd_pred = finite_diff(lambda x: total_loss(x, q, rot, spec)[0].sum(),
                          p.copy())
    fd_rot = finite_diff(lambda r: total_loss(p, q, r, spec)[0].sum(),
                         rot.copy())
    assert rel_err(d_pred, fd_pred) <= 1e-4
    assert rel_err(d_rot, fd_rot) <= 1e-4


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_lr_keeps_network():
    rng = np.random.default_rng(10)
    net = Network([dense(3, 2, rng)])
    before = net.layers[0].weights.copy()
    adam_step(net, [(np.ones((3, 2)), np.ones(3))], lr=0.0)
    np.testing.assert_array_equal(net.layers[0].weights, before)


def test_adam_first_step_moves_by_lr():
    # bias-corrected first step: m_hat / sqrt(v_hat) = g / |g|
    net = Network([Layer("dense", np.array([[1.0, 1.0]]), np.zeros(1))])
    adam_step(net, [(np.array([[0.5, -2.0]]), np.zeros(1))], lr=0.1)
    np.testing.assert_allclose(net.layers[0].weights, [[0.9, 1.1]],
                               rtol=1e-7)


def test_adam_respects_prune_mask():
    layer = Layer("dense", np.array([[0.0, 1.0]]), np.zeros(1))
    layer.prune_mask = np.array([[0.0, 1.0]])
    net = Network([layer])
    state = None
    for _ in range(5):
        state = adam_step(net, [(np.array([[1.0, 1.0]]), np.zeros(1))],
                          lr=0.1, state=state)
    assert layer.weights[0, 0] == 0.0
    assert layer.weights[0, 1] != 1.0


# ---------------------------------------------------------------------------
# rotation helper

def test_rotation_matrix_basics():
    np.testing.assert_allclose(rotation_matrix(np.zeros((1, 3))), [np.eye(3)])
    r = rotation_matrix(np.array([[0.0, 0.0, np.pi / 2]]))
    assert r.shape == (1, 3, 3)
    np.testing.assert_allclose(r[0] @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0],
                               atol=1e-12)


def test_rotate_stack_equals_per_sample():
    rng = np.random.default_rng(16)
    theta = rng.normal(scale=0.5, size=(6, 3))
    theta[2] = 0.0                   # the small-angle branch
    pts = rng.normal(size=(6, DEFAULT_BLOCK_POINTS, 3))
    d_out = rng.normal(size=pts.shape)
    out, cache = rotate_points(theta, pts)
    d_theta, d_pts = rotate_points_backward(cache, d_out)
    for j in range(6):
        one, one_cache = rotate_points(theta[j:j + 1], pts[j:j + 1])
        want_theta, want_pts = rotate_points_backward(one_cache,
                                                      d_out[j:j + 1])
        np.testing.assert_array_equal(out[j], one[0])
        np.testing.assert_array_equal(d_theta[j], want_theta[0])
        np.testing.assert_array_equal(d_pts[j], want_pts[0])


def test_rotate_backward_reuses_the_cached_rotations(monkeypatch):
    rng = np.random.default_rng(17)
    theta = rng.normal(scale=0.5, size=(4, 3))
    pts = rng.normal(size=(4, 8, 3))
    d_out = rng.normal(size=pts.shape)
    want = rotate_points_backward(rotate_points(theta, pts)[1], d_out)
    _, cache = rotate_points(theta, pts)

    def rebuilt(theta):
        raise AssertionError("backward rebuilt a cached rotation")

    monkeypatch.setattr(nn, "rotation_matrix", rebuilt)
    for got, expect in zip(rotate_points_backward(cache, d_out), want):
        np.testing.assert_array_equal(got, expect)


def test_rotation_gradient_finite_difference():
    rng = np.random.default_rng(11)
    for scale in (1e-6, 0.4, 2.0):
        theta = rng.normal(scale=scale, size=(1, 3))
        pts = rng.normal(size=(1, 6, 3))
        target = rng.normal(size=(1, 6, 3))

        def loss(th):
            out, _ = rotate_points(th, pts)
            return 0.5 * ((out - target) ** 2).sum()

        out, cache = rotate_points(theta, pts)
        d_theta, d_pts = rotate_points_backward(cache, out - target)
        fd_theta = finite_diff(loss, theta.copy())
        assert rel_err(d_theta, fd_theta) <= 1e-4

        def loss_pts(pv):
            out, _ = rotate_points(theta, pv)
            return 0.5 * ((out - target) ** 2).sum()

        fd_pts = finite_diff(loss_pts, pts.copy())
        assert rel_err(d_pts, fd_pts) <= 1e-4
