import itertools

import numpy as np
import pytest

from conftest import outcome, scanned_forward
from pcvstream import nn
from pcvstream.codec import DEFAULT_BLOCK_POINTS, make_codec_model
from pcvstream.nn import (
    Layer, NumericsError, _pairwise_distances, backward, dense, emd_loss,
    forward, maxpool_backward, proves_finite, rotate_points,
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
    net = [Layer(np.eye(4), np.zeros(4))]
    x = np.array([1.0, -2.0, 3.0, 0.5])
    out, _ = forward(net, x)
    np.testing.assert_allclose(out, x)


def test_no_relu_after_the_last_layer():
    net = [Layer(np.array([[1.0, 0.0], [0.0, -1.0]]))]
    out, _ = forward(net, np.array([-1.0, 2.0]))
    np.testing.assert_array_equal(out, [-1.0, -2.0])


def test_two_layer_hand_arithmetic():
    w1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    b1 = np.array([0.5, 0.0])
    w2 = np.array([[2.0, 1.0]])
    net = [Layer(w1, b1), Layer(w2, np.array([1.0]))]
    x = np.array([1.0, 3.0])
    # dense: (1+6+0.5, -3) = (7.5, -3); relu: (7.5, 0); dense: 2*7.5+0+1
    out, caches = forward(net, x)
    assert out[0] == pytest.approx(16.0, abs=1e-12)
    # the second layer's cache is its input after the ReLU
    np.testing.assert_array_equal(caches[1], [7.5, 0.0])


def test_forward_rejects_nan():
    net = [Layer(np.array([[np.inf]]), np.zeros(1))]
    with pytest.raises(NumericsError):
        forward(net, np.array([1.0]))


def test_forward_rejects_an_intermediate_minus_inf():
    # checked before the next layer's ReLU, which would map -inf to 0
    net = [Layer(np.array([[-np.inf]])), Layer(np.array([[1.0]]))]
    with pytest.raises(NumericsError, match="layer 0 output"):
        forward(net, np.array([1.0]))


def test_maxpool_symmetry():
    rng = np.random.default_rng(0)
    net = [dense(8, 3, rng), dense(8, 8, rng)]
    x = rng.normal(size=(12, 3))
    out1 = forward(net, x)[0].max(axis=-2)
    out2 = forward(net, x[rng.permutation(12)])[0].max(axis=-2)
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
    for net in (encoder, encoder[:-1]):
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


def tied_features(rng):
    """Per-point features whose pooled maxima tie: those of duplicated
    points, and ReLU columns that are 0 at every point."""
    net = [dense(16, 3, rng), dense(8, 16, rng)]
    net[1].bias[:3] = -50.0  # these features are 0 everywhere after a ReLU
    for shape in ((12, 3), (1, 12, 3), (3, 12, 3), (8, 12, 3)):
        x = rng.normal(size=shape)
        x[..., 5, :] = x[..., 2, :]
        yield np.maximum(forward(net, x)[0], 0.0)


def test_maxpool_backward_matches_argmax_gather_oracle():
    rng = np.random.default_rng(42)
    for feats in tied_features(rng):
        assert (feats == feats.max(axis=-2, keepdims=True)).sum() > \
            feats.size // feats.shape[-2]  # the case has ties
        d_out = rng.normal(size=feats.max(axis=-2).shape)
        want_out, want_d_feats = argmax_gather_maxpool(feats, d_out)
        np.testing.assert_array_equal(feats.max(axis=-2), want_out)
        np.testing.assert_array_equal(maxpool_backward(feats, d_out),
                                      want_d_feats)


def test_nan_weight_in_a_middle_layer_of_a_stack_names_that_layer():
    rng = np.random.default_rng(43)
    net = [dense(8, 3, rng), dense(8, 8, rng), dense(4, 8, rng)]
    net[1].weights[3, 1] = np.nan
    with pytest.raises(NumericsError, match="layer 1 output"):
        forward(net, rng.normal(size=(5, 16, 3)))


def stack_net(rng):
    """Three dense layers over (5, 16, 3) point stacks: 80 rows, so that
    `proves_finite` computes its bound rather than choosing the scans."""
    return [dense(8, 3, rng), dense(8, 8, rng), dense(4, 8, rng)]


def forward_out(layers, x):
    return forward(layers, x)[0]


def test_the_proof_is_computed_where_it_reads_less_than_the_scans():
    model = make_codec_model(256, seed=44)
    blocks = point_stack(8)
    # 1024 rows x (32 + 64 + 256) outputs against 3,072 inputs and
    # 18,848 weights and biases
    assert proves_finite(model.encoder, blocks)
    assert proves_finite(model.encoder[:-1], blocks)
    # 8 latents x (128 + 256 + 384) outputs against 131,840 parameters
    latents = forward(model.encoder, blocks)[0].max(axis=-2)
    assert not proves_finite(model.decoder, latents)
    # one row of a 3-wide layer reads 3 + 9 + 3 values to save 3
    assert not proves_finite([dense(3, 3, np.random.default_rng(0))],
                             np.ones(3))
    assert not proves_finite(model.encoder, np.empty((0, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("layer", [0, 1, 2])
def test_a_non_finite_weight_fails_the_proof_and_names_its_layer(value,
                                                                 layer):
    rng = np.random.default_rng(45)
    net, x = stack_net(rng), rng.normal(size=(5, 16, 3))
    assert proves_finite(net, x)
    net[layer].weights[1, 2] = value
    assert not proves_finite(net, x)
    want = f"NumericsError: non-finite values in layer {layer} output"
    with np.errstate(all="ignore"):  # numpy's 0 * inf warning, an error here
        assert outcome(scanned_forward, net, x) == want
        assert outcome(forward_out, net, x) == want


def test_coordinates_of_1e200_overflow_where_the_scans_said_so():
    rng = np.random.default_rng(46)
    net, x = stack_net(rng), rng.normal(size=(5, 16, 3)) * 1e200
    # gains of a few per layer stay far from overflow: proven, same bytes
    assert proves_finite(net, x)
    assert outcome(forward_out, net, x) == outcome(scanned_forward, net, x)
    # a 1e110 last layer overflows (about 1e310): the proof fails and the
    # scans raise with the message they always gave
    net[2].weights *= 1e110
    assert not proves_finite(net, x)
    want = "NumericsError: non-finite values in layer 2 output"
    with np.errstate(over="ignore"):  # numpy's own warning, an error here
        assert outcome(scanned_forward, net, x) == want
        assert outcome(forward_out, net, x) == want


def test_a_failed_proof_of_finite_values_gives_the_scanned_bytes():
    # the bound sums magnitudes, so it overflows where cancelling weights
    # keep every value finite
    net = [Layer(np.array([[1e300, -1e300, 0.0]] * 4)),
           Layer(np.full((2, 4), 1e8))]
    x = np.ones((64, 3))
    assert not proves_finite(net, x)
    got = outcome(forward_out, net, x)
    assert got == outcome(scanned_forward, net, x)
    assert not got.startswith(b"NumericsError")


@pytest.mark.parametrize("count", [1, 5, 8])
def test_proven_and_scanned_forwards_give_equal_bytes_and_caches(count):
    rng = np.random.default_rng(47)
    for latent in (16, 64, 256):
        encoder = make_codec_model(latent, seed=latent).encoder
        x = point_stack(count, seed=latent)
        assert proves_finite(encoder, x)
        got, caches = forward(encoder, x)
        assert got.tobytes() == scanned_forward(encoder, x).tobytes()
        for i, cache in enumerate(caches):
            assert cache.tobytes() == np.maximum(
                scanned_forward(encoder[:i], x), 0.0 if i else -np.inf
            ).tobytes()
    # the ReLUs ran in place on forward's own arrays, never on the input
    x = rng.normal(size=(count, 128, 3))
    before = x.copy()
    forward(make_codec_model(16).encoder, x)
    np.testing.assert_array_equal(x, before)


# ---------------------------------------------------------------------------
# layer gradient checks (finite differences)

def layer_nets(rng):
    """(name, layers, input shape, pooled): a dense layer, two with the
    ReLU between them, and two pooled as the codec's encoder is."""
    yield "dense", [dense(5, 4, rng)], (7, 4), False
    yield "relu", [dense(5, 4, rng), dense(3, 5, rng)], (7, 4), False
    yield "maxpool", [dense(5, 4, rng), dense(3, 5, rng)], (7, 4), True


@pytest.mark.parametrize("case", range(10))
def test_layer_gradients_match_finite_differences(case):
    rng = np.random.default_rng(100 + case)
    for name, net, shape, pooled in layer_nets(rng):

        def run(xv):
            out, caches = forward(net, xv)
            return (out.max(axis=-2) if pooled else out), out, caches

        x = rng.normal(size=shape)
        target = rng.normal(size=run(x)[0].shape)

        def loss_of_input(xv):
            return 0.5 * ((run(xv)[0] - target) ** 2).sum()

        y, out, caches = run(x)
        d_out = maxpool_backward(out, y - target) if pooled else y - target
        dx, grads = backward(net, caches, d_out)
        fd = finite_diff(loss_of_input, x.copy())
        assert rel_err(dx, fd) <= 1e-4, name

        for li in range(len(net)):

            def loss_of_weights(w, li=li):
                old = net[li].weights
                net[li].weights = w
                try:
                    return loss_of_input(x)
                finally:
                    net[li].weights = old

            fd_w = finite_diff(loss_of_weights, net[li].weights.copy())
            assert rel_err(grads[li][0], fd_w) <= 1e-4, name


# ---------------------------------------------------------------------------
# losses

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


@pytest.mark.parametrize("n_pred, n_target", [(5, 5), (7, 5), (257, 257)])
def test_total_loss_stack_equals_per_sample(n_pred, n_target):
    # the loss is EMD at any size; sets of two sizes have no EMD
    rng = np.random.default_rng(15)
    p = rng.normal(size=(4, n_pred, 3))
    q = rng.normal(size=(4, n_target, 3))
    rot = rng.normal(scale=0.3, size=(4, 3))
    if n_pred != n_target:
        with pytest.raises(ValueError, match="equal-cardinality"):
            total_loss(p, q, rot)
        return
    losses, d_pred, d_rot = total_loss(p, q, rot)
    assert losses.shape == (4,)
    for j in range(4):
        loss, dp, dr = total_loss(p[j:j + 1], q[j:j + 1], rot[j:j + 1])
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


def test_emd_rejects_mismatch():
    with pytest.raises(ValueError, match="equal-cardinality"):
        emd_loss(np.zeros((1, 3, 3)), np.zeros((1, 4, 3)))
    with pytest.raises(ValueError, match="equal-cardinality"):
        emd_loss(np.zeros((2, 3, 3)), np.zeros((1, 3, 3)))


def test_total_loss_pure_penalty():
    # identical sets have EMD 0, so the loss is the penalty |rot|^2 alone
    p = np.zeros((1, 2, 3))
    loss, _, d_rot = total_loss(p, p, np.array([[1.0, 2.0, 2.0]]))
    assert loss[0] == 9.0
    np.testing.assert_array_equal(d_rot, [[2.0, 4.0, 4.0]])


def test_total_loss_zero_rotation():
    rng = np.random.default_rng(8)
    p, q = rng.normal(size=(1, 5, 3)), rng.normal(size=(1, 5, 3))
    loss, d_pred, _ = total_loss(p, q, np.zeros((1, 3)))
    rec, d_rec = emd_loss(p, q)
    assert loss.tobytes() == rec.tobytes()
    assert d_pred.tobytes() == d_rec.tobytes()


def test_total_loss_joint_gradient_finite_difference():
    rng = np.random.default_rng(9)
    p, q = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
    rot = rng.normal(scale=0.3, size=(2, 3))
    _, d_pred, d_rot = total_loss(p, q, rot)
    fd_pred = finite_diff(lambda x: total_loss(x, q, rot)[0].sum(), p.copy())
    fd_rot = finite_diff(lambda r: total_loss(p, q, r)[0].sum(), rot.copy())
    assert rel_err(d_pred, fd_pred) <= 1e-4
    assert rel_err(d_rot, fd_rot) <= 1e-4


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_lr_keeps_network():
    rng = np.random.default_rng(10)
    net = [dense(3, 2, rng)]
    before = net[0].weights.copy()
    adam_step(net, [(np.ones((3, 2)), np.ones(3))], lr=0.0)
    np.testing.assert_array_equal(net[0].weights, before)


def test_adam_first_step_moves_by_lr():
    # bias-corrected first step: m_hat / sqrt(v_hat) = g / |g|
    net = [Layer(np.array([[1.0, 1.0]]), np.zeros(1))]
    adam_step(net, [(np.array([[0.5, -2.0]]), np.zeros(1))], lr=0.1)
    np.testing.assert_allclose(net[0].weights, [[0.9, 1.1]],
                               rtol=1e-7)


def test_adam_keeps_first_step_zeros_at_zero():
    layer = Layer(np.array([[0.0, 1.0, -0.0]]), np.zeros(1))
    net = [layer]
    grad = [(np.array([[1.0, 1.0, -1.0]]), np.zeros(1))]
    state = None
    for _ in range(5):
        state = adam_step(net, grad, lr=0.1, state=state)
    assert layer.weights[0, 0] == layer.weights[0, 2] == 0.0
    assert layer.weights[0, 1] != 1.0
    # each zero keeps the sign of its update: down to -0.0, up to +0.0
    assert np.signbit(layer.weights[0, 0])
    assert not np.signbit(layer.weights[0, 2])
    # a weight that reaches zero later is not pruned by that state ...
    layer.weights[0, 1] = 0.0
    state = adam_step(net, grad, lr=0.1, state=state)
    assert layer.weights[0, 1] != 0.0
    # ... but a fresh state records it
    layer.weights[0, 1] = 0.0
    adam_step(net, grad, lr=0.1)
    assert layer.weights[0, 1] == 0.0


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
