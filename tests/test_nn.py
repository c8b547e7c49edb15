import itertools

import numpy as np
import pytest

from pcvstream.nn import (
    EMD_CAP, Layer, LossSpec, Network, NumericsError, backward, chamfer_loss,
    dense, emd_loss, forward, rotate_points, rotate_points_backward,
    adam_step, rotation_matrix, total_loss,
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
    p = rng.normal(size=(9, 3))
    loss, grad = chamfer_loss(p, p.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(p))


def test_chamfer_loss_hand_pair():
    loss, grad = chamfer_loss(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]]))
    assert loss == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(grad, [[-2.0, 0.0, 0.0]], atol=1e-12)


def test_chamfer_gradient_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.normal(size=(6, 3))
        q = rng.normal(size=(6, 3))
        _, grad = chamfer_loss(p, q)
        fd = finite_diff(lambda x: chamfer_loss(x, q)[0], p.copy())
        assert rel_err(grad, fd) <= 1e-4


def test_chamfer_batched_mean():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 5, 3))
    q = rng.normal(size=(4, 5, 3))
    loss, grad = chamfer_loss(p, q)
    singles = [chamfer_loss(p[i], q[i]) for i in range(4)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), abs=1e-12)
    np.testing.assert_allclose(grad[2], singles[2][1] / 4, atol=1e-12)


def test_emd_identical_and_crossed():
    p = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    assert emd_loss(p, p.copy())[0] == 0.0
    assert emd_loss(p, p[::-1].copy())[0] == pytest.approx(0.0, abs=1e-12)


def test_emd_matches_permutation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = rng.normal(size=(n, 3))
        q = rng.normal(size=(n, 3))
        best = min(
            sum(np.linalg.norm(p[i] - q[pi[i]]) for i in range(n))
            for pi in itertools.permutations(range(n)))
        assert emd_loss(p, q)[0] == pytest.approx(best, abs=1e-9)


def test_emd_permutation_invariance_and_positivity():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(8, 3))
    q = rng.normal(size=(8, 3))
    base = emd_loss(p, q)[0]
    assert base >= 0.0
    shuffled = emd_loss(p[rng.permutation(8)], q[rng.permutation(8)])[0]
    assert shuffled == pytest.approx(base, abs=1e-9)


def test_emd_gradient_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.normal(size=(5, 3))
        q = rng.normal(size=(5, 3))
        _, grad = emd_loss(p, q)
        fd = finite_diff(lambda x: emd_loss(x, q)[0], p.copy())
        assert rel_err(grad, fd) <= 1e-4


def test_emd_rejects_mismatch_and_cap():
    with pytest.raises(ValueError):
        emd_loss(np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        emd_loss(np.zeros((EMD_CAP + 1, 3)), np.zeros((EMD_CAP + 1, 3)))


def test_chamfer_bounded_by_emd():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        p = rng.normal(size=(n, 3))
        q = rng.normal(size=(n, 3))
        assert chamfer_loss(p, q)[0] <= emd_loss(p, q)[0] + 1e-12


def test_total_loss_pure_penalty():
    spec = LossSpec(lambda_rec=0.0)
    p = np.zeros((2, 3))
    loss, _, d_rot = total_loss(p, p, np.array([1.0, 2.0, 2.0]), spec)
    assert loss == pytest.approx(9.0, abs=1e-12)
    np.testing.assert_allclose(d_rot, [2.0, 4.0, 4.0])


def test_total_loss_zero_rotation():
    spec = LossSpec(lambda_rec=0.7)
    rng = np.random.default_rng(8)
    p, q = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    loss, _, _ = total_loss(p, q, np.zeros(3), spec)
    assert loss == pytest.approx(0.7 * emd_loss(p, q)[0], abs=1e-12)


def test_total_loss_joint_gradient_finite_difference():
    spec = LossSpec(lambda_rec=1.3, rotation_penalty=0.8)
    rng = np.random.default_rng(9)
    p, q = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    rot = rng.normal(scale=0.3, size=3)
    _, d_pred, d_rot = total_loss(p, q, rot, spec)
    fd_pred = finite_diff(lambda x: total_loss(x, q, rot, spec)[0], p.copy())
    fd_rot = finite_diff(lambda r: total_loss(p, q, r, spec)[0], rot.copy())
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
    np.testing.assert_allclose(rotation_matrix(np.zeros(3)), np.eye(3))
    r = rotation_matrix(np.array([0.0, 0.0, np.pi / 2]))
    np.testing.assert_allclose(r @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0],
                               atol=1e-12)


def test_rotation_gradient_finite_difference():
    rng = np.random.default_rng(11)
    for scale in (1e-6, 0.4, 2.0):
        theta = rng.normal(scale=scale, size=3)
        pts = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))

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
