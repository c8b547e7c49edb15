"""Minimal dense-network engine: forward/backward with analytic gradients,
point-set reconstruction losses, and Adam with pruning-mask preservation.

Layers operate on per-point feature rows (n, f); `maxpool_points` collapses
the point axis into a single symmetric feature vector, which is what makes
the encoder output order-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

LAYER_KINDS = ("dense", "relu", "tanh", "maxpool_points")

EMD_CAP = 256  # largest point count solved by the exact assignment
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericsError(FloatingPointError):
    """Raised when a forward or backward pass produces non-finite values."""


@dataclass
class Layer:
    kind: str
    weights: np.ndarray | None = None   # (out, in), dense only
    bias: np.ndarray | None = None      # (out,)
    prune_mask: np.ndarray | None = None  # None means nothing pruned

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind '{self.kind}'")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.bias is None:
                self.bias = np.zeros(self.weights.shape[0])
            self.bias = np.asarray(self.bias, dtype=np.float64)

    @property
    def effective_weights(self):
        if self.prune_mask is None:
            return self.weights
        return self.weights * self.prune_mask


@dataclass
class Network:
    layers: list[Layer] = field(default_factory=list)


def dense(n_out: int, n_in: int, rng: np.random.Generator,
          scale: float | None = None) -> Layer:
    if scale is None:
        scale = math.sqrt(2.0 / n_in)  # He init
    return Layer("dense", rng.normal(scale=scale, size=(n_out, n_in)),
                 np.zeros(n_out))


def _check_finite(arr, where):
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {where}")


def forward(network: Network, x: np.ndarray):
    """Run the network; returns (output, caches) for use by backward().

    Dense and activation layers broadcast over leading axes, so per-point
    inputs may be (n, f) or batched (B, n, f); maxpool_points collapses the
    points axis (the second-to-last one).
    """
    x = np.asarray(x, dtype=np.float64)
    caches = []
    for i, layer in enumerate(network.layers):
        if layer.kind == "dense":
            caches.append(x)
            x = x @ layer.effective_weights.T + layer.bias
        elif layer.kind == "relu":
            caches.append(x)
            x = np.maximum(x, 0.0)
        elif layer.kind == "tanh":
            x = np.tanh(x)
            caches.append(x)
        elif layer.kind == "maxpool_points":
            if x.ndim == 2:
                arg = np.argmax(x, axis=0)
                caches.append((x.shape, arg))
                x = x[arg, np.arange(x.shape[1])]
            elif x.ndim == 3:
                arg = np.argmax(x, axis=1)
                caches.append((x.shape, arg))
                b, _, f = x.shape
                x = x[np.arange(b)[:, None], arg, np.arange(f)[None, :]]
            else:
                raise ValueError("maxpool_points expects (n, f) or (B, n, f)")
        else:
            raise ValueError(f"unknown layer kind '{layer.kind}'")
        _check_finite(x, f"layer {i} ({layer.kind}) output")
    return x, caches


def backward(network: Network, caches, d_out: np.ndarray):
    """Backpropagate d_out; returns (d_input, grads).

    grads is a list parallel to network.layers of (dW, db) or None.
    """
    d = np.asarray(d_out, dtype=np.float64)
    grads = [None] * len(network.layers)
    for i in range(len(network.layers) - 1, -1, -1):
        layer, cache = network.layers[i], caches[i]
        if layer.kind == "dense":
            x = cache
            if x.ndim == 1:
                dw = np.outer(d, x)
                db = d.copy()
            elif x.ndim == 2:
                dw = d.T @ x
                db = d.sum(axis=0)
            else:
                dw = np.tensordot(d, x, axes=([0, 1], [0, 1]))
                db = d.sum(axis=(0, 1))
            grads[i] = (dw, db)
            d = d @ layer.effective_weights
        elif layer.kind == "relu":
            d = d * (cache > 0.0)
        elif layer.kind == "tanh":
            d = d * (1.0 - cache ** 2)
        elif layer.kind == "maxpool_points":
            shape, arg = cache
            dx = np.zeros(shape)
            if len(shape) == 2:
                dx[arg, np.arange(shape[1])] = d
            else:
                b, _, f = shape
                dx[np.arange(b)[:, None], arg, np.arange(f)[None, :]] = d
            d = dx
        _check_finite(d, f"layer {i} ({layer.kind}) gradient")
    return d, grads


def adam_step(network: Network, grads, lr: float,
              state: dict | None = None) -> dict:
    """One Adam step; returns the moment state to pass back.

    Pruned weights are re-zeroed after the update so masked entries stay
    exact fixed points of training.
    """
    if state is None:
        state = {"t": 0}
    state["t"] += 1
    t = state["t"]
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    for i, (layer, grad) in enumerate(zip(network.layers, grads)):
        if grad is None or layer.weights is None:
            continue
        if i not in state:
            state[i] = tuple(np.zeros_like(g) for g in grad) \
                + tuple(np.zeros_like(g) for g in grad)
        mw, mb, vw, vb = state[i]
        dw, db = grad
        mw = ADAM_BETA1 * mw + (1 - ADAM_BETA1) * dw
        mb = ADAM_BETA1 * mb + (1 - ADAM_BETA1) * db
        vw = ADAM_BETA2 * vw + (1 - ADAM_BETA2) * dw * dw
        vb = ADAM_BETA2 * vb + (1 - ADAM_BETA2) * db * db
        state[i] = (mw, mb, vw, vb)
        for param, m, v in ((layer.weights, mw, vw), (layer.bias, mb, vb)):
            param -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
        if layer.prune_mask is not None:
            layer.weights *= layer.prune_mask
    return state


# ---------------------------------------------------------------------------
# reconstruction losses

def _pairwise_distances(p, q):
    return np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)


def _chamfer_single(pred, target):
    d = _pairwise_distances(pred, target)
    n_p, n_q = pred.shape[0], target.shape[0]
    j_star = d.argmin(axis=1)   # nearest target per pred point
    i_star = d.argmin(axis=0)   # nearest pred per target point
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


def chamfer_loss(pred: np.ndarray, target: np.ndarray):
    """Symmetric Chamfer loss and its gradient w.r.t. pred.

    Accepts (n, 3) pairs or batches (B, n, 3); batch losses are averaged.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim == 2:
        if pred.shape[0] == 0 or target.shape[0] == 0:
            raise ValueError("chamfer_loss requires non-empty point sets")
        return _chamfer_single(pred, target)
    losses = 0.0
    grads = np.zeros_like(pred)
    for b in range(pred.shape[0]):
        l, g = _chamfer_single(pred[b], target[b])
        losses += l
        grads[b] = g
    return losses / pred.shape[0], grads / pred.shape[0]


def emd_loss(pred: np.ndarray, target: np.ndarray):
    """Exact earth mover's distance over bijections, with gradient.

    Cost is the sum of matched Euclidean distances; gradients are unit
    vectors along each matched pair.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ValueError("emd_loss requires equal-cardinality (n, 3) inputs")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("emd_loss requires non-empty point sets")
    if n > EMD_CAP:
        raise ValueError(f"emd_loss capped at {EMD_CAP} points, got {n}")
    d = _pairwise_distances(pred, target)
    rows, cols = linear_sum_assignment(d)
    matched = d[rows, cols]
    loss = float(matched.sum())
    grad = np.zeros_like(pred)
    nz = matched > 0.0
    grad[rows[nz]] = (pred[rows[nz]] - target[cols[nz]]) / matched[nz, None]
    return loss, grad


def total_loss(pred, target, rot_params, spec):
    """Weighted reconstruction loss plus the rotation-parameter penalty.

    Returns (loss, d_pred, d_rot). Reconstruction is EMD when the sets have
    equal cardinality within the solver cap, otherwise Chamfer (fallback).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    rot = np.asarray(rot_params, dtype=np.float64)
    if pred.ndim == 2 and pred.shape == target.shape and len(pred) <= EMD_CAP:
        rec, d_rec = emd_loss(pred, target)
    else:
        rec, d_rec = chamfer_loss(pred, target)
    loss = spec.lambda_rec * rec + spec.rotation_penalty * float((rot ** 2).sum())
    return loss, spec.lambda_rec * d_rec, 2.0 * spec.rotation_penalty * rot


@dataclass(frozen=True)
class LossSpec:
    lambda_rec: float = 1.0
    rotation_penalty: float = 1.0

    def __post_init__(self):
        if self.lambda_rec < 0.0:
            raise ValueError("lambda_rec must be non-negative")


# ---------------------------------------------------------------------------
# axis-angle rotation with analytic gradient (for the learned alignment)

def rotation_matrix(theta: np.ndarray) -> np.ndarray:
    """Rodrigues rotation for an axis-angle vector theta (3,)."""
    theta = np.asarray(theta, dtype=np.float64)
    angle = np.linalg.norm(theta)
    if angle < 1e-12:
        return np.eye(3) + _skew(theta)
    k = theta / angle
    kx = _skew(k)
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)


def _skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def rotation_matrix_jacobian(theta: np.ndarray) -> np.ndarray:
    """dR/dtheta_i stacked as (3, 3, 3); Gallego & Yezzi closed form."""
    theta = np.asarray(theta, dtype=np.float64)
    angle2 = float(theta @ theta)
    rot = rotation_matrix(theta)
    jac = np.empty((3, 3, 3))
    eye = np.eye(3)
    if angle2 < 1e-16:
        for i in range(3):
            jac[i] = _skew(eye[i])
        return jac
    for i in range(3):
        v = theta[i] * theta + np.cross(theta, (eye - rot) @ eye[i])
        jac[i] = _skew(v) @ rot / angle2
    return jac


def rotate_points(theta, points):
    """points (n,3) rotated row-wise; returns (rotated, cache)."""
    rot = rotation_matrix(theta)
    return points @ rot.T, (theta, points, rot)


def rotate_points_backward(cache, d_out):
    """Gradients of a rotate_points call: returns (d_theta, d_points)."""
    theta, points, rot = cache
    d_points = d_out @ rot
    d_rot = d_out.T @ points
    jac = rotation_matrix_jacobian(theta)
    d_theta = np.array([(d_rot * jac[i]).sum() for i in range(3)])
    return d_theta, d_points
