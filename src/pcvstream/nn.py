"""Minimal dense-network engine: forward/backward with analytic gradients,
point-set reconstruction losses, and Adam with pruning-mask preservation.

Layers operate on per-point feature rows (n, f) or stacks of them (B, n, f).
A dense layer runs as one 2-D GEMM over the flattened leading axes, so a
stack costs one matrix product per layer, not one per block.
`maxpool_points` collapses the point axis into a single symmetric feature
vector, which is what makes the encoder output order-invariant; it caches
its input, and only `backward` looks up which point won.

The losses and the rotation helpers take (B, ...) stacks only: B point sets
(B, n, 3) with B angles (B, 3), one result per sample; a single sample is a
one-sample stack (`x[None]`), and any other shape raises ValueError.
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


def as_stack(x, shape) -> np.ndarray:
    """x as float64, checked to be a stack of the given shape with no empty
    axis: ints in `shape` must match exactly, names match any size; e.g.
    ("B", "n", 3) for point sets. Raises ValueError naming the shape."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != len(shape) or arr.size == 0 or any(
            isinstance(want, int) and want != got
            for want, got in zip(shape, arr.shape)):
        raise ValueError(f"expected a non-empty ({', '.join(map(str, shape))})"
                         f" stack, got shape {arr.shape}")
    return arr


def _matmul(x, w):
    """x @ w, as one 2-D GEMM over the flattened leading axes of x.

    A (B, n, f) @ (f, o) broadcast runs B separate products and is about
    1.7x slower. One product gives the same values wherever BLAS picks the
    same kernel for B*n rows as for n, which the tests pin for the codec's
    128-point blocks. 1-D and 2-D inputs keep `x @ w`: a gemv and a 1-row
    gemm may round differently.
    """
    if x.ndim <= 2:
        return x @ w
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], -1)


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
            x = _matmul(x, layer.effective_weights.T)
            x += layer.bias
        elif layer.kind == "relu":
            caches.append(x)
            x = np.maximum(x, 0.0)
        elif layer.kind == "tanh":
            x = np.tanh(x)
            caches.append(x)
        elif layer.kind == "maxpool_points":
            if x.ndim not in (2, 3):
                raise ValueError("maxpool_points expects (n, f) or (B, n, f)")
            caches.append(x)
            x = x.max(axis=-2)
        else:
            raise ValueError(f"unknown layer kind '{layer.kind}'")
        _check_finite(x, f"layer {i} ({layer.kind}) output")
    return x, caches


def backward(network: Network, caches, d_out: np.ndarray):
    """Backpropagate d_out; returns (d_input, grads).

    grads is a list parallel to network.layers of (dW, db) or None. A
    max-pool passes each gradient to the first point holding the maximum.
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
            else:
                d_rows = d.reshape(-1, d.shape[-1])
                dw = d_rows.T @ x.reshape(-1, x.shape[-1])
                db = d_rows.sum(axis=0)
            grads[i] = (dw, db)
            d = _matmul(d, layer.effective_weights)
        elif layer.kind == "relu":
            d = d * (cache > 0.0)
        elif layer.kind == "tanh":
            d = d * (1.0 - cache ** 2)
        elif layer.kind == "maxpool_points":
            winners = np.expand_dims(np.argmax(cache, axis=-2), -2)
            dx = np.zeros_like(cache)
            np.put_along_axis(dx, winners, np.expand_dims(d, -2), axis=-2)
            d = dx
        _check_finite(d, f"layer {i} ({layer.kind}) gradient")
    return d, grads


def clip_scale(grads, max_norm: float) -> float:
    """Factor that scales a gradient batch to global norm max_norm at most:
    1.0 within the cap or at norm 0, else max_norm / norm. The squared sums
    of the arrays in `grads` are added in the order given."""
    total = 0.0
    for g in grads:
        total += float((g ** 2).sum())
    total = math.sqrt(total)
    if total <= max_norm or total == 0.0:
        return 1.0
    return max_norm / total


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
    """Euclidean distances (..., n, m) between the rows of p (..., n, 3) and
    q (..., m, 3).

    Summed as (dx² + dy²) + dz², the order np.linalg.norm uses, so the
    values equal the norm of the broadcast difference bit for bit without
    building the (..., n, m, 3) temporary.
    """
    d = p[..., :, None, 0] - q[..., None, :, 0]
    d *= d
    sq = p[..., :, None, 1] - q[..., None, :, 1]
    sq *= sq
    d += sq
    np.subtract(p[..., :, None, 2], q[..., None, :, 2], out=sq)
    sq *= sq
    d += sq
    return np.sqrt(d, out=d)


def chamfer_loss(pred: np.ndarray, target: np.ndarray):
    """Symmetric Chamfer losses (B,) of a (B, n, 3) stack against a
    (B, m, 3) stack, and their gradients (B, n, 3) w.r.t. pred."""
    pred = as_stack(pred, ("B", "n", 3))
    target = as_stack(target, ("B", "m", 3))
    if len(pred) != len(target):
        raise ValueError(f"chamfer_loss needs stacks of one size B, got "
                         f"{pred.shape} and {target.shape}")
    d = _pairwise_distances(pred, target)
    n_p, n_q = pred.shape[1], target.shape[1]
    j_star = d.argmin(axis=2)   # nearest target per pred point
    i_star = d.argmin(axis=1)   # nearest pred per target point
    dist = np.take_along_axis(d, j_star[..., None], axis=2)[..., 0]
    dist2 = np.take_along_axis(d, i_star[:, None, :], axis=1)[:, 0]
    loss = dist.mean(axis=1) + dist2.mean(axis=1)

    sample = np.arange(len(pred))[:, None]
    grad = np.zeros_like(pred)
    diff = pred - target[sample, j_star]
    nz = dist > 0.0
    grad[nz] += diff[nz] / dist[nz, None] / n_p
    diff2 = pred[sample, i_star] - target
    nz2 = dist2 > 0.0
    np.add.at(grad, (np.broadcast_to(sample, nz2.shape)[nz2], i_star[nz2]),
              diff2[nz2] / dist2[nz2, None] / n_q)
    return loss, grad


def emd_loss(pred: np.ndarray, target: np.ndarray):
    """Exact earth mover's distance over bijections, with gradient.

    Cost is the sum of matched Euclidean distances; gradients are unit
    vectors along each matched pair. Two (B, n, 3) stacks give the (B,)
    per-sample losses and the (B, n, 3) gradients, with one assignment
    solved per sample.
    """
    pred = as_stack(pred, ("B", "n", 3))
    target = as_stack(target, ("B", "n", 3))
    if pred.shape != target.shape:
        raise ValueError(f"emd_loss requires equal-cardinality stacks, got "
                         f"{pred.shape} and {target.shape}")
    n = pred.shape[1]
    if n > EMD_CAP:
        raise ValueError(f"emd_loss capped at {EMD_CAP} points, got {n}")
    d = _pairwise_distances(pred, target)
    # a square assignment matches every row, in order: only cols vary
    cols = np.array([linear_sum_assignment(c)[1] for c in d])
    matched = np.take_along_axis(d, cols[..., None], axis=-1)[..., 0]
    grad = np.zeros_like(pred)
    np.divide(pred - np.take_along_axis(target, cols[..., None], axis=-2),
              matched[..., None], out=grad, where=matched[..., None] > 0.0)
    return matched.sum(axis=-1), grad


def total_loss(pred, target, rot_params, spec):
    """Weighted reconstruction loss plus the rotation-parameter penalty.

    A (B, n, 3) stack against its (B, m, 3) targets, with (B, 3) rotation
    parameters, gives (loss (B,), d_pred (B, n, 3), d_rot (B, 3)).
    Reconstruction is EMD when the sets have equal cardinality within the
    solver cap, otherwise Chamfer (fallback).
    """
    pred = as_stack(pred, ("B", "n", 3))
    target = as_stack(target, ("B", "m", 3))
    rot = as_stack(rot_params, (len(pred), 3))
    if pred.shape == target.shape and pred.shape[1] <= EMD_CAP:
        rec, d_rec = emd_loss(pred, target)
    else:
        rec, d_rec = chamfer_loss(pred, target)
    loss = spec.lambda_rec * rec \
        + spec.rotation_penalty * (rot ** 2).sum(axis=-1)
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
    """Rodrigues rotations (B, 3, 3) of a (B, 3) stack of axis-angle
    vectors, each built on its own."""
    return np.stack([_rodrigues(t) for t in as_stack(theta, ("B", 3))])


def _rodrigues(theta):
    """Rotation matrix (3, 3) of one axis-angle vector theta (3,)."""
    angle = np.linalg.norm(theta)
    if angle < 1e-12:
        return np.eye(3) + _skew(theta)
    k = theta / angle
    kx = _skew(k)
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)


def _skew(v):
    """Cross-product matrices (..., 3, 3) of the vectors v (..., 3)."""
    s = np.zeros(v.shape + (3,))
    s[..., 0, 1], s[..., 0, 2] = -v[..., 2], v[..., 1]
    s[..., 1, 0], s[..., 1, 2] = v[..., 2], -v[..., 0]
    s[..., 2, 0], s[..., 2, 1] = -v[..., 1], v[..., 0]
    return s


def rotation_matrix_jacobian(theta: np.ndarray,
                             rot: np.ndarray) -> np.ndarray:
    """dR/dtheta_i (B, 3, 3, 3) of a (B, 3) stack; Gallego & Yezzi closed
    form. rot is rotation_matrix(theta), which the caller already holds."""
    theta = as_stack(theta, ("B", 3))
    rot = as_stack(rot, (len(theta), 3, 3))
    angle2 = np.array([t @ t for t in theta])
    small = (angle2 < 1e-16)[:, None, None, None]
    # row i of v[b] is theta_i * theta + theta x ((I - R) e_i)
    v = theta[:, :, None] * theta[:, None, :] \
        + np.cross(theta[:, None, :], (np.eye(3) - rot).swapaxes(-1, -2))
    jac = _skew(v) @ rot[:, None]
    np.divide(jac, angle2[:, None, None, None], out=jac, where=~small)
    return np.where(small, _skew(np.eye(3)), jac)


def rotate_points(theta, points):
    """A (B, n, 3) stack rotated row-wise by (B, 3) angles in one stacked
    product; returns (rotated, cache)."""
    rot = rotation_matrix(theta)
    points = as_stack(points, (len(rot), "n", 3))
    return points @ rot.swapaxes(-1, -2), (theta, points, rot)


def rotate_points_backward(cache, d_out):
    """Gradients of a rotate_points call: returns (d_theta, d_points)."""
    theta, points, rot = cache
    d_rot = d_out.swapaxes(-1, -2) @ points
    d_theta = (d_rot[..., None, :, :]
               * rotation_matrix_jacobian(theta, rot)).sum(axis=(-2, -1))
    return d_theta, d_out @ rot
