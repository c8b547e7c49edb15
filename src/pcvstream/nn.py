"""Minimal dense-network engine: forward/backward with analytic gradients,
the codec's training loss, and Adam that keeps pruned weights at zero.

A network is a list of dense layers with a ReLU between consecutive ones,
run on per-point rows (n, f) or stacks of them (B, n, f) as one 2-D GEMM
per layer over the flattened leading axes, not one product per block.
`maxpool_backward` is the gradient of the codec's max-pool over points.
`forward` raises NumericsError on a layer output that is not finite; where
`proves_finite` bounds every layer's output below overflow up front, with
a rounding slack of Higham's gamma_n, it skips those scans. It computes the
bound only where reading the weights costs less than scanning the outputs.

The reconstruction loss is the exact earth mover's distance (EMD) between
two point sets of one size, as the codec's blocks all have `n_points`
points. The loss and the rotation helpers take (B, ...) stacks only: B
point sets (B, n, 3) with B angles (B, 3), one result per sample; a single
sample is a one-sample stack (`x[None]`), and any other shape raises
ValueError.

The assignment solver (`scipy.optimize`) is imported by the first
`emd_loss` call, not with this module. Only training computes the loss,
and a stream process never trains: loading the solver there would cost it
about 11.5 MB of resident memory and 146 scipy modules. So the first loss
call in a process pays for the import, about 0.1 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericsError(FloatingPointError):
    """Raised when a forward or backward pass produces non-finite values."""


@dataclass
class Layer:
    weights: np.ndarray               # (out, in); 0.0 = pruned
    bias: np.ndarray | None = None    # (out,), zeros if None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.bias is None:
            self.bias = np.zeros(self.weights.shape[0])
        self.bias = np.asarray(self.bias, dtype=np.float64)


def dense(n_out: int, n_in: int, rng: np.random.Generator,
          scale: float | None = None) -> Layer:
    if scale is None:
        scale = math.sqrt(2.0 / n_in)  # He init
    return Layer(rng.normal(scale=scale, size=(n_out, n_in)), np.zeros(n_out))


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
    128-point blocks.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], -1)


_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the float64 unit roundoff."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def proves_finite(layers: list[Layer], x: np.ndarray) -> bool:
    """True when a bound proves that `forward(layers, x)` makes no inf or
    NaN, so its per-layer finiteness scans can be skipped; False when the
    bound fails or is not worth computing.

    With B_0 = max|x| and, for layer i of input width n,
    B_{i+1} = (max row-L1(W_i) * B_i + max|b_i|)(1 + gamma_{4(n+4)}),
    every value of layer i's output is at most B_{i+1} in magnitude: a
    computed dot product of n terms plus a bias, and each partial sum of
    it, is at most (1 + gamma_{n+1}) times the exact sum of its terms'
    magnitudes, in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1); the rest of the slack covers the
    rounding made while computing the bound. A ReLU bounds its
    output by its input's bound. So when every B_i is finite, no product,
    partial sum or bias add can overflow, and with finite inputs none can
    make a NaN. A NaN or inf in x or in a layer makes a bound NaN or inf.

    The bound reads x and every weight and bias once; the scans read every
    output, rows x widths values. It is computed only when it reads fewer
    values, which the shapes decide: the codec's encoder over a stack of
    128-point blocks (128 rows a block, widths 32 + 64 + 256 against 18.8k
    parameters) is proven, its decoder over a 157-block frame's latents
    is scanned.
    """
    widths = sum(len(layer.bias) for layer in layers)
    reads = x.size + sum(layer.weights.size for layer in layers) + widths
    if x.size == 0 or reads >= math.prod(x.shape[:-1]) * widths:
        return False
    bound = float(np.maximum(x.max(), -x.min()))
    with np.errstate(over="ignore"):  # an overflowing bound fails below
        for layer in layers:
            l1 = float(np.abs(layer.weights).sum(axis=1).max(initial=0.0))
            bias = float(np.abs(layer.bias).max(initial=0.0))
            slack = _gamma(4 * (layer.weights.shape[1] + 4))
            # Python floats overflow to inf without a warning
            bound = (l1 * bound + bias) * (1.0 + slack)
            if not bound <= _FLOAT_MAX:  # also False for NaN
                return False
    return True


def forward(layers: list[Layer], x: np.ndarray):
    """Run the layers, with a ReLU before each but the first; returns
    (output, caches), each layer's cache its input after the ReLU.

    A layer output holding an inf or NaN raises NumericsError naming the
    layer, before the next ReLU could map a -inf to 0. Where
    `proves_finite` proves that no output can (a per-layer magnitude bound
    with a gamma_{4(n+4)} rounding slack, computed only where it reads
    fewer values than the scans), the scans are skipped; the values are
    the same either way. Each ReLU runs in place on the previous layer's
    fresh output.
    """
    x = np.asarray(x, dtype=np.float64)
    scan = not proves_finite(layers, x)
    caches = []
    for i, layer in enumerate(layers):
        if i:
            np.maximum(x, 0.0, out=x)
        caches.append(x)
        x = _matmul(x, layer.weights.T)
        x += layer.bias
        if scan:
            _check_finite(x, f"layer {i} output")
    return x, caches


def backward(layers: list[Layer], caches, d_out: np.ndarray):
    """Backpropagate d_out; returns (d_input, grads), grads a list parallel
    to layers of (dW, db). relu(z) > 0 exactly where z > 0."""
    d = np.asarray(d_out, dtype=np.float64)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        layer, cache = layers[i], caches[i]
        d_rows = d.reshape(-1, d.shape[-1])
        grads[i] = (d_rows.T @ cache.reshape(-1, cache.shape[-1]),
                    d_rows.sum(axis=0))
        d = _matmul(d, layer.weights)
        _check_finite(d, f"layer {i} gradient")
        if i:
            d = d * (cache > 0.0)
    return d, grads


def maxpool_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient of x.max(axis=-2) for (n, f) rows or a (B, n, f) stack:
    each d_out value goes to the first point holding the maximum."""
    winners = np.expand_dims(np.argmax(x, axis=-2), -2)
    dx = np.zeros_like(x)
    np.put_along_axis(dx, winners, np.expand_dims(d_out, -2), axis=-2)
    return dx


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


def adam_step(layers: list[Layer], grads, lr: float,
              state: dict | None = None) -> dict:
    """One Adam step; returns the moment state to pass back.

    The weights that are 0.0 at a layer's first step in a state are its
    pruned ones: each update re-zeroes them, so they stay fixed points.
    """
    if state is None:
        state = {"t": 0}
    state["t"] += 1
    t = state["t"]
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    for i, (layer, grad) in enumerate(zip(layers, grads)):
        if i not in state:
            state[i] = tuple(np.zeros_like(g) for g in (*grad, *grad)) \
                + (np.flatnonzero(layer.weights == 0.0),)
        mw, mb, vw, vb, pruned = state[i]
        dw, db = grad
        mw = ADAM_BETA1 * mw + (1 - ADAM_BETA1) * dw
        mb = ADAM_BETA1 * mb + (1 - ADAM_BETA1) * db
        vw = ADAM_BETA2 * vw + (1 - ADAM_BETA2) * dw * dw
        vb = ADAM_BETA2 * vb + (1 - ADAM_BETA2) * db * db
        state[i] = (mw, mb, vw, vb, pruned)
        for param, m, v in ((layer.weights, mw, vw), (layer.bias, mb, vb)):
            param -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
        layer.weights.flat[pruned] *= 0.0  # not "= 0.0": keeps -0.0 signs
    return state


# ---------------------------------------------------------------------------
# reconstruction loss

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


def emd_loss(pred: np.ndarray, target: np.ndarray):
    """Exact earth mover's distance over bijections, with gradient.

    Cost is the sum of matched Euclidean distances; gradients are unit
    vectors along each matched pair. Two (B, n, 3) stacks give the (B,)
    per-sample losses and the (B, n, 3) gradients, with one assignment
    solved per sample.

    The solver is imported here, so the first call in a process also pays
    for loading `scipy.optimize` (see the module docstring).
    """
    from scipy.optimize import linear_sum_assignment

    pred = as_stack(pred, ("B", "n", 3))
    target = as_stack(target, ("B", "n", 3))
    if pred.shape != target.shape:
        raise ValueError(f"emd_loss requires equal-cardinality stacks, got "
                         f"{pred.shape} and {target.shape}")
    d = _pairwise_distances(pred, target)
    # a square assignment matches every row, in order: only cols vary
    cols = np.array([linear_sum_assignment(c)[1] for c in d])
    matched = np.take_along_axis(d, cols[..., None], axis=-1)[..., 0]
    grad = np.zeros_like(pred)
    np.divide(pred - np.take_along_axis(target, cols[..., None], axis=-2),
              matched[..., None], out=grad, where=matched[..., None] > 0.0)
    return matched.sum(axis=-1), grad


def total_loss(pred, target, rot_params):
    """EMD reconstruction loss plus the rotation-parameter penalty.

    Two (B, n, 3) stacks with (B, 3) rotation parameters give
    (loss (B,), d_pred (B, n, 3), d_rot (B, 3)).
    """
    rec, d_rec = emd_loss(pred, target)
    rot = as_stack(rot_params, (len(rec), 3))
    return rec + (rot ** 2).sum(axis=-1), d_rec, 2.0 * rot


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
