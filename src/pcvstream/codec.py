"""Point-block autoencoder codec with magnitude pruning, affine weight
quantization, model serialization, and the octree reference codec.

The codec operates on fixed-size blocks of points, each normalized into the
unit ball; a tiny per-block header (centroid + scale) makes reconstruction
position-independent. Block functions take (B, ...) stacks only: B blocks
(B, n, 3), B latents (B, latent_dim), B centroids (B, 3) and scales (B,);
a single block is a one-block stack (`block[None]`), and any other shape
raises ValueError. Latent sizes 16/64/256 form the model family used by
the scheduler (ids "4x4" / "8x8" / "16x16").

The network has one shape: a shared per-point MLP encoder, max-pooled over
the block's points (PointNet, Qi et al., CVPR 2017), and an MLP decoder to
n_points * 3 coordinates, each a list of dense layers run by `nn.forward`.
The layers are the model's one description: its latent and block sizes
are read from their last layers, a q8/q16 model's codes are derived from
them when it is written, and `serialize` and `deserialize` are the one
writer and reader of its file, whose format `deserialize` documents.
"""

from __future__ import annotations

import copy
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._util import (
    ceil_count, check_count, check_positive, run_starts, stable_argsort,
)
from .cloud import PointCloud, bounds, chamfer_distance, quat_to_matrix
from .nn import (
    Layer, _matmul, adam_step, as_stack, backward, clip_scale, dense,
    forward, emd_loss, maxpool_backward, proves_finite, rotate_points,
    rotate_points_backward, total_loss,
)

log = logging.getLogger(__name__)

DEFAULT_BLOCK_POINTS = 128
BLOCK_ORDER_BITS = 10  # Morton grid resolution per axis in chunk_blocks
OCTREE_MAX_DEPTH = 16
# blocks per encoder forward of a stack: (8, 128, 256) float64 activations
# are 2 MB, where a whole 157-block frame at once holds 41 MB per layer
ENCODE_CHUNK_BLOCKS = 8
TRAIN_BATCH = 8
TRAIN_CLIP_NORM = 25.0  # global gradient norm cap of one batch

MAGIC = b"ISCM"
FORMAT_VERSION = 2
_HEAD = struct.Struct("<4sHBHH")  # magic, version, dtype code, n_enc, count
_DTYPE_CODES = {"f32": 0, "q8": 1, "q16": 2}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}
DTYPE_BITS = {"f32": 32, "q8": 8, "q16": 16}  # bits per stored weight
_STORED = {"f32": np.dtype("<f4"), "q8": np.dtype("<u1"),  # one parameter
           "q16": np.dtype("<u2")}


class CodecFormatError(ValueError):
    """Raised for malformed model or octree streams."""


@dataclass
class PruneConfig:
    zeta: float = 0.5
    rounds: int = 5
    loss_threshold: float | None = None  # default: 1.1x the entry loss
    finetune_epochs: int = 4

    def __post_init__(self):
        check_count("rounds", self.rounds)
        check_count("finetune_epochs", self.finetune_epochs, low=0)
        if not 0.0 <= self.zeta < 1.0:
            raise ValueError("zeta must lie in [0, 1)")
        if self.loss_threshold is not None:
            check_positive("loss_threshold", self.loss_threshold)

    @property
    def per_round_ratio(self) -> float:
        """Share of the remaining weights pruned each round, so that the
        rounds compound to zeta."""
        return 1.0 - (1.0 - self.zeta) ** (1.0 / self.rounds)

    def cumulative_target(self, rounds_done: int) -> float:
        return 1.0 - (1.0 - self.per_round_ratio) ** rounds_done


@dataclass
class CodecModel:
    """Encoder and decoder dense layers; `latent_dim` and `n_points` are
    read from their last layers, so the layers hold the one shape. A q8/q16
    model's layers hold its codes dequantized; `serialize` re-derives them."""

    encoder: list[Layer]
    decoder: list[Layer]
    dtype: str = "f32"

    @property
    def latent_dim(self) -> int:
        return _rows(self.encoder)

    @property
    def n_points(self) -> int:
        return _rows(self.decoder) // 3

    def dense_layers(self):
        return self.encoder + self.decoder


def make_codec_model(latent_dim: int, n_points: int = DEFAULT_BLOCK_POINTS,
                     seed: int = 0, enc_hidden=(32, 64),
                     dec_hidden=(128, 256)) -> CodecModel:
    """Fresh f32 model: shared per-point dense stack + max-pool encoder and a
    dense decoder emitting n_points*3 coordinates."""
    for name, value in (("latent_dim", latent_dim), ("n_points", n_points),
                        *(("enc_hidden", w) for w in enc_hidden),
                        *(("dec_hidden", w) for w in dec_hidden)):
        check_count(name, value)
    rng = np.random.default_rng(seed)
    widths = (3, *enc_hidden, latent_dim)
    enc = [dense(n_out, n_in, rng) for n_in, n_out in zip(widths, widths[1:])]
    widths = (latent_dim, *dec_hidden)
    dec = [dense(n_out, n_in, rng) for n_in, n_out in zip(widths, widths[1:])]
    # gentler init on the coordinate output keeps early losses tame
    dec.append(dense(n_points * 3, widths[-1], rng,
                     scale=math.sqrt(1.0 / widths[-1])))
    return CodecModel(enc, dec)


def _rows(layers: list[Layer]) -> int:
    """Output width of the last of a list of dense layers."""
    return layers[-1].weights.shape[0]


# ---------------------------------------------------------------------------
# block plumbing

def normalize_block(points):
    """Center each block of a (B, n, 3) stack on its centroid and scale it
    into the unit ball.

    Returns (normalized, centroids (B, 3), scales (B,)). Degenerate blocks
    get scale 1.
    """
    pts = as_stack(points, ("B", "n", 3))
    centroid = pts.mean(axis=1)
    shifted = pts - centroid[:, None, :]
    scale = np.linalg.norm(shifted, axis=-1).max(axis=-1)
    scale = np.where(scale <= 0.0, 1.0, scale)
    return shifted / scale[:, None, None], centroid, scale


def denormalize_block(points, centroid, scale):
    """Inverse of normalize_block."""
    pts = as_stack(points, ("B", "n", 3))
    centroid = as_stack(centroid, (len(pts), 3))
    scale = as_stack(scale, (len(pts),))
    return pts * scale[:, None, None] + centroid[:, None, :]


# Bit spread of one axis into every third key bit, in five shift-and-mask
# steps: step i moves the bits that _MORTON_MASKS[i] keeps by
# _MORTON_SHIFTS[i] into the positions _MORTON_MASKS[i + 1] keeps; the last
# mask holds bits 0, 3, ..., 60. Compaction runs the steps backwards.
_MORTON_SHIFTS = tuple(np.uint64(s) for s in (32, 16, 8, 4, 2))
_MORTON_MASKS = tuple(np.uint64(m) for m in (
    0x1FFFFF, 0x1F00000000FFFF, 0x1F0000FF0000FF, 0x100F00F00F00F00F,
    0x10C30C30C30C30C3, 0x1249249249249249))
MORTON_MAX_BITS = 21  # 3 x 21 bits fill a 64-bit key


def _axis_mask(bits: int) -> np.uint64:
    """Mask of the low `bits` bits of one axis, for 1 <= bits <= 21."""
    if not 1 <= bits <= MORTON_MAX_BITS:
        raise ValueError(f"bits must lie in [1, {MORTON_MAX_BITS}], "
                         f"got {bits}")
    return np.uint64((1 << bits) - 1)


def morton_key(cells, bits: int) -> np.ndarray:
    """Morton (Z-order) key of non-negative integer (N, 3) cells: bit b of
    axis a lands at key bit 3*b + a, for the low `bits` bits. A 64-bit key
    holds 3 x 21 bits, so `bits` outside [1, 21] raises ValueError."""
    low = _axis_mask(bits)
    cells = np.asarray(cells, dtype=np.uint64)
    key = np.zeros(len(cells), dtype=np.uint64)
    for axis in range(3):
        x = cells[:, axis] & low
        for shift, mask in zip(_MORTON_SHIFTS, _MORTON_MASKS[1:]):
            x = (x | (x << shift)) & mask
        key |= x << np.uint64(axis)
    return key


def morton_cells(keys, bits: int) -> np.ndarray:
    """(N, 3) uint64 cells of Morton keys: the inverse of `morton_key`."""
    low = _axis_mask(bits)
    keys = np.asarray(keys, dtype=np.uint64)
    cells = np.empty((len(keys), 3), dtype=np.uint64)
    for axis in range(3):
        x = (keys >> np.uint64(axis)) & _MORTON_MASKS[-1]
        for shift, mask in zip(_MORTON_SHIFTS[::-1], _MORTON_MASKS[-2::-1]):
            x = (x | (x >> shift)) & mask
        cells[:, axis] = x & low
    return cells


def chunk_blocks(points, n_points: int):
    """Split a cloud into spatially coherent n-point blocks.

    Points are ordered along a Morton curve and cut into runs of n_points;
    the tail run is padded by repeating its own points. Points of one
    Morton key keep their input order (`_util.stable_argsort`, which packs
    each 30-bit key with its point index). Returns (blocks (B, n, 3),
    valid_counts (B,)) with valid counts < n flagging pads.
    """
    check_count("n_points", n_points)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return np.empty((0, n_points, 3)), np.empty(0, dtype=int)
    res = 1 << BLOCK_ORDER_BITS
    lo, hi = bounds(pts)
    span = np.where(hi > lo, hi - lo, 1.0)
    cells = np.clip(((pts - lo) / span * res).astype(np.uint64), 0, res - 1)
    pts = pts[stable_argsort(morton_key(cells, BLOCK_ORDER_BITS))]
    n_full, tail = divmod(len(pts), n_points)
    blocks = np.empty((n_full + (tail > 0), n_points, 3))
    blocks[:n_full] = pts[:n_full * n_points].reshape(n_full, n_points, 3)
    valid = np.full(len(blocks), n_points)
    if tail:
        reps = math.ceil(n_points / tail)
        blocks[-1] = np.tile(pts[n_full * n_points:], (reps, 1))[:n_points]
        valid[-1] = tail
    return blocks, valid


# ---------------------------------------------------------------------------
# inference

def encode(model: CodecModel, block) -> np.ndarray:
    """Latents (B, latent_dim) of a (B, n, 3) block stack.

    The stack runs through the encoder ENCODE_CHUNK_BLOCKS blocks at a
    time, so its activation memory does not grow with B.

    Where `nn.proves_finite` proves the whole encoder on the whole stack,
    which bounds every chunk, only the hidden layers run through
    `nn.forward` (so a traced `nn.forward` span covers those layers alone);
    the last layer's product is max-pooled over the points and its bias is
    added once per block, to the (B, latent_dim) maxima. That is exact:
    fl(z + b) is monotone in z, so the maximum over points of fl(z_p + b)
    is fl(max_p z_p + b), the same bits as adding the bias to every point
    first, and the proof stands in for the finiteness scan of every
    point's output. An unproven stack runs the whole encoder through
    `nn.forward`, which scans every layer's output, so a point driven to
    -inf raises even where its block's maximum is finite.
    """
    block = as_stack(block, ("B", model.n_points, 3))
    *hidden, last = model.encoder
    proven = proves_finite(model.encoder, block)
    latents = []
    for i in range(0, len(block), ENCODE_CHUNK_BLOCKS):
        chunk = block[i:i + ENCODE_CHUNK_BLOCKS]
        if proven:
            feats = forward(hidden, chunk)[0]
            if hidden:
                np.maximum(feats, 0.0, out=feats)
            pooled = _matmul(feats, last.weights.T).max(axis=-2)
            pooled += last.bias
        else:
            pooled = forward(model.encoder, chunk)[0].max(axis=-2)
        latents.append(pooled)
    return np.concatenate(latents)


def decode(model: CodecModel, latent) -> np.ndarray:
    """Reconstructed (B, n_points, 3) blocks of a (B, latent_dim) stack."""
    latent = as_stack(latent, ("B", model.latent_dim))
    out = forward(model.decoder, latent)[0]
    return out.reshape(len(latent), model.n_points, 3)


# ---------------------------------------------------------------------------
# training

def train(model: CodecModel, dataset, epochs: int = 50, lr: float = 0.002,
          seed: int = 0) -> np.ndarray:
    """Mini-batch training over normalized blocks; returns per-epoch mean
    loss.

    The loss is `nn.total_loss`: the EMD between each decoded block and its
    target plus the alignment penalty below, so `dataset` must be an
    (S, model.n_points, 3) stack (ValueError otherwise). Each sample owns a
    learned axis-angle alignment (zero-initialized) that rotates the
    decoded block before the loss; its squared norm is penalized.
    Batch-mean gradients are clipped by global norm. The optimizer is Adam
    (momentum SGD stalls well short of convergence on the matching loss).
    A batch runs as stacks: one forward and one backward per network, one
    stacked rotation and one loss call; only the EMD assignment is solved
    sample by sample. Only an f32 model trains (ValueError otherwise): a
    q8/q16 model's weights stay on the code grid `serialize` derives its
    codes from. `epochs` may be 0, which returns an empty curve.
    """
    check_count("epochs", epochs, low=0)
    if model.dtype != "f32":
        raise ValueError("train expects an f32 model")
    data = as_stack(dataset, ("S", model.n_points, 3))
    n_samples = data.shape[0]
    rng = np.random.default_rng(seed)
    rot = np.zeros((n_samples, 3))
    state = None
    curve = np.empty(epochs)
    for epoch in range(epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, TRAIN_BATCH):
            idx = order[start:start + TRAIN_BATCH]
            targets = data[idx]
            b = len(idx)
            feats, enc_caches = forward(model.encoder, targets)
            flat, dec_caches = forward(model.decoder, feats.max(axis=-2))
            theta = rot[idx]
            pred, rot_cache = rotate_points(
                theta, flat.reshape(b, model.n_points, 3))
            losses, d_pred, d_rots = total_loss(pred, targets, theta)
            for loss in losses:
                if not np.isfinite(loss):
                    raise FloatingPointError(f"NaN loss at epoch {epoch}")
                total += loss
            d_theta, d_pred0 = rotate_points_backward(rot_cache, d_pred)
            d_rots += d_theta
            d_latent, dec_grads = backward(model.decoder, dec_caches,
                                           d_pred0.reshape(b, -1) / b)
            _, enc_grads = backward(model.encoder, enc_caches,
                                    maxpool_backward(feats, d_latent))
            grads = dec_grads + enc_grads  # this sum order sets the clip
            scale = clip_scale([g for pair in grads for g in pair] + [d_rots],
                               TRAIN_CLIP_NORM)
            if scale != 1.0:
                for dw, db in grads:
                    dw *= scale
                    db *= scale
                d_rots *= scale
            state = adam_step(model.dense_layers(), enc_grads + dec_grads, lr,
                              state=state)
            rot[idx] -= lr * d_rots
        curve[epoch] = total / n_samples
    return curve


def mean_reconstruction_loss(model: CodecModel, dataset) -> float:
    """Mean EMD over a dataset without updates (zero alignment).

    One encode/decode round trip, then the loss ENCODE_CHUNK_BLOCKS samples
    at a time, so the (S, n, n) EMD distances never exist all at once.
    """
    data = np.asarray(dataset, dtype=np.float64)
    rebuilt = decode(model, encode(model, data))
    cuts = range(ENCODE_CHUNK_BLOCKS, len(data), ENCODE_CHUNK_BLOCKS)
    losses = np.concatenate([
        emd_loss(r, d)[0]
        for r, d in zip(np.split(rebuilt, cuts), np.split(data, cuts))])
    return sum(losses.tolist()) / len(data)


def mean_chamfer(model: CodecModel, dataset) -> float:
    """Mean Chamfer distance of codec round trips over normalized blocks."""
    data = np.asarray(dataset, dtype=np.float64)
    rebuilt = decode(model, encode(model, data))
    return float(np.mean([chamfer_distance(r, b)
                          for r, b in zip(rebuilt, data)]))


# ---------------------------------------------------------------------------
# pruning (magnitude, per layer)

def prune_layer(layer: Layer, count: int) -> None:
    """Zero the `count` smallest-magnitude weights of one layer, in place,
    ties in ascending flat-index order. A layer's zero weights are its
    record of what is pruned; weights already zero stay zero.

    The largest |w| zeroed is the magnitude threshold w_th of Deep
    Compression (Han et al., ICLR 2016); an exact count needs no w_th.
    """
    order = np.argsort(np.abs(layer.weights.ravel()), kind="stable")
    layer.weights.flat[order[:count]] = 0.0


def prune_model(model: CodecModel, zeta: float) -> None:
    """Prune every dense layer to exactly ceil(zeta*C) zeros."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must lie in [0, 1)")
    for layer in model.dense_layers():
        prune_layer(layer, ceil_count(zeta, layer.weights.size))


# ---------------------------------------------------------------------------
# quantization (affine, per tensor)

def quantize_weights(tensor, m: int):
    """Affine m-bit quantization of a finite tensor.

    Codes are round(q*(w - min)) with q = (2^m - 1)/(max - min); a constant
    tensor degenerates to all-zero codes. A NaN or infinite value, or a
    max - min or q that is not finite, raises ValueError. Returns (codes,
    meta); `dequantize` inverts within half a step.
    """
    if m not in (8, 16):
        raise ValueError("bit-width must be 8 or 16")
    flat = np.asarray(tensor, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("empty tensor")
    # a NaN makes both NaN, an infinity one of them
    mn, mx = float(flat.min()), float(flat.max())
    if not (math.isfinite(mn) and math.isfinite(mx)):
        raise ValueError("tensor holds non-finite values")
    meta = {"min": mn, "max": mx, "bits": m}
    if mx == mn:
        return np.zeros(flat.size, _STORED[f"q{m}"]), meta
    q = (2 ** m - 1) / (mx - mn)
    if not (math.isfinite(mx - mn) and math.isfinite(q)):
        raise ValueError(f"tensor range [{mn!r}, {mx!r}] has no finite "
                         f"{m}-bit step")
    scaled = flat - mn  # one float64 buffer, scaled and rounded in place
    scaled *= q
    np.clip(np.rint(scaled, out=scaled), 0, 2 ** m - 1, out=scaled)
    return scaled.astype(_STORED[f"q{m}"]), meta


def dequantize(codes, meta) -> np.ndarray:
    mn, mx, m = meta["min"], meta["max"], meta["bits"]
    if mx == mn:
        return np.full(len(codes), mn)
    q = (2 ** m - 1) / (mx - mn)
    return np.asarray(codes, dtype=np.float64) / q + mn


def quantize_model(model: CodecModel, m: int) -> None:
    """Quantize every dense layer in place to m bits, weights and bias as
    one affine tensor (`quantize_weights`), and keep the dequantized values
    in the layers; `serialize` quantizes them again to the same codes.
    Weights that were zero (pruned) stay exactly zero."""
    for layer in model.dense_layers():
        kept = layer.weights != 0.0
        params = np.concatenate([layer.weights.ravel(), layer.bias])
        restored = dequantize(*quantize_weights(params, m))
        n_w = layer.weights.size
        layer.weights = restored[:n_w].reshape(layer.weights.shape)
        layer.bias = restored[n_w:]
        layer.weights *= kept
    model.dtype = f"q{m}"


# ---------------------------------------------------------------------------
# the joint lightweight-training procedure

def lightweight_train(model: CodecModel, dataset, prune_cfg: PruneConfig,
                      m: int, lr: float = 0.001, seed: int = 0) -> CodecModel:
    """Prune-and-quantize a pre-trained f32 model.

    Per round: fine-tune until the running loss drops below the trigger
    threshold, raise every layer's sparsity to the round's cumulative
    target, then keep fine-tuning within the round's epoch budget. After
    the final round all dense layers are quantized to m bits (m=32 skips
    quantization). If the trigger never fires within a round's budget the
    model is returned best-effort, pruned short of zeta, with a logged
    warning; its zero weights are what was pruned.
    """
    if model.dtype != "f32":
        raise ValueError("lightweight_train expects an f32 model")
    if m not in (8, 16, 32):
        raise ValueError("bit-width must be 8, 16, or 32")
    data = np.asarray(dataset, dtype=np.float64)
    out = copy.deepcopy(model)

    entry_loss = mean_reconstruction_loss(out, data)
    l_th = prune_cfg.loss_threshold
    if l_th is None:
        l_th = 1.1 * entry_loss

    rounds_done = 0
    current = entry_loss
    for rnd in range(1, prune_cfg.rounds + 1):
        budget = prune_cfg.finetune_epochs
        while current >= l_th and budget > 0:
            train(out, data, epochs=1, lr=lr, seed=seed + 1000 * rnd + budget)
            budget -= 1
            current = mean_reconstruction_loss(out, data)
        if current >= l_th:
            log.warning(
                "pruning stalled in round %d: loss %.6f never fell below "
                "threshold %.6f; stopping at sparsity %.3f",
                rnd, current, l_th, prune_cfg.cumulative_target(rounds_done))
            break
        prune_model(out, prune_cfg.cumulative_target(rnd))
        rounds_done = rnd
        if budget > 0:
            train(out, data, epochs=budget, lr=lr, seed=seed + 1000 * rnd)
        current = mean_reconstruction_loss(out, data)

    if rounds_done < prune_cfg.rounds:
        log.warning("reached sparsity %.3f of requested %.3f",
                    prune_cfg.cumulative_target(rounds_done), prune_cfg.zeta)

    if m != 32:
        quantize_model(out, m)
    return out


# ---------------------------------------------------------------------------
# serialization

def serialize(model: CodecModel, path) -> None:
    """Write a codec model in the format documented in `deserialize`.

    A q8/q16 layer's codes are derived here, by `quantize_weights` of its
    parameters, which gives back the codes `quantize_model` dequantized. A
    parameter not finite as float32 (so also a min or max) raises
    ValueError naming its layer before the path is opened. Quantized
    metadata is stored at f32 precision, so weights reloaded from disk can
    differ from the in-memory model by one metadata ulp.
    """
    layers = model.dense_layers()
    parts = [_HEAD.pack(MAGIC, FORMAT_VERSION, _DTYPE_CODES[model.dtype],
                        len(model.encoder), len(layers)),
             struct.pack(f"<{len(layers)}I",
                         *(layer.weights.shape[0] for layer in layers))]
    for index, layer in enumerate(layers):
        values = np.concatenate([layer.weights.ravel(), layer.bias])
        with np.errstate(over="ignore"):  # past the f32 range: inf, refused
            stored = values.astype(_STORED["f32"])
        if not np.isfinite(stored).all():
            raise ValueError(f"layer {index}: {model.dtype} values not "
                             "finite as float32")
        if model.dtype != "f32":  # its f32 min and max, then its codes
            stored, meta = quantize_weights(values, DTYPE_BITS[model.dtype])
            parts.append(struct.pack("<ff", meta["min"], meta["max"]))
        parts.append(stored.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def deserialize(path) -> CodecModel:
    """Load a model file written by `serialize`.

    Format v2, little-endian. The header is magic b"ISCM", u16 version 2,
    u8 dtype code (0 f32, 1 q8, 2 q16), u16 encoder layer count n_enc,
    u16 layer count, then one u32 output width per dense layer, encoder
    first. Layer i's weights have shape (width[i], width[i - 1]), with 3
    (xyz) inputs to the first. The widths are positive, the last is a
    multiple of 3 (n_points * 3), and 1 <= n_enc < layer count. The ReLU
    between layers and the max-pool after the encoder are fixed by the
    codec, not stored.

    The layer payloads follow in order, with no record head. An f32 layer
    holds its weights (row-major) and then its biases as finite f32. A q8
    or q16 layer holds f32 min and f32 max (finite, min <= max), then one
    u8 or u16 code per weight and bias in the same order, all zero when
    min == max. So the header fixes the file size, which is checked before
    any payload is read. Weights at a q layer's code nearest zero are
    reloaded as exact (pruned) zeros.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise CodecFormatError("bad magic: not a model file")
    if len(data) < _HEAD.size:
        raise CodecFormatError(f"truncated header at byte {len(data)}")
    _, version, dtype_code, n_enc, count = _HEAD.unpack_from(data)
    if version != FORMAT_VERSION:
        raise CodecFormatError(f"unsupported format version {version}")
    dtype = _DTYPE_NAMES.get(dtype_code)
    if dtype is None:
        raise CodecFormatError(f"unknown dtype code {dtype_code}")
    if not 1 <= n_enc < count:
        raise CodecFormatError(f"encoder layer count {n_enc} must lie in "
                               f"[1, {count}), the layer count")
    off = _HEAD.size + 4 * count
    if len(data) < off:
        raise CodecFormatError(f"truncated header at byte {len(data)}")
    widths = struct.unpack_from(f"<{count}I", data, _HEAD.size)
    if 0 in widths:
        raise CodecFormatError(f"layer {widths.index(0)} has output width 0")
    if widths[-1] % 3:
        raise CodecFormatError(f"decoder output width {widths[-1]} is not a "
                               "multiple of 3")
    shapes = list(zip(widths, (3,) + widths[:-1]))
    sizes = [rows * cols + rows for rows, cols in shapes]
    lead = 0 if dtype == "f32" else 8  # a q layer's f32 min and max
    size = off + lead * count + _STORED[dtype].itemsize * sum(sizes)
    if len(data) != size:
        raise CodecFormatError(f"file of {len(data)} bytes, but its header "
                               f"fixes {size}")
    layers = []
    for index, ((rows, cols), n_params) in enumerate(zip(shapes, sizes)):
        stored = np.frombuffer(data, _STORED[dtype], n_params, off + lead)
        if dtype == "f32":
            # checked before the cast, which warns on a signalling NaN
            if not np.isfinite(stored).all():
                raise CodecFormatError(f"layer {index}: non-finite f32 "
                                       "parameters")
            params = stored.astype(float)
        else:
            mn, mx = struct.unpack_from("<ff", data, off)
            if not -math.inf < mn <= mx < math.inf:
                raise CodecFormatError(f"layer {index}: {dtype} min {mn} and "
                                       f"max {mx} must be finite, min <= max")
            meta = {"min": mn, "max": mx, "bits": DTYPE_BITS[dtype]}
            params = dequantize(stored, meta)
            # weights at the code nearest zero are taken as pruned zeros
            if mn < 0.0 < mx:
                q = (2 ** meta["bits"] - 1) / (mx - mn)
                params[:rows * cols] *= stored[:rows * cols] != round(-mn * q)
        layers.append(Layer(params[:rows * cols].reshape(rows, cols),
                            params[rows * cols:]))
        off += lead + stored.nbytes
    return CodecModel(layers[:n_enc], layers[n_enc:], dtype)


# ---------------------------------------------------------------------------
# octree baseline

def octree_encode(cloud: PointCloud, depth: int) -> bytes:
    """Breadth-first occupancy-byte octree of the cloud's bounding cube.

    Stream layout: min corner (3 x f32), cube edge (f32), depth (u8), then
    one occupancy byte per internal node in breadth-first order. Bit k of a
    byte marks child octant k = x | y<<1 | z<<2.
    """
    check_count("depth", depth)
    if depth > OCTREE_MAX_DEPTH:
        raise ValueError(f"depth must lie in [1, {OCTREE_MAX_DEPTH}]")
    pts = cloud.points.astype(np.float64)
    if len(pts) == 0:
        header = struct.pack("<3ffB", 0.0, 0.0, 0.0, 1.0, depth)
        return header + b"\x00"
    mn, top = bounds(pts)
    edge = float((top - mn).max())
    if edge <= 0.0:
        edge = 1.0
    res = 1 << depth
    cells = np.clip(((pts - mn) / edge * res).astype(np.int64), 0, res - 1)
    # sort and drop repeats: np.unique took 13-19x as long on 20k keys
    # (numpy 2.4)
    keys = np.sort(morton_key(cells, depth))
    keys = keys[run_starts(keys)]
    levels = []  # occupancy bytes per level, leaves' parents first
    for _ in range(depth):
        # parents of sorted unique keys come sorted: each run is one parent
        up = keys >> np.uint64(3)
        starts = run_starts(up)
        bits = np.uint8(1) << (keys & np.uint64(7)).astype(np.uint8)
        levels.append(np.bitwise_or.reduceat(bits, starts))
        keys = up[starts]
    out = b"".join(level.tobytes() for level in reversed(levels))
    mn32 = mn.astype(np.float32)
    header = struct.pack("<3ffB", mn32[0], mn32[1], mn32[2],
                         np.float32(edge), depth)
    return header + out


def _child_nodes(nodes: np.ndarray, occupancy: np.ndarray) -> np.ndarray:
    """Keys of the children of uint64 octree `nodes`, breadth-first: node
    i has child octant k where bit k of occupancy[i] is set, and its key is
    nodes[i] << 3 | k. Set bit j of the little-endian bit string of the
    occupancy bytes is bit j % 8 of byte j // 8, so its index names the
    parent and the octant, in breadth-first order."""
    bits = np.flatnonzero(np.unpackbits(occupancy, bitorder="little"))
    return (nodes[bits >> 3] << np.uint64(3)) | (bits & 7).astype(np.uint64)


def octree_decode(data: bytes) -> PointCloud:
    """Occupied-leaf centers of an octree stream."""
    if len(data) < 17:
        raise CodecFormatError("octree stream too short")
    x, y, z, edge, depth = struct.unpack("<3ffB", data[:17])
    if not 1 <= depth <= OCTREE_MAX_DEPTH:
        raise CodecFormatError(f"invalid octree depth {depth}")
    if not np.isfinite([x, y, z]).all():
        raise CodecFormatError(f"octree min corner {(x, y, z)} not finite")
    if not 0.0 < edge < math.inf:
        raise CodecFormatError(f"octree cube edge {edge} not finite and > 0")
    # the leaf centres are cast to float32: the far corner must fit
    if max(x, y, z) + edge > float(np.finfo(np.float32).max):
        raise CodecFormatError(f"octree cube at {(x, y, z)} with edge {edge} "
                               "exceeds the float32 range")
    mn = np.array([x, y, z], dtype=np.float64)
    off = 17
    nodes = np.zeros(1, dtype=np.uint64)
    for _ in range(depth):
        if off + len(nodes) > len(data):
            raise CodecFormatError(f"truncated octree stream at byte {off}")
        occupancy = np.frombuffer(data, np.uint8, len(nodes), off)
        off += len(nodes)
        nodes = _child_nodes(nodes, occupancy)
        if len(nodes) == 0:
            break
    if off != len(data):
        raise CodecFormatError(f"{len(data) - off} trailing bytes")
    if len(nodes) == 0:
        return PointCloud(np.empty((0, 3), np.float32))
    cells = morton_cells(nodes, depth).astype(np.float64)
    centers = mn + (cells + 0.5) * (float(edge) / (1 << depth))
    return PointCloud(centers.astype(np.float32))


# ---------------------------------------------------------------------------
# toy dataset

def toy_block_dataset(count: int = 500, n_points: int = DEFAULT_BLOCK_POINTS,
                      seed: int = 7) -> np.ndarray:
    """Normalized parametric shape blocks for codec training and tests."""
    check_count("count", count)
    check_count("n_points", n_points)
    rng = np.random.default_rng(seed)
    shapes = ("sphere", "ball", "box", "plane", "clusters", "helix")
    blocks = np.empty((count, n_points, 3))
    for i in range(count):
        kind = shapes[rng.integers(len(shapes))]
        if kind == "sphere":
            v = rng.normal(size=(n_points, 3))
            pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        elif kind == "ball":
            v = rng.normal(size=(n_points, 3))
            r = rng.random(n_points) ** (1 / 3)
            pts = v / np.linalg.norm(v, axis=1, keepdims=True) * r[:, None]
        elif kind == "box":
            pts = rng.uniform(-1, 1, size=(n_points, 3))
            face = rng.integers(0, 3, size=n_points)
            sign = rng.choice([-1.0, 1.0], size=n_points)
            pts[np.arange(n_points), face] = sign
        elif kind == "plane":
            pts = np.zeros((n_points, 3))
            pts[:, :2] = rng.uniform(-1, 1, size=(n_points, 2))
            pts[:, 2] = rng.normal(scale=0.05, size=n_points)
        elif kind == "clusters":
            k = int(rng.integers(1, 4))
            centers = rng.uniform(-1, 1, size=(k, 3))
            pick = rng.integers(0, k, size=n_points)
            pts = centers[pick] + rng.normal(scale=0.15, size=(n_points, 3))
        else:  # helix
            t = np.sort(rng.uniform(0, 4 * np.pi, size=n_points))
            pts = np.stack([np.cos(t), np.sin(t), t / (2 * np.pi) - 1],
                           axis=1)
            pts += rng.normal(scale=0.03, size=pts.shape)
        scale = rng.uniform(0.5, 1.0, size=3)
        rot = _random_rotation(rng)
        blocks[i] = (pts * scale) @ rot.T
    return normalize_block(blocks)[0]


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)
