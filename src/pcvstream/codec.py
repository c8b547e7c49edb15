"""Point-block autoencoder codec with magnitude pruning, affine weight
quantization, model serialization, and the octree reference codec.

The codec operates on fixed-size blocks of points, each normalized into the
unit ball; a tiny per-block header (centroid + scale) makes reconstruction
position-independent. Block functions take (B, ...) stacks only: B blocks
(B, n, 3), B latents (B, latent_dim), B centroids (B, 3) and scales (B,);
a single block is a one-block stack (`block[None]`), and any other shape
raises ValueError. Latent sizes 16/64/256 form the model family used by
the scheduler (ids "4x4" / "8x8" / "16x16").
"""

from __future__ import annotations

import copy
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._util import ceil_count
from .cloud import PointCloud, bounds, chamfer_distance, quat_to_matrix
from .nn import (
    Layer, LossSpec, Network, adam_step, as_stack, backward, clip_scale,
    dense, forward, rotate_points, rotate_points_backward, total_loss,
)

log = logging.getLogger(__name__)

LATENT_SIZES = {"4x4": 16, "8x8": 64, "16x16": 256}
DEFAULT_BLOCK_POINTS = 128
BLOCK_ORDER_BITS = 10  # Morton grid resolution per axis in chunk_blocks
# blocks per encoder forward of a stack: (8, 128, 256) float64 activations
# are 2 MB, where a whole 157-block frame at once holds 41 MB per layer
ENCODE_CHUNK_BLOCKS = 8
TRAIN_BATCH = 8
TRAIN_CLIP_NORM = 25.0  # global gradient norm cap of one batch
LOSS = LossSpec()

MAGIC = b"ISCM"
FORMAT_VERSION = 1
_KIND_CODES = {"dense": 1, "relu": 2, "maxpool_points": 4}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_DTYPE_CODES = {"f32": 0, "q8": 1, "q16": 2}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}
DTYPE_BITS = {"f32": 32, "q8": 8, "q16": 16}  # bits per stored weight


class CodecFormatError(ValueError):
    """Raised for malformed model or octree streams."""


@dataclass
class PruneConfig:
    zeta: float = 0.5
    rounds: int = 5
    loss_threshold: float | None = None  # default: 1.1x the entry loss
    finetune_epochs: int = 4

    def __post_init__(self):
        if not 0.0 <= self.zeta < 1.0:
            raise ValueError("zeta must lie in [0, 1)")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    @property
    def per_round_ratio(self) -> float:
        """Share of the remaining weights pruned each round, so that the
        rounds compound to zeta."""
        return 1.0 - (1.0 - self.zeta) ** (1.0 / self.rounds)

    def cumulative_target(self, rounds_done: int) -> float:
        return 1.0 - (1.0 - self.per_round_ratio) ** rounds_done


@dataclass
class CodecModel:
    encoder: Network
    decoder: Network
    n_points: int
    latent_dim: int
    dtype: str = "f32"
    quant_meta: list | None = None  # per dense layer, encoder then decoder

    def dense_layers(self):
        return [l for l in self.encoder.layers + self.decoder.layers
                if l.weights is not None]

    def copy(self) -> "CodecModel":
        return copy.deepcopy(self)


def make_codec_model(latent_dim: int, n_points: int = DEFAULT_BLOCK_POINTS,
                     seed: int = 0, enc_hidden=(32, 64),
                     dec_hidden=(128, 256)) -> CodecModel:
    """Fresh f32 model: shared per-point dense stack + max-pool encoder and a
    dense decoder emitting n_points*3 coordinates."""
    rng = np.random.default_rng(seed)
    enc = Network()
    prev = 3
    for h in enc_hidden:
        enc.layers += [dense(h, prev, rng), Layer("relu")]
        prev = h
    enc.layers.append(dense(latent_dim, prev, rng))
    enc.layers.append(Layer("maxpool_points"))
    dec = Network()
    prev = latent_dim
    for h in dec_hidden:
        dec.layers += [dense(h, prev, rng), Layer("relu")]
        prev = h
    # gentler init on the coordinate output keeps early losses tame
    dec.layers.append(dense(n_points * 3, prev, rng,
                            scale=math.sqrt(1.0 / prev)))
    return CodecModel(enc, dec, n_points, latent_dim)


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


def morton_key(cells, bits: int) -> np.ndarray:
    """Morton (Z-order) key of non-negative integer (N, 3) cells: bit b of
    axis a lands at key bit 3*b + a, for the low `bits` bits."""
    cells = np.asarray(cells, dtype=np.uint64)
    key = np.zeros(len(cells), dtype=np.uint64)
    for b in range(bits):
        for axis in range(3):
            key |= ((cells[:, axis] >> np.uint64(b)) & np.uint64(1)) \
                << np.uint64(3 * b + axis)
    return key


def morton_cells(keys, bits: int) -> np.ndarray:
    """(N, 3) uint64 cells of Morton keys: the inverse of `morton_key`."""
    keys = np.asarray(keys, dtype=np.uint64)
    cells = np.zeros((len(keys), 3), dtype=np.uint64)
    for b in range(bits):
        for axis in range(3):
            cells[:, axis] |= ((keys >> np.uint64(3 * b + axis))
                               & np.uint64(1)) << np.uint64(b)
    return cells


def chunk_blocks(points, n_points: int):
    """Split a cloud into spatially coherent n-point blocks.

    Points are ordered along a Morton curve and cut into runs of n_points;
    the tail run is padded by repeating its own points. Returns
    (blocks (B, n, 3), valid_counts (B,)) with valid counts < n flagging pads.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return np.empty((0, n_points, 3)), np.empty(0, dtype=int)
    res = 1 << BLOCK_ORDER_BITS
    lo, hi = bounds(pts)
    span = np.where(hi > lo, hi - lo, 1.0)
    cells = np.clip(((pts - lo) / span * res).astype(np.uint64), 0, res - 1)
    pts = pts[np.argsort(morton_key(cells, BLOCK_ORDER_BITS), kind="stable")]
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
    """
    block = as_stack(block, ("B", model.n_points, 3))
    return np.concatenate([
        forward(model.encoder, block[i:i + ENCODE_CHUNK_BLOCKS])[0]
        for i in range(0, len(block), ENCODE_CHUNK_BLOCKS)])


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

    Each sample owns a learned axis-angle alignment (zero-initialized) that
    rotates the decoded block before the loss; its squared norm is
    penalized. Batch-mean gradients are clipped by global norm. The
    optimizer is Adam (momentum SGD stalls well short of convergence on the
    matching loss). A batch runs as stacks: one forward and one backward
    per network, one stacked rotation and one loss call; only the EMD
    assignment is solved sample by sample.
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (S, n, 3) array")
    n_samples = data.shape[0]
    rng = np.random.default_rng(seed)
    rot = np.zeros((n_samples, 3))
    enc_state = dec_state = None
    curve = np.empty(epochs)
    for epoch in range(epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, TRAIN_BATCH):
            idx = order[start:start + TRAIN_BATCH]
            targets = data[idx]
            b = len(idx)
            latents, enc_caches = forward(model.encoder, targets)
            flat, dec_caches = forward(model.decoder, latents)
            theta = rot[idx]
            pred, rot_cache = rotate_points(
                theta, flat.reshape(b, model.n_points, 3))
            losses, d_pred, d_rots = total_loss(pred, targets, theta, LOSS)
            for loss in losses:
                if not np.isfinite(loss):
                    raise FloatingPointError(f"NaN loss at epoch {epoch}")
                total += loss
            d_theta, d_pred0 = rotate_points_backward(rot_cache, d_pred)
            d_rots += d_theta
            d_latent, dec_grads = backward(model.decoder, dec_caches,
                                           d_pred0.reshape(b, -1) / b)
            _, enc_grads = backward(model.encoder, enc_caches, d_latent)
            scale = clip_scale([g for grads in (dec_grads, enc_grads)
                                for pair in grads if pair is not None
                                for g in pair] + [d_rots], TRAIN_CLIP_NORM)
            if scale != 1.0:
                dec_grads, enc_grads = (
                    [None if p is None else (p[0] * scale, p[1] * scale)
                     for p in grads] for grads in (dec_grads, enc_grads))
                d_rots *= scale
            dec_state = adam_step(model.decoder, dec_grads, lr,
                                  state=dec_state)
            enc_state = adam_step(model.encoder, enc_grads, lr,
                                  state=enc_state)
            rot[idx] -= lr * d_rots
        curve[epoch] = total / n_samples
    return curve


def mean_reconstruction_loss(model: CodecModel, dataset) -> float:
    """Mean loss over a dataset without updates (zero alignment).

    One encode/decode round trip, then the loss ENCODE_CHUNK_BLOCKS samples
    at a time, so the (S, n, n) EMD distances never exist all at once.
    """
    data = np.asarray(dataset, dtype=np.float64)
    rebuilt = decode(model, encode(model, data))
    cuts = range(ENCODE_CHUNK_BLOCKS, len(data), ENCODE_CHUNK_BLOCKS)
    losses = np.concatenate([
        total_loss(r, d, np.zeros((len(d), 3)), LOSS)[0]
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
    ties in ascending flat-index order. The prune mask records the zeros.

    The largest |w| zeroed is the magnitude threshold w_th of Deep
    Compression (Han et al., ICLR 2016); an exact count needs no w_th.
    """
    flat = layer.weights.ravel()
    order = np.argsort(np.abs(flat), kind="stable")
    kill = order[:count]
    flat[kill] = 0.0
    mask = np.ones_like(flat) if layer.prune_mask is None \
        else layer.prune_mask.ravel().copy()
    mask[kill] = 0.0
    layer.prune_mask = mask.reshape(layer.weights.shape)
    layer.weights *= layer.prune_mask


def prune_model(model: CodecModel, zeta: float) -> None:
    """Prune every dense layer to exactly ceil(zeta*C) zeros."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must lie in [0, 1)")
    for layer in model.dense_layers():
        prune_layer(layer, ceil_count(zeta, layer.weights.size))


# ---------------------------------------------------------------------------
# quantization (affine, per tensor)

def quantize_weights(tensor, m: int):
    """Affine m-bit quantization of a tensor.

    Codes are round(q*(w - min)) with q = (2^m - 1)/(max - min); a constant
    tensor degenerates to a zero-length payload holding only min.
    Returns (codes, meta); `dequantize` inverts within half a step.
    """
    if m not in (8, 16):
        raise ValueError("bit-width must be 8 or 16")
    flat = np.asarray(tensor, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("empty tensor")
    mn, mx = float(flat.min()), float(flat.max())
    dtype = np.uint8 if m == 8 else np.uint16
    if mx == mn:
        meta = {"min": mn, "max": mx, "bits": m, "size": flat.size}
        return np.empty(0, dtype=dtype), meta
    q = (2 ** m - 1) / (mx - mn)
    codes = np.round(q * (flat - mn)).astype(np.int64)
    codes = np.clip(codes, 0, 2 ** m - 1).astype(dtype)
    meta = {"min": mn, "max": mx, "bits": m, "size": flat.size}
    return codes, meta


def dequantize(codes, meta) -> np.ndarray:
    mn, mx, m = meta["min"], meta["max"], meta["bits"]
    if mx == mn:
        return np.full(meta["size"], mn)
    q = (2 ** m - 1) / (mx - mn)
    return np.asarray(codes, dtype=np.float64) / q + mn


def quantize_model(model: CodecModel, m: int) -> None:
    """Quantize every dense layer in place to m bits, weights and bias as
    one affine tensor (`quantize_weights`), and keep the codes in
    `model.quant_meta`."""
    metas = []
    for layer in model.dense_layers():
        params = np.concatenate([layer.weights.ravel(), layer.bias])
        codes, meta = quantize_weights(params, m)
        meta["codes"] = codes
        metas.append(meta)
        restored = dequantize(codes, meta)
        n_w = layer.weights.size
        layer.weights = restored[:n_w].reshape(layer.weights.shape)
        layer.bias = restored[n_w:]
        if layer.prune_mask is not None:  # pruned zeros stay exact
            layer.weights *= layer.prune_mask
    model.quant_meta = metas
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
    warning; the prune masks hold what was pruned.
    """
    if model.dtype != "f32":
        raise ValueError("lightweight_train expects an f32 model")
    if m not in (8, 16, 32):
        raise ValueError("bit-width must be 8, 16, or 32")
    data = np.asarray(dataset, dtype=np.float64)
    out = model.copy()

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

def _write_layer(parts, layer: Layer, dtype: str, meta=None):
    if layer.weights is None:
        parts.append(struct.pack("<BIIB", _KIND_CODES[layer.kind], 0, 0, 0))
        return
    rows, cols = layer.weights.shape
    parts.append(struct.pack("<BIIB", _KIND_CODES[layer.kind], rows, cols,
                             _DTYPE_CODES[dtype]))
    if dtype == "f32":
        parts.append(np.asarray(layer.weights, "<f4").tobytes())
        parts.append(np.asarray(layer.bias, "<f4").tobytes())
    else:
        m = meta["bits"]
        parts.append(struct.pack("<ffB", meta["min"], meta["max"], m))
        codes = np.asarray(meta["codes"],
                           dtype=np.uint8 if m == 8 else "<u2")
        parts.append(codes.tobytes())


def write_layer_stream(path, entries) -> None:
    """entries: list of (Layer, dtype, quant_meta or None); each record's
    kind is its layer's `kind`."""
    parts = [MAGIC, struct.pack("<HH", FORMAT_VERSION, len(entries))]
    for layer, dtype, meta in entries:
        _write_layer(parts, layer, dtype, meta)
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_layer_stream(path):
    """Inverse of write_layer_stream; returns (Layer, dtype, meta) entries.

    Format v1, little-endian: magic b"ISCM", u16 version, u16 record
    count, then per record a u8 kind code (1 dense, 2 relu,
    4 maxpool_points; any other code is rejected), u32 rows, u32 cols and
    a u8 dtype code. relu and maxpool_points records have 0 rows and no
    payload. A dense record has rows, cols >= 1 and is followed by its
    payload: f32 holds the rows*cols weights (row-major) and then the rows
    biases as f32; q8 and q16 hold f32 min, f32 max and u8 bits (8 or 16,
    matching the dtype; any other value is rejected), then one u8 or u16
    code per weight and bias in the same order, no codes when min == max.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise CodecFormatError(f"truncated payload at byte {len(data)}")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4) != MAGIC:
        raise CodecFormatError("bad magic: not a model file")
    version, count = struct.unpack("<HH", take(4))
    if version != FORMAT_VERSION:
        raise CodecFormatError(f"unsupported format version {version}")
    entries = []
    for _ in range(count):
        kind_code, rows, cols, dtype_code = struct.unpack("<BIIB", take(10))
        if kind_code not in _KIND_NAMES:
            raise CodecFormatError(f"unknown layer kind {kind_code}")
        kind = _KIND_NAMES[kind_code]
        # activations carry no weights; dense needs at least one row
        weightless = kind != "dense"
        if weightless != (rows == 0):
            raise CodecFormatError(f"{kind} layer record with {rows} weight "
                                   "rows")
        if weightless:
            entries.append((Layer(kind), "f32", None))
            continue
        if cols == 0:
            raise CodecFormatError("dense layer record with 0 weight "
                                   "columns")
        n_params = rows * cols + rows
        dtype = _DTYPE_NAMES.get(dtype_code)
        if dtype is None:
            raise CodecFormatError(f"unknown dtype code {dtype_code}")
        if dtype == "f32":
            w = np.frombuffer(take(4 * rows * cols), "<f4").astype(np.float64)
            b = np.frombuffer(take(4 * rows), "<f4").astype(np.float64)
            layer = Layer(kind, w.reshape(rows, cols), b)
            if (layer.weights == 0.0).any():
                layer.prune_mask = (layer.weights != 0.0).astype(np.float64)
            meta = None
        else:
            mn, mx, m = struct.unpack("<ffB", take(9))
            if m != DTYPE_BITS[dtype]:
                raise CodecFormatError(f"{dtype} layer record with bits "
                                       f"field {m}, expected "
                                       f"{DTYPE_BITS[dtype]}")
            meta = {"min": float(mn), "max": float(mx), "bits": m,
                    "size": n_params}
            if mn == mx:
                codes = np.empty(0, np.uint8 if m == 8 else np.uint16)
            else:
                codes = np.frombuffer(
                    take(n_params * (1 if m == 8 else 2)),
                    np.uint8 if m == 8 else "<u2")
            meta["codes"] = codes
            params = dequantize(codes, meta)
            layer = Layer(kind, params[:rows * cols].reshape(rows, cols),
                          params[rows * cols:])
            # entries mapping to the code nearest zero are pruned zeros
            if mn < 0.0 < mx:
                q = (2 ** m - 1) / (mx - mn)
                zero_code = int(round(-mn * q))
                reshaped = codes[:rows * cols].reshape(rows, cols)
                layer.prune_mask = (reshaped != zero_code).astype(np.float64)
                layer.weights *= layer.prune_mask
        entries.append((layer, dtype, meta))
    if off != len(data):
        raise CodecFormatError(f"{len(data) - off} trailing bytes")
    return entries


def serialize(model: CodecModel, path) -> None:
    """Write a codec model in the layout documented in read_layer_stream.

    Quantized metadata is stored at f32 precision, so weights reloaded from
    disk can differ from the in-memory model by one metadata ulp.
    """
    entries = []
    metas = iter(model.quant_meta or [])
    for layer in model.encoder.layers + model.decoder.layers:
        if layer.weights is None or model.dtype == "f32":
            entries.append((layer, "f32", None))
        else:
            entries.append((layer, model.dtype, next(metas)))
    write_layer_stream(path, entries)


def deserialize(path) -> CodecModel:
    entries = read_layer_stream(path)
    split = next((i for i, (layer, *_) in enumerate(entries)
                  if layer.kind == "maxpool_points"), None)
    if split is None:
        raise CodecFormatError("model has no maxpool layer")
    enc = Network([e[0] for e in entries[:split + 1]])
    dec = Network([e[0] for e in entries[split + 1:]])
    enc_dense = [l for l in enc.layers if l.weights is not None]
    dec_dense = [l for l in dec.layers if l.weights is not None]
    if not enc_dense or not dec_dense:
        raise CodecFormatError("model is missing dense layers")
    width = 3  # xyz in, through the latent, to n_points * 3 out
    for layer in enc_dense + dec_dense:
        rows, cols = layer.weights.shape
        if cols != width:
            raise CodecFormatError(f"dense layer of shape {(rows, cols)} "
                                   f"does not take the {width} features "
                                   "before it")
        width = rows
    if width % 3:
        raise CodecFormatError(f"decoder output width {width} is not a "
                               "multiple of 3")
    latent_dim = enc_dense[-1].weights.shape[0]
    n_points = dec_dense[-1].weights.shape[0] // 3
    dtypes = {d for l, d, _ in entries if l.weights is not None}
    if len(dtypes) != 1:
        raise CodecFormatError(f"mixed layer dtypes {sorted(dtypes)}")
    dtype = dtypes.pop()
    metas = [m for _, _, m in entries if m is not None] or None
    return CodecModel(enc, dec, n_points, latent_dim, dtype, metas)


# ---------------------------------------------------------------------------
# octree baseline

def octree_encode(cloud: PointCloud, depth: int) -> bytes:
    """Breadth-first occupancy-byte octree of the cloud's bounding cube.

    Stream layout: min corner (3 x f32), cube edge (f32), depth (u8), then
    one occupancy byte per internal node in breadth-first order. Bit k of a
    byte marks child octant k = x | y<<1 | z<<2.
    """
    if not 1 <= depth <= 16:
        raise ValueError("depth must lie in [1, 16]")
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
    keys = np.unique(morton_key(cells, depth))
    levels = []  # occupancy bytes per level, leaves' parents first
    for _ in range(depth):
        # parents of sorted unique keys come sorted: each run is one parent
        up = keys >> np.uint64(3)
        first = np.empty(len(up), dtype=bool)
        first[0] = True
        np.not_equal(up[1:], up[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        bits = np.uint8(1) << (keys & np.uint64(7)).astype(np.uint8)
        levels.append(np.bitwise_or.reduceat(bits, starts))
        keys = up[starts]
    out = b"".join(level.tobytes() for level in reversed(levels))
    mn32 = mn.astype(np.float32)
    header = struct.pack("<3ffB", mn32[0], mn32[1], mn32[2],
                         np.float32(edge), depth)
    return header + out


def octree_decode(data: bytes) -> PointCloud:
    """Occupied-leaf centers of an octree stream."""
    if len(data) < 17:
        raise CodecFormatError("octree stream too short")
    x, y, z, edge, depth = struct.unpack("<3ffB", data[:17])
    if not 1 <= depth <= 16:
        raise CodecFormatError(f"invalid octree depth {depth}")
    mn = np.array([x, y, z], dtype=np.float64)
    off = 17
    nodes = np.zeros(1, dtype=np.uint64)
    octants = np.arange(8, dtype=np.uint64)
    for _ in range(depth):
        if off + len(nodes) > len(data):
            raise CodecFormatError(f"truncated octree stream at byte {off}")
        occupancy = np.frombuffer(data, np.uint8, len(nodes), off)
        off += len(nodes)
        # row i, column k: node i has child octant k (bit k of its byte);
        # row-major selection keeps the breadth-first child order
        mask = np.unpackbits(occupancy[:, None], axis=1,
                             bitorder="little").astype(bool)
        nodes = ((nodes[:, None] << np.uint64(3)) | octants)[mask]
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
