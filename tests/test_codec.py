import hashlib
import math
import os
import struct

import numpy as np
import pytest

from pcvstream._util import ceil_count
from pcvstream.cloud import PointCloud, chamfer_distance, hausdorff_distance
from pcvstream import codec
from pcvstream.codec import (
    BLOCK_ORDER_BITS, ENCODE_CHUNK_BLOCKS, CodecFormatError, CodecModel,
    PruneConfig, chunk_blocks, decode, denormalize_block, dequantize,
    deserialize, encode, lightweight_train, make_codec_model, mean_chamfer,
    mean_reconstruction_loss, morton_cells, morton_key, normalize_block,
    octree_decode, octree_encode, prune_layer, prune_model, quantize_model, quantize_weights, serialize, toy_block_dataset, train,
    write_layer_stream,
)
from pcvstream.nn import (
    Layer, LossSpec, chamfer_loss, emd_loss, rotate_points, rotation_matrix,
    rotation_matrix_jacobian, total_loss,
)


def tiny_model(latent=8, n_points=16, seed=0):
    return make_codec_model(latent, n_points, seed, enc_hidden=(8,),
                            dec_hidden=(16,))


# ---------------------------------------------------------------------------
# encode / decode

def test_zero_weight_encoder_gives_zero_latent():
    model = tiny_model()
    for layer in model.encoder.layers:
        if layer.weights is not None:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
    latent = encode(model, np.random.default_rng(0).normal(size=(1, 16, 3)))
    np.testing.assert_array_equal(latent, np.zeros((1, 8)))


@pytest.mark.parametrize("label,dim", [("4x4", 16), ("8x8", 64), ("16x16", 256)])
def test_latent_sizes_match_model_family(label, dim):
    from pcvstream.codec import LATENT_SIZES
    assert LATENT_SIZES[label] == dim
    model = make_codec_model(dim, 32, seed=1, enc_hidden=(8,), dec_hidden=(16,))
    latent = encode(model, np.zeros((1, 32, 3)))
    assert latent.shape == (1, dim)


def test_latent_permutation_invariant():
    model = tiny_model(seed=2)
    rng = np.random.default_rng(3)
    block = rng.normal(size=(1, 16, 3))
    a = encode(model, block)
    b = encode(model, block[:, rng.permutation(16)])
    np.testing.assert_allclose(a, b)


def test_decode_zero_latent_zero_bias():
    model = tiny_model(seed=4)
    for layer in model.decoder.layers:
        if layer.weights is not None:
            layer.bias[:] = 0.0
    out = decode(model, np.zeros((1, 8)))
    np.testing.assert_array_equal(out, np.zeros((1, 16, 3)))


def test_encode_validates_shape():
    model = tiny_model()
    with pytest.raises(ValueError):
        encode(model, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        decode(model, np.zeros(9))
    with pytest.raises(ValueError):
        encode(model, np.empty((0, 3)))


def stream_model(seed=30):
    """Codec of the stream registry's shape: 128-point blocks."""
    return make_codec_model(64, seed=seed)


def block_stack(count, n_points=128, seed=31):
    rng = np.random.default_rng(seed)
    return normalize_block(rng.normal(loc=rng.normal(size=(count, 1, 3)),
                                      size=(count, n_points, 3)))[0]


@pytest.mark.parametrize("count", [1, ENCODE_CHUNK_BLOCKS - 1,
                                   ENCODE_CHUNK_BLOCKS,
                                   ENCODE_CHUNK_BLOCKS + 1, 157])
def test_stacked_encode_equals_per_block_encode(count):
    model = stream_model()
    blocks = block_stack(count)
    got = encode(model, blocks)
    assert got.shape == (count, 64)
    # a stack of B equals B one-block stacks: BLAS picks the same kernel
    # for B * 128 rows as for 128
    np.testing.assert_array_equal(
        got, [encode(model, b[None])[0] for b in blocks])


def test_stacked_decode_matches_per_block_decode():
    model = stream_model()
    latents = encode(model, block_stack(157))
    got = decode(model, latents)
    assert got.shape == (157, 128, 3)
    want = np.stack([decode(model, z[None])[0] for z in latents])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_stacked_normalize_round_trip_equals_per_block():
    rng = np.random.default_rng(32)
    blocks = rng.normal(loc=5.0, scale=3.0, size=(9, 20, 3))
    blocks[4] = [2.0, -1.0, 0.5]  # degenerate: every point the same
    norm, centroid, scale = normalize_block(blocks)
    assert scale[4] == 1.0
    for b, block in enumerate(blocks):
        want = normalize_block(block[None])
        np.testing.assert_array_equal(norm[b], want[0][0])
        np.testing.assert_array_equal(centroid[b], want[1][0])
        assert scale[b] == want[2][0]
    restored = denormalize_block(norm, centroid, scale)
    for b in range(len(blocks)):
        one = slice(b, b + 1)
        np.testing.assert_array_equal(
            restored[b],
            denormalize_block(norm[one], centroid[one], scale[one])[0])


def test_stacked_codec_rejects_bad_shapes():
    model = tiny_model()
    for bad in (np.zeros((0, 16, 3)), np.zeros((2, 17, 3)),
                np.zeros((2, 16, 2))):
        with pytest.raises(ValueError):
            encode(model, bad)
    for bad in (np.zeros((0, 8)), np.zeros((2, 9))):
        with pytest.raises(ValueError):
            decode(model, bad)


def stack_calls():
    """Every public stack function with valid one-sample stack arguments."""
    model = tiny_model()  # 16-point blocks, 8-value latents
    blocks, theta = np.zeros((1, 16, 3)), np.zeros((1, 3))
    return {
        "normalize_block": (normalize_block, [blocks]),
        "denormalize_block": (denormalize_block, [blocks, theta, np.ones(1)]),
        "encode": (lambda b: encode(model, b), [blocks]),
        "decode": (lambda z: decode(model, z), [np.zeros((1, 8))]),
        "chamfer_loss": (chamfer_loss, [blocks, blocks]),
        "emd_loss": (emd_loss, [blocks, blocks]),
        "total_loss": (lambda p, t, r: total_loss(p, t, r, LossSpec()),
                       [blocks, blocks, theta]),
        "rotation_matrix": (rotation_matrix, [theta]),
        "rotation_matrix_jacobian": (rotation_matrix_jacobian,
                                     [theta, np.eye(3)[None]]),
        "rotate_points": (rotate_points, [theta, blocks]),
    }


SINGLE_FORMS = {"block": np.ones((16, 3)), "latent": np.ones(8),
                "angle": np.ones(3)}


@pytest.mark.parametrize("single", sorted(SINGLE_FORMS))
@pytest.mark.parametrize("name", sorted(stack_calls()))
def test_stack_functions_reject_single_forms(name, single):
    fn, args = stack_calls()[name]
    fn(*args)  # the stacks themselves are accepted
    for i in range(len(args)):
        bad = args[:i] + [SINGLE_FORMS[single]] + args[i + 1:]
        if name == "rotation_matrix" and single == "block":
            # sixteen angles are a valid (B, 3) stack
            assert fn(*bad).shape == (16, 3, 3)
            continue
        with pytest.raises(ValueError, match="stack"):
            fn(*bad)


def test_dataset_means_match_per_sample_round_trips():
    model = tiny_model(seed=33)
    data = toy_block_dataset(11, 16, seed=3)
    rebuilt = [decode(model, encode(model, b[None]))[0] for b in data]
    zero = np.zeros((1, 3))
    want_loss = sum(total_loss(r[None], b[None], zero, LossSpec())[0][0]
                    for r, b in zip(rebuilt, data)) / len(data)
    want_cd = np.mean([chamfer_distance(r, b) for r, b in zip(rebuilt, data)])
    assert mean_reconstruction_loss(model, data) == \
        pytest.approx(want_loss, rel=1e-12)
    assert mean_chamfer(model, data) == pytest.approx(want_cd, rel=1e-12)


def test_dataset_loss_in_slices_equals_one_loss_call(monkeypatch):
    model = tiny_model(seed=34)
    data = toy_block_dataset(2 * ENCODE_CHUNK_BLOCKS + 3, 16, seed=4)
    rebuilt = decode(model, encode(model, data))
    losses = total_loss(rebuilt, data, np.zeros((len(data), 3)), LossSpec())[0]
    want = sum(losses.tolist()) / len(data)

    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append((name, len(args[1])))
            return fn(*args)
        return wrapper

    for name in ("encode", "decode", "total_loss"):
        monkeypatch.setattr(codec, name, recording(name, getattr(codec, name)))
    assert mean_reconstruction_loss(model, data) == want
    slices = [ENCODE_CHUNK_BLOCKS, ENCODE_CHUNK_BLOCKS, 3]
    assert calls == [("encode", len(data)), ("decode", len(data))] + [
        ("total_loss", n) for n in slices]


# ---------------------------------------------------------------------------
# block plumbing

def test_normalize_block_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.normal(loc=4.0, scale=2.0, size=(1, 30, 3))
    norm, centroid, scale = normalize_block(pts)
    assert np.linalg.norm(norm, axis=-1).max() == pytest.approx(1.0)
    np.testing.assert_allclose(denormalize_block(norm, centroid, scale), pts)


def test_chunk_blocks_pads_tail_by_repetition():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(100, 3))
    blocks, valid = chunk_blocks(pts, 32)
    assert blocks.shape == (4, 32, 3)
    assert valid.tolist() == [32, 32, 32, 4]
    tail = blocks[3]
    uniq = np.unique(tail, axis=0)
    assert len(uniq) == 4  # only the four real points, repeated


@pytest.mark.parametrize("n_points", [0, -1])
@pytest.mark.parametrize("count", [0, 5])
def test_chunk_blocks_rejects_nonpositive_block_sizes(count, n_points):
    with pytest.raises(ValueError, match="n_points must be positive"):
        chunk_blocks(np.ones((count, 3)), n_points)


def test_morton_key_interleaves_axis_bits():
    cells = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, 0, 0],
                      [3, 2, 1]])
    # bit b of axis a lands at key bit 3*b + a
    assert morton_key(cells, 2).tolist() == [1, 2, 4, 7, 8, 1 + 8 + 4 + 16]
    assert morton_key(cells, 1).tolist() == [1, 2, 4, 7, 0, 1 + 4]


@pytest.mark.parametrize("bits", [1, 10, 16, 21])
def test_morton_cells_inverts_morton_key(bits):
    top = (1 << bits) - 1
    rng = np.random.default_rng(bits)
    cells = np.concatenate([
        rng.integers(0, top, size=(500, 3), endpoint=True),
        [[0, 0, 0], [top, top, top], [top, 0, 0], [0, top, 0], [0, 0, top]],
    ]).astype(np.uint64)
    back = morton_cells(morton_key(cells, bits), bits)
    assert back.dtype == np.uint64
    np.testing.assert_array_equal(back, cells)


def per_block_chunk_blocks(points, n_points):
    """Reference: Morton-sort the points, then cut and pad one run at a
    time."""
    pts = np.asarray(points, dtype=np.float64)
    res = 1 << BLOCK_ORDER_BITS
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    cells = np.clip(((pts - lo) / span * res).astype(np.uint64), 0, res - 1)
    pts = pts[np.argsort(morton_key(cells, BLOCK_ORDER_BITS), kind="stable")]
    blocks, valid = [], []
    for start in range(0, len(pts), n_points):
        run = pts[start:start + n_points]
        valid.append(len(run))
        reps = math.ceil(n_points / len(run))
        blocks.append(np.tile(run, (reps, 1))[:n_points])
    return np.array(blocks), np.array(valid)


def test_chunk_blocks_matches_per_block_loop():
    rng = np.random.default_rng(34)
    for count in (1, 31, 32, 33, 96, 100):
        pts = rng.normal(size=(count, 3))
        blocks, valid = chunk_blocks(pts, 32)
        want_blocks, want_valid = per_block_chunk_blocks(pts, 32)
        np.testing.assert_array_equal(blocks, want_blocks)
        np.testing.assert_array_equal(valid, want_valid)
        assert valid.dtype == want_valid.dtype


def test_chunk_blocks_covers_all_points():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(96, 3))
    blocks, valid = chunk_blocks(pts, 32)
    got = np.concatenate([blocks[i][:valid[i]] for i in range(len(blocks))])
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, pts.tolist()))


# ---------------------------------------------------------------------------
# training basics

def test_train_zero_epochs_keeps_model():
    model = tiny_model(seed=8)
    before = [l.weights.copy() for l in model.dense_layers()]
    curve = train(model, toy_block_dataset(4, 16, seed=1), epochs=0)
    assert curve.size == 0
    for b, l in zip(before, model.dense_layers()):
        np.testing.assert_array_equal(b, l.weights)


def test_train_deterministic_curves():
    data = toy_block_dataset(6, 16, seed=2)
    m1, m2 = tiny_model(seed=9), tiny_model(seed=9)
    c1 = train(m1, data, epochs=3, lr=0.01, seed=5)
    c2 = train(m2, data, epochs=3, lr=0.01, seed=5)
    np.testing.assert_array_equal(c1, c2)
    for a, b in zip(m1.dense_layers(), m2.dense_layers()):
        np.testing.assert_array_equal(a.weights, b.weights)


# Recorded from the per-sample training loop that the batched step replaced
# (numpy's bundled OpenBLAS on x86-64). The benchmark reference checks the
# curve only to 1e-7, so a summation reorder would pass there but not here.
PINNED_TRAIN_CURVE = ("0x1.26f7dfbcff754p+6", "0x1.55e6b4b30725cp+5")
PINNED_TRAIN_SHA256 = \
    "9d8e5e7f0a14bef84d409cdda10ce2c22c60ff9f9b183c9ab605df46e8b8e5a1"


def test_train_is_pinned_bit_for_bit():
    # 12 samples: a full and a partial batch per epoch
    model = make_codec_model(16, seed=1)
    curve = train(model, toy_block_dataset(12, seed=1), epochs=2, seed=1)
    assert tuple(float(c).hex() for c in curve) == PINNED_TRAIN_CURVE
    digest = hashlib.sha256()
    for layer in model.dense_layers():
        digest.update(layer.weights.tobytes())
        digest.update(layer.bias.tobytes())
    assert digest.hexdigest() == PINNED_TRAIN_SHA256


# ---------------------------------------------------------------------------
# pruning

def test_prune_layer_hand_case():
    layer = Layer("dense", np.array([[0.1, -0.5], [0.3, 0.9]]))
    prune_layer(layer, 2)
    np.testing.assert_array_equal(layer.weights, [[0.0, -0.5], [0.0, 0.9]])
    np.testing.assert_array_equal(layer.prune_mask, [[0.0, 1.0], [0.0, 1.0]])


def test_prune_layer_zero_count_noop():
    layer = Layer("dense", np.array([[0.1, -0.5]]))
    prune_layer(layer, 0)
    np.testing.assert_array_equal(layer.weights, [[0.1, -0.5]])
    np.testing.assert_array_equal(layer.prune_mask, [[1.0, 1.0]])


def test_prune_layer_idempotent():
    rng = np.random.default_rng(11)
    layer = Layer("dense", rng.normal(size=(8, 8)))
    prune_layer(layer, 32)
    after_first = layer.weights.copy()
    prune_layer(layer, 32)
    np.testing.assert_array_equal(layer.weights, after_first)
    assert (layer.weights == 0.0).sum() == 32


def test_prune_layer_tie_break_by_flat_index():
    layer = Layer("dense", np.array([[0.3, -0.3, 0.3, 0.5]]))
    prune_layer(layer, 2)
    np.testing.assert_array_equal(layer.weights, [[0.0, 0.0, 0.3, 0.5]])


@pytest.mark.parametrize("zeta", [-0.1, 1.0, 1.5, math.nan])
def test_prune_model_rejects_zeta_outside_unit_interval(zeta):
    model = tiny_model(seed=12)
    before = [l.weights.copy() for l in model.dense_layers()]
    with pytest.raises(ValueError, match=r"zeta must lie in \[0, 1\)"):
        prune_model(model, zeta)
    for b, layer in zip(before, model.dense_layers()):
        np.testing.assert_array_equal(layer.weights, b)
        assert layer.prune_mask is None


def test_prune_model_exact_counts_vs_sorting_oracle():
    for zeta in (0.25, 0.5, 0.75):
        model = tiny_model(seed=12)
        prune_model(model, zeta)
        for layer in model.dense_layers():
            c = layer.weights.size
            k = math.ceil(zeta * c - 1e-9)
            zeros = np.flatnonzero(layer.weights.ravel() == 0.0)
            assert len(zeros) == k
            # zeroed set is precisely the k smallest |w| (stable order)
            fresh = tiny_model(seed=12)
        for fresh_l, layer in zip(fresh.dense_layers(), model.dense_layers()):
            c = fresh_l.weights.size
            k = math.ceil(zeta * c - 1e-9)
            order = np.argsort(np.abs(fresh_l.weights.ravel()), kind="stable")
            expect = set(order[:k].tolist())
            zeros = set(np.flatnonzero(layer.weights.ravel() == 0.0).tolist())
            assert zeros == expect


# ---------------------------------------------------------------------------
# quantization

def test_quantize_constant_tensor_degenerate():
    codes, meta = quantize_weights(np.full(10, 3.25), 8)
    assert codes.size == 0
    np.testing.assert_array_equal(dequantize(codes, meta), np.full(10, 3.25))


def test_quantize_binary_tensor_exact():
    w = np.array([0.0, 1.0, 1.0, 0.0])
    codes, meta = quantize_weights(w, 8)
    np.testing.assert_array_equal(codes, [0, 255, 255, 0])
    np.testing.assert_allclose(dequantize(codes, meta), w, atol=1e-12)


@pytest.mark.parametrize("m", [8, 16])
def test_quantize_half_step_error_bound(m):
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = rng.normal(scale=rng.uniform(0.1, 5.0), size=200)
        codes, meta = quantize_weights(w, m)
        err = np.abs(dequantize(codes, meta) - w).max()
        bound = (w.max() - w.min()) / (2 * (2 ** m - 1)) + 1e-9
        assert err <= bound


# ---------------------------------------------------------------------------
# serialization

def test_serialize_round_trip_bytes(tmp_path):
    model = tiny_model(seed=17)
    p1, p2 = tmp_path / "a.iscm", tmp_path / "b.iscm"
    serialize(model, p1)
    back = deserialize(p1)
    serialize(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.latent_dim == model.latent_dim
    assert back.n_points == model.n_points


def test_serialized_f32_size_formula(tmp_path):
    model = make_codec_model(256, 32, seed=18, enc_hidden=(8,),
                             dec_hidden=(16,))
    path = tmp_path / "m.iscm"
    serialize(model, path)
    layers = model.encoder.layers + model.decoder.layers
    header = 8  # magic + version + count
    expect = header
    for l in layers:
        expect += 10  # kind, rows, cols, dtype
        if l.weights is not None:
            rows, cols = l.weights.shape
            expect += 4 * (rows * cols + rows)
    assert os.path.getsize(path) == expect


def test_serialize_quantized_round_trip(tmp_path):
    data = toy_block_dataset(6, 16, seed=3)
    model = tiny_model(seed=19)
    train(model, data, epochs=2, lr=0.01, seed=0)
    q = lightweight_train(model, data, PruneConfig(zeta=0.25, rounds=1,
                                                   finetune_epochs=1), m=8,
                          lr=0.005, seed=0)
    p1, p2 = tmp_path / "q.iscm", tmp_path / "q2.iscm"
    serialize(q, p1)
    back = deserialize(p1)
    serialize(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.dtype == "q8"
    # loaded weights within one metadata ulp of the in-memory model
    for a, b in zip(q.dense_layers(), back.dense_layers()):
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-5)


def test_q8_payload_quarter_of_f32(tmp_path):
    data = toy_block_dataset(4, 16, seed=4)
    model = tiny_model(seed=20)
    train(model, data, epochs=1, lr=0.01, seed=0)
    f32_path = tmp_path / "f.iscm"
    serialize(model, f32_path)
    q = lightweight_train(model, data,
                          PruneConfig(zeta=0.0, rounds=1, finetune_epochs=0),
                          m=8, seed=0)
    q_path = tmp_path / "q.iscm"
    serialize(q, q_path)
    params = sum(l.weights.size + l.bias.size for l in model.dense_layers())
    f32_payload = 4 * params
    q_payload = params
    assert os.path.getsize(q_path) - os.path.getsize(f32_path) == \
        q_payload + 9 * len(model.dense_layers()) - f32_payload
    assert q_payload <= 0.27 * f32_payload


def test_deserialize_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.iscm"
    bad.write_bytes(b"NOPE" + b"\x00" * 10)
    with pytest.raises(CodecFormatError, match="magic"):
        deserialize(bad)
    model = tiny_model()
    good = tmp_path / "good.iscm"
    serialize(model, good)
    raw = good.read_bytes()
    truncated = tmp_path / "trunc.iscm"
    truncated.write_bytes(raw[:-7])
    with pytest.raises(CodecFormatError, match="truncated"):
        deserialize(truncated)
    wrong_version = tmp_path / "ver.iscm"
    wrong_version.write_bytes(raw[:4] + b"\x63\x00" + raw[6:])
    with pytest.raises(CodecFormatError, match="version"):
        deserialize(wrong_version)


@pytest.mark.parametrize("code", [3, 5, 6, 0, 255])
def test_deserialize_rejects_an_unknown_kind_code(tmp_path, code):
    # the codes outside 1 dense, 2 relu and 4 maxpool_points, among them
    # 3, 5 and 6, which no model file uses
    good = tmp_path / "good.iscm"
    serialize(tiny_model(seed=21), good)
    raw = good.read_bytes()
    assert raw[8] == 1  # the first record: the encoder's first dense layer
    patched = tmp_path / "patched.iscm"
    patched.write_bytes(raw[:8] + bytes([code]) + raw[9:])
    with pytest.raises(CodecFormatError, match=f"unknown layer kind {code}$"):
        deserialize(patched)


@pytest.mark.parametrize("m, bits", [(8, 0), (8, 7), (8, 16), (16, 8)])
def test_deserialize_rejects_a_bits_field_that_does_not_match_the_dtype(
        tmp_path, m, bits):
    model = tiny_model(seed=21)
    quantize_model(model, m)
    good = tmp_path / "good.iscm"
    serialize(model, good)
    raw = good.read_bytes()
    # header 8 bytes, record head 10, then f32 min, f32 max, u8 bits
    assert raw[8] == 1 and raw[26] == m
    patched = tmp_path / "patched.iscm"
    patched.write_bytes(raw[:26] + bytes([bits]) + raw[27:])
    with pytest.raises(CodecFormatError,
                       match=f"q{m} layer record with bits field {bits}, "
                       f"expected {m}"):
        deserialize(patched)


def test_deserialize_rejects_mixed_layer_dtypes(tmp_path):
    model = tiny_model(seed=21)
    layers = model.encoder.layers + model.decoder.layers
    entries = [(l, "f32", None) for l in layers]
    last = layers[-1]
    codes, meta = quantize_weights(
        np.concatenate([last.weights.ravel(), last.bias]), 8)
    meta["codes"] = codes
    entries[-1] = (last, "q8", meta)  # one q8 layer among f32
    path = tmp_path / "mixed.iscm"
    write_layer_stream(path, entries)
    with pytest.raises(CodecFormatError, match="mixed layer dtypes"):
        deserialize(path)


def test_deserialize_rejects_a_dense_record_without_weights(tmp_path):
    model = tiny_model(seed=21)
    layers = model.encoder.layers + model.decoder.layers
    entries = [(l, "f32", None) for l in layers]
    assert entries[2][0].kind == "dense"
    entries[2] = (Layer("dense"), "f32", None)  # written as 0 rows
    path = tmp_path / "weightless.iscm"
    write_layer_stream(path, entries)
    with pytest.raises(CodecFormatError, match="dense layer record with 0"):
        deserialize(path)


def test_deserialize_rejects_a_weighted_record_without_columns(tmp_path):
    model = tiny_model(seed=21)
    layers = model.encoder.layers + model.decoder.layers
    entries = [(l, "f32", None) for l in layers]
    assert entries[2][0].kind == "dense"  # the second encoder dense layer
    entries[2] = (Layer("dense", np.zeros((8, 0))), "f32", None)
    path = tmp_path / "no-columns.iscm"
    write_layer_stream(path, entries)
    with pytest.raises(CodecFormatError, match="dense layer record with 0 "
                       "weight columns"):
        deserialize(path)


def test_deserialize_rejects_dense_shapes_that_do_not_chain(tmp_path):
    model = tiny_model(seed=21)  # 3 -> 8 -> latent 8 | 8 -> 16 -> 48
    layers = model.encoder.layers + model.decoder.layers
    entries = [(l, "f32", None) for l in layers]
    rng = np.random.default_rng(36)
    assert entries[4][0].kind == "dense"  # the decoder's first dense layer
    mis_chained = tmp_path / "mis-chained.iscm"
    write_layer_stream(mis_chained, entries[:4] + [
        (Layer("dense", rng.normal(size=(16, 9))), "f32", None)]
        + entries[5:])
    with pytest.raises(CodecFormatError, match=r"\(16, 9\) does not take "
                       "the 8 features"):
        deserialize(mis_chained)
    not_xyz = tmp_path / "not-xyz.iscm"
    write_layer_stream(not_xyz, entries[:-1] + [
        (Layer("dense", rng.normal(size=(47, 16))), "f32", None)])
    with pytest.raises(CodecFormatError, match="output width 47 is not a "
                       "multiple of 3"):
        deserialize(not_xyz)


@pytest.mark.parametrize("kind", ["relu", "maxpool_points"])
def test_deserialize_rejects_an_activation_record_with_weights(tmp_path,
                                                              kind):
    model = tiny_model(seed=21)
    layers = model.encoder.layers + model.decoder.layers
    entries = [(l, "f32", None) for l in layers]
    assert entries[1][0].kind == "relu"
    # dense weights under an activation's kind code
    entries[1] = (Layer(kind, layers[0].weights, layers[0].bias), "f32", None)
    path = tmp_path / "weighted.iscm"
    write_layer_stream(path, entries)
    with pytest.raises(CodecFormatError, match=f"{kind} layer record with 8"):
        deserialize(path)


# ---------------------------------------------------------------------------
# lightweight training (small-scale behavior; quality gates live in
# test_acceptance)

def test_lightweight_zeta_zero_m32_passthrough():
    data = toy_block_dataset(4, 16, seed=5)
    model = tiny_model(seed=21)
    train(model, data, epochs=1, lr=0.01, seed=0)
    before = [l.weights.copy() for l in model.dense_layers()]
    out = lightweight_train(model, data,
                            PruneConfig(zeta=0.0, rounds=1, finetune_epochs=0),
                            m=32, seed=0)
    assert out.dtype == "f32"
    for b, l in zip(before, out.dense_layers()):
        assert l.prune_mask.all()  # nothing pruned
        np.testing.assert_array_equal(b, l.weights)


def test_lightweight_sparsity_reached():
    data = toy_block_dataset(10, 16, seed=6)
    model = tiny_model(seed=22)
    train(model, data, epochs=3, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1)
    out = lightweight_train(model, data, cfg, m=8, lr=0.002, seed=0)
    assert out.dtype == "q8"
    for l in out.dense_layers():
        pruned = l.prune_mask == 0
        assert pruned.sum() == ceil_count(cfg.cumulative_target(2),
                                          l.weights.size)
        assert pruned.mean() >= 0.5
        assert not l.weights[pruned].any()


def test_lightweight_train_quantizes_with_quantize_model():
    """m = 8 ends with quantize_model on the pruned model that m = 32
    returns, and the pruned weights stay exactly zero."""
    data = toy_block_dataset(10, 16, seed=6)
    model = tiny_model(seed=22)
    train(model, data, epochs=3, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1)
    q8 = lightweight_train(model, data, cfg, m=8, lr=0.002, seed=0)
    want = lightweight_train(model, data, cfg, m=32, lr=0.002, seed=0)
    quantize_model(want, 8)
    assert q8.dtype == want.dtype == "q8"
    assert len(q8.quant_meta) == len(q8.dense_layers())
    for got, exp in zip(q8.dense_layers(), want.dense_layers()):
        np.testing.assert_array_equal(got.weights, exp.weights)
        np.testing.assert_array_equal(got.bias, exp.bias)
        assert not got.weights[got.prune_mask == 0].any()
    for got, exp in zip(q8.quant_meta, want.quant_meta):
        np.testing.assert_array_equal(got["codes"], exp["codes"])


def test_lightweight_stalls_when_threshold_unreachable(caplog):
    data = toy_block_dataset(6, 16, seed=7)
    model = tiny_model(seed=23)
    train(model, data, epochs=1, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1,
                      loss_threshold=1e-12)  # unattainable trigger
    out = lightweight_train(model, data, cfg, m=8, seed=0)
    assert all(l.prune_mask is None for l in out.dense_layers())
    assert "pruning stalled in round 1" in caplog.text
    assert "reached sparsity 0.000 of requested 0.500" in caplog.text


def test_prune_config_validation():
    with pytest.raises(ValueError):
        PruneConfig(zeta=1.0)
    cfg = PruneConfig(zeta=0.75, rounds=2)
    assert cfg.per_round_ratio == pytest.approx(0.5)
    assert cfg.cumulative_target(2) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# octree

def test_octree_single_point_depth_one():
    stream = octree_encode(PointCloud([[1.0, 2.0, 3.0]]), depth=1)
    assert len(stream) == 17 + 1
    occupancy = stream[17]
    assert bin(occupancy).count("1") == 1


def test_octree_empty_cloud():
    stream = octree_encode(PointCloud(np.empty((0, 3), np.float32)), depth=4)
    assert stream[17:] == b"\x00"
    assert len(octree_decode(stream)) == 0


def test_octree_round_trip_within_leaf_diagonal():
    rng = np.random.default_rng(24)
    cloud = PointCloud((rng.random((500, 3)) * 4).astype(np.float32))
    for depth in (3, 5):
        decoded = octree_decode(octree_encode(cloud, depth))
        edge = 4.0
        half_diag = (edge / 2 ** depth) * math.sqrt(3) / 2
        from pcvstream.cloud import nearest_distances
        d = nearest_distances(decoded.points.astype(np.float64),
                              cloud.points.astype(np.float64))
        assert d.max() <= half_diag * (1 + 1e-5)
        assert hausdorff_distance(decoded, cloud) <= \
            edge * math.sqrt(3) / 2 ** depth * (math.sqrt(3) / 2) * (1 + 1e-5) \
            + edge * math.sqrt(3) / 2 ** depth  # voxelization slack


def test_octree_deeper_never_increases_cd():
    rng = np.random.default_rng(25)
    cloud = PointCloud(rng.normal(size=(800, 3)).astype(np.float32))
    cds = []
    for depth in range(3, 9):
        decoded = octree_decode(octree_encode(cloud, depth))
        cds.append(chamfer_distance(decoded, cloud))
    assert all(b <= a + 1e-12 for a, b in zip(cds, cds[1:]))


def node_walk_octree_decode(data: bytes) -> PointCloud:
    """Reference decoder: expands the occupancy bytes one node at a time."""
    if len(data) < 17:
        raise CodecFormatError("octree stream too short")
    x, y, z, edge, depth = struct.unpack("<3ffB", data[:17])
    if not 1 <= depth <= 16:
        raise CodecFormatError(f"invalid octree depth {depth}")
    mn = np.array([x, y, z], dtype=np.float64)
    off = 17
    nodes = np.zeros(1, dtype=np.uint64)
    for _ in range(depth):
        if off + len(nodes) > len(data):
            raise CodecFormatError(f"truncated octree stream at byte {off}")
        occupancy = np.frombuffer(data[off:off + len(nodes)], np.uint8)
        off += len(nodes)
        children = []
        for node, occ in zip(nodes, occupancy):
            for k in range(8):
                if occ & (1 << k):
                    children.append((node << np.uint64(3)) | np.uint64(k))
        nodes = np.array(children, dtype=np.uint64)
        if len(nodes) == 0:
            break
    if off != len(data):
        raise CodecFormatError(f"{len(data) - off} trailing bytes")
    if len(nodes) == 0:
        return PointCloud(np.empty((0, 3), np.float32))
    cells = np.zeros((len(nodes), 3), dtype=np.float64)
    for b in range(depth):
        for axis in range(3):
            cells[:, axis] += ((nodes >> np.uint64(3 * b + axis))
                               & np.uint64(1)).astype(np.float64) * (1 << b)
    centers = mn + (cells + 0.5) * (float(edge) / (1 << depth))
    return PointCloud(centers.astype(np.float32))


def unique_per_level_octree_encode(cloud: PointCloud, depth: int) -> bytes:
    """Reference encoder: np.unique on every level, occupancy by scatter."""
    pts = cloud.points.astype(np.float64)
    if len(pts) == 0:
        return struct.pack("<3ffB", 0.0, 0.0, 0.0, 1.0, depth) + b"\x00"
    mn = pts.min(axis=0)
    edge = float((pts.max(axis=0) - mn).max()) or 1.0
    res = 1 << depth
    cells = np.clip(((pts - mn) / edge * res).astype(np.int64), 0, res - 1)
    levels = [np.unique(morton_key(cells, depth))]
    for _ in range(depth):
        levels.append(np.unique(levels[-1] >> np.uint64(3)))
    levels.reverse()
    out = bytearray()
    for parents, children in zip(levels, levels[1:]):
        occupancy = np.zeros(len(parents), dtype=np.uint8)
        slot = np.searchsorted(parents, children >> np.uint64(3))
        np.bitwise_or.at(occupancy, slot,
                         (1 << (children & np.uint64(7))).astype(np.uint8))
        out += occupancy.tobytes()
    mn32 = mn.astype(np.float32)
    return struct.pack("<3ffB", mn32[0], mn32[1], mn32[2], np.float32(edge),
                       depth) + bytes(out)


def test_octree_encode_matches_unique_per_level_oracle():
    rng = np.random.default_rng(35)
    clouds = [rng.normal(size=(400, 3)) for _ in range(2)]
    clouds.append(np.repeat(rng.random((30, 3)), 4, axis=0))  # duplicates
    clouds.append(np.array([[1.0, -2.0, 3.0]]))
    clouds.append(np.empty((0, 3)))
    for points in clouds:
        cloud = PointCloud(points.astype(np.float32))
        for depth in (1, 3, 10, 16):
            assert octree_encode(cloud, depth) == \
                unique_per_level_octree_encode(cloud, depth), \
                (len(points), depth)


def decode_error(decoder, data):
    try:
        decoder(data)
    except CodecFormatError as exc:
        return str(exc)
    return None


def test_octree_decode_matches_node_walk_oracle():
    rng = np.random.default_rng(26)
    clouds = [rng.normal(size=(400, 3)) for _ in range(2)]
    clouds.append(np.repeat(rng.random((30, 3)), 4, axis=0))  # duplicates
    clouds.append(np.array([[1.0, -2.0, 3.0]]))
    clouds.append(np.empty((0, 3)))
    for points in clouds:
        cloud = PointCloud(points.astype(np.float32))
        for depth in (1, 3, 10, 16):
            stream = octree_encode(cloud, depth)
            got = octree_decode(stream).points
            want = node_walk_octree_decode(stream).points
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes(), (len(points), depth)


def test_octree_decode_errors_match_node_walk_oracle():
    stream = octree_encode(PointCloud(np.random.default_rng(27).random(
        (50, 3)).astype(np.float32)), 4)
    header = bytearray(stream[:17])
    header[16] = 0
    bad = [stream[:10], bytes(header) + stream[17:], stream + b"\x00"]
    bad += [stream[:cut] for cut in range(17, len(stream))]
    for data in bad:
        want = decode_error(node_walk_octree_decode, data)
        assert want is not None
        assert decode_error(octree_decode, data) == want


def test_octree_validates_depth_and_stream():
    cloud = PointCloud([[0.0, 0, 0]])
    with pytest.raises(ValueError):
        octree_encode(cloud, 0)
    with pytest.raises(ValueError):
        octree_encode(cloud, 17)
    stream = octree_encode(cloud, 3)
    with pytest.raises(CodecFormatError):
        octree_decode(stream[:-1])
    with pytest.raises(CodecFormatError):
        octree_decode(stream + b"\x00")
