import hashlib
import math
import os
import struct

import numpy as np
import pytest

from conftest import outcome, scanned_encode, scanned_forward, traced_bytes
from pcvstream._util import ceil_count
from pcvstream.cloud import PointCloud, chamfer_distance, hausdorff_distance
from pcvstream import codec
from pcvstream.codec import (
    BLOCK_ORDER_BITS, ENCODE_CHUNK_BLOCKS, CodecFormatError, CodecModel,
    PruneConfig, chunk_blocks, decode, denormalize_block, dequantize,
    deserialize, encode, lightweight_train, make_codec_model, mean_chamfer,
    mean_reconstruction_loss, morton_cells, morton_key, normalize_block,
    octree_decode, octree_encode, prune_layer, prune_model, quantize_model, quantize_weights, serialize, toy_block_dataset, train,
)
from pcvstream.nn import (
    Layer, emd_loss, rotate_points, rotation_matrix, rotation_matrix_jacobian,
    total_loss,
)


def tiny_model(latent=8, n_points=16, seed=0):
    return make_codec_model(latent, n_points, seed, enc_hidden=(8,),
                            dec_hidden=(16,))


# ---------------------------------------------------------------------------
# encode / decode

def test_zero_weight_encoder_gives_zero_latent():
    model = tiny_model()
    for layer in model.encoder:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    latent = encode(model, np.random.default_rng(0).normal(size=(1, 16, 3)))
    np.testing.assert_array_equal(latent, np.zeros((1, 8)))


@pytest.mark.parametrize("field,value", [
    ("latent_dim", 0), ("latent_dim", -4), ("n_points", 0),
    ("enc_hidden", (8, 0)), ("dec_hidden", (0,))], ids=str)
def test_make_codec_model_rejects_widths_below_one(monkeypatch, field, value):
    """Unchecked, a zero width died in He init with ZeroDivisionError, or
    (n_points) built a model whose file deserialize rejects."""
    def no_weights(*args, **kwargs):
        raise AssertionError("a weight was drawn")

    monkeypatch.setattr(codec, "dense", no_weights)
    args = {"latent_dim": 8, "n_points": 16, field: value}
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        make_codec_model(**args)


@pytest.mark.parametrize("label,dim", [("4x4", 16), ("8x8", 64), ("16x16", 256)])
def test_latent_sizes_match_model_family(label, dim):
    # family id "AxB" names a latent of A * B values
    side_a, side_b = map(int, label.split("x"))
    assert side_a * side_b == dim
    model = make_codec_model(dim, 32, seed=1, enc_hidden=(8,), dec_hidden=(16,))
    assert model.latent_dim == dim
    assert model.encoder[-1].weights.shape == (dim, 8)
    assert model.decoder[0].weights.shape == (16, dim)
    latent = encode(model, np.zeros((1, 32, 3)))
    assert latent.shape == (1, dim)
    assert decode(model, latent).shape == (1, 32, 3)


def test_latent_permutation_invariant():
    model = tiny_model(seed=2)
    rng = np.random.default_rng(3)
    block = rng.normal(size=(1, 16, 3))
    a = encode(model, block)
    b = encode(model, block[:, rng.permutation(16)])
    np.testing.assert_allclose(a, b)


def test_decode_zero_latent_zero_bias():
    model = tiny_model(seed=4)
    for layer in model.decoder:
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


@pytest.mark.parametrize("latent", [16, 64, 256])
@pytest.mark.parametrize("dtype", ["f32", "q8"])
@pytest.mark.parametrize("enc_hidden", [(32, 64), ()], ids=str)
def test_pooled_bias_encode_equals_scanned_encode(latent, dtype, enc_hidden):
    """The proven path (bias added after the max-pool) gives the bytes of
    the path that adds it to every point and scans, on a 20,000-point
    cloud: 157 blocks, the last a padded tail block in a 5-block chunk.
    A one-layer encoder has no hidden layer, so no ReLU, and the blocks
    are left as they were."""
    model = make_codec_model(latent, seed=latent, enc_hidden=enc_hidden)
    if dtype == "q8":
        quantize_model(model, 8)
    rng = np.random.default_rng(37)
    blocks, valid = chunk_blocks(rng.normal(size=(20_000, 3)) * 4.0, 128)
    blocks = normalize_block(blocks)[0]
    assert len(blocks) == 157 and valid[-1] == 32
    assert len(blocks) % ENCODE_CHUNK_BLOCKS == 5
    assert codec.proves_finite(model.encoder, blocks)
    before = blocks.copy()
    assert encode(model, blocks).tobytes() == \
        scanned_encode(model, blocks).tobytes()
    np.testing.assert_array_equal(blocks, before)


def minus_inf_encoder(n_points=128):
    """A two-layer encoder whose last layer maps a point of x = 1e150 to
    -inf in column 0 and every point of |x| <= 1 to a finite value."""
    first = Layer(np.eye(3))
    last = Layer(np.array([[-1e160, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    decoder = [Layer(np.zeros((n_points * 3, 2)))]
    return CodecModel([first, last], decoder)


def test_a_point_driven_to_minus_inf_raises_though_its_block_max_is_finite():
    model = minus_inf_encoder()
    blocks = block_stack(12)
    assert codec.proves_finite(model.encoder, blocks)
    blocks[9, 40] = [1e150, 0.0, 0.0]
    with np.errstate(over="ignore"):  # numpy's own warning, an error here
        feats = scanned_forward(model.encoder[:1], blocks[8:])
        column = np.maximum(feats, 0.0) @ model.encoder[1].weights[0]
    assert column[1, 40] == -np.inf
    assert np.isfinite(np.delete(column[1], 40)).all()  # its max is finite
    assert not codec.proves_finite(model.encoder, blocks)
    want = "NumericsError: non-finite values in layer 1 output"
    with np.errstate(over="ignore"):
        assert outcome(scanned_encode, model, blocks) == want
        assert outcome(encode, model, blocks) == want


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
        "emd_loss": (emd_loss, [blocks, blocks]),
        "total_loss": (total_loss, [blocks, blocks, theta]),
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
    want_loss = sum(total_loss(r[None], b[None], zero)[0][0]
                    for r, b in zip(rebuilt, data)) / len(data)
    want_cd = np.mean([chamfer_distance(r, b) for r, b in zip(rebuilt, data)])
    assert mean_reconstruction_loss(model, data) == \
        pytest.approx(want_loss, rel=1e-12)
    assert mean_chamfer(model, data) == pytest.approx(want_cd, rel=1e-12)


def test_dataset_loss_in_slices_equals_one_loss_call(monkeypatch):
    model = tiny_model(seed=34)
    data = toy_block_dataset(2 * ENCODE_CHUNK_BLOCKS + 3, 16, seed=4)
    rebuilt = decode(model, encode(model, data))
    losses = total_loss(rebuilt, data, np.zeros((len(data), 3)))[0]
    want = sum(losses.tolist()) / len(data)

    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append((name, len(args[1])))
            return fn(*args)
        return wrapper

    for name in ("encode", "decode", "emd_loss"):
        monkeypatch.setattr(codec, name, recording(name, getattr(codec, name)))
    assert mean_reconstruction_loss(model, data) == want
    slices = [ENCODE_CHUNK_BLOCKS, ENCODE_CHUNK_BLOCKS, 3]
    assert calls == [("encode", len(data)), ("decode", len(data))] + [
        ("emd_loss", n) for n in slices]


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
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        chunk_blocks(np.ones((count, 3)), n_points)


def test_morton_key_interleaves_axis_bits():
    cells = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, 0, 0],
                      [3, 2, 1]])
    # bit b of axis a lands at key bit 3*b + a
    assert morton_key(cells, 2).tolist() == [1, 2, 4, 7, 8, 1 + 8 + 4 + 16]
    assert morton_key(cells, 1).tolist() == [1, 2, 4, 7, 0, 1 + 4]


def loop_morton_key(cells, bits):
    """Reference: one bit at a time, bit b of axis a to key bit 3*b + a."""
    cells = np.asarray(cells, dtype=np.uint64)
    key = np.zeros(len(cells), dtype=np.uint64)
    for b in range(bits):
        for axis in range(3):
            key |= ((cells[:, axis] >> np.uint64(b)) & np.uint64(1)) \
                << np.uint64(3 * b + axis)
    return key


def loop_morton_cells(keys, bits):
    """Reference: one bit at a time, key bit 3*b + a to bit b of axis a."""
    keys = np.asarray(keys, dtype=np.uint64)
    cells = np.zeros((len(keys), 3), dtype=np.uint64)
    for b in range(bits):
        for axis in range(3):
            cells[:, axis] |= ((keys >> np.uint64(3 * b + axis))
                               & np.uint64(1)) << np.uint64(b)
    return cells


@pytest.mark.parametrize("bits", range(1, 22))
def test_morton_bit_spread_equals_per_bit_loop(bits):
    """Only the low `bits` bits of a cell, and the low 3 * bits of a key,
    count: the random draws fill all 64 bits."""
    rng = np.random.default_rng(100 + bits)
    wide = rng.integers(0, 2 ** 64, size=(600, 3), dtype=np.uint64)
    top = (1 << bits) - 1
    edges = np.array([[0, 0, 0], [top, top, top], [top + 1, 0, 0],
                      [2 ** 64 - 1] * 3], dtype=np.uint64)
    cells = np.concatenate([wide, wide & np.uint64(top), edges])
    keys = np.concatenate([wide[:, 0], edges[:, 0]])
    assert morton_key(cells, bits).tobytes() == \
        loop_morton_key(cells, bits).tobytes()
    assert morton_cells(keys, bits).tobytes() == \
        loop_morton_cells(keys, bits).tobytes()


@pytest.mark.parametrize("bits", [0, -1, 22, 64])
def test_morton_rejects_bits_a_64_bit_key_cannot_hold(bits):
    with pytest.raises(ValueError, match=r"bits must lie in \[1, 21\]"):
        morton_key([[0, 0, 1 << 21]], bits)
    with pytest.raises(ValueError, match=r"bits must lie in \[1, 21\]"):
        morton_cells([1], bits)


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


@pytest.mark.parametrize("shape", [(4, 24, 3), (4, 8, 3), (4, 16, 2),
                                   (0, 16, 3), (16, 3)],
                         ids=["more-points", "fewer-points", "2-d-points",
                              "empty", "one-block"])
def test_train_rejects_blocks_of_another_size(shape):
    """Blocks that are not the model's (n_points, 3) have no EMD against
    its decodes; training must not start on them."""
    model = tiny_model(seed=10)  # 16-point blocks
    before = [l.weights.copy() for l in model.dense_layers()]
    with pytest.raises(ValueError, match=r"\(S, 16, 3\) stack"):
        train(model, np.ones(shape), epochs=1)
    for b, l in zip(before, model.dense_layers()):
        np.testing.assert_array_equal(b, l.weights)


@pytest.mark.parametrize("bits", [8, 16])
def test_train_refuses_a_quantized_model(bits):
    """Unchecked, training moves a q model's weights off its code grid,
    and `serialize`, which derives the codes from the weights, then writes
    weights that are no longer the model's."""
    model = tiny_model(seed=10)
    quantize_model(model, bits)
    before = [l.weights.copy() for l in model.dense_layers()]
    with pytest.raises(ValueError, match="^train expects an f32 model$"):
        train(model, toy_block_dataset(4, 16, seed=4), epochs=1)
    for b, l in zip(before, model.dense_layers()):
        np.testing.assert_array_equal(b, l.weights)


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
    layer = Layer(np.array([[0.1, -0.5], [0.3, 0.9]]))
    prune_layer(layer, 2)
    np.testing.assert_array_equal(layer.weights, [[0.0, -0.5], [0.0, 0.9]])
    assert not np.signbit(layer.weights).any(where=layer.weights == 0.0)


def test_prune_layer_zero_count_noop():
    layer = Layer(np.array([[0.1, -0.5]]))
    prune_layer(layer, 0)
    np.testing.assert_array_equal(layer.weights, [[0.1, -0.5]])
    assert sorted(vars(layer)) == ["bias", "weights"]


def test_prune_layer_idempotent():
    rng = np.random.default_rng(11)
    layer = Layer(rng.normal(size=(8, 8)))
    prune_layer(layer, 32)
    after_first = layer.weights.copy()
    prune_layer(layer, 32)
    np.testing.assert_array_equal(layer.weights, after_first)
    assert (layer.weights == 0.0).sum() == 32


def test_prune_layer_tie_break_by_flat_index():
    layer = Layer(np.array([[0.3, -0.3, 0.3, 0.5]]))
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
        assert layer.weights.all()  # no weight zeroed


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
    # all-zero codes, one per value, so a file's size depends on its shapes
    np.testing.assert_array_equal(codes, np.zeros(10, np.uint8))
    np.testing.assert_array_equal(dequantize(codes, meta), np.full(10, 3.25))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_quantize_rejects_a_non_finite_tensor(value):
    """Unchecked, one NaN or infinite value quantizes the whole tensor to
    NaN weights with only "invalid value" warnings."""
    for m in (8, 16):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_weights(np.array([0.5, value, -1.0]), m)
    model = tiny_model(seed=21)
    model.decoder[0].bias[3] = value
    with pytest.raises(ValueError, match="non-finite"):
        quantize_model(model, 8)


@pytest.mark.parametrize("tensor", [[-1e308, 1e308, 0.0], [0.0, 5e-324, 0.0]],
                         ids=["range overflows", "step overflows"])
def test_quantize_rejects_a_range_without_a_finite_step(tensor):
    """Unchecked, max - min overflows to inf (so q = 0) or q does (and
    inf * 0 is NaN), with only numpy warnings."""
    for m in (8, 16):
        with pytest.raises(ValueError, match=f"no finite {m}-bit step"):
            quantize_weights(np.array(tensor), m)


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

HEAD = 11  # magic 4, version 2, dtype code 1, n_enc 2, layer count 2


def v2_file(model):
    """Bytes of a model file spelled out field by field from the v2 format
    in `deserialize`'s docstring: the header, one u32 output width per
    dense layer, then each layer's payload. A q layer is spelled from
    `quantize_weights` of its weights then biases. The layers need not
    chain, so a test can write what `serialize` never writes."""
    layers = model.encoder + model.decoder
    code = {"f32": 0, "q8": 1, "q16": 2}[model.dtype]
    parts = [b"ISCM", struct.pack("<HBHH", 2, code, len(model.encoder),
                                  len(layers))]
    parts += [struct.pack("<I", layer.weights.shape[0]) for layer in layers]
    for layer in layers:
        if model.dtype == "f32":
            parts += [layer.weights.astype("<f4").tobytes(),
                      layer.bias.astype("<f4").tobytes()]
        else:
            bits, code = {"q8": (8, "<u1"), "q16": (16, "<u2")}[model.dtype]
            codes, meta = quantize_weights(
                np.concatenate([layer.weights.ravel(), layer.bias]), bits)
            parts += [struct.pack("<ff", meta["min"], meta["max"]),
                      codes.astype(code).tobytes()]
    return b"".join(parts)


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
    # the header and one u32 width per layer, then 4 bytes per parameter
    expect = HEAD + 4 * len(model.dense_layers())
    for l in model.dense_layers():
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
    # a q8 layer adds its f32 min and max; the headers are the same size
    assert os.path.getsize(q_path) - os.path.getsize(f32_path) == \
        q_payload + 8 * len(model.dense_layers()) - f32_payload
    assert q_payload <= 0.27 * f32_payload


@pytest.mark.parametrize("dtype", ["f32", "q8", "q16"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e39])
def test_serialize_refuses_values_its_reader_rejects(tmp_path, dtype, value):
    """A NaN or infinite value, or a finite one past the float32 range,
    raises before the file is opened. Unchecked, serialize writes files
    that deserialize rejects, or raises struct's OverflowError."""
    model = tiny_model(seed=21)
    if dtype != "f32":
        quantize_model(model, int(dtype[1:]))
    model.decoder[0].weights[1, 2] = value  # layer 2
    path = tmp_path / "m.iscm"
    with pytest.raises(ValueError, match=f"^layer 2: {dtype} values not "
                       "finite as float32$"):
        serialize(model, path)
    assert not path.exists()


@pytest.mark.parametrize("bits", [8, 16])
def test_a_loaded_quantized_model_keeps_only_its_layers(tmp_path, bits):
    """A loaded q model holds its float64 parameters and no view of the
    file it was read from (about 1.13x and 1.25x of them for q8 and q16
    with one)."""
    model = make_codec_model(256, 128, seed=256)
    quantize_model(model, bits)
    path = tmp_path / "m.iscm"
    serialize(model, path)
    loaded, kept, _ = traced_bytes(lambda: deserialize(path))
    params = sum(l.weights.nbytes + l.bias.nbytes
                 for l in loaded.dense_layers())
    assert kept <= 1.05 * params, kept / params


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
    with pytest.raises(CodecFormatError, match=f"file of {len(raw) - 7} "
                       f"bytes, but its header fixes {len(raw)}$"):
        deserialize(truncated)
    for cut in (HEAD - 1, HEAD + 3):  # inside the fixed head, the widths
        truncated.write_bytes(raw[:cut])
        with pytest.raises(CodecFormatError, match="truncated header"):
            deserialize(truncated)
    wrong_version = tmp_path / "ver.iscm"
    wrong_version.write_bytes(raw[:4] + b"\x63\x00" + raw[6:])
    with pytest.raises(CodecFormatError, match="version"):
        deserialize(wrong_version)


# a v1 file: u16 version 1, one record of u8 kind 1 (dense), u32 rows and
# cols 2^20, u8 dtype 1 (q8), then f32 min == max and u8 bits 8, no codes
V1_FILE = b"ISCM" + struct.pack("<HHBIIBffB", 1, 1, 1, 2 ** 20, 2 ** 20, 1,
                                0.5, 0.5, 8)

# tiny_model's v2 file changed one way each: (edit, error message)
HEADER_FAULTS = {
    "version 1": (lambda raw: V1_FILE, "unsupported format version 1$"),
    "dtype code 3": (lambda raw: raw[:6] + b"\x03" + raw[7:],
                     "unknown dtype code 3$"),
    "dtype code 255": (lambda raw: raw[:6] + b"\xff" + raw[7:],
                       "unknown dtype code 255$"),
    "one byte short": (lambda raw: raw[:-1],
                       "file of 4282 bytes, but its header fixes 4283$"),
    "one byte long": (lambda raw: raw + b"\x00",
                      "file of 4284 bytes, but its header fixes 4283$"),
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_deserialize_rejects_a_header_fault(tmp_path, fault):
    raw = v2_file(tiny_model(seed=21))
    assert len(raw) == 4283 and len(V1_FILE) == 27
    edit, message = HEADER_FAULTS[fault]
    path = tmp_path / "fault.iscm"
    path.write_bytes(edit(raw))
    with pytest.raises(CodecFormatError, match=message):
        deserialize(path)


def test_deserialize_checks_the_size_before_it_reads_a_payload(tmp_path):
    """A q8 header of 2^20 x 3 and 3 * 2^20 x 2^20 weights on a 27-byte
    file, like V1_FILE, is rejected from the header alone, before a payload
    of 3 * 2^40 parameters (24 TiB as float64) is read."""
    rows = (2 ** 20, 3 * 2 ** 20)
    head = b"ISCM" + struct.pack("<HBHH2I", 2, 1, 1, 2, *rows)
    path = tmp_path / "huge.iscm"
    path.write_bytes(head + struct.pack("<ff", 0.5, 0.5))
    expect = HEAD + 4 * 2 + 8 * 2 + (rows[0] * 3 + rows[0]) + (
        rows[1] * rows[0] + rows[1])
    with pytest.raises(CodecFormatError, match=f"file of 27 bytes, but its "
                       f"header fixes {expect}$"):
        deserialize(path)


# the first payload byte of tiny_model's file: the header and 4 widths
PAYLOAD = HEAD + 4 * 4


@pytest.mark.parametrize("offset", [PAYLOAD, PAYLOAD + 4 * 8 * 3])  # w, b
def test_deserialize_rejects_non_finite_f32_parameters(tmp_path, offset):
    """A NaN parameter fails the load, not the first encode."""
    good = tmp_path / "good.iscm"
    serialize(tiny_model(seed=21), good)
    raw = good.read_bytes()
    # f32, and the first layer is 8 x 3
    assert raw[6] == 0 and struct.unpack("<I", raw[HEAD:HEAD + 4]) == (8,)
    patched = tmp_path / "patched.iscm"
    patched.write_bytes(raw[:offset] + struct.pack("<f", math.nan)
                        + raw[offset + 4:])
    with pytest.raises(CodecFormatError, match="layer 0: non-finite f32"):
        deserialize(patched)


@pytest.mark.parametrize("bits", [0x7F800001, 0x7FBFFFFF, 0xFF800001],
                         ids=hex)
def test_deserialize_rejects_a_signalling_nan_f32_parameter(tmp_path, bits):
    """A signalling NaN is rejected on the f32 view: its cast to float64
    would warn "invalid value encountered in cast" first."""
    good = tmp_path / "good.iscm"
    serialize(tiny_model(seed=22), good)
    raw = good.read_bytes()
    patched = tmp_path / "patched.iscm"
    patched.write_bytes(raw[:PAYLOAD] + struct.pack("<I", bits)
                        + raw[PAYLOAD + 4:])
    with pytest.raises(CodecFormatError, match="layer 0: non-finite f32"):
        deserialize(patched)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("bounds", ["inf min", "nan max", "min above max"])
def test_deserialize_rejects_bad_quantization_bounds(tmp_path, m, bounds):
    """Unchecked, an infinite min loads NaN weights and a min above the
    max loads mirrored ones."""
    model = tiny_model(seed=21)
    quantize_model(model, m)
    good = tmp_path / "good.iscm"
    serialize(model, good)
    raw = good.read_bytes()
    # the first layer's payload: f32 min, f32 max, then its codes
    mn, mx = struct.unpack("<ff", raw[PAYLOAD:PAYLOAD + 8])
    assert raw[6] == {8: 1, 16: 2}[m] and mn < mx
    mn, mx = {"inf min": (math.inf, mx), "nan max": (mn, math.nan),
              "min above max": (mx, mn)}[bounds]
    patched = tmp_path / "patched.iscm"
    patched.write_bytes(raw[:PAYLOAD] + struct.pack("<ff", mn, mx)
                        + raw[PAYLOAD + 8:])
    with pytest.raises(CodecFormatError, match=f"layer 0: q{m} min .* must "
                       "be finite, min <= max"):
        deserialize(patched)


@pytest.mark.parametrize("enc_hidden", [(), (8,), (8, 12)], ids=len)
@pytest.mark.parametrize("dec_hidden", [(), (16,), (16, 24)], ids=len)
def test_serialize_round_trip_bytes_for_every_depth(tmp_path, enc_hidden,
                                                    dec_hidden):
    p1, p2 = tmp_path / "a.iscm", tmp_path / "b.iscm"
    for bits in (32, 8, 16):
        model = make_codec_model(8, 16, seed=23, enc_hidden=enc_hidden,
                                 dec_hidden=dec_hidden)
        if bits != 32:
            quantize_model(model, bits)
        serialize(model, p1)
        back = deserialize(p1)
        serialize(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (len(back.encoder), len(back.decoder)) == \
            (len(enc_hidden) + 1, len(dec_hidden) + 1)
        # the bytes serialize writes are the format spelled out by hand
        assert p1.read_bytes() == v2_file(model)


def test_deserialize_rejects_mixed_layer_dtypes(tmp_path):
    """v2 has one dtype code: an f32 file whose last layer holds a q8
    payload instead is rejected by its size."""
    model = tiny_model(seed=21)
    last = model.decoder[-1]
    n_params = last.weights.size + last.bias.size
    codes, meta = quantize_weights(
        np.concatenate([last.weights.ravel(), last.bias]), 8)
    raw = v2_file(model)
    path = tmp_path / "mixed.iscm"
    path.write_bytes(raw[:-4 * n_params] + struct.pack(
        "<ff", meta["min"], meta["max"]) + codes.tobytes())
    with pytest.raises(CodecFormatError, match=f"header fixes {len(raw)}$"):
        deserialize(path)


def test_deserialize_rejects_a_dense_record_without_weights(tmp_path):
    """A dense layer without weights is a zero output width."""
    raw = v2_file(tiny_model(seed=21))
    path = tmp_path / "weightless.iscm"
    # the second encoder layer, written as 0 rows
    path.write_bytes(raw[:HEAD + 4] + struct.pack("<I", 0) + raw[HEAD + 8:])
    with pytest.raises(CodecFormatError, match="layer 1 has output width 0$"):
        deserialize(path)


def test_deserialize_rejects_a_weighted_record_without_columns(tmp_path):
    """A layer's columns are the width before it: the second encoder layer
    has none when the first has output width 0."""
    raw = v2_file(tiny_model(seed=21))
    path = tmp_path / "no-columns.iscm"
    path.write_bytes(raw[:HEAD] + struct.pack("<I", 0) + raw[HEAD + 4:])
    with pytest.raises(CodecFormatError, match="layer 0 has output width 0$"):
        deserialize(path)


def test_deserialize_rejects_dense_shapes_that_do_not_chain(tmp_path):
    model = tiny_model(seed=21)  # 3 -> 8 -> latent 8 | 8 -> 16 -> 48
    rng = np.random.default_rng(36)
    good = v2_file(model)
    # a decoder layer of 9 columns after a latent of 8: its payload is 16
    # weights longer than the header's widths fix
    model.decoder[0] = Layer(rng.normal(size=(16, 9)))
    mis_chained = tmp_path / "mis-chained.iscm"
    mis_chained.write_bytes(v2_file(model))
    with pytest.raises(CodecFormatError, match=f"file of {len(good) + 64} "
                       f"bytes, but its header fixes {len(good)}$"):
        deserialize(mis_chained)
    not_xyz = tmp_path / "not-xyz.iscm"
    not_xyz.write_bytes(good[:HEAD + 12] + struct.pack("<I", 47)
                        + good[HEAD + 16:])
    with pytest.raises(CodecFormatError, match="output width 47 is not a "
                       "multiple of 3"):
        deserialize(not_xyz)


@pytest.mark.parametrize("change", ["no decoder", "no encoder"])
def test_deserialize_rejects_records_off_the_codec_layout(tmp_path, change):
    """The header's encoder layer count must leave at least one layer to
    each network."""
    raw = v2_file(tiny_model(seed=21))
    assert struct.unpack("<HH", raw[7:HEAD]) == (2, 4)
    n_enc = {"no decoder": 4, "no encoder": 0}[change]
    path = tmp_path / "off-layout.iscm"
    path.write_bytes(raw[:7] + struct.pack("<H", n_enc) + raw[9:])
    with pytest.raises(CodecFormatError, match=f"encoder layer count {n_enc} "
                       r"must lie in \[1, 4\)"):
        deserialize(path)


# sha256 of serialize(make_codec_model(L, 128, seed=L)) at f32, or after
# quantize_model to q8 or q16; a change here is a change of the file format
MODEL_FILE_SHA256 = {
    (16, "f32"): "3cadf20725dcc6b765a2cf6f5245ffa02986bdf273d04f5e1dc06596896400e9",
    (16, "q8"): "4a4634353c74de7f8ab8657e2caf16750933f174b00a1c2bd9ae5fc6ae3e50c5",
    (16, "q16"): "0bb1f2e443b28481c45b3671a2d45d20a134d642ec50da90bc4b04c0f736f518",
    (256, "f32"): "ddce96bb08d6494b7afb754216c8a01e2394031ed10eb76b5f42cbdbd32a8eb1",
    (256, "q8"): "8ab2387fa6a133562bfb579e35cb946204fb7ff843716fa9d9fe92c972d65d02",
    (256, "q16"): "d20dec3f9c89033d68483dbaabe55c9d000a4db201f009da88498793eccbf854",
}


@pytest.mark.parametrize("latent, dtype", sorted(MODEL_FILE_SHA256))
def test_model_file_bytes_are_pinned(tmp_path, latent, dtype):
    model = make_codec_model(latent, 128, seed=latent)
    if dtype != "f32":
        quantize_model(model, int(dtype[1:]))
    path = tmp_path / "m.iscm"
    serialize(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        MODEL_FILE_SHA256[latent, dtype]


# sha256 of the decoded bytes of block_stack(11) through the reloaded file
# of make_codec_model(L, 128, seed=L) quantized to q8 or q16: pins the
# reload rule that zeroes the weights at the code nearest zero
RELOADED_DECODE_SHA256 = {
    (16, 8): "d07b260721c51747377c38e9ddabe2baab22a0cd76186851e8ba302bfde95b76",
    (16, 16): "2d693d51c716e06e9bcefbf10404e715ec3e2a9f465295f03ceaa124b9577345",
    (256, 8): "eaefc7d80e49eb19d8e80f12ca010f95e51e078674db80e625195e2bbf608bde",
    (256, 16): "b6f6cc45085cde0acf8e0c64edf860fb8c3051d80273d3c7e1c961739fec3df1",
}


@pytest.mark.parametrize("latent, bits", sorted(RELOADED_DECODE_SHA256))
def test_reloaded_decodes_are_pinned(tmp_path, latent, bits):
    model = make_codec_model(latent, 128, seed=latent)
    quantize_model(model, bits)
    path = tmp_path / "m.iscm"
    serialize(model, path)
    loaded = deserialize(path)
    out = decode(loaded, encode(loaded, block_stack(11)))
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        RELOADED_DECODE_SHA256[latent, bits]


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
        assert l.weights.all()  # nothing pruned
        np.testing.assert_array_equal(b, l.weights)


def test_lightweight_sparsity_reached():
    data = toy_block_dataset(10, 16, seed=6)
    model = tiny_model(seed=22)
    train(model, data, epochs=3, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1)
    out = lightweight_train(model, data, cfg, m=8, lr=0.002, seed=0)
    assert out.dtype == "q8"
    for l in out.dense_layers():
        pruned = l.weights == 0.0
        assert pruned.sum() == ceil_count(cfg.cumulative_target(2),
                                          l.weights.size)
        assert pruned.mean() >= 0.5


def test_lightweight_train_quantizes_with_quantize_model(tmp_path):
    """m = 8 ends with quantize_model on the pruned model that m = 32
    returns, and the weights that m = 32 pruned stay exactly zero."""
    data = toy_block_dataset(10, 16, seed=6)
    model = tiny_model(seed=22)
    train(model, data, epochs=3, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1)
    q8 = lightweight_train(model, data, cfg, m=8, lr=0.002, seed=0)
    want = lightweight_train(model, data, cfg, m=32, lr=0.002, seed=0)
    quantize_model(want, 8)
    assert q8.dtype == want.dtype == "q8"
    for got, exp in zip(q8.dense_layers(), want.dense_layers()):
        np.testing.assert_array_equal(got.weights, exp.weights)
        np.testing.assert_array_equal(got.bias, exp.bias)
    pruned_at_32 = lightweight_train(model, data, cfg, m=32, lr=0.002, seed=0)
    for got, f32 in zip(q8.dense_layers(), pruned_at_32.dense_layers()):
        assert (f32.weights == 0.0).any()
        assert not got.weights[f32.weights == 0.0].any()
    serialize(q8, tmp_path / "got.iscm")
    serialize(want, tmp_path / "want.iscm")
    assert (tmp_path / "got.iscm").read_bytes() == \
        (tmp_path / "want.iscm").read_bytes()


# file sha256 of lightweight_train on the tiny model at m = 32 and 8; the
# f32 file holds the sign of every pruned zero
LIGHTWEIGHT_FILE_SHA256 = {
    32: "768dee9077f6a00d3984cbd572a25e463576e79e6104be7ee0315a45f4dcfe75",
    8: "327b37278b9d293ec840c1f30972400e573a5683da4f86ec0e17e7428c78120a",
}


@pytest.mark.parametrize("m", sorted(LIGHTWEIGHT_FILE_SHA256))
def test_lightweight_train_file_is_pinned(tmp_path, m):
    data = toy_block_dataset(10, 16, seed=6)
    model = tiny_model(seed=22)
    train(model, data, epochs=3, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1)
    out = lightweight_train(model, data, cfg, m=m, lr=0.002, seed=0)
    path = tmp_path / "m.iscm"
    serialize(out, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        LIGHTWEIGHT_FILE_SHA256[m]


def test_lightweight_stalls_when_threshold_unreachable(caplog):
    data = toy_block_dataset(6, 16, seed=7)
    model = tiny_model(seed=23)
    train(model, data, epochs=1, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1,
                      loss_threshold=1e-12)  # unattainable trigger
    out = lightweight_train(model, data, cfg, m=8, seed=0)
    assert all(l.weights.all() for l in out.dense_layers())  # none pruned
    assert "pruning stalled in round 1" in caplog.text
    assert "reached sparsity 0.000 of requested 0.500" in caplog.text


def test_prune_config_validation():
    with pytest.raises(ValueError):
        PruneConfig(zeta=1.0)
    PruneConfig(loss_threshold=1e-12, finetune_epochs=0)  # both allowed
    cfg = PruneConfig(zeta=0.75, rounds=2)
    assert cfg.per_round_ratio == pytest.approx(0.5)
    assert cfg.cumulative_target(2) == pytest.approx(0.75)


@pytest.mark.parametrize("field, value", [
    ("rounds", 2.5), ("rounds", 2.0), ("rounds", True),
    ("finetune_epochs", 1.5), ("finetune_epochs", "1"),
    ("finetune_epochs", False)])
def test_prune_config_rejects_non_integer_counts(field, value):
    """A float count would fail later in lightweight_train's loops."""
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        PruneConfig(**{field: value})


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_prune_config_rejects_a_bad_loss_threshold(threshold):
    """A NaN threshold would never fire the pre-prune fine-tune."""
    with pytest.raises(ValueError, match="loss_threshold must be finite and "
                       "positive"):
        PruneConfig(loss_threshold=threshold)


def test_prune_config_rejects_negative_finetune_epochs():
    with pytest.raises(ValueError, match="finetune_epochs must be >= 0"):
        PruneConfig(finetune_epochs=-2)


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


@pytest.mark.parametrize("depth", [6, 10, 16])
def test_octree_encode_drops_repeated_keys_like_unique(depth):
    """Clouds where most points repeat another; at depth 16 the leaf keys
    span 48 bits."""
    rng = np.random.default_rng(36)
    clouds = [
        rng.integers(0, 6, size=(5000, 3)),  # 216 distinct points
        rng.permutation(np.repeat(rng.normal(size=(700, 3)), 9, axis=0)),
        np.vstack([rng.random((2000, 3)) * 100.0, np.zeros((3000, 3))]),
    ]
    for points in clouds:
        cloud = PointCloud(points.astype(np.float32))
        assert octree_encode(cloud, depth) == \
            unique_per_level_octree_encode(cloud, depth), len(points)


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


def mask_child_nodes(nodes, occupancy):
    """The children of `nodes` by a 2-D mask, the reference for
    `codec._child_nodes`: row i, column k is set where node i has child
    octant k (bit k of its byte), and row-major selection keeps the
    breadth-first order."""
    mask = np.unpackbits(occupancy[:, None], axis=1,
                         bitorder="little").astype(bool)
    octants = np.arange(8, dtype=np.uint64)
    return ((nodes[:, None] << np.uint64(3)) | octants)[mask]


def random_occupancy_levels(rng, depth, full_levels=0, empty_level=None,
                            cap=300):
    """Occupancy bytes per level of a random octree: every byte 0xFF on the
    first `full_levels` levels, all zero on `empty_level`, else random
    bytes, and single bits once a level has more than `cap` nodes."""
    levels, count = [], 1
    for level in range(depth):
        if level < full_levels:
            occupancy = np.full(count, 0xFF, dtype=np.uint8)
        elif level == empty_level:
            occupancy = np.zeros(count, dtype=np.uint8)
        elif count > cap:
            occupancy = (1 << rng.integers(0, 8, count)).astype(np.uint8)
            occupancy[rng.random(count) < 0.5] = 0
        else:
            occupancy = rng.integers(0, 256, count, dtype=np.uint8)
        levels.append(occupancy)
        count = int(np.unpackbits(occupancy).sum())
        if count == 0:
            break
    return levels


@pytest.mark.parametrize("depth,full_levels,empty_level", [
    (1, 0, None), (1, 1, None), (1, 0, 0), (2, 2, None), (5, 0, None),
    (16, 0, None), (16, 3, None), (16, 2, 6), (16, 0, 15)], ids=str)
def test_child_nodes_equal_the_mask_expansion(depth, full_levels,
                                              empty_level):
    rng = np.random.default_rng(100 * depth + full_levels)
    for _ in range(8):
        levels = random_occupancy_levels(rng, depth, full_levels,
                                         empty_level)
        got = want = np.zeros(1, dtype=np.uint64)
        for occupancy in levels:
            got = codec._child_nodes(got, occupancy)
            want = mask_child_nodes(want, occupancy)
            assert got.dtype == want.dtype == np.uint64
            np.testing.assert_array_equal(got, want)
        stream = struct.pack("<3ffB", 0.0, 0.0, 0.0, 1.0, depth) + \
            b"".join(level.tobytes() for level in levels)
        assert octree_decode(stream).points.tobytes() == \
            node_walk_octree_decode(stream).points.tobytes()


def test_child_nodes_of_every_root_byte_equal_the_mask_expansion():
    root = np.zeros(1, dtype=np.uint64)
    for byte in range(256):
        occupancy = np.array([byte], dtype=np.uint8)
        np.testing.assert_array_equal(codec._child_nodes(root, occupancy),
                                      mask_child_nodes(root, occupancy))


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


@pytest.mark.parametrize("field, value", [
    ("edge", math.nan), ("edge", -1.0), ("edge", 0.0), ("edge", math.inf),
    ("corner", math.nan), ("corner", -math.inf)])
def test_octree_decode_rejects_a_bad_header(field, value):
    """Unchecked, a NaN edge fails PointCloud's finiteness check instead
    and a negative edge decodes to mirrored points."""
    stream = octree_encode(PointCloud([[0.0, 0, 0], [1.0, 2, 3]]), 3)
    offset = {"corner": 4, "edge": 12}[field]  # corner y, then the edge
    patched = stream[:offset] + struct.pack("<f", value) + stream[offset + 4:]
    with pytest.raises(CodecFormatError, match=f"octree (cube {field}|min "
                       f"{field})"):
        octree_decode(patched)


@pytest.mark.parametrize("corner, edge", [
    ((3e38, 0.0, 0.0), 3e38), ((0.0, 0.0, 3.4e38), 1e37)])
def test_octree_decode_rejects_a_cube_past_the_float32_range(corner, edge):
    """Leaf centres past the float32 range would warn "overflow encountered
    in cast" before PointCloud rejects them."""
    stream = struct.pack("<3ffB", *corner, edge, 1) + b"\x80"
    with pytest.raises(CodecFormatError, match="exceeds the float32 range"):
        octree_decode(stream)
    # the same edge from a corner that leaves room decodes
    room = struct.pack("<3ffB", -edge, -edge, -edge, edge, 1) + b"\x80"
    assert np.isfinite(octree_decode(room).points).all()
