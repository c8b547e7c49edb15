import math
import os
import struct

import numpy as np
import pytest

from pcvstream.cloud import PointCloud, chamfer_distance, hausdorff_distance
from pcvstream.codec import (
    CodecFormatError, CodecModel, PruneConfig, chunk_blocks, decode,
    dequantize, deserialize, encode, lightweight_train, make_codec_model,
    mean_chamfer, morton_key, normalize_block, octree_decode, octree_encode,
    prune_layer, prune_model, prune_threshold, quantize_weights, serialize,
    toy_block_dataset, train,
)
from pcvstream.nn import Layer, LossSpec


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
    latent = encode(model, np.random.default_rng(0).normal(size=(16, 3)))
    np.testing.assert_array_equal(latent, np.zeros(8))


@pytest.mark.parametrize("label,dim", [("4x4", 16), ("8x8", 64), ("16x16", 256)])
def test_latent_sizes_match_model_family(label, dim):
    from pcvstream.codec import LATENT_SIZES
    assert LATENT_SIZES[label] == dim
    model = make_codec_model(dim, 32, seed=1, enc_hidden=(8,), dec_hidden=(16,))
    latent = encode(model, np.zeros((32, 3)))
    assert latent.shape == (dim,)


def test_latent_permutation_invariant():
    model = tiny_model(seed=2)
    rng = np.random.default_rng(3)
    block = rng.normal(size=(16, 3))
    a = encode(model, block)
    b = encode(model, block[rng.permutation(16)])
    np.testing.assert_allclose(a, b)


def test_decode_zero_latent_zero_bias():
    model = tiny_model(seed=4)
    for layer in model.decoder.layers:
        if layer.weights is not None:
            layer.bias[:] = 0.0
    out = decode(model, np.zeros(8))
    np.testing.assert_array_equal(out, np.zeros((16, 3)))


def test_encode_validates_shape():
    model = tiny_model()
    with pytest.raises(ValueError):
        encode(model, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        decode(model, np.zeros(9))
    with pytest.raises(ValueError):
        encode(model, np.empty((0, 3)))


# ---------------------------------------------------------------------------
# block plumbing

def test_normalize_block_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.normal(loc=4.0, scale=2.0, size=(30, 3))
    norm, centroid, scale = normalize_block(pts)
    assert np.linalg.norm(norm, axis=1).max() == pytest.approx(1.0)
    from pcvstream.codec import denormalize_block
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


def test_morton_key_interleaves_axis_bits():
    cells = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, 0, 0],
                      [3, 2, 1]])
    # bit b of axis a lands at key bit 3*b + a
    assert morton_key(cells, 2).tolist() == [1, 2, 4, 7, 8, 1 + 8 + 4 + 16]
    assert morton_key(cells, 1).tolist() == [1, 2, 4, 7, 0, 1 + 4]


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


# ---------------------------------------------------------------------------
# pruning

def test_prune_threshold_zero_zeta():
    assert prune_threshold(np.array([0.5, -1.0]), 0.0) == -math.inf


def test_prune_threshold_hand_case():
    w = np.array([0.1, -0.5, 0.3, 0.9])
    assert prune_threshold(w, 0.5) == pytest.approx(0.3)


def test_prune_threshold_rank_property():
    rng = np.random.default_rng(10)
    for zeta in (0.25, 0.5, 0.75):
        w = rng.normal(size=1000)
        th = prune_threshold(w, zeta)
        assert (np.abs(w) <= th).sum() == math.ceil(zeta * 1000 - 1e-9)


def test_prune_layer_hand_case():
    layer = Layer("dense", np.array([[0.1, -0.5], [0.3, 0.9]]))
    prune_layer(layer, 0.3)
    np.testing.assert_array_equal(layer.weights, [[0.0, -0.5], [0.0, 0.9]])
    np.testing.assert_array_equal(layer.prune_mask, [[0.0, 1.0], [0.0, 1.0]])


def test_prune_layer_zero_threshold_noop():
    layer = Layer("dense", np.array([[0.1, -0.5]]))
    prune_layer(layer, -math.inf)
    np.testing.assert_array_equal(layer.weights, [[0.1, -0.5]])


def test_prune_layer_idempotent():
    rng = np.random.default_rng(11)
    layer = Layer("dense", rng.normal(size=(8, 8)))
    th = prune_threshold(layer.weights, 0.5)
    prune_layer(layer, th)
    after_first = layer.weights.copy()
    prune_layer(layer, th)
    np.testing.assert_array_equal(layer.weights, after_first)


def test_prune_layer_tie_break_by_flat_index():
    layer = Layer("dense", np.array([[0.3, -0.3, 0.3, 0.5]]))
    prune_layer(layer, 0.3, count=2)
    np.testing.assert_array_equal(layer.weights, [[0.0, 0.0, 0.3, 0.5]])


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
    assert out.zeta_applied == 0.0
    for b, l in zip(before, out.dense_layers()):
        np.testing.assert_array_equal(b, l.weights)


def test_lightweight_sparsity_reached():
    data = toy_block_dataset(10, 16, seed=6)
    model = tiny_model(seed=22)
    train(model, data, epochs=3, lr=0.01, seed=0)
    out = lightweight_train(model, data,
                            PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1),
                            m=8, lr=0.002, seed=0)
    assert out.dtype == "q8"
    assert out.zeta_applied == pytest.approx(0.5)
    for frac in out.zero_fractions():
        assert frac >= 0.5


def test_lightweight_stalls_when_threshold_unreachable():
    data = toy_block_dataset(6, 16, seed=7)
    model = tiny_model(seed=23)
    train(model, data, epochs=1, lr=0.01, seed=0)
    cfg = PruneConfig(zeta=0.5, rounds=2, finetune_epochs=1,
                      loss_threshold=1e-12)  # unattainable trigger
    out = lightweight_train(model, data, cfg, m=8, seed=0)
    assert out.zeta_applied == 0.0


def test_prune_config_validation():
    with pytest.raises(ValueError):
        PruneConfig(zeta=1.0)
    with pytest.raises(ValueError):
        PruneConfig(zeta=0.5, rounds=2, per_round_ratio=0.5)  # compounds to .75
    cfg = PruneConfig(zeta=0.75, rounds=2, per_round_ratio=0.5)
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
