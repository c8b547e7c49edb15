"""Seeded fuzzing of the two binary readers: `codec.deserialize` (model
files) and `codec.octree_decode` (octree streams).

Every truncation of a small valid input, plus seeded single-byte changes
of it, is read with every warning an error; a model file's header (magic
through the layer widths) is changed exhaustively, every byte by every
nonzero XOR. Each input must either raise the reader's typed
`CodecFormatError` or load and round-trip to finite output; a model that
loads may also raise `NumericsError` from its first forward, which is
typed too. Any other exception or warning fails.
"""

import struct

import numpy as np
import pytest

from pcvstream.cloud import PointCloud
from pcvstream.codec import (
    CodecFormatError, decode, deserialize, encode, make_codec_model,
    normalize_block, octree_decode, octree_encode, quantize_model, serialize,
)
from pcvstream.nn import NumericsError

CHANGES = 400  # seeded single-byte changes per input
SEED = 2024


def changed_bytes(data: bytes, rng: np.random.Generator):
    """CHANGES copies of data, each with one byte changed to another
    value."""
    positions = rng.integers(len(data), size=CHANGES)
    flips = rng.integers(1, 256, size=CHANGES)
    for pos, flip in zip(positions.tolist(), flips.tolist()):
        out = bytearray(data)
        out[pos] ^= flip
        yield bytes(out)


def model_bytes(tmp_path, dtype: str) -> bytes:
    model = make_codec_model(4, 4, seed=3, enc_hidden=(4,), dec_hidden=(8,))
    if dtype != "f32":
        quantize_model(model, {"q8": 8, "q16": 16}[dtype])
    path = tmp_path / f"model-{dtype}.iscm"
    serialize(model, path)
    return path.read_bytes()


def read_model(path, data: bytes, rng: np.random.Generator) -> str:
    """'typed' if the file is rejected or its first forward raises
    NumericsError, else 'loaded' after a finite two-block round trip."""
    path.write_bytes(data)
    try:
        model = deserialize(path)
    except CodecFormatError:
        return "typed"
    blocks = normalize_block(rng.normal(size=(2, model.n_points, 3)))[0]
    try:
        rebuilt = decode(model, encode(model, blocks))
    except NumericsError:
        return "typed"
    assert rebuilt.shape == blocks.shape
    assert np.isfinite(rebuilt).all()
    return "loaded"


def read_octree(data: bytes) -> str:
    """'typed' if the stream is rejected, else 'loaded' after checking the
    decoded points are finite float32."""
    try:
        cloud = octree_decode(data)
    except CodecFormatError:
        return "typed"
    assert cloud.points.dtype == np.float32
    assert np.isfinite(cloud.points).all()
    return "loaded"


@pytest.mark.parametrize("dtype", ["f32", "q8", "q16"])
def test_model_file_fuzz_ends_in_a_typed_error_or_a_finite_round_trip(
        tmp_path, dtype):
    data = model_bytes(tmp_path, dtype)
    rng = np.random.default_rng(SEED)
    path = tmp_path / "fuzzed.iscm"
    assert read_model(path, data, rng) == "loaded"
    for cut in range(len(data)):
        assert read_model(path, data[:cut], rng) == "typed", cut
    outcomes = [read_model(path, changed, rng)
                for changed in changed_bytes(data, rng)]
    # both outcomes occur, so neither check above is vacuous
    assert set(outcomes) == {"typed", "loaded"}


@pytest.mark.parametrize("dtype", ["f32", "q8", "q16"])
def test_every_model_header_change_ends_in_a_typed_error_or_a_round_trip(
        tmp_path, dtype):
    """The header alone fixes the file size, so every change of it must be
    caught before a payload is read, or describe a model that works."""
    data = model_bytes(tmp_path, dtype)
    # magic, u16 version, u8 dtype, u16 n_enc, u16 count, u32 widths
    header = 11 + 4 * struct.unpack_from("<H", data, 9)[0]
    assert header == 27  # four dense layers
    rng = np.random.default_rng(SEED)
    path = tmp_path / "fuzzed.iscm"
    outcomes = set()
    for pos in range(header):
        for flip in range(1, 256):
            changed = bytearray(data)
            changed[pos] ^= flip
            outcomes.add(read_model(path, bytes(changed), rng))
    assert outcomes == {"typed", "loaded"}


def test_octree_stream_fuzz_ends_in_a_typed_error_or_finite_points():
    rng = np.random.default_rng(SEED)
    cloud = PointCloud(rng.normal(size=(300, 3)).astype(np.float32))
    data = octree_encode(cloud, 6)
    assert read_octree(data) == "loaded"
    for cut in range(len(data)):
        assert read_octree(data[:cut]) == "typed", cut
    outcomes = [read_octree(changed) for changed in changed_bytes(data, rng)]
    assert set(outcomes) == {"typed", "loaded"}
