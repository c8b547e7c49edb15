"""`_util.stable_argsort` gives the indices of np.argsort(kind="stable"),
whether it packs the keys with their indices or falls back."""

import numpy as np
import pytest

from pcvstream import _util
from pcvstream._util import stable_argsort


def assert_stable_argsort(keys):
    got = stable_argsort(keys)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def count_fallbacks(monkeypatch):
    """Calls of np.argsort made inside `_util`, counted in a list."""
    calls, argsort = [], np.argsort

    def counting(keys, **kwargs):
        calls.append(len(keys))
        return argsort(keys, **kwargs)

    monkeypatch.setattr(_util.np, "argsort", counting)
    return calls


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("distinct", [1, 3, 40, 5000])
def test_stable_argsort_breaks_heavy_ties_by_index(dtype, distinct):
    rng = np.random.default_rng(60 + distinct)
    for n in (2, 7, 8, 9, 1000, 20_000):
        keys = rng.integers(0, distinct, size=n).astype(dtype)
        keys *= dtype(1 << 20)  # wide keys whose ties are still exact
        assert_stable_argsort(keys)


@pytest.mark.parametrize("keys", [
    np.empty(0, dtype=np.int64), np.array([5], dtype=np.int64),
    np.array([0], dtype=np.uint64), np.full(999, 42, dtype=np.int64),
    np.full(1 << 16, 7, dtype=np.uint64),
], ids=["empty", "one", "one-zero", "all-equal", "all-equal-2^16"])
def test_stable_argsort_on_empty_single_and_constant_keys(keys):
    assert_stable_argsort(keys)


@pytest.mark.parametrize("n", [2, 3, 1000, 1024, 1025])
def test_stable_argsort_packs_the_widest_key_and_falls_back_past_it(
        monkeypatch, n):
    """n keys leave 64 - ceil(log2 n) bits for a key: the largest key that
    fits is packed, one more falls back, and both sort alike."""
    widest = (1 << (64 - (n - 1).bit_length())) - 1
    rng = np.random.default_rng(n)
    calls = count_fallbacks(monkeypatch)
    for top, falls_back in ((widest, False), (widest + 1, True)):
        keys = rng.integers(0, 4, size=n).astype(np.uint64)
        keys[rng.integers(n)] = top
        keys[rng.integers(n)] = top
        calls.clear()
        got = stable_argsort(keys)
        assert calls == ([n] if falls_back else [])
        np.testing.assert_array_equal(
            got, np.argsort(keys.astype(object), kind="stable"))


def test_stable_argsort_falls_back_for_negative_keys(monkeypatch):
    rng = np.random.default_rng(61)
    calls = count_fallbacks(monkeypatch)
    for keys in (np.array([-1]), np.array([3, -1, 3, 0]),
                 rng.integers(-50, 50, size=3000)):
        calls.clear()
        got = stable_argsort(keys)
        assert calls == [len(keys)]
        np.testing.assert_array_equal(
            got, np.argsort(keys.astype(object), kind="stable"))


def test_stable_argsort_falls_back_for_float_and_bool_keys(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    for keys in (np.array([2.0, 1.0, 2.0]), np.array([True, False, True])):
        calls.clear()
        got = stable_argsort(keys)
        assert calls == [len(keys)]
        np.testing.assert_array_equal(got, [1, 0, 2])
