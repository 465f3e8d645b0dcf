"""Counter-based generator: determinism contracts and distribution sanity."""

import numpy as np
from hypothesis import given, settings, strategies as st

from jumpbsde import rng


def test_bit_identical_across_calls():
    p = np.arange(100, dtype=np.uint64)[:, None]
    s = np.arange(50, dtype=np.uint64)[None, :]
    a = rng.normal(42, rng.STREAM_BROWNIAN, p, s)
    b = rng.normal(42, rng.STREAM_BROWNIAN, p, s)
    assert np.array_equal(a, b)


def test_independent_of_batch_shape():
    # value at (path, slot) must not depend on how the batch is cut
    whole = rng.uniform(1, rng.STREAM_BROWNIAN,
                        np.arange(64, dtype=np.uint64)[:, None],
                        np.arange(16, dtype=np.uint64)[None, :])
    rows = [rng.uniform(1, rng.STREAM_BROWNIAN, np.uint64(k),
                        np.arange(16, dtype=np.uint64)) for k in range(64)]
    assert np.array_equal(whole, np.stack(rows))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=63))
def test_chunk_split_invariance(cut):
    paths = np.arange(64, dtype=np.uint64)[:, None]
    slots = np.arange(8, dtype=np.uint64)[None, :]
    whole = rng.normal(9, rng.STREAM_JUMP_GAP, paths, slots)
    top = rng.normal(9, rng.STREAM_JUMP_GAP, paths[:cut], slots)
    bot = rng.normal(9, rng.STREAM_JUMP_GAP, paths[cut:], slots)
    assert np.array_equal(whole, np.concatenate([top, bot]))


def test_streams_and_seeds_decorrelate():
    p = np.arange(20_000, dtype=np.uint64)
    a = rng.normal(3, rng.STREAM_BROWNIAN, p, np.uint64(0))
    b = rng.normal(3, rng.STREAM_JUMP_GAP, p, np.uint64(0))
    c = rng.normal(4, rng.STREAM_BROWNIAN, p, np.uint64(0))
    for x, y in ((a, b), (a, c)):
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4 / np.sqrt(p.size)


def test_uniform_and_normal_moments():
    u = rng.uniform(11, rng.STREAM_CLOUD,
                    np.arange(200_000, dtype=np.uint64), np.uint64(0))
    assert np.all((u > 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / u.size)
    assert abs(u.var() - 1 / 12) < 5e-4
    g = rng.normal(11, rng.STREAM_CLOUD,
                   np.arange(200_000, dtype=np.uint64), np.uint64(1))
    assert abs(g.mean()) < 4 / np.sqrt(g.size)
    assert abs(g.var() - 1.0) < 0.02


def test_negative_and_huge_seeds_accepted():
    out = rng.uniform(-17, 1, np.uint64(0), np.uint64(0))
    out2 = rng.uniform(2 ** 70 + 3, 1, np.uint64(0), np.uint64(0))
    assert 0 < float(out) < 1 and 0 < float(out2) < 1


def test_the_top_hash_maps_below_one():
    # the top 53-bit value rounds to 1.0 unclamped (and the normal to +inf);
    # it alone is clamped, to the largest float below 1, and the next value
    # down keeps its own, smaller uniform
    top, below = (1 << 64) - 1, (1 << 64) - 1 - (1 << 11)
    u = rng._to_uniform(np.array([top, top - 1, below], dtype=np.uint64))
    assert u[0] == u[1] == np.nextafter(1.0, 0.0)
    assert u[2] == ((2.0 ** 53 - 2) + 0.5) * 2.0 ** -53 == 1.0 - 2.0 ** -52
    from scipy.special import ndtri
    assert np.all(np.isfinite(ndtri(u)))
