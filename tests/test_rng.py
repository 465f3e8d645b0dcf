"""Counter-based generator: determinism contracts and distribution sanity."""

import inspect
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import jumpbsde as jb
from conftest import assert_same
from jumpbsde import randomness, rng


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


def _brownian_keys(n, N, d, path_start):
    """The (path, slot) arrays ``simulate_brownian`` draws its batch on."""
    paths = np.arange(path_start, path_start + n,
                      dtype=np.uint64).reshape(-1, 1, 1)
    slots = (np.arange(N, dtype=np.uint64).reshape(1, -1, 1) * np.uint64(d)
             + np.arange(d, dtype=np.uint64).reshape(1, 1, -1))
    return paths, slots


# (n, N, d, path_start): odd and single-path batches below 2^16 variates,
# and batches above 2^17, whose ranges take more than one block each
@pytest.mark.parametrize("n, N, d, path_start", [
    (1, 7, 1, 0), (1, 3, 2, 40), (7, 5, 3, 11), (9, 4, 1, 0), (2, 2, 2, 3),
    (3001, 50, 1, 0), (1001, 50, 3, 9), (2001, 40, 2, 77)])
@pytest.mark.parametrize("ranges", [1, 2, 3, 4])
def test_the_number_of_ranges_changes_no_bit(n, N, d, path_start, ranges):
    # the old draw, sqrt(dt) * ndtri(uniform) of the whole batch, is the
    # reference; P ranges split n paths unevenly whenever P does not divide n
    paths, slots = _brownian_keys(n, N, d, path_start)
    scale = math.sqrt(1.0 / N)
    want = scale * ndtri(rng.uniform(5, rng.STREAM_BROWNIAN, paths, slots))
    assert_same(rng._normal(5, rng.STREAM_BROWNIAN, paths, slots, scale,
                            ranges), want)
    assert_same(rng.normal(5, rng.STREAM_BROWNIAN, paths, slots, scale), want)
    batch = jb.simulate_brownian(jb.make_time_grid(1.0, N), d, n, 5,
                                 path_start=path_start)
    assert_same(batch.brownian_increments, want)


def test_four_ranges_under_frequent_thread_switches():
    # more ranges than this host's cores, switching threads every
    # microsecond: a lost or overlapping range would change a bit
    paths, slots = _brownian_keys(2999, 45, 1, 17)
    want = 0.5 * ndtri(rng.uniform(2, rng.STREAM_BROWNIAN, paths, slots))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert_same(rng._normal(2, rng.STREAM_BROWNIAN, paths, slots,
                                    0.5, 4), want)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == 1


def test_normal_keeps_the_shape_of_its_broadcast():
    # a scalar draw is a scalar, a 1-d draw keeps its axis, and a draw whose
    # first axis comes from the slot still splits along it
    assert isinstance(rng.normal(1, 2, 3, 4), np.float64)
    assert rng.normal(1, 2, 3, 4) == ndtri(rng.uniform(1, 2, 3, 4))
    p = np.arange(5, dtype=np.uint64)
    s = np.arange(3, dtype=np.uint64)
    for path, slot in ((p, np.uint64(0)), (p[None, :], s[:, None]),
                       (p[:, None], s[None, :])):
        want = ndtri(rng.uniform(8, 1, path, slot))
        for ranges in (1, 3):
            got = rng._normal(8, 1, path, slot, 1.0, ranges)
            assert got.shape == want.shape
            assert_same(got, want)


def test_ranges_follow_the_cores_and_the_batch(monkeypatch):
    monkeypatch.setattr(rng, "_cpu_count", lambda: 8)
    assert [rng._ranges(v) for v in (1, 2 ** 16, 2 ** 17 - 1, 2 ** 17,
                                      3 * 2 ** 16, 10 ** 8)] == [1, 1, 1, 2,
                                                                  3, 4]
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    assert rng._ranges(10 ** 8) == 2


def _public_callables(module):
    """(owner, attribute, function) of each public function of ``module``
    and each public method of its public classes."""
    out = []
    for name, obj in vars(module).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj))
        elif inspect.isclass(obj):
            out.extend((obj, attr, fn) for attr, fn in vars(obj).items()
                       if not attr.startswith("_") and inspect.isfunction(fn))
    return out


def test_workers_call_no_public_function(monkeypatch):
    # a traced run wraps the public callables in a span stack that belongs
    # to one thread: a draw on four ranges must call none of them from a
    # worker, and the workers do run (``_fill_rows`` off the main thread)
    off_main, fill_threads = [], []

    def main_only(fn, name):
        def checked(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return checked

    for module in (rng, randomness):
        for owner, attr, fn in _public_callables(module):
            monkeypatch.setattr(owner, attr, main_only(fn, attr))
    fill = rng._fill_rows

    def recorded(*args):
        fill_threads.append(threading.current_thread())
        return fill(*args)

    monkeypatch.setattr(rng, "_fill_rows", recorded)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 4)
    grid = jb.make_time_grid(1.0, 50)
    batch = randomness.simulate_brownian(grid, 1, 8000, seed=3)
    assert len(fill_threads) == 4 and len(set(fill_threads)) == 4
    assert off_main == []
    assert threading.active_count() == 1
    paths, slots = _brownian_keys(8000, 50, 1, 0)
    assert_same(batch.brownian_increments, math.sqrt(grid.dt) * ndtri(
        rng.uniform(3, rng.STREAM_BROWNIAN, paths, slots)))


def test_a_worker_error_is_raised_after_every_worker_is_joined(monkeypatch):
    fill = rng._fill_rows

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker")
        return fill(*args)

    monkeypatch.setattr(rng, "_fill_rows", failing)
    paths, slots = _brownian_keys(40, 3, 1, 0)
    with pytest.raises(MemoryError, match="worker"):
        rng._normal(1, rng.STREAM_BROWNIAN, paths, slots, 1.0, 3)
    assert threading.active_count() == 1
