"""Counter-based random variates for reproducible Monte Carlo.

Every variate is a pure function of (seed, stream, path, slot): a 64-bit
integer counter is hashed with three rounds of splitmix64-style mixing and
mapped to a uniform in (0,1) or to a normal via the inverse CDF. Because no
generator state is carried between calls, a batch can be produced whole, in
chunks, or path-range by path-range and the values are bit-identical.

``normal`` uses this to fill its output in place, one contiguous range of
paths (rows of the output's first axis) per core: up to four ranges, and no
more than one per 2^16 variates. The calling thread hashes (seed, stream,
path) once per path and allocates the output and one block of uint64
scratch per range; it fills the first range itself while
``threading.Thread`` workers fill the others, and it returns once every
worker is joined, re-raising the first exception a worker met. A range is finished block by block through ``out=``
ufuncs, so workers allocate no array and call no public function of the
package. The number of ranges changes no bit.

The inverse normal CDF is scipy's ``ndtri``, imported on the first normal
draw, on the calling thread before any worker starts: scipy is a Monte Carlo
dependency, and a run that draws no normals (the scenario tree and the
lattice) never loads it and starts no thread.
"""

import math
import os
import threading

import numpy as np

__all__ = [
    "STREAM_BROWNIAN",
    "STREAM_JUMP_GAP",
    "STREAM_JUMP_MARK",
    "STREAM_CLOUD",
    "counter_hash",
    "uniform",
    "normal",
]

# stream tags keep independent uses of the same (seed, path, slot) decorrelated
STREAM_BROWNIAN = 0x01
STREAM_JUMP_GAP = 0x02
STREAM_JUMP_MARK = 0x03
STREAM_CLOUD = 0x04

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U64 = (1 << 64) - 1
# splitmix64 finalizer rounds: x ^= x >> shift, then x *= multiplier
_ROUNDS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
           (np.uint64(27), np.uint64(0x94D049BB133111EB)),
           (np.uint64(31), None))
_MANTISSA_SHIFT = np.uint64(11)
# normal() fills at most this many path ranges at once, each of at least
# _BLOCK variates, and finishes a range _BLOCK variates (or one row) at a time
_MAX_RANGES = 4
_BLOCK = 1 << 16


def _mix64(x):
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64 by construction
    for shift, mul in _ROUNDS:
        x = x ^ (x >> shift)
        if mul is not None:
            x = x * mul
    return x


def _mix64_into(x, t):
    """``_mix64`` of the uint64 array x, in place; t (x's shape) is scratch."""
    for shift, mul in _ROUNDS:
        np.right_shift(x, shift, out=t)
        np.bitwise_xor(x, t, out=x)
        if mul is not None:
            np.multiply(x, mul, out=x)


def _path_hash(seed, stream, path):
    """The hash of (seed, stream, path): every round but the slot's."""
    with np.errstate(over="ignore"):
        h = _mix64(np.asarray(np.uint64(int(seed) & _U64)))
        h = _mix64(h ^ (np.uint64(int(stream) & _U64) * _GOLDEN))
        return _mix64(h ^ (np.asarray(path, dtype=np.uint64) * _GOLDEN))


def _slot_key(slot):
    """What the slot round xors into the path hash."""
    with np.errstate(over="ignore"):
        return np.asarray(slot, dtype=np.uint64) * _GOLDEN


def counter_hash(seed, stream, path, slot):
    """Hash (seed, stream, path, slot) to uint64; path/slot broadcast as arrays."""
    with np.errstate(over="ignore"):
        return _mix64(_path_hash(seed, stream, path) ^ _slot_key(slot))


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _center(u):
    """The uniform in (0, 1) of the top-53-bit values u (float64), in place:
    (u + 0.5) * 2^-53, centered on the representable grid. The top value
    alone rounds to 1.0 and is clamped to the largest float below 1; every
    other value is below it."""
    np.add(u, 0.5, out=u)
    np.multiply(u, 2.0 ** -53, out=u)
    return np.minimum(u, _BELOW_ONE, out=u)


def _to_uniform(h):
    """The uniform in (0, 1) of uint64 hashes: their top 53 bits, centered."""
    return _center(np.asarray((h >> _MANTISSA_SHIFT).astype(np.float64)))


def uniform(seed, stream, path, slot):
    """Uniform variates in the open interval (0, 1)."""
    return _to_uniform(counter_hash(seed, stream, path, slot))


def normal(seed, stream, path, slot, scale=1.0):
    """Standard normal variates via the inverse CDF, times ``scale``: the
    bits of ``scale * ndtri(uniform(seed, stream, path, slot))``, drawn one
    contiguous path range per core (see the module docstring)."""
    return _normal(seed, stream, path, slot, scale, None)


def _cpu_count():
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without CPU affinity
        return os.cpu_count() or 1


def _ranges(variates):
    """How many path ranges a draw of ``variates`` normals fills at once."""
    return min(_cpu_count(), _MAX_RANGES, max(1, variates // _BLOCK))


def _normal(seed, stream, path, slot, scale, ranges):
    """``normal`` filled as ``ranges`` contiguous path ranges (None: as many
    as ``_ranges`` gives), the first on the calling thread."""
    from scipy.special import ndtri
    hashes, keys = _path_hash(seed, stream, path), _slot_key(slot)
    shape = np.broadcast_shapes(hashes.shape, keys.shape)
    full = shape or (1,)
    out = np.empty(full)
    rows, row = full[0], math.prod(full[1:])
    if ranges is None:
        ranges = _ranges(out.size)
    ranges = max(1, min(ranges, rows))
    # rows per block: _BLOCK variates, at least one row, at most a range
    block = max(1, min(_BLOCK // max(row, 1), -(-rows // ranges)))
    scratch = np.empty((ranges, block) + full[1:], dtype=np.uint64)
    hashes, keys = np.broadcast_to(hashes, full), np.broadcast_to(keys, full)
    cuts = [rows * i // ranges for i in range(ranges + 1)]
    jobs = [(out, scratch[i], hashes, keys, scale, ndtri, cuts[i], cuts[i + 1])
            for i in range(ranges)]
    errors, started = [], []
    try:
        for job in jobs[1:]:
            worker = threading.Thread(target=_fill_or_keep_error,
                                      args=(errors, job))
            worker.start()
            started.append(worker)
        _fill_rows(*jobs[0])
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]
    return out.reshape(shape) if shape else out[0]


def _fill_or_keep_error(errors, job):
    """A worker's body: ``_fill_rows(*job)``, its exception kept for the
    thread that joins it."""
    try:
        _fill_rows(*job)
    except Exception as e:      # re-raised by _normal on the calling thread
        errors.append(e)


def _fill_rows(out, scratch, hashes, keys, scale, ndtri, start, stop):
    """Rows [start, stop) of ``out``: scale * ndtri(uniform) of the slot
    round on ``hashes ^ keys``, a block of ``len(scratch)`` rows at a time.
    The block's uint64 hashes are mixed in ``scratch`` with the output block
    as the second buffer, and every later step writes the output block."""
    step = len(scratch)
    for a in range(start, stop, step):
        b = min(a + step, stop)
        h, u = scratch[:b - a], out[a:b]
        np.bitwise_xor(hashes[a:b], keys[a:b], out=h)
        _mix64_into(h, u.view(np.uint64))
        np.right_shift(h, _MANTISSA_SHIFT, out=h)
        np.copyto(u, h)         # exact: the values are below 2^53
        _center(u)
        ndtri(u, out=u)
        np.multiply(u, scale, out=u)
