"""Counter-based random variates for reproducible Monte Carlo.

Every variate is a pure function of (seed, stream, path, slot): a 64-bit
integer counter is hashed with three rounds of splitmix64-style mixing and
mapped to a uniform in (0,1) or to a normal via the inverse CDF. Because no
generator state is carried between calls, a batch can be produced whole, in
chunks, or path-range by path-range and the values are bit-identical; this is
what makes disjoint path ranges safe to generate concurrently.

The inverse normal CDF is scipy's ``ndtri``, imported on the first normal
draw: scipy is a Monte Carlo dependency, and a run that draws no normals
(the scenario tree and the lattice) never loads it.
"""

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
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1


def _mix64(x):
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64 by construction
    x = (x ^ (x >> np.uint64(30))) * _MUL1
    x = (x ^ (x >> np.uint64(27))) * _MUL2
    return x ^ (x >> np.uint64(31))


def counter_hash(seed, stream, path, slot):
    """Hash (seed, stream, path, slot) to uint64; path/slot broadcast as arrays."""
    with np.errstate(over="ignore"):
        h = _mix64(np.asarray(np.uint64(int(seed) & _U64)))
        h = _mix64(h ^ (np.uint64(int(stream) & _U64) * _GOLDEN))
        h = _mix64(h ^ (np.asarray(path, dtype=np.uint64) * _GOLDEN))
        h = _mix64(h ^ (np.asarray(slot, dtype=np.uint64) * _GOLDEN))
    return h


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _to_uniform(h):
    """The uniform in (0, 1) of uint64 hashes: their top 53 bits, centered
    on the representable grid. The top value alone rounds to 1.0 and is
    clamped to the largest float below 1; every other value is below it."""
    u = np.asarray(((h >> np.uint64(11)).astype(np.float64) + 0.5)
                   * (2.0 ** -53))
    return np.minimum(u, _BELOW_ONE, out=u)


def uniform(seed, stream, path, slot):
    """Uniform variates in the open interval (0, 1)."""
    return _to_uniform(counter_hash(seed, stream, path, slot))


def normal(seed, stream, path, slot):
    """Standard normal variates via the inverse CDF."""
    from scipy.special import ndtri
    return ndtri(uniform(seed, stream, path, slot))
