import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.database import DirectoryBasedExampleDatabase

import jumpbsde as jb
from jumpbsde import randomness

# Hypothesis keeps its example database (failing examples replay from it)
# and its other files in the user's cache directory, not in the checkout.
_HYPOTHESIS_HOME = (os.environ.get("HYPOTHESIS_STORAGE_DIRECTORY")
                    or os.path.join(os.environ.get("XDG_CACHE_HOME")
                                    or os.path.expanduser("~/.cache"),
                                    "jumpbsde", "hypothesis"))
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
settings.register_profile("jumpbsde", database=DirectoryBasedExampleDatabase(
    os.path.join(_HYPOTHESIS_HOME, "examples")))
settings.load_profile("jumpbsde")


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_package():
    """Child processes (``python -m jumpbsde.cli``) import the package the
    tests import, also when pytest itself put ``src`` on the path."""
    src = os.path.dirname(os.path.dirname(jb.__file__))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def unit_grid():
    return jb.make_time_grid(1.0, 10)


@pytest.fixture(scope="session")
def single_mark():
    return jb.make_mark_space([[1.0]], [2.0])


@pytest.fixture(scope="session")
def two_marks():
    return jb.make_mark_space([[1.0], [2.0]], [1.0, 3.0])


@pytest.fixture(scope="session")
def big_batch(unit_grid, single_mark):
    # shared 1e5-path batch for the statistical tests (seed-pinned)
    return jb.simulate_paths(unit_grid, single_mark, 1, 100_000, seed=7)


def hand_batch(grid, marks, events, d=1, increments=None):
    """Hand-crafted batch from explicit per-path jump events (lists of
    (time, mark index)) and, optionally, Brownian increments (n, N, d)."""
    times = np.array([t for path in events for t, _ in path], dtype=float)
    mark_idx = np.array([i for path in events for _, i in path],
                        dtype=np.int64)
    offsets = np.cumsum([0] + [len(path) for path in events], dtype=np.int64)
    if increments is not None:
        increments = np.array(increments, dtype=float)
        increments.setflags(write=False)
    return jb.PathBatch(grid=grid, d=d, n_paths=len(events), seed=0,
                        brownian_increments=increments, marks=marks,
                        **randomness._freeze_jumps(grid, times, mark_idx,
                                                   offsets))


def assert_same(got, want):
    """Bit-for-bit equality of two arrays or sequences of floats."""
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def random_levels(rng, sizes, width=None, coarse=False):
    """Random per-depth levels, of ``sizes[k]`` states at depth k, over many
    scales and with some zeros; coarse values (multiples of 1/2) repeat
    across depths, so first-hit rules meet their level exactly."""
    out = []
    for n in sizes:
        shape = (n,) + (() if width is None else (width,))
        if coarse:
            vals = rng.integers(-3, 4, size=shape) * 0.5
        else:
            vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3,
                                                                size=shape)
            vals[rng.uniform(size=shape) < 0.1] = 0.0
        out.append(vals)
    return out


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` run under tracemalloc: (its result, the bytes
    it left allocated, its peak bytes), both counted from the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base
