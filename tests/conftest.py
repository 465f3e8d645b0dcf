import os

import pytest

import jumpbsde as jb


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
    """Hand-crafted batch from explicit per-path jump events."""
    data = {
        "grid": grid.to_json_dict(),
        "d": d,
        "n_paths": len(events),
        "seed": 0,
        "marks": marks.to_json_dict(),
        "jump_events": events,
    }
    if increments is not None:
        data["brownian_increments"] = increments
    return jb.PathBatch.from_json_dict(data)
