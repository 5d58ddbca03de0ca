"""The two-process in-order map, the BLAS pin, and `infer_scene`'s crops on
two processes."""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from meshseg import parallel
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import DEFAULT_RADII, HierarchyConfig
from meshseg.mesh.core import MeshValidationError
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.parallel import map_in_order, one_blas_thread
from meshseg.pipeline.crops import CropConfig, crop_windows
from meshseg.pipeline.infer import infer_scene
from meshseg.pipeline.toydata import NUM_TOY_CLASSES, ToySceneConfig, make_toy_scene


def blas_pinnable():
    with one_blas_thread() as pinned:
        return pinned


needs_pin = pytest.mark.skipif(not blas_pinnable(),
                               reason="neither threadpoolctl nor NumPy's OpenBLAS found")


def unpinnable(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(parallel, "_openblas_thread_setter", lambda: None)


def item_and_pid(i):
    return i, os.getpid()


@needs_pin
@pytest.mark.parametrize("count", [2, 5, 6])
def test_worker_takes_the_odd_items_in_order(count):
    results = map_in_order(item_and_pid, count, processes=2)
    assert [i for i, _ in results] == list(range(count))
    here = os.getpid()
    assert all(pid == here for _, pid in results[0::2])
    workers = {pid for _, pid in results[1::2]}
    assert len(workers) == 1 and here not in workers
    assert multiprocessing.active_children() == []


@needs_pin
def test_results_larger_than_a_pipe_buffer_come_back_whole():
    results = map_in_order(lambda i: np.full(100_000, i), 5, processes=2)
    assert all(np.array_equal(r, np.full(100_000, i)) for i, r in enumerate(results))


@pytest.mark.parametrize("count, processes", [(5, 1), (1, 2), (0, 2)])
def test_one_process_or_one_item_starts_no_worker(count, processes):
    assert map_in_order(item_and_pid, count, processes) == [(i, os.getpid())
                                                          for i in range(count)]


def test_an_unpinnable_blas_starts_no_worker(monkeypatch):
    unpinnable(monkeypatch)
    with one_blas_thread() as pinned:
        assert not pinned
    assert map_in_order(item_and_pid, 4, processes=2) == [(i, os.getpid()) for i in range(4)]


def test_a_second_thread_starts_no_worker():
    """Fork copies only the calling thread, so it is not used beside another."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = map_in_order(item_and_pid, 4, processes=2)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert results == [(i, os.getpid()) for i in range(4)]


def fail_at(bad):
    def fn(i):
        if i == bad:
            raise MeshValidationError(f"item {i} is broken")
        time.sleep(0.05)
        return i
    return fn


@needs_pin
@pytest.mark.parametrize("bad", [0, 1, 3])
def test_an_exception_is_raised_as_its_type_and_the_worker_joined(bad):
    """In the worker (odd items) or here (even items), the first exception
    in item order escapes, and no process is left behind."""
    with pytest.raises(MeshValidationError, match=f"item {bad} is broken"):
        map_in_order(fail_at(bad), 6, processes=2)
    assert multiprocessing.active_children() == []


@needs_pin
def test_a_worker_that_dies_is_reported():
    def fn(i):
        if i == 1:
            os._exit(3)
        return i
    with pytest.raises(RuntimeError, match="exit code 3"):
        map_in_order(fn, 4, processes=2)
    assert multiprocessing.active_children() == []


def test_one_blas_thread_restores_the_count():
    getter = parallel._openblas_thread_getter()
    if getter is None or parallel._threadpool_limits() is not None:
        pytest.skip("the count is read through NumPy's OpenBLAS here")
    before = getter()
    with one_blas_thread() as pinned:
        assert pinned and getter() == 1
    assert getter() == before


# The scaled-infer scene of perfbench (9 crops) and a scene with one crop, with
# the default network and the command line's default hierarchy and radii.
HIER = HierarchyConfig(strategy="vc+qem", fps_seed=0)
NEIGH = [NeighborhoodConfig(kind="radius", radius=r) for r in DEFAULT_RADII]


@pytest.fixture(scope="module")
def default_net():
    return SegmentationNetwork(NetworkConfig.dual_default(NUM_TOY_CLASSES, 4, 1))


@pytest.mark.parametrize("tiles, crops", [(6, 9), (2, 1)])
def test_two_processes_vote_as_one_at_one_blas_thread(default_net, tiles, crops):
    scene = make_toy_scene(0, ToySceneConfig(tiles_per_side=tiles))
    assert len(crop_windows(scene, CropConfig())) == crops
    with one_blas_thread():
        serial = infer_scene(default_net, scene, HIER, NEIGH, seed=3, processes=1)
    split = infer_scene(default_net, scene, HIER, NEIGH, seed=3, processes=2)
    assert split.num_crops == serial.num_crops == crops
    assert np.array_equal(split.votes, serial.votes)
    assert np.array_equal(split.predictions, serial.predictions)
    assert multiprocessing.active_children() == []
