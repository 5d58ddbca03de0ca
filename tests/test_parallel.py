"""The ordered map on two processes, the BLAS pin, and `infer_scene`'s
crops on two processes."""

import contextlib
import importlib.util
import multiprocessing
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

from meshseg import parallel
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import DEFAULT_RADII, HierarchyConfig
from meshseg.mesh.core import MeshValidationError
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.parallel import blas_threads, map_in_order
from meshseg.pipeline.crops import CropConfig, crop_windows
from meshseg.pipeline.infer import infer_scene
from meshseg.pipeline.toydata import NUM_TOY_CLASSES, ToySceneConfig, make_toy_scene


def blas_pinnable():
    with blas_threads(1) as pinned:
        return pinned


needs_pin = pytest.mark.skipif(not blas_pinnable(),
                               reason="neither threadpoolctl nor NumPy's OpenBLAS found")


def unpinnable(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)


def item_and_pid(i):
    return i, os.getpid()


def logged(fn, log):
    """fn, appending "index pid" to the file log on each call, in either process."""
    def call(i):
        with open(log, "a") as f:
            f.write(f"{i} {os.getpid()}\n")
        return fn(i)
    return call


def calls(log):
    """The (index, pid) of each logged call."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def slow_item_and_pid(i):
    time.sleep(0.02)
    return item_and_pid(i)


@needs_pin
@pytest.mark.parametrize("count", [2, 5, 6])
def test_every_index_runs_once_and_results_come_in_order(count, tmp_path):
    log = tmp_path / "calls"
    results = map_in_order(logged(slow_item_and_pid, log), count, processes=2)
    assert [i for i, _ in results] == list(range(count))
    assert sorted(calls(log)) == sorted(results)  # each index ran once, where it says
    assert multiprocessing.active_children() == []


@needs_pin
def test_the_counter_loses_no_claim_under_contention(tmp_path):
    """Both processes claim as fast as they can; an index claimed twice or
    not at all would show in the log."""
    log = tmp_path / "calls"
    results = map_in_order(logged(item_and_pid, log), 2000, processes=2)
    assert [i for i, _ in results] == list(range(2000))
    assert sorted(calls(log)) == sorted(results)


@needs_pin
def test_this_process_starts_no_thread_so_a_later_map_forks_again():
    """Both processes take items, twice over."""
    for _ in range(2):
        pids = {pid for _, pid in map_in_order(slow_item_and_pid, 30, processes=2)}
        assert len(pids) == 2 and os.getpid() in pids
        assert threading.active_count() == 1


@needs_pin
def test_the_worker_runs_at_most_window_results_ahead(tmp_path):
    log = tmp_path / "calls"
    with parallel.ordered_map(logged(item_and_pid, log), 20, processes=2, window=2) as take:
        assert take(1)[0] == 0
        time.sleep(0.5)
        # Item 0 and the worker's two results not yet taken.
        assert len(calls(log)) <= 3
        assert [take(20)[0] for _ in range(19)] == list(range(1, 20))
    assert sorted(i for i, _ in calls(log)) == list(range(20))
    assert multiprocessing.active_children() == []


@needs_pin
def test_a_consumer_that_raises_stops_the_worker_and_gives_blas_back(monkeypatch):
    log = fake_threadpoolctl(monkeypatch)
    with pytest.raises(KeyError):
        with parallel.ordered_map(slow_item_and_pid, 1000, processes=2) as take:
            take(1000)
            raise KeyError
    assert multiprocessing.active_children() == []
    assert log == [("limits", 1), "exit"]
    assert threading.active_count() == 1


@needs_pin
def test_results_larger_than_a_pipe_buffer_come_back_whole():
    results = map_in_order(lambda i: np.full(100_000, i), 5, processes=2)
    assert all(np.array_equal(r, np.full(100_000, i)) for i, r in enumerate(results))


@pytest.mark.parametrize("count, processes", [(5, 1), (1, 2), (0, 2)])
def test_one_process_or_one_item_starts_no_worker(count, processes):
    assert map_in_order(item_and_pid, count, processes) == [(i, os.getpid())
                                                          for i in range(count)]


def test_one_usable_cpu_starts_no_worker(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert map_in_order(item_and_pid, 4, processes=2) == [(i, os.getpid()) for i in range(4)]


def test_an_unpinnable_blas_starts_no_worker(monkeypatch):
    unpinnable(monkeypatch)
    with blas_threads(1) as pinned:
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


def fail_from(bad):
    def fn(i):
        time.sleep(0.05)
        if i >= bad:
            raise MeshValidationError(f"item {i} is broken in process {os.getpid()}")
        return i
    return fn


@needs_pin
@pytest.mark.parametrize("bad", [0, 1, 3])
def test_an_exception_is_raised_as_its_type_and_the_worker_joined(bad):
    """Every item from bad on fails, in whichever process takes it; the
    exception of the lowest failing index escapes, and no process is left
    behind."""
    with pytest.raises(MeshValidationError, match=f"item {bad} is broken"):
        map_in_order(fail_from(bad), 6, processes=2)
    assert multiprocessing.active_children() == []


@needs_pin
def test_the_lowest_failing_index_wins_over_a_later_failure_here():
    """This process takes item 0 and waits there for the worker to take
    item 1; the worker fails on it only after this process has failed on
    every later item. The worker's exception escapes."""
    here, worker_started = os.getpid(), multiprocessing.get_context("fork").Event()

    def fn(i):
        if os.getpid() != here:
            worker_started.set()
            time.sleep(0.2)
            raise KeyError(f"item {i} in the worker")
        if i > 0:
            raise ValueError(f"item {i} here")
        if not worker_started.wait(timeout=30):
            pytest.fail("the worker took no item")
        return i
    with pytest.raises(KeyError, match="in the worker"):
        map_in_order(fn, 6, processes=2)
    assert multiprocessing.active_children() == []


@needs_pin
def test_a_worker_that_dies_is_reported():
    here, worker_started = os.getpid(), multiprocessing.get_context("fork").Event()

    def fn(i):
        if os.getpid() != here:
            worker_started.set()
            os._exit(3)
        worker_started.wait(timeout=30)
        return i
    with pytest.raises(RuntimeError, match="exit code 3"):
        map_in_order(fn, 4, processes=2)
    assert multiprocessing.active_children() == []


def test_blas_threads_restores_the_count():
    openblas = parallel._openblas_threads()
    if openblas is None or importlib.util.find_spec("threadpoolctl") is not None:
        pytest.skip("the count is read through NumPy's OpenBLAS here")
    getter, _ = openblas
    before = getter()
    with blas_threads(1) as pinned:
        assert pinned and getter() == 1
    assert getter() == before
    with pytest.raises(KeyError), blas_threads(1):
        raise KeyError
    assert getter() == before


def fake_threadpoolctl(monkeypatch):
    """Put a stand-in `threadpoolctl` where `import threadpoolctl` finds it,
    whose `threadpool_limits` logs each cap and each exit; the log."""
    log = []

    @contextlib.contextmanager
    def threadpool_limits(limits):
        log.append(("limits", limits))
        try:
            yield
        finally:
            log.append("exit")
    module = types.ModuleType("threadpoolctl")
    module.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    return log


def test_blas_threads_goes_through_threadpoolctl_when_installed(monkeypatch):
    log = fake_threadpoolctl(monkeypatch)
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: pytest.fail("OpenBLAS reached"))
    with blas_threads(1) as pinned:
        assert pinned and log == [("limits", 1)]
    assert log == [("limits", 1), "exit"]
    with pytest.raises(KeyError), blas_threads(1):
        raise KeyError
    assert log[2:] == [("limits", 1), "exit"]


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
    assert parallel.usable_cpus() == (os.cpu_count() or 1)


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
    with blas_threads(1):
        serial = infer_scene(default_net, scene, HIER, NEIGH, seed=3, processes=1)
    split = infer_scene(default_net, scene, HIER, NEIGH, seed=3, processes=2)
    assert split.num_crops == serial.num_crops == crops
    assert np.array_equal(split.votes, serial.votes)
    assert np.array_equal(split.predictions, serial.predictions)
    assert multiprocessing.active_children() == []
