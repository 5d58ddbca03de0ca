"""Independent work items on two processes, and the BLAS thread pin they
need.

On two CPUs, two processes at two BLAS threads each run slower than one
process, so a worker only runs while BLAS is pinned to one thread. The
worker is forked: it inherits the work (a network, a scene) without
pickling it and without importing NumPy and SciPy again. Fork copies only
the calling thread, so a lock that another Python thread held would stay
held in the worker; a worker is started only from a single-threaded
process. (OpenBLAS's own threads stop and restart across a fork.)
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import glob
import multiprocessing
import os
import threading
from typing import Callable, List, TypeVar

import numpy as np

T = TypeVar("T")


def _openblas_function(verb: str):
    """`openblas_{verb}_num_threads` of NumPy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for symbol in (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads"):
            try:
                return getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
    return None


def _openblas_thread_setter():
    """The set-num-threads function of NumPy's bundled OpenBLAS, or None."""
    setter = _openblas_function("set")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


def _openblas_thread_getter():
    """The get-num-threads function of NumPy's bundled OpenBLAS, or None."""
    getter = _openblas_function("get")
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


def _threadpool_limits():
    """threadpoolctl's `threadpool_limits`, or None when it is not installed."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    return threadpool_limits


def limit_blas_threads(n: int) -> bool:
    """Cap BLAS at n threads for the rest of the process: through
    threadpoolctl when it is installed, else through NumPy's bundled
    OpenBLAS. False, and nothing capped, when neither is found."""
    limits = _threadpool_limits()
    if limits is not None:
        limits(limits=n)
        return True
    setter = _openblas_thread_setter()
    if setter is None:
        return False
    setter(n)
    return True


@contextlib.contextmanager
def one_blas_thread():
    """Pin BLAS to one thread inside the block, and give it back the count
    it had after the block, the same two ways as `limit_blas_threads`.
    Yields whether the pin took: False, with nothing pinned, when neither
    way is found."""
    limits = _threadpool_limits()
    if limits is not None:
        with limits(limits=1):
            yield True
        return
    setter, getter = _openblas_thread_setter(), _openblas_thread_getter()
    if setter is None or getter is None:
        yield False
        return
    previous = getter()
    setter(1)
    try:
        yield True
    finally:
        setter(previous)


def map_in_order(fn: Callable[[int], T], count: int, processes: int = 1) -> List[T]:
    """[fn(0), fn(1), ..., fn(count - 1)].

    With processes >= 2 and at least two items, one fork-started worker
    runs the odd-numbered items while this process runs the even ones, both
    with BLAS pinned to one thread (`one_blas_thread`). The worker inherits
    fn and all it refers to; only results cross the pipe. This process takes
    the worker's results as they arrive, and waits for the worker only once
    its own items are done. The first exception seen is raised here, as the
    same type also when fn raised it in the worker, and the worker has been
    joined before this returns or raises.

    With processes=1, a single item, a BLAS that cannot be pinned, or a
    second Python thread running, every item runs in this process and no
    worker starts.
    """
    parallel = processes >= 2 and count >= 2 and threading.active_count() == 1
    with one_blas_thread() if parallel else contextlib.nullcontext(False) as pinned:
        if pinned:
            return _map_with_worker(fn, count)
        return [fn(i) for i in range(count)]


def _map_with_worker(fn, count):
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    worker = fork.Process(target=_run_odd_items, args=(fn, count, sender), daemon=True)
    worker.start()
    sender.close()  # so that a worker that dies reads as end of file
    try:
        results = [None] * count
        waiting = collections.deque(range(1, count, 2))
        for i in range(0, count, 2):
            results[i] = fn(i)
            # Take what the worker has sent so far: it waits on a full pipe for
            # at most one item, and this process waits for it only at the end.
            while waiting and receiver.poll():
                results[waiting.popleft()] = _received(receiver, worker)
        while waiting:
            results[waiting.popleft()] = _received(receiver, worker)
        return results
    except BaseException:
        worker.terminate()
        raise
    finally:
        worker.join()
        receiver.close()


def _run_odd_items(fn, count, sender):
    """The worker: send (True, fn(i)) for each odd i in turn, or (False,
    the exception) for the first fn that raises, and stop there."""
    for i in range(1, count, 2):
        try:
            message = (True, fn(i))
        except Exception as e:
            sender.send((False, e))
            return
        sender.send(message)


def _received(receiver, worker):
    try:
        ok, value = receiver.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"the worker process ended with exit code {worker.exitcode} "
                           f"before sending all of its results") from None
    if not ok:
        raise value
    return value
