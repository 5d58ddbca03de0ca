"""Work items in index order on this process and one forked worker, the
scoped BLAS thread cap they need (which `--threads` uses too), and the
count of usable CPUs.

`ordered_map` forks one worker beside this process. Each of the two takes
the next untaken index from a shared counter, so neither waits on a share
fixed in advance. The consumer here takes the results in index order, and
with each take it gives a horizon: this process claims an item itself only
below it. `infer_scene` gives every item; `train` gives the end of the
batch it waits for, so that its steps run while the worker prepares the
samples after them. The worker runs ahead by at most `window` results not
yet taken.

On two CPUs, two processes at two BLAS threads each run slower than one
process, so a worker only runs while BLAS is pinned to one thread. The
worker is forked: it inherits the work (a network, a scene, a random
generator's state) without pickling it and without importing NumPy and
SciPy again; only results cross back. Fork copies only the calling thread,
so a lock that another Python thread held would stay held in the worker; a
worker is started only from a single-threaded process, and this process
starts no thread of its own, so a later map may fork again. (OpenBLAS's own
threads stop and restart across a fork.)
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import multiprocessing
import os
import pickle
import queue
import threading
from typing import Callable, Iterator, List, Optional, TypeVar

import numpy as np

T = TypeVar("T")


def _openblas_threads():
    """The (get, set) num-threads functions of NumPy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                library = ctypes.CDLL(lib)
                get = getattr(library, symbol.format("get"))
                set_ = getattr(library, symbol.format("set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n: int):
    """Cap BLAS at n threads inside the block, and give it back the count it
    had after the block: through threadpoolctl when it is installed, else
    through NumPy's bundled OpenBLAS. Yields whether the cap took: False,
    with nothing capped, when neither is found."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pass
    else:
        with threadpool_limits(limits=n):
            yield True
        return
    openblas = _openblas_threads()
    if openblas is None:
        yield False
        return
    get, set_ = openblas
    previous = get()
    set_(n)
    try:
        yield True
    finally:
        set_(previous)


def usable_cpus() -> int:
    """The CPUs this process may run on; the machine's count where the
    system cannot say (macOS has no `os.sched_getaffinity`)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_order(fn: Callable[[int], T], count: int, processes: int = 1) -> List[T]:
    """[fn(0), fn(1), ..., fn(count - 1)], through `ordered_map` with every
    item below the horizon, so that both processes run items until none is
    left."""
    with ordered_map(fn, count, processes) as take:
        return [take(count) for _ in range(count)]


@contextlib.contextmanager
def ordered_map(fn: Callable[[int], T], count: int, processes: int = 1,
                window: Optional[int] = None) -> Iterator[Callable[[int], T]]:
    """Yields take(horizon), whose calls return fn(0), fn(1), ...,
    fn(count - 1) in turn. Each horizon must lie above the index taken.

    With min(processes, usable CPUs) >= 2, at least two items, a BLAS that
    `blas_threads(1)` pins for the whole block and no second Python thread,
    a fork-started worker runs beside this process. Each process claims the
    next untaken index from a shared counter: the worker while it is fewer
    than `window` results (default: no bound) ahead of the takes, this
    process only inside take, only while the item it waits for has not
    arrived, and only below the horizon. An exception that fn raises, in
    either process, is that item's result: take raises it, as its own type,
    when its item comes up, so the error seen is that of the lowest failing
    index. A worker that ends before sending an item that is taken raises
    RuntimeError naming its exit code. The worker is stopped and joined
    when the block ends, also when the consumer raises.

    Otherwise no worker starts, and take calls fn on the next index here.
    """
    parallel = (min(processes, usable_cpus()) >= 2 and count >= 2
                and threading.active_count() == 1)
    with blas_threads(1) if parallel else contextlib.nullcontext(False) as pinned:
        if not pinned:
            items = iter(range(count))
            yield lambda horizon: fn(next(items))
            return
        stream = _WorkerStream(fn, count, min(window or count, count))
        try:
            yield stream.take
        finally:
            stream.close()


class _WorkerStream:
    """This process's side of an `ordered_map` with a worker."""

    def __init__(self, fn, count, window):
        fork = multiprocessing.get_context("fork")
        self.fn, self.count = fn, count
        self.counter = fork.Value("q", 0)   # the next untaken index
        self.lead = fork.Semaphore(window)  # one unit per worker result not yet taken
        self.receiver, sender = fork.Pipe(duplex=False)
        self.worker = fork.Process(target=_work, daemon=True,
                                   args=(fn, count, self.counter, self.lead, sender))
        self.worker.start()
        sender.close()  # so that a worker that has ended reads as end of file
        self.done = {}  # index -> (ok, result or exception, whether the worker sent it)
        self.taken = 0

    def take(self, horizon: int):
        i = self.taken
        while i not in self.done:
            if self.receiver is not None and self.receiver.poll():
                self._receive()
            elif (claimed := _claim(self.counter, min(horizon, self.count))) is not None:
                self.done[claimed] = (*_call(self.fn, claimed), False)
            elif self.receiver is not None:
                self._receive()  # waits for the worker
            else:
                raise RuntimeError(f"the worker process ended with exit code "
                                   f"{self.worker.exitcode} before sending item {i}")
        ok, value, sent = self.done.pop(i)
        self.taken += 1
        if sent:
            self.lead.release()
        if not ok:
            raise value
        return value

    def _receive(self):
        try:
            i, ok, value = pickle.loads(self.receiver.recv_bytes())
        except (EOFError, OSError):  # OSError: the worker ended inside a message
            self.receiver.close()
            self.receiver = None
            self.worker.join()
        else:
            self.done[i] = (ok, value, True)

    def close(self):
        self.worker.terminate()
        self.worker.join()
        if self.receiver is not None:
            self.receiver.close()


def _claim(counter, limit: int) -> Optional[int]:
    """The next untaken index, now taken, if it lies below limit."""
    with counter.get_lock():
        i = counter.value
        if i >= limit:
            return None
        counter.value = i + 1
    return i


def _call(fn, i):
    try:
        return True, fn(i)
    except Exception as e:
        return False, e


def _work(fn, count, counter, lead, sender):
    """The worker: while its lead allows, claim the next untaken index and
    send (index, ok, result or exception), until no index is left or an
    item fails. A thread of its own sends, so that a result larger than the
    pipe holds does not stop the next item's work until it is read."""
    outbox = queue.SimpleQueue()
    sending = threading.Thread(target=_send_all, args=(outbox, sender))
    sending.start()
    try:
        ok, parent = True, os.getppid()
        while ok and _wait_for_lead(lead, parent):
            i = _claim(counter, count)
            if i is None:
                break
            ok, value = _call(fn, i)
            outbox.put(pickle.dumps((i, ok, value), protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        outbox.put(None)
        sending.join()


def _wait_for_lead(lead, parent: int) -> bool:
    """Take a unit of lead; False, to stop, once the parent has ended."""
    while not lead.acquire(timeout=1.0):
        if os.getppid() != parent:
            return False
    return True


def _send_all(outbox, sender):
    while (message := outbox.get()) is not None:
        sender.send_bytes(message)
