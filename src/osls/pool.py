"""The process pool: one ordered map over forked workers, for table blocks and sweep points.

The pool is kept for the process's life and started again for a caller that asks for
another worker count, so it never holds more processes than asked for. Workers leave
Ctrl-C to the parent and exit once it has gone, even when it was killed.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from collections import deque
from itertools import islice
from typing import Optional

# The pool as (pid of the process that forked it, executor, worker count). A process
# forked from this one must not use the parent's executor, so it starts its own.
_POOL = None


def _close_pool() -> None:
    """Stop the workers, on a resize or at exit, while the executor's clean-up can run."""
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[1].shutdown(cancel_futures=True)
    _POOL = None


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _start_worker(parent: int) -> None:
    """Set up a worker: leave Ctrl-C to the parent, and exit once the parent has gone.

    A worker starts with SIGINT blocked (see ``_pool``), and unblocks it once
    it ignores it. A parent that exits normally stops its workers, but one
    that is killed cannot, and a worker waiting for items would then wait for
    ever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _pool(workers: Optional[int]):
    """``(executor, workers)``: the pool, of ``workers`` processes but at most one per
    usable core, and one per usable core when None; None below two workers."""
    global _POOL
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = cores if workers is None else min(workers, cores)
    if workers < 2:
        return None
    if _POOL is None or _POOL[0] != os.getpid() or _POOL[2] != workers:
        _close_pool()
        # Forked, not spawned: a spawned worker would first import numpy and
        # this package again, about 0.2 s of every command.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker, initargs=(os.getpid(),))
        # A fork context starts all its workers at the first submit, so a no-op
        # item starts them here, with SIGINT blocked: a Ctrl-C that reached a
        # worker before it ignored SIGINT would print a traceback and break the pool.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            executor.submit(int)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _POOL = (os.getpid(), executor, workers)
        atexit.register(_close_pool)
    return _POOL[1:]


def pushed_back(head: deque, items):
    """The items of ``head``, each taken out as it is yielded, then those of ``items``."""
    while head:
        yield head.popleft()
    yield from items


def map_in_order(fn, items, workers: Optional[int] = None):
    """``(item, fn(item))`` for each of ``items``, in order.

    Items go to the pool of ``workers`` (see ``_pool``) when there are at least two
    and it has two workers or more, and otherwise through ``fn`` in this process. At
    most two items per worker are in flight, so only a few are alive at once.
    """
    items = iter(items)
    head = deque(islice(items, 2))
    pool = _pool(workers) if len(head) == 2 else None
    items = pushed_back(head, items)
    if pool is None:
        for item in items:
            yield item, fn(item)
        return
    executor, workers = pool
    pending, window = deque(), 2 * workers
    try:
        for item in items:
            pending.append((item, executor.submit(fn, item)))
            if len(pending) >= window:
                item, future = pending.popleft()
                yield item, future.result()
        while pending:
            item, future = pending.popleft()
            yield item, future.result()
    finally:
        for _, future in pending:
            future.cancel()
