"""An ordered map over tasks, computed by worker processes forked from this one.

``forked_map(fn, tasks, workers)`` yields fn(task) for every task, in
task order.  The workers inherit fn at the fork, closures and shared
anonymous mappings included, so only the tasks and their results are
pickled.  That inheritance needs the fork start method, which copies
only the calling thread: call from a process whose other threads hold
no lock fn needs.  A worker holds at most two tasks, and no task is
sent more than 2 * workers tasks ahead of the next result yielded, so a
slow consumer holds only a few results.  Each worker sends its peak
resident set with every result, kept in ``worker_peaks``.
``multiprocessing`` is imported on the first map, not with this module.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from collections.abc import Callable, Iterator, Sequence
from typing import Any

__all__ = ["worker_count", "forked_map", "worker_peaks"]

# one entry per worker forked_map has started in this process, in start order:
# the ru_maxrss the worker sent with its latest result, 0 before its first
worker_peaks: list[int] = []


def worker_count() -> int:
    """Worker processes a large map should use: one per core this process may run on.

    Without ``os.sched_getaffinity`` (outside Linux) the answer is 1, and
    callers stay in this process.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def forked_map(fn: Callable[[Any], Any], tasks: Sequence, workers: int) -> Iterator:
    """Yield fn(task) for every task, in task order, from `workers` forked processes.

    An exception fn raises in a worker is raised here, caused by a
    RuntimeError holding the worker's traceback; a worker that dies
    raises RuntimeError.  Once the generator ends, raises or is closed,
    no worker is left running.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    # a forked child flushes its inherited copy of these buffers on exit
    sys.stdout.flush()
    sys.stderr.flush()
    procs: dict = {}  # parent's connection -> worker process
    slots: dict = {}  # parent's connection -> the worker's index in worker_peaks
    try:
        for _ in range(workers):
            ours, theirs = context.Pipe()
            proc = context.Process(target=_serve, args=(fn, theirs, [*procs, ours]),
                                   daemon=True)
            proc.start()
            theirs.close()
            procs[ours] = proc
            slots[ours] = len(worker_peaks)
            worker_peaks.append(0)
        queued: dict = {conn: [] for conn in procs}  # tasks sent to each worker, in order
        done: dict = {}  # task index -> result not yet yielded
        sent = 0
        for i in range(len(tasks)):
            while i not in done:
                for conn, queue in queued.items():
                    # two tasks a worker, so that the next one is waiting
                    # when a worker returns a result
                    while len(queue) < 2 and sent < min(len(tasks), i + 2 * workers):
                        try:
                            conn.send(tasks[sent])
                        except ConnectionError:
                            raise _worker_died(procs[conn]) from None
                        queue.append(sent)
                        sent += 1
                for conn in wait([conn for conn, queue in queued.items() if queue]):
                    done[queued[conn].pop(0)] = _receive(conn, procs[conn], slots[conn])
            yield done.pop(i)
    finally:
        # idle workers wait for a task, and after an error busy ones are
        # not needed: every worker is terminated, then reaped
        for conn, proc in procs.items():
            conn.close()
            proc.terminate()
        for proc in procs.values():
            proc.join()


def _receive(conn, proc, slot: int) -> Any:
    """One task's result from a worker, or its exception raised here."""
    try:
        worker_peaks[slot], ok, *reply = conn.recv()
    except (EOFError, ConnectionError):
        raise _worker_died(proc) from None
    if ok:
        return reply[0]
    exc, worker_traceback = reply
    raise exc from RuntimeError(f"raised in worker process {proc.pid}:\n{worker_traceback}")


def _worker_died(proc) -> RuntimeError:
    proc.join()
    return RuntimeError(f"worker process {proc.pid} exited with code {proc.exitcode}")


def _serve(fn: Callable[[Any], Any], conn, parent_ends: list) -> None:
    """A forked worker: send back fn(task) for each task received on conn.

    The worker first closes the parent's ends of every worker's pipe that
    the fork copied, so that its recv ends when the parent exits, however
    it exits, and leaves Ctrl-C to the parent, which stops every worker.
    It stops after sending an exception, since the parent raises it.
    Each reply starts with the worker's ru_maxrss so far.
    """
    import resource

    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, ConnectionError):  # the parent is gone
            return
        try:
            reply = (True, fn(task))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # the parent could not rebuild it: keep type name and message
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = (False, exc, traceback.format_exc())
        try:
            conn.send((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, *reply))
        except ConnectionError:  # the parent is gone
            return
        if not reply[0]:
            return
