"""An ordered map over tasks, computed by worker processes forked from this one.

``forked_map(fn, tasks, workers)`` yields fn(task) for every task, in
task order.  Worker w is forked holding its share, every workers-th task
from task w, and inherits it with fn at the fork, closures and shared
anonymous mappings included, so only the results are pickled.  That
inheritance needs the fork start method, which copies only the calling
thread: call from a process whose other threads hold no lock fn needs.
A worker computes its share in order and sends each result on a one-way
pipe, so the result for task i is the next message from worker
i % workers.  A worker whose pipe is full blocks until the parent reads,
so a slow consumer holds at most a pipe's buffer and one result a
worker.  Each worker sends its peak resident set with every result,
kept in ``worker_peaks``.  ``multiprocessing`` is imported on the first
map, not with this module.
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

    context = multiprocessing.get_context("fork")
    # a forked child flushes its inherited copy of these buffers on exit
    sys.stdout.flush()
    sys.stderr.flush()
    procs: list = []  # (parent's read end, worker process, index in worker_peaks), by worker
    try:
        for w in range(workers):
            ours, theirs = context.Pipe(duplex=False)
            proc = context.Process(target=_serve, daemon=True, args=(
                fn, tasks[w::workers], theirs, [conn for conn, _, _ in procs] + [ours]))
            proc.start()
            theirs.close()
            procs.append((ours, proc, len(worker_peaks)))
            worker_peaks.append(0)
        # enumerate, not len: a range of tasks may be longer than len can report
        for i, _ in enumerate(tasks):
            yield _receive(*procs[i % workers])
    finally:
        # after an error, or once the consumer stops, busy workers are
        # not needed: every worker is terminated, then reaped
        for conn, proc, _ in procs:
            conn.close()
            proc.terminate()
        for _, proc, _ in procs:
            proc.join()


def _receive(conn, proc, slot: int) -> Any:
    """A worker's next result, or its exception raised here."""
    try:
        worker_peaks[slot], ok, *reply = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"worker process {proc.pid} exited with code {proc.exitcode}") from None
    if ok:
        return reply[0]
    exc, worker_traceback = reply
    raise exc from RuntimeError(f"raised in worker process {proc.pid}:\n{worker_traceback}")


def _serve(fn: Callable[[Any], Any], tasks: Sequence, conn, parent_ends: list) -> None:
    """A forked worker: send fn(task) on conn for each of its tasks, in order.

    The worker first closes the read ends of every worker's pipe that the
    fork copied, so that its send fails once the parent exits, however it
    exits, and leaves Ctrl-C to the parent, which stops every worker.  It
    dies on SIGTERM, as ``forked_map`` expects, whatever handler the
    parent had installed.
    It stops after sending an exception, since the parent raises it.
    Each message starts with the worker's ru_maxrss so far.
    """
    import resource

    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for task in tasks:
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
        except BrokenPipeError:  # the parent is gone
            return
        if not reply[0]:
            return
