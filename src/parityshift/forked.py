"""An ordered map over tasks, computed by worker processes forked from this one.

``forked_map(fn, tasks, workers)`` yields fn(task) for every task, in
task order.  Worker w is forked with ``os.fork`` and inherits its share,
every workers-th task from task w, with fn, closures and shared
anonymous mappings included, so only the results are pickled.  A fork
copies only the calling thread: call from a process whose other threads
hold no lock fn needs.  A worker computes its share in order and pickles
each result onto its own pipe, so the result for task i is the next
pickle from worker i % workers.  A worker whose pipe is full blocks
until the parent reads, so a slow consumer holds at most a pipe's buffer
and one result a worker.  Each worker is reaped with ``os.wait4``, and
its resource usage is kept in ``worker_usage``.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterator, Sequence
from typing import Any, NoReturn

__all__ = ["worker_count", "forked_map", "worker_usage"]

# the resource.struct_rusage of every worker forked_map has reaped, in reaping order
worker_usage: list = []


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
    procs: list = []  # (buffered read end of the worker's pipe, worker pid), by worker
    try:
        for w in range(workers):
            ours, theirs = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [ours] + [reader.fileno() for reader, _ in procs]
                _serve(fn, tasks[w::workers], theirs, inherited)
            os.close(theirs)
            procs.append((open(ours, "rb"), pid))
        # enumerate, not len: a range of tasks may be longer than len can report
        for i, _ in enumerate(tasks):
            yield _receive(*procs[i % workers])
    finally:
        # after an error or once the consumer stops, every worker is terminated, then reaped
        for reader, pid in procs:
            reader.close()
            os.kill(pid, signal.SIGTERM)
        for _, pid in procs:
            worker_usage.append(os.wait4(pid, 0)[2])


def _receive(reader, pid: int) -> Any:
    """A worker's next result, or its exception raised here."""
    try:
        ok, *reply = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        # the worker died, perhaps part-way through a result; forked_map reaps it
        status = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        code = status.si_status if status.si_code == os.CLD_EXITED else -status.si_status
        raise RuntimeError(f"worker process {pid} exited with code {code}") from None
    if ok:
        return reply[0]
    exc, worker_traceback = reply
    raise exc from RuntimeError(f"raised in worker process {pid}:\n{worker_traceback}")


def _serve(fn: Callable[[Any], Any], tasks: Sequence, fd: int, parent_ends: list[int]) -> NoReturn:
    """A forked worker: pickle fn(task) onto the pipe fd for each of its tasks, in order.

    The worker first closes the read ends of every worker's pipe that the
    fork copied, so that its write fails once the parent exits, however
    it exits, and leaves Ctrl-C to the parent, which stops every worker.
    It dies on SIGTERM, as ``forked_map`` expects, whatever handler the
    parent had installed.  It stops after sending an exception, since
    the parent raises it, and leaves only by ``os._exit``, so it never
    returns into the parent's frames or flushes buffers it inherited.
    """
    code = 1
    try:
        for end in parent_ends:
            os.close(end)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        out = open(fd, "wb")
        for task in tasks:
            try:
                reply = (True, fn(task))
            except Exception as exc:
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # the parent could not rebuild it: keep type name and message
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = (False, exc, traceback.format_exc())
            pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
            out.flush()
            if not reply[0]:
                break
        code = 0
    except BrokenPipeError:  # the parent is gone
        code = 0
    except BaseException:  # the parent reports only the exit code
        traceback.print_exc()
        raise
    finally:
        os._exit(code)
