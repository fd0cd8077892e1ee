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

Worker w runs on the w-th CPU this process may use (the allowed CPUs
sorted, taken modulo their count), pinned with ``os.sched_setaffinity``.
A forked child starts on its parent's CPU, and where the scheduler does
not balance load between CPUs (a cpuset with ``sched_load_balance`` 0)
it can stay there, so two unpinned workers may share one CPU while the
other idles.  A worker that cannot be pinned runs unpinned.
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

    An exception fn raises in a worker, or one raised pickling its
    result, is raised here, caused by a RuntimeError holding the
    worker's traceback; a worker that dies raises RuntimeError.  Once
    the generator ends, raises or is closed, no worker is left running.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    procs: list = []  # (buffered read end of the worker's pipe, worker pid), by worker
    try:
        for w in range(workers):
            ours, theirs = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [ours] + [reader.fileno() for reader, _ in procs]
                cpu = cpus[w % len(cpus)] if cpus else None
                _serve(fn, tasks[w::workers], theirs, inherited, cpu)
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


def _serve(fn: Callable[[Any], Any], tasks: Sequence, fd: int, parent_ends: list[int],
           cpu: int | None) -> NoReturn:
    """A forked worker: pickle fn(task) onto the pipe fd for each of its tasks, in order.

    Each reply is pickled whole before any of it is written, so a result
    that cannot be pickled reaches the parent as an exception of fn does,
    and the pipe holds part of a reply only if the worker dies writing it.

    The worker first pins itself to CPU `cpu` (None pins nothing), then
    closes the read ends of every worker's pipe that the fork copied, so
    that its write fails once the parent exits, however it exits, and
    leaves Ctrl-C to the parent, which stops every worker.
    It dies on SIGTERM, as ``forked_map`` expects, whatever handler the
    parent had installed.  It stops after sending an exception, since
    the parent raises it, and leaves only by ``os._exit``, so it never
    returns into the parent's frames or flushes buffers it inherited.
    """
    code = 1
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, (cpu,))
            except OSError:  # such as EINVAL: the CPU left the allowed set since the parent read it
                pass
        for end in parent_ends:
            os.close(end)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        out = open(fd, "wb")
        for task in tasks:
            ok = True
            try:
                reply = pickle.dumps((True, fn(task)), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # of fn, or pickling its result
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # the parent could not rebuild it: keep type name and message
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                ok, reply = False, pickle.dumps((False, exc, traceback.format_exc()),
                                                pickle.HIGHEST_PROTOCOL)
            out.write(reply)
            out.flush()
            if not ok:
                break
        code = 0
    except BrokenPipeError:  # the parent is gone
        code = 0
    except BaseException:  # such as a failed write; the parent reports only the exit code
        traceback.print_exc()
        raise
    finally:
        os._exit(code)
