"""The one way framebias runs work at once, which starts no thread: items on
forked processes, each child pickling its results into a pipe. They are
simulate's seeds, the shares of eval's queries in each direction, where the
CLI asks for them, and the two temp files of filter and filter-one. pickle is
loaded only as ``fork_map`` runs, not as the CLI is imported.

A process that runs more than one thread must not fork: the child would copy
locks that other threads hold. The CLI pins OpenBLAS to one thread unless the
caller set its thread count, so numpy starts no thread as it loads there and
the children inherit the setting; ``plan`` plans one process wherever more
threads run, such as a library caller's numpy with BLAS threads, or without
``os.fork``. There the items run in turn in this process.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack

from framebias.errors import REPORTED


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def plan(items: int) -> int:
    """The processes to run ``items`` independent items on: one per usable
    CPU, at most one per item, where this process may fork; else 1."""
    try:
        may_fork = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
    except OSError:  # the thread count is unknown
        may_fork = False
    return max(1, min(items, usable_cpus())) if may_fork else 1


def _share(work, items, p: int, processes: int) -> tuple[list, tuple | None]:
    """The results of items p, p + processes, … in turn, up to the first that
    raises one of ``REPORTED``, and that item's (index, error), or None."""
    results = []
    for i in range(p, len(items), processes):
        try:
            results.append(work(items[i]))
        except REPORTED as error:
            return results, (i, error)
    return results, None


def _child(work, items, p, processes, sink) -> None:
    """Send share ``p``'s outcome into ``sink`` and leave through
    ``os._exit``, so that a child runs none of its parent's exit code and
    flushes none of its buffers, whatever happens."""
    import pickle

    code = 1
    try:
        sink.write(pickle.dumps(_share(work, items, p, processes)))
        sink.flush()
        code = 0
    except BaseException as error:
        if not isinstance(error, KeyboardInterrupt):  # the parent reports an interrupt
            sys.excepthook(type(error), error, error.__traceback__)
    finally:
        sys.stderr.flush()
        os._exit(code)


def fork_map(work, items, processes: int) -> list:
    """``work(item)`` of each of the ``items`` (a sequence), in item order.
    Process p of ``processes`` runs items p, p + processes, … in turn: this
    process share 0, forked children the rest.

    Each process stops at its first item that raises one of ``REPORTED``, and
    the first failing item's error is raised, as a loop over the items raises
    it. Any other error in a child prints its traceback there and raises
    ``ChildProcessError`` here; in this process it is raised as it is. Each
    child's pipe is read to its end, which the child's exit gives, before the
    child is waited for; every child is waited for, also after an error in
    this process's share or in another wait.
    """
    import pickle  # loaded as work is shared, not with the CLI

    pids, payloads, codes = [], {}, {}

    def reap(pid, pipe):
        try:
            payloads[pid] = pipe.read()
        finally:
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    with ExitStack() as stack:
        for p in range(1, processes):
            read, write = os.pipe()
            pipe = stack.enter_context(open(read, "rb"))
            with open(write, "wb") as sink:  # the parent's write end closes at once
                pid = os.fork()
                if pid == 0:
                    _child(work, items, p, processes, sink)
            pids.append(pid)
            stack.callback(reap, pid, pipe)
        shares = [_share(work, items, 0, processes)]
    for pid in pids:
        if codes[pid] != 0:  # its traceback went to stderr
            raise ChildProcessError(f"forked process {pid} exited with status {codes[pid]}")
        shares.append(pickle.loads(payloads[pid]))
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures)[1]  # (index, error): the indices differ
    return [shares[i % processes][0][i // processes] for i in range(len(items))]
