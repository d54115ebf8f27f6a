"""Shares of independent work run at once, each share after the first in a
forked child that pickles its result into a pipe: simulate's seeds, and the
shares of eval's queries in each direction, where the CLI asks for them.
pickle is loaded only as ``fork_map`` runs, not as the CLI is imported.

A process that runs more than one thread must not fork: the child would copy
locks that other threads hold. The CLI pins OpenBLAS to one thread unless the
caller set its thread count, so numpy starts no thread as it loads there and
the children inherit the setting; ``plan`` plans one process wherever more
threads run, such as a library caller's numpy with BLAS threads, or without
``os.fork``.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def plan(items: int) -> tuple[int, int | None]:
    """(processes, threads per process) for ``items`` independent items: a
    process per usable CPU, at most one per item, each on its share of the
    CPUs, where this process may fork; else (1, None), the default threads."""
    try:
        may_fork = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
    except OSError:  # the thread count is unknown
        may_fork = False
    processes = min(items, usable_cpus()) if may_fork else 1
    return (processes, usable_cpus() // processes) if processes > 1 else (1, None)


def _child(work, share, sink) -> None:
    """Send ``work(share)`` into ``sink`` and leave through ``os._exit``, so
    that a child runs none of its parent's exit code and flushes none of its
    buffers, whatever happens."""
    import pickle

    code = 1
    try:
        sink.write(pickle.dumps(work(share)))
        sink.flush()
        code = 0
    except BaseException as error:
        if not isinstance(error, KeyboardInterrupt):  # the parent reports an interrupt
            sys.excepthook(type(error), error, error.__traceback__)
    finally:
        sys.stderr.flush()
        os._exit(code)


def fork_map(work, shares: list) -> list:
    """``work(share)`` of each share, in order, the first run in this process.

    Each child's pipe is read to its end, which the child's exit gives, before
    the child is waited for; every child is waited for, also after an error in
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
        for share in shares[1:]:
            read, write = os.pipe()
            pipe = stack.enter_context(open(read, "rb"))
            with open(write, "wb") as sink:  # the parent's write end closes at once
                pid = os.fork()
                if pid == 0:
                    _child(work, share, sink)
            pids.append(pid)
            stack.callback(reap, pid, pipe)
        results = [work(shares[0])]
    for pid in pids:
        if codes[pid] != 0:  # its traceback went to stderr
            raise ChildProcessError(f"forked process {pid} exited with status {codes[pid]}")
        results.append(pickle.loads(payloads[pid]))
    return results
