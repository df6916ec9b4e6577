"""Forked workers that die with their parent.

Every process pool in the package — the analysis scheduler
(:mod:`repro.parallel.scheduler`) and ``generate``'s day-segment writers
(:mod:`repro.runtime.generate`) — starts its workers through
:func:`fork_worker`.  Each worker reports to the parent over one pipe,
and two guarantees make a SIGKILLed parent leave nothing behind:

* on Linux the worker asks the kernel to SIGKILL it when its parent
  dies (``prctl(PR_SET_PDEATHSIG)``), then exits at once if the parent
  is already gone by the time it asked;
* the worker closes the parent-side read end of every worker pipe it
  inherited — its siblings' and its own — so once the parent is gone no
  process holds a read end, and a write fails with ``EPIPE`` instead of
  blocking forever in a full pipe.

The death signal is tied to the thread that forked the worker, so pools
must fork from a thread that outlives them (every pool here forks and
joins from the calling thread).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import weakref

#: ``prctl`` option number from ``<linux/prctl.h>``
_PR_SET_PDEATHSIG = 1

#: parent-side ends of the worker pipes this process created; a fresh
#: worker closes all of them (weak, so closed/collected ends drop out)
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def fork_available() -> bool:
    """Whether this platform can fork workers at all."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_worker(target, *args):
    """Fork a daemon worker running ``target(conn, *args)``.

    ``conn`` is the worker's send end of a one-way pipe.  Returns
    ``(process, conn)`` where ``conn`` is the parent's receive end.
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    _PARENT_ENDS.add(parent_conn)
    proc = ctx.Process(target=_worker_main,
                       args=(os.getpid(), target, child_conn, *args),
                       daemon=True)
    proc.start()
    child_conn.close()
    return proc, parent_conn


def _worker_main(parent_pid: int, target, conn, *args) -> None:
    if sys.platform.startswith("linux"):
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    if os.getppid() != parent_pid:
        os._exit(1)  # the parent died before the death signal was armed
    for end in list(_PARENT_ENDS):
        end.close()
    target(conn, *args)
