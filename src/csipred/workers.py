"""Training or prediction groups in forked worker processes.

`run_groups(run_group, count, jobs)` returns `[run_group(i) for i in
range(count)]`, with OpenBLAS on one thread per process so that the bytes a
group trains or predicts do not depend on the host. It deals the indices
round-robin to `min(jobs, count)` processes: this one, and one child per
other process, forked from this one so that it inherits everything
`run_group` reads instead of receiving a copy. A child runs its indices in
order, sending each result, or the exception that stopped it, through its
own pipe.

This process takes the results in index order: it runs indices 0, jobs,
2*jobs, ... itself, and waits on the child's pipe for every other one. With
one process that is the serial loop itself. So a failure raises where the
serial loop would stop, whether it is a group's exception, a child that
ended without sending its result (`WorkerError`) or a result that cannot be
read; the call waits only while a lower index is still running, and runs
none of its own groups above a failure. On every path it kills and reaps
every child. Fork is Linux-only here; one process never forks.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os

from .errors import WorkerError


def default_jobs():
    """One process per CPU this process may run on (`taskset` lowers it); 1
    where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def run_groups(run_group, count, jobs):
    """The results of `run_group(i)` for i in range(count), in index order,
    computed by `min(jobs, count)` processes; a group is trained or
    predicted."""
    jobs = min(jobs, count)
    children = []  # (process, pipe); child k - 1 runs indices k, k + jobs, ...
    with _one_blas_thread():
        try:
            for first in range(1, jobs):
                recv, send = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.get_context("fork").Process(
                    target=_serve, daemon=True,
                    args=(run_group, range(first, count, jobs), send))
                proc.start()
                send.close()
                children.append((proc, recv))
            results = []
            for index in range(count):
                if index % jobs == 0:
                    results.append(run_group(index))
                    continue
                proc, conn = children[index % jobs - 1]
                try:
                    ok, value = conn.recv()
                except EOFError:
                    proc.join()
                    code = proc.exitcode
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with code {code}")
                    raise WorkerError(f"worker {proc.pid} {how} before it sent "
                                      f"group {index}") from None
                except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable error
                    raise WorkerError(f"group {index}: the worker's result could "
                                      f"not be read ({type(exc).__name__}: {exc})"
                                      ) from exc
                if not ok:
                    raise value
                results.append(value)
            return results
        finally:
            for proc, conn in children:
                proc.kill()
                proc.join()
                conn.close()


def _serve(run_group, indices, conn):
    """A child's loop: run its groups in order and send each outcome."""
    for index in indices:
        try:
            message = (True, run_group(index))
        except BaseException as exc:  # noqa: BLE001 - the parent raises it
            message = (False, exc)
        try:
            conn.send(message)
        except Exception as exc:  # noqa: BLE001 - a result that does not pickle
            conn.send((False, WorkerError(
                f"group {index}: the worker could not send its result "
                f"({type(exc).__name__}: {exc})")))
        if not message[0]:
            break
    conn.close()


# Thread-count calls of the OpenBLAS builds numpy ships or links.
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


@contextlib.contextmanager
def _one_blas_thread():
    """Runs the block, and the children forked in it, with OpenBLAS on one
    thread, then restores this process's count. Without it, each of N
    workers would start as many BLAS threads as there are CPUs, and a group's
    parameters or predictions would differ in their last bits with the
    thread count."""
    calls = _openblas_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _openblas_calls():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None if it has loaded none that it can find. Cached, because
    every run of groups asks and the search reads /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_CALLS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None
