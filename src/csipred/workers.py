"""Training groups in forked worker processes.

`run_groups(train_group, count, jobs)` returns `[train_group(i) for i in
range(count)]`. With jobs > 1 it deals the indices round-robin to
`min(jobs, count)` processes: this one trains indices 0, jobs, 2*jobs, ...
itself, and each of the others is a child forked from it, so that it inherits
everything `train_group` reads instead of receiving a copy. A child sends each
result, or the exception that stopped it, through a pipe as soon as it has
it, and stops at its first failure; this process reads the pipes between its
own groups and after them. While the workers run, OpenBLAS runs one thread
per process, so that `jobs` processes use `jobs` CPUs.

A failure raises what the serial loop raises: the exception of the lowest
failing index. The call waits only while a lower index is still running;
then, and on every other path, it kills and reaps every child. A child that
ends without sending a result raises `WorkerError`. Fork is Linux-only here.
"""
from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
from multiprocessing.connection import wait

from .errors import WorkerError


def default_jobs():
    """One process per CPU this process may run on (`taskset` lowers it); 1
    where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


class _Child:
    def __init__(self, proc, conn, owed):
        self.proc, self.conn, self.owed = proc, conn, owed  # owed: ascending


def run_groups(train_group, count, jobs):
    """The results of `train_group(i)` for i in range(count), in index order,
    computed by `min(jobs, count)` processes."""
    jobs = min(jobs, count)
    if jobs <= 1:
        return [train_group(i) for i in range(count)]
    with _one_blas_thread():
        return _run_forked(train_group, count, jobs)


def _run_forked(train_group, count, jobs):
    ctx = multiprocessing.get_context("fork")
    results = [None] * count
    failures = {}
    children = []
    try:
        for first in range(1, jobs):
            indices = range(first, count, jobs)
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(train_group, indices, send, _cpu()))
            proc.start()
            send.close()
            children.append(_Child(proc, recv, list(indices)))
        for index in range(0, count, jobs):
            _receive(children, results, failures, timeout=0)
            if failures and min(failures) < index:
                break
            try:
                results[index] = train_group(index)
            except Exception as exc:  # noqa: BLE001 - raised below, by index order
                failures[index] = exc
                break
        while any(c.owed and c.owed[0] < min(failures, default=count)
                  for c in children):
            _receive(children, results, failures, timeout=None)
        if failures:
            raise failures[min(failures)]
        return results
    finally:
        for child in children:
            child.proc.kill()
            child.proc.join()
            child.conn.close()


def _receive(children, results, failures, timeout):
    """Reads every message that has arrived from children that still owe
    results, waiting up to `timeout` seconds (None: no limit) for the first."""
    live = {c.conn: c for c in children if c.owed}
    for conn in wait(list(live), timeout):
        child = live[conn]
        while child.owed and conn.poll():
            index = child.owed[0]
            try:
                index, ok, value = conn.recv()
            except EOFError:
                child.proc.join()
                code = child.proc.exitcode
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                ok, value = False, WorkerError(
                    f"training worker {child.proc.pid} {how} before it sent "
                    f"group {index}")
            except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable error
                ok, value = False, WorkerError(
                    f"group {index}: the worker's result could not be read "
                    f"({type(exc).__name__}: {exc})")
            if ok:
                results[index] = value
                child.owed.pop(0)
            else:
                failures[index] = value
                child.owed.clear()


def _serve(train_group, indices, conn, parent_cpu):
    """A child's loop: train its groups in order and send each outcome."""
    _leave_cpu(parent_cpu)
    for index in indices:
        try:
            message = (index, True, train_group(index))
        except BaseException as exc:  # noqa: BLE001 - the parent raises it
            message = (index, False, exc)
        try:
            conn.send(message)
        except Exception as exc:  # noqa: BLE001 - a result that does not pickle
            conn.send((index, False, WorkerError(
                f"group {index}: the worker could not send its result "
                f"({type(exc).__name__}: {exc})")))
        if not message[1]:
            break
    conn.close()


def _cpu():
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except OSError:
        return None


def _leave_cpu(cpu):
    """Moves this process off `cpu`, then allows every CPU again.

    A forked child starts on its parent's CPU, and the scheduler can leave the
    two sharing it for 100 ms or more while another CPU idles.
    """
    try:
        allowed = os.sched_getaffinity(0)
        if cpu in allowed and len(allowed) > 1:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):
        pass


# Thread-count calls of the OpenBLAS builds numpy ships or links.
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


@contextlib.contextmanager
def _one_blas_thread():
    """Runs the block, and the children forked in it, with OpenBLAS on one
    thread, then restores this process's count. Without it, each of N
    workers would start as many BLAS threads as there are CPUs."""
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


def _openblas_calls():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None if it has loaded none that it can find."""
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
