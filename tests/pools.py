"""What the tests read of the workers ``tensor._run_all`` uses: the
process's one thread pool, whose threads may stay, and the processes a
forked call starts, which may not."""

from __future__ import annotations

import multiprocessing
import threading

from combtn import tensor


def pool_threads() -> list[threading.Thread]:
    """The live threads of ``tensor``'s pool."""
    return [t for t in threading.enumerate() if t.name.startswith(tensor._POOL_NAME)]


def running() -> tuple:
    """The live threads outside the pool, and the child processes."""
    pool = pool_threads()
    return ({t for t in threading.enumerate() if t not in pool},
            multiprocessing.active_children())


def nothing_left_but_the_pool(before: tuple) -> bool:
    """Whether every thread and child process running now was running at
    ``before`` (a ``running()``) or is one of the pool's at most one
    thread per CPU but the caller's, so no replaced pool left a thread."""
    pool = tensor._pool
    return running() == before and len(pool_threads()) <= (pool[0] - 1 if pool else 0)


def recording_shares(monkeypatch) -> list:
    """Wrap ``tensor._run_all``, which ``contract_pair`` and the builders
    reach by that name; return the list of the share counts it is given
    per call, one per CPU up to one per part."""
    shares, run_all = [], tensor._run_all

    def recorded(fn, parts, *, fork):
        shares.append(min(tensor._cpus(), len(parts)))
        return run_all(fn, parts, fork=fork)

    monkeypatch.setattr(tensor, "_run_all", recorded)
    return shares
