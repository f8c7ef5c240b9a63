"""Instrumented pairwise contraction of plain numpy arrays.

Every contraction reports its cost in scalar multiplications: the product
of the output extents times the product of the contracted extents. Additions
are not counted and no factor of two is applied for fused multiply-adds, so
an x-by-x matrix applied to a length-x vector costs exactly x**2.

The program passes read-only ``np.ndarray``s throughout, and freezes only
arrays it made itself: numpy's writeable flag guards against an accidental
write, such as ``arr[0] = 1.0`` or an in-place ufunc, and nothing more,
since any holder of the owning array may set it writeable again. Caller
values are checked where they enter the program (``network.attach_data``);
``contract_pair`` checks only that its pairing fits the two shapes, and
that each count fits in 64 bits. ``Tensor`` and ``StepCost`` are named
tuples that carry an array and a count out to readers that want
``.array``, ``.size`` or ``.multiplications``.

``_run_all`` is the one place that shares work over every CPU the process
may use: it calls one function on a list of parts, on the calling thread
and ``concurrent.futures`` workers, imported only when first needed. Its
callers pick the workers. ``contract_pair`` splits a stacked step that
reads more than ``_CHUNK`` elements into contiguous runs of its first
batch axis, one ``np.matmul`` each into one result, and the network
builders fill large stacks in runs; both go to the process's one thread
pool, since numpy releases the GIL while it multiplies, draws and scales.
The pool is made on first use and kept, so a split step starts no thread;
its threads are joined before any fork, so a forked child starts with
one. ``verify``'s grid is Python work on tiny arrays, so its tuples go to
processes forked for the call. Pool threads run in a copy of the caller's
context, and every part gives what it gives on one CPU, so no bit depends
on the CPU count.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

INT64_MAX = 2**63 - 1

# Work on more elements than this goes to every CPU. A stacked step that
# reads more (its two operands together) is split over its first batch
# axis; a stack of more is drawn in runs of this many, in C order, each from
# its own child stream of the build's generator. 2**20 doubles are 8 MiB:
# multiplying or drawing that many takes milliseconds, long against starting
# a thread. The values a seed gives depend on this constant, so changing it
# changes every large stack; the products do not.
_CHUNK = 2**20


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(fn, share: list) -> list:
    # at module level, so that a forked pool can pickle it by name
    return [fn(*part) for part in share]


# The process's one thread pool, (CPU count, ThreadPoolExecutor of one
# worker fewer), made by ``_run_all`` on the first thread share, and only
# under the lock; its threads' names start with _POOL_NAME
_POOL_NAME = "combtn-pool"
_pool = None
_pool_lock = threading.Lock()


def _close_pool() -> None:
    """Join the pool's threads once their work is done; the next thread
    share makes a new pool."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _before_fork() -> None:
    # a child starts with the forking thread alone, so it must not inherit
    # a pool whose threads it lacks; the lock, held until the fork is done,
    # keeps another thread from making one meanwhile
    _pool_lock.acquire()
    _close_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork, after_in_parent=_pool_lock.release,
                        after_in_child=_pool_lock.release)


def _run_all(fn, parts: list, *, fork: bool) -> list:
    """``[fn(*part) for part in parts]``, in shares of every n-th part, one
    share per CPU up to one per part: the calling thread runs the first
    share and workers the others, threads of the process's one pool or,
    with ``fork``, processes forked for this call (one share where
    ``os.fork`` is missing). A thread share runs in its own copy of the
    caller's context and a forked one inherits it, so every share sees the
    caller's context variables (numpy's error state among them, one since
    numpy 2.0); only ``fn``, the parts and the results must pickle.

    With one share no worker is used. The thread pool has ``_cpus() - 1``
    workers, is kept for every later call and made again when ``_cpus()``
    changes; before a fork its threads are joined, so a forked child
    starts with one thread. A thread share must not call ``_run_all``
    itself. The call returns or raises only once every share has
    finished, and a share that raised raises its exception here, the
    caller's first, then the others in share order; a forked call's pool
    is joined before it returns."""
    global _pool
    cpus = _cpus()
    shares = min(cpus, len(parts))
    if shares <= 1 or fork and not hasattr(os, "fork"):
        return _share(fn, parts)
    # imported here: only work on more than one CPU needs them, and
    # concurrent.futures loads logging
    import concurrent.futures
    # the caller runs a share rather than waiting: at x=64 on 2 CPUs, two
    # pool threads took about 14 ms for the slower half of the MPS interior
    # absorb, where the caller and one pool thread took about 11
    if fork:
        import multiprocessing
        with concurrent.futures.ProcessPoolExecutor(
                shares - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            others = [pool.submit(_share, fn, parts[k::shares]) for k in range(1, shares)]
            done = [_share(fn, parts[::shares]), *(other.result() for other in others)]
    else:
        # a context admits one thread at a time, so each share gets a copy
        with _pool_lock:
            if _pool is None or _pool[0] != cpus:
                _close_pool()
                _pool = cpus, concurrent.futures.ThreadPoolExecutor(
                    cpus - 1, thread_name_prefix=_POOL_NAME)
            others = [_pool[1].submit(contextvars.copy_context().run, _share, fn,
                                      parts[k::shares]) for k in range(1, shares)]
        try:
            mine = _share(fn, parts[::shares])
        finally:
            concurrent.futures.wait(others)
        done = [mine, *(other.result() for other in others)]
    return [done[k % shares][k // shares] for k in range(len(parts))]


class CountOverflowError(OverflowError):
    """A multiplication count left the signed 64-bit range."""


def checked_count(n: int) -> int:
    """Return ``n`` unchanged, or raise if it does not fit in 64 bits."""
    if n > INT64_MAX:
        raise CountOverflowError(
            f"multiplication count {n} exceeds the 64-bit range"
        )
    return n


class Tensor(NamedTuple):
    """A read-only array as ``TensorNetwork.nodes`` and ``random_tensor``
    hand it out; the program itself passes plain arrays."""

    array: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size


@dataclass(frozen=True)
class AxisPairing:
    """Axis pairs (axis_in_a, axis_in_b) to sum over, after ``batch``
    leading axes that both operands share and the result keeps.

    Axes are counted from the front of each operand, batch axes included, so
    a pair names axes at or past ``batch``. No pairs and no batch axes is an
    outer product; batch axes alone multiply element by element. An axis or
    batch that is not an integer raises TypeError rather than being truncated.

    A ``chain`` pairing takes neither: it threads a vector [x] through a
    stack [k, x, x], summing the vector against the first axis of each row
    in turn, and leaves a vector [x]. ``CHAIN`` is the one such pairing.
    """

    pairs: tuple[tuple[int, int], ...]
    batch: int
    chain: bool

    def __init__(self, pairs: Iterable[Sequence[int]] = (), batch: int = 0,
                 chain: bool = False) -> None:
        object.__setattr__(
            self, "pairs",
            tuple((operator.index(i), operator.index(j)) for i, j in pairs)
        )
        object.__setattr__(self, "batch", operator.index(batch))
        object.__setattr__(self, "chain", bool(chain))
        if self.chain and (self.pairs or self.batch):
            raise ValueError("a chain pairing takes no axis pairs and no batch axes")

    def validate(self, a_shape: Sequence[int], b_shape: Sequence[int]) -> None:
        if self.chain:
            if len(a_shape) != 1 or tuple(b_shape[1:]) != (a_shape[0],) * 2:
                raise ValueError(
                    f"a chain threads a vector [x] through a stack [k, x, x], "
                    f"got shapes {tuple(a_shape)} and {tuple(b_shape)}"
                )
            return
        batch = self.batch
        lead_a, lead_b = tuple(a_shape[:batch]), tuple(b_shape[:batch])
        if batch < 0 or len(lead_a) < batch or lead_a != lead_b:
            raise ValueError(
                f"batch of {batch} leading axes does not fit shapes "
                f"{tuple(a_shape)} and {tuple(b_shape)}"
            )
        seen_a: set[int] = set()
        seen_b: set[int] = set()
        for ia, ib in self.pairs:
            if not (batch <= ia < len(a_shape)) or not (batch <= ib < len(b_shape)):
                raise ValueError(
                    f"axis pair ({ia}, {ib}) out of range for shapes "
                    f"{tuple(a_shape)} and {tuple(b_shape)}"
                )
            if ia in seen_a or ib in seen_b:
                raise ValueError(f"axis pair ({ia}, {ib}) reuses an axis")
            seen_a.add(ia)
            seen_b.add(ib)
            if a_shape[ia] != b_shape[ib]:
                raise ValueError(
                    f"paired extents differ: axis {ia} of {tuple(a_shape)} is "
                    f"{a_shape[ia]}, axis {ib} of {tuple(b_shape)} is {b_shape[ib]}"
                )


CHAIN = AxisPairing(chain=True)


class StepCost(NamedTuple):
    """Multiplication count of one pairwise contraction."""

    multiplications: int


def _chain(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # one np.dot per row, in order: the product a step of one site makes,
    # so each row leaves the bits that step left (ndarray.dot is np.dot
    # without its dispatch layer); a stack of no rows leaves a view of v,
    # so freezing the result leaves v as it was
    v = v.view()
    for matrix in stack:
        v = v.dot(matrix)
    v.setflags(write=False)
    return v


def _transposed(batch: int, a_order, b_order, a_free_count: int,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # per batch item, a as [free, summed] and b as [summed, free], one
    # matmul; every extent is spelled out, so a zero one reshapes too
    if a_order is not None:
        a = a.transpose(a_order)
    if b_order is not None:
        b = b.transpose(b_order)
    lead = a.shape[:batch]
    free_end = batch + a_free_count
    a_free, b_free = a.shape[batch:free_end], b.shape[batch + a.ndim - free_end:]
    summed = math.prod(a.shape[free_end:])
    a2 = a.reshape(*lead, math.prod(a_free), summed)
    b2 = b.reshape(*lead, summed, math.prod(b_free))
    parts = min(_cpus(), lead[0]) if batch and a.size + b.size > _CHUNK else 1
    if parts > 1:
        # contiguous runs of the first batch axis, each one matmul into its
        # rows of one result (the third argument is matmul's out)
        out = np.empty(lead + (a2.shape[-2], b2.shape[-1]), np.result_type(a2, b2))
        ends = [lead[0] * k // parts for k in range(parts + 1)]
        _run_all(np.matmul, [(a2[run], b2[run], out[run])
                             for run in map(slice, ends, ends[1:])], fork=False)
    else:
        out = np.matmul(a2, b2)
    out.setflags(write=False)
    return out.reshape(lead + a_free + b_free)


@functools.lru_cache(maxsize=32)
def _kernel(pairs: tuple[tuple[int, int], ...], rank_a: int, rank_b: int,
            batch: int):
    """``_transposed`` with the axis orders of one (pairs, ranks, batch)
    worked out, for a pairing that ``AxisPairing.validate`` has passed; the
    summed axes are in pair order."""
    lead = tuple(range(batch))
    a_sum = [ia for ia, _ in pairs]
    b_sum = [ib for _, ib in pairs]
    a_order = (*lead, *(i for i in range(batch, rank_a) if i not in a_sum), *a_sum)
    a_order = None if a_order == tuple(range(rank_a)) else a_order
    b_order = (*lead, *b_sum, *(i for i in range(batch, rank_b) if i not in b_sum))
    b_order = None if b_order == tuple(range(rank_b)) else b_order
    return functools.partial(_transposed, batch, a_order, b_order,
                             rank_a - batch - len(pairs))


def contract_pair(a: np.ndarray, b: np.ndarray,
                  pairing: AxisPairing) -> tuple[np.ndarray, StepCost]:
    """Contract two arrays over the paired axes, item by item over the
    batch axes, and return the result as a new read-only array, or a
    read-only view of one, with its cost; neither operand's flags change.

    The result keeps the batch axes, then the other unpaired axes of ``a``
    (in order), then those of ``b`` (in order). Cost is product(output
    extents) times product(contracted extents), checked against the 64-bit
    range: a product over k batch items counts k times one item's count.

    Every call first checks the pairing against both shapes with
    ``AxisPairing.validate``, which raises on a pairing that does not fit.

    Every pairing but ``CHAIN``, the final dot, scalars and outer products
    included, then runs as one matrix product, with axis orders worked out
    once per (pairs, ranks, batch) by ``_kernel``: per batch item, ``a``
    laid out as [free, summed] and ``b`` as [summed, free] for one
    ``np.matmul`` over the batch. For the C-contiguous items that stacks
    hold these are views when ``b``'s summed axes lead or trail its item,
    and ``a``'s trail or lead it, in pair order; otherwise the reshape
    copies whichever operand it cannot view. The interior sites, teeth and
    spines are stored with the axis their step sums leading, so a vector
    against one of them is one matrix–vector product per item, read in
    place. A vector against a vector (the final dot) gives a read-only
    0-d array with the bits of ``np.dot``.

    Each item's result has the bits of the same contraction run on that
    item alone. A stacked step whose operands hold more than ``_CHUNK``
    elements together is, when the process may use more than one CPU, split
    into ``min(_cpus(), lead[0])`` contiguous runs of its first batch axis:
    each run is one ``np.matmul`` into its rows of one new result, run by
    ``_run_all`` in a copy of the caller's context, and the result is
    frozen once every run has finished. The bits are those of the one
    ``np.matmul``, whatever the CPU count; a run that raises makes the call
    raise.

    ``CHAIN`` threads a vector [x] through a stack [k, x, x] (a chain or
    backbone sweep): one ``np.dot`` per row, in row order, each with the
    bits of that row's step run alone. It counts x**2 per row, k * x**2 in
    all, which is the stack's size; through k = 0 rows the result is a
    read-only view of ``a``.
    """
    pairing.validate(a.shape, b.shape)
    if pairing.chain:
        out, count = _chain(a, b), b.size
    else:
        pairs = pairing.pairs
        out = _kernel(pairs, a.ndim, b.ndim, pairing.batch)(a, b)
        count = out.size * math.prod(a.shape[ia] for ia, _ in pairs)
    return out, StepCost(checked_count(count))


def random_tensor(shape: Sequence[int], seed, std: float = 1.0) -> Tensor:
    """Gaussian(0, std) read-only array as a ``Tensor``, deterministic for
    a fixed (shape, seed).

    ``seed`` may also be a ``numpy.random.Generator``, which is drawn from
    and advanced. The network builders do not call it: they draw from
    their generator directly.
    """
    shape = tuple(shape)
    if any(extent < 1 for extent in shape):
        raise ValueError(f"every extent must be >= 1, got shape {shape}")
    arr = np.random.default_rng(seed).normal(0.0, std, size=shape)
    arr.setflags(write=False)
    return Tensor(arr)
