"""Dense tensors with instrumented pairwise contraction.

Every contraction reports its cost in scalar multiplications: the product
of the output extents times the product of the contracted extents. Additions
are not counted and no factor of two is applied for fused multiply-adds, so
an x-by-x matrix applied to a length-x vector costs exactly x**2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

INT64_MAX = 2**63 - 1


class CountOverflowError(OverflowError):
    """A multiplication count left the signed 64-bit range."""


def checked_count(n: int) -> int:
    """Return ``n`` unchanged, or raise if it does not fit in 64 bits."""
    if n > INT64_MAX:
        raise CountOverflowError(
            f"multiplication count {n} exceeds the 64-bit range"
        )
    return n


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense array of float64 scalars; shape () is a scalar.

    An array passed to the constructor is copied, row-major, so the caller
    may keep writing to its own; arrays combtn makes itself (contraction
    results, builder draws, data rows) are wrapped as they are. Every array a
    tensor holds is read-only: numpy's writeable flag is cleared on the array
    that owns the memory, or the tensor holds a view of such an array. That
    guards against accidental writes, such as ``tensor.array[0] = 1.0`` or an
    in-place ufunc, and nothing more: numpy lets any holder of the owning
    array call ``setflags(write=True)`` on it, after which writes go through
    and change what every sharer of the tensor reads.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=np.float64, order="C", copy=True)
        if any(extent < 1 for extent in arr.shape):
            raise ValueError(f"every extent must be >= 1, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.array, other.array)


@dataclass(frozen=True)
class AxisPairing:
    """Axis pairs (axis_in_a, axis_in_b) to sum over, after ``batch``
    leading axes that both operands share and the result keeps.

    Axes are counted from the front of each operand, batch axes included, so
    a pair names axes at or past ``batch``. No pairs and no batch axes is an
    outer product; batch axes alone multiply element by element.

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
            self, "pairs", tuple((int(i), int(j)) for i, j in pairs)
        )
        object.__setattr__(self, "batch", int(batch))
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


@dataclass(frozen=True)
class StepCost:
    """Multiplication count of one pairwise contraction.

    ``contract_pair`` fills one in without this constructor, after its own
    64-bit range check; the count it makes is never negative.
    """

    multiplications: int

    def __post_init__(self) -> None:
        if self.multiplications < 0:
            raise ValueError("multiplication count must be non-negative")
        checked_count(self.multiplications)


_new = object.__new__


def _wrap(arr: np.ndarray) -> Tensor:
    """Wrap, without a copy or a check, a read-only float64 array that
    combtn made, or a view of one (a view of a read-only array is read-only)."""
    tensor = _new(Tensor)
    tensor.__dict__["array"] = arr
    return tensor


def _owned(arr: np.ndarray) -> Tensor:
    """Freeze, in place, a float64 array that combtn made, and wrap it.

    No caller may hold a writeable reference to the array or to its base;
    a kernel that returns a view freezes the array it views.
    """
    arr.setflags(write=False)
    return _wrap(arr)


def _chain(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # one np.dot per row, in order: the product a step of one site makes,
    # so each row leaves the bits that step left
    for matrix in stack:
        v = np.dot(v, matrix)
    return v


def _transposed(batch: int, a_order, b_order, a_free_count: int,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # per batch item, a as [free, summed] and b as [summed, free], one matmul
    if a_order is not None:
        a = a.transpose(a_order)
    if b_order is not None:
        b = b.transpose(b_order)
    lead = a.shape[:batch]
    free_end = batch + a_free_count
    summed = math.prod(a.shape[free_end:])
    out = np.matmul(a.reshape(*lead, -1, summed), b.reshape(*lead, summed, -1))
    out.setflags(write=False)
    return out.reshape(a.shape[:free_end] + b.shape[batch + a.ndim - free_end:])


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


def contract_pair(a: Tensor, b: Tensor, pairing: AxisPairing) -> tuple[Tensor, StepCost]:
    """Contract two tensors over the paired axes, item by item over the
    batch axes.

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
    item alone.

    ``CHAIN`` threads a vector [x] through a stack [k, x, x] (a chain or
    backbone sweep): one ``np.dot`` per row, in row order, each with the
    bits of that row's step run alone. It counts x**2 per row, k * x**2 in
    all, which is the stack's size.
    """
    a_arr, b_arr = a.array, b.array
    pairing.validate(a_arr.shape, b_arr.shape)
    if pairing.chain:
        out, count = _chain(a_arr, b_arr), b_arr.size
    else:
        pairs = pairing.pairs
        out = _kernel(pairs, a_arr.ndim, b_arr.ndim, pairing.batch)(a_arr, b_arr)
        count = out.size * math.prod(a_arr.shape[ia] for ia, _ in pairs)
    cost = _new(StepCost)
    cost.__dict__["multiplications"] = checked_count(count)
    return _owned(out), cost


def random_tensor(shape: Sequence[int], seed, std: float = 1.0) -> Tensor:
    """Gaussian(0, std) tensor, deterministic for a fixed (shape, seed).

    ``seed`` may also be a ``numpy.random.Generator``, which is drawn from
    and advanced. The network builders no longer call it: they draw from
    their generator directly.
    """
    shape = tuple(shape)
    if any(extent < 1 for extent in shape):
        raise ValueError(f"every extent must be >= 1, got shape {shape}")
    return _owned(np.random.default_rng(seed).normal(0.0, std, size=shape))
