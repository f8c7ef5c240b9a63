"""Dense tensors with instrumented pairwise contraction.

Every contraction reports its cost in scalar multiplications: the product
of the output extents times the product of the contracted extents. Additions
are not counted and no factor of two is applied for fused multiply-adds, so
an x-by-x matrix applied to a length-x vector costs exactly x**2.
"""

from __future__ import annotations

import functools
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
    """Immutable dense array of float64 scalars; shape () is a scalar.

    Storage is row-major and read-only, so tensors are safe to share across
    threads. An array passed to the constructor is copied, so the caller may
    keep writing to its own; arrays combtn makes itself (contraction results
    and random draws) are wrapped as they are by ``_owned``.
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
    """Axis pairs (axis_in_a, axis_in_b) to sum over; empty means outer product."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[Sequence[int]] = ()) -> None:
        object.__setattr__(
            self, "pairs", tuple((int(i), int(j)) for i, j in pairs)
        )

    def validate(self, a_shape: Sequence[int], b_shape: Sequence[int]) -> None:
        seen_a: set[int] = set()
        seen_b: set[int] = set()
        for ia, ib in self.pairs:
            if not (0 <= ia < len(a_shape)) or not (0 <= ib < len(b_shape)):
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


@dataclass(frozen=True)
class StepCost:
    """Multiplication count of one pairwise contraction."""

    multiplications: int

    def __post_init__(self) -> None:
        if self.multiplications < 0:
            raise ValueError("multiplication count must be non-negative")
        checked_count(self.multiplications)


def _owned(arr: np.ndarray) -> Tensor:
    """Wrap, without a copy, a C-contiguous float64 array that combtn made.

    The array is frozen in place, so no caller may hold a writeable
    reference to it or to its base.
    """
    arr.setflags(write=False)
    tensor = object.__new__(Tensor)
    object.__setattr__(tensor, "array", arr)
    return tensor


@functools.lru_cache(maxsize=32)
def _layout(pairs: tuple[tuple[int, int], ...], rank_a: int, rank_b: int):
    """How ``contract_pair`` reads its operands for one (pairs, ranks).

    Returns ``(a_order, b_order, a_free_count, b_block)``, where an order is
    None when the operand needs no transpose; returns None when an axis is
    out of range or used twice. ``a_order`` lays ``a`` out as [free, summed]
    with the summed axes in pair order. ``b_block`` is set when ``a`` has no
    free axis and ``b``'s summed axes form one block in pair order with free
    axes on both sides: it is ``(start, merge)``, the block's first axis and
    whether ``b`` must be reshaped (the block or the axes after it are more
    than one) to become a stack of [summed, trail] matrices; ``b_order`` is
    then None. Otherwise ``b_block`` is None and ``b_order`` lays ``b`` out
    as [summed, free].
    """
    try:
        # unit extents cannot differ, so this fails only on the axes themselves
        AxisPairing(pairs).validate((1,) * rank_a, (1,) * rank_b)
    except ValueError:
        return None
    a_sum = [ia for ia, _ in pairs]
    b_sum = [ib for _, ib in pairs]
    a_order = (*(i for i in range(rank_a) if i not in a_sum), *a_sum)
    a_order = None if a_order == tuple(range(rank_a)) else a_order
    count = len(pairs)
    start = b_sum[0] if b_sum else 0
    # a block that leads or trails b stays on np.dot, which reads it as a
    # reshaped view; matmul would sum b's next-to-last axis there
    if (rank_a == count and 0 < start and start + count < rank_b
            and b_sum == list(range(start, start + count))):
        return a_order, None, 0, (start, count > 1 or start + count + 1 < rank_b)
    b_order = (*b_sum, *(i for i in range(rank_b) if i not in b_sum))
    return (a_order, None if b_order == tuple(range(rank_b)) else b_order,
            rank_a - count, None)


def contract_pair(a: Tensor, b: Tensor, pairing: AxisPairing) -> tuple[Tensor, StepCost]:
    """Contract two tensors over the paired axes.

    The result keeps the unpaired axes of ``a`` (in order) followed by the
    unpaired axes of ``b`` (in order). Cost is product(output extents) times
    product(contracted extents), checked against the 64-bit range.

    Every pairing, scalars and outer products included, runs as one matrix
    product, in one of three layouts:

    - ``b``'s summed axes lead it, or trail it, in pair order: ``a`` is laid
      out as [free, summed] and ``b`` as [summed, free] for ``np.dot``. For
      the C-contiguous arrays that tensors hold, and an ``a`` whose summed
      axes trail (or lead) it in pair order, both are reshaped views, read
      in place. Every plan step but the interior absorb is of this kind.
    - ``a`` has no free axis and ``b``'s summed axes are one block in pair
      order with free axes on both sides, as when a data vector meets the
      middle (physical) axis of an interior [x, d, x] site: ``np.matmul``
      reads ``b`` in place as a [lead, summed, trail] stack.
    - any other pairing: the transposes above copy whichever operand they
      do not leave as a view.

    The layout of each (pairs, ranks) is worked out once; a pairing that
    does not fit the operands is reported by ``AxisPairing.validate``.
    """
    a_arr, b_arr = a.array, b.array
    a_shape, b_shape = a_arr.shape, b_arr.shape
    pairs = pairing.pairs
    layout = _layout(pairs, len(a_shape), len(b_shape))
    summed = 1
    for ia, ib in pairs:
        if layout is None or a_shape[ia] != b_shape[ib]:
            pairing.validate(a_shape, b_shape)
        summed *= a_shape[ia]
    a_order, b_order, a_free_count, b_block = layout
    if a_order is not None:
        a_arr = a_arr.transpose(a_order)
    if b_block is not None:
        # matmul broadcasts over b's leading axes and sums its next-to-last
        start, merge = b_block
        if not merge:
            out = np.matmul(a_arr, b_arr)
        else:
            lead, trail = b_shape[:start], b_shape[start + len(pairs):]
            out = np.matmul(a_arr.reshape(summed),
                            b_arr.reshape(lead + (summed, -1))).reshape(lead + trail)
        return _owned(out), StepCost(out.size * summed)
    if b_order is not None:
        b_arr = b_arr.transpose(b_order)
    out = np.dot(a_arr.reshape(-1, summed), b_arr.reshape(summed, -1))
    out = out.reshape(a_arr.shape[:a_free_count] + b_arr.shape[len(pairs):])
    return _owned(out), StepCost(out.size * summed)


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
