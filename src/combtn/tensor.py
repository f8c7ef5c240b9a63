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

    No caller may hold a writeable reference to the array or to its base.
    """
    arr.setflags(write=False)
    # _wrap's body, inline: this runs once per contraction step
    tensor = _new(Tensor)
    tensor.__dict__["array"] = arr
    return tensor


def _dot_swapped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a vector against the last axis of a matrix
    return np.dot(b, a)


def _transposed(a_order, b_order, a_free_count: int,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a as [free, summed] and b as [summed, free], multiplied as matrices
    if a_order is not None:
        a = a.transpose(a_order)
    if b_order is not None:
        b = b.transpose(b_order)
    summed = math.prod(a.shape[a_free_count:])
    out = np.dot(a.reshape(-1, summed), b.reshape(summed, -1))
    return out.reshape(a.shape[:a_free_count] + b.shape[a.ndim - a_free_count:])


@functools.lru_cache(maxsize=32)
def _kernel(pairs: tuple[tuple[int, int], ...], rank_a: int, rank_b: int):
    """The matrix product ``contract_pair`` runs for one (pairs, ranks).

    Returns a function of the two operand arrays, or None when an axis is
    out of range or used twice. ``contract_pair`` lists the kernels; the
    summed axes of ``_transposed`` are in pair order.
    """
    try:
        # unit extents cannot differ, so this fails only on the axes themselves
        AxisPairing(pairs).validate((1,) * rank_a, (1,) * rank_b)
    except ValueError:
        return None
    if rank_a == 1:
        if pairs == ((0, 0),) and rank_b <= 2:
            return np.dot
        # against the last axis of a rank-3 b (a tooth into an interior
        # spine) np.dot(b, a) gives other bits than _transposed
        if pairs == ((0, 1),) and rank_b == 2:
            return _dot_swapped
        if pairs == ((0, rank_b - 2),) and rank_b >= 3:
            return np.matmul
    a_sum = [ia for ia, _ in pairs]
    b_sum = [ib for _, ib in pairs]
    a_order = (*(i for i in range(rank_a) if i not in a_sum), *a_sum)
    a_order = None if a_order == tuple(range(rank_a)) else a_order
    b_order = (*b_sum, *(i for i in range(rank_b) if i not in b_sum))
    b_order = None if b_order == tuple(range(rank_b)) else b_order
    return functools.partial(_transposed, a_order, b_order, rank_a - len(pairs))


def contract_pair(a: Tensor, b: Tensor, pairing: AxisPairing) -> tuple[Tensor, StepCost]:
    """Contract two tensors over the paired axes.

    The result keeps the unpaired axes of ``a`` (in order) followed by the
    unpaired axes of ``b`` (in order). Cost is product(output extents) times
    product(contracted extents), checked against the 64-bit range.

    Every pairing, scalars and outer products included, runs as one matrix
    product, picked once per (pairs, ranks) by ``_kernel``:

    - a vector against a vector or the first or the last axis of a matrix
      (compress, chain sweep, tooth sweep, a boundary absorb, the final
      dot): a bare ``np.dot``, operands swapped for the last axis, which
      reads both as they are; a final dot gives an immutable float64 scalar;
    - a vector against the next-to-last axis of a rank-3 or higher ``b``,
      such as the middle (physical) axis of an interior [x, d, x] site: a
      bare ``np.matmul``, reading the site in place as a stack of [d, x]
      matrices;
    - any other pairing: ``a`` laid out as [free, summed] and ``b`` as
      [summed, free] for ``np.dot``. For the C-contiguous arrays that tensors
      hold these are reshaped views when ``b``'s summed axes lead or trail
      it, and ``a``'s trail or lead it, in pair order; otherwise the
      transposes copy whichever operand they do not leave as a view.

    A pairing that does not fit the operands is reported by
    ``AxisPairing.validate``.
    """
    a_arr, b_arr = a.array, b.array
    a_shape, b_shape = a_arr.shape, b_arr.shape
    pairs = pairing.pairs
    kernel = _kernel(pairs, len(a_shape), len(b_shape))
    summed = 1
    for ia, ib in pairs:
        if kernel is None or a_shape[ia] != b_shape[ib]:
            pairing.validate(a_shape, b_shape)
        summed *= a_shape[ia]
    out = kernel(a_arr, b_arr)
    cost = _new(StepCost)
    cost.__dict__["multiplications"] = checked_count(out.size * summed)
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
