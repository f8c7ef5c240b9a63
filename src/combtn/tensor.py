"""Dense tensors with instrumented pairwise contraction.

Every contraction reports its cost in scalar multiplications: the product
of the output extents times the product of the contracted extents. Additions
are not counted and no factor of two is applied for fused multiply-adds, so
an x-by-x matrix applied to a length-x vector costs exactly x**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
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

    @property
    def elements(self) -> np.ndarray:
        """Flat row-major view of the scalars."""
        return self.array.reshape(-1)

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


def contract_pair(a: Tensor, b: Tensor, pairing: AxisPairing) -> tuple[Tensor, StepCost]:
    """Contract two tensors over the paired axes.

    The result keeps the unpaired axes of ``a`` (in order) followed by the
    unpaired axes of ``b`` (in order). Cost is product(output extents) times
    product(contracted extents), checked against the 64-bit range.

    Every pairing, scalars and outer products included, runs as one matrix
    product: ``a`` is laid out as [free, summed] and ``b`` as [summed, free].
    """
    pairing.validate(a.shape, b.shape)
    a_arr, b_arr = a.array, b.array
    a_sum = [ia for ia, _ in pairing.pairs]
    b_sum = [ib for _, ib in pairing.pairs]
    a_free = [i for i in range(a_arr.ndim) if i not in a_sum]
    b_free = [i for i in range(b_arr.ndim) if i not in b_sum]
    summed = prod([a_arr.shape[i] for i in a_sum])
    out = np.dot(a_arr.transpose(a_free + a_sum).reshape(-1, summed),
                 b_arr.transpose(b_sum + b_free).reshape(summed, -1))
    out = out.reshape([a_arr.shape[i] for i in a_free] + [b_arr.shape[i] for i in b_free])
    return _owned(out), StepCost(out.size * summed)


def random_tensor(shape: Sequence[int], seed, std: float = 1.0) -> Tensor:
    """Gaussian(0, std) tensor, deterministic for a fixed (shape, seed).

    ``seed`` may also be a ``numpy.random.Generator``, which is drawn from
    and advanced.
    """
    shape = tuple(shape)
    if any(extent < 1 for extent in shape):
        raise ValueError(f"every extent must be >= 1, got shape {shape}")
    return _owned(np.random.default_rng(seed).normal(0.0, std, size=shape))
