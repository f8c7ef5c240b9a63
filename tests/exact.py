"""Exact value of a network's float64 tensors, for tests.

Every float64 is exactly an integer times a power of two. Each tensor is
written as one integer array times one power of two, the integers are
contracted as Python ints in bond order, and the powers are summed, so the
result is the exact contraction of the tensors a build holds, with no
rounding anywhere. It shares no code with the engine or the value oracle.
"""

from __future__ import annotations

import math

import numpy as np


def _mantissas(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(ints, e) with arr == ints * 2**e exactly; ints an object array."""
    ratios = [float(v).as_integer_ratio() for v in arr.flat]
    # every denominator is a power of two; scale all to the largest
    shift = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (shift - (den.bit_length() - 1)) for num, den in ratios]
    return np.array(ints, dtype=object).reshape(arr.shape), -shift


def exact_value(net) -> tuple[int, float, float]:
    """(sign, log2|Z|, nearest float64 to Z) of the network's exact value.

    Contracts the bond graph in ``net.bonds`` order, one component merge
    per bond; sign 0 and log2|Z| = -inf when Z is exactly zero.
    """
    arrays, exponent = {}, 0
    for name, node in net.nodes.items():
        ints, e = _mantissas(node.tensor.array)
        arrays[name] = (ints, [(name, axis) for axis in range(ints.ndim)])
        exponent += e
    owner = {name: name for name in arrays}
    for bond in net.bonds:
        comp_a, comp_b = owner[bond.node_a], owner[bond.node_b]
        (a, legs_a), (b, legs_b) = arrays.pop(comp_a), arrays.pop(comp_b)
        leg_a, leg_b = (bond.node_a, bond.axis_a), (bond.node_b, bond.axis_b)
        axis_a, axis_b = legs_a.index(leg_a), legs_b.index(leg_b)
        merged = np.tensordot(a, b, axes=(axis_a, axis_b))
        arrays[comp_a] = (merged, [leg for leg in legs_a if leg != leg_a]
                          + [leg for leg in legs_b if leg != leg_b])
        for name, comp in owner.items():
            if comp == comp_b:
                owner[name] = comp_a
    ((result, legs),) = arrays.values()
    assert not legs, f"free legs left: {legs}"
    z = int(np.asarray(result).item())
    if z == 0:
        return 0, -math.inf, 0.0
    # int / int and int -> float both round to nearest in Python
    nearest = z * (1 << exponent) if exponent >= 0 else z / (1 << -exponent)
    return (1 if z > 0 else -1), math.log2(abs(z)) + exponent, float(nearest)
