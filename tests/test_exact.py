import math
from fractions import Fraction

import numpy as np
import pytest

from combtn.engine import execute, naive_value_oracle, plan_for
from combtn.network import Bond, NetworkParams, Stack, TensorNetwork, build_comb, build_mps
from combtn.verification import grid_params

from exact import exact_value


def _net(tensors: dict[str, np.ndarray], bonds) -> TensorNetwork:
    # a hand-made network, one one-member stack per node
    p = NetworkParams(dim_raw=1, dim_comp=1, bond_dim=1, teeth=2, tooth_len=1)
    stacks = {name: Stack(arr[None], (name,), 1) for name, arr in tensors.items()}
    return TensorNetwork(p, "mps", tuple(Bond(*b) for b in bonds), stacks)


def test_exact_value_of_a_hand_network():
    # a @ m is [1e-20, 1, -1], and float sums 3e-20 + 1 - 1 to 0; the
    # exact value is 3 times the float 1e-20, and a @ m.T would give -2
    a = np.array([1.0, -1.0, 1e-20])
    m = np.roll(np.eye(3), 1, axis=1)
    b = np.array([3.0, 1.0, 1.0])
    net = _net({"a": a, "m": m, "b": b}, [("a", 0, "m", 0), ("m", 1, "b", 0)])
    assert float(a @ m @ b) == 0.0
    sign, log2_abs, nearest = exact_value(net)
    exact = Fraction(1e-20) * 3
    assert (sign, nearest) == (1, float(exact))
    assert log2_abs == pytest.approx(math.log2(exact), rel=1e-15)


def test_exact_value_of_cancelling_and_zero_networks():
    a = np.array([1.0, 1.0])
    b = np.array([2.0 ** -70, -(2.0 ** -70)])
    assert exact_value(_net({"a": a, "b": b}, [("a", 0, "b", 0)])) == (0, -math.inf, 0.0)
    b = np.array([-(2.0 ** -1074), -(2.0 ** -1074)])
    assert exact_value(_net({"a": a, "b": b}, [("a", 0, "b", 0)])) == \
        (-1, -1073.0, -(2.0 ** -1073))


def test_executed_and_oracle_scalars_are_within_verify_tolerance_of_exact():
    # verify compares the executed scalar with the float oracle at relative
    # 1e-10; here each is held to that bound against the exact value, so a
    # renewed digest pins scalars that are right, not only stable
    worst = {"executed": 0.0, "oracle": 0.0}
    for idx, p in enumerate(grid_params("small")):
        for build in (build_mps, build_comb):
            net = build(p, seed=42 + idx)
            sign, _, exact = exact_value(net)
            assert sign != 0 and exact != 0.0
            for side, scalar in (("executed", execute(net, plan_for(net))[0]),
                                 ("oracle", naive_value_oracle(net))):
                error = abs(scalar - exact) / abs(exact)
                assert error <= 1e-10, (side, net.kind, p, scalar, exact)
                worst[side] = max(worst[side], error)
    assert worst["executed"] > 0.0 and worst["oracle"] > 0.0
