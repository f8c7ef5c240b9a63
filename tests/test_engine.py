import math
import tracemalloc

import numpy as np
import pytest

from combtn.costmodel import (
    comb_cost_printed,
    comb_cost_schedule,
    comb_cost_terms,
    mps_cost,
    mps_cost_terms,
)
from combtn import engine
from combtn.engine import (
    OracleGuardError,
    comb_plan,
    execute,
    mps_plan,
    naive_value_oracle,
    plan_for,
)
from combtn.network import (
    Bond,
    MpsGeometry,
    NetworkParams,
    Node,
    NodeRole,
    TensorNetwork,
    attach_data,
    build_comb,
    build_mps,
)
from combtn.network import _with_tensors
from combtn.tensor import Tensor, contract_pair


def params(D=3, d=2, x=2, M=2, N=1) -> NetworkParams:
    return NetworkParams(dim_raw=D, dim_comp=d, bond_dim=x, teeth=M, tooth_len=N)


def _graph(shapes: dict[str, tuple[int, ...]], edges) -> TensorNetwork:
    """Bare bond graph of all-ones tensors, for the oracle's error paths."""
    nodes = {name: Node(name, NodeRole.DATA, Tensor(np.ones(shape)))
             for name, shape in shapes.items()}
    bonds = tuple(Bond(i, a, axis_a, b, axis_b, shapes[a][axis_a])
                  for i, (a, axis_a, b, axis_b) in enumerate(edges))
    return TensorNetwork(params(), MpsGeometry(len(nodes)), nodes, bonds, ())


def _tensordot_oracle(net: TensorNetwork) -> float:
    """Bond-order contraction through ``np.tensordot``, one component per
    node, merged with the first operand's component kept."""
    arrays = {name: node.tensor.array for name, node in net.nodes.items()}
    legs = {name: [None] * len(node.tensor.shape) for name, node in net.nodes.items()}
    for bond in net.bonds:
        legs[bond.node_a][bond.axis_a] = bond.index
        legs[bond.node_b][bond.axis_b] = bond.index
    owner = {name: name for name in net.nodes}
    for bond in sorted(net.bonds, key=lambda b: b.index):
        ca, cb = owner[bond.node_a], owner[bond.node_b]
        axis_a, axis_b = legs[ca].index(bond.index), legs[cb].index(bond.index)
        arrays[ca] = np.tensordot(arrays[ca], arrays.pop(cb), axes=([axis_a], [axis_b]))
        legs[ca] = ([leg for i, leg in enumerate(legs[ca]) if i != axis_a]
                    + [leg for i, leg in enumerate(legs.pop(cb)) if i != axis_b])
        for name, comp in owner.items():
            if comp == cb:
                owner[name] = ca
    (result,) = arrays.values()
    return float(result)


class TestMpsPlan:
    def test_smallest_chain_cost(self):
        net = build_mps(params(D=3, d=2, x=2, M=2, N=1), seed=0)
        _, report = execute(net, mps_plan(net))
        assert report.total == 22
        assert report.analytic_printed == 22
        assert report.analytic_schedule == 22
        assert report.residual_printed_minus_measured == 0

    def test_reference_scale_cost(self):
        p = params(D=100, d=30, x=10, M=50, N=5)
        net = build_mps(p, seed=0)
        _, report = execute(net, mps_plan(net))
        assert report.total == 1_519_410

    @pytest.mark.parametrize("M,N", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 3)])
    def test_chain_sweep_step_count(self, M, N):
        net = build_mps(params(M=M, N=N), seed=0)
        plan = mps_plan(net)
        sweeps = [s for s in plan.steps if s.phase == "chain-sweep"]
        assert len(sweeps) == M * N - 2

    def test_phase_subtotals_match_terms(self):
        p = params(D=4, d=3, x=2, M=3, N=2)
        net = build_mps(p, seed=1)
        _, report = execute(net, mps_plan(net))
        terms = mps_cost_terms(p)
        assert report.phase_subtotals["compress"] == terms["compress"]
        assert report.phase_subtotals["absorb-physical"] == (
            terms["absorb-boundary"] + terms["absorb-interior"])
        assert report.phase_subtotals["chain-sweep"] == terms["chain-sweep"]
        assert report.phase_subtotals["final-dot"] == terms["final-dot"]

    def test_formula_identity_on_grid(self):
        # L in {2, 3, 6} via (M, N); every measured total must equal the closed form
        cases = [(2, 1), (3, 1), (3, 2)]
        for M, N in cases:
            for D in (2, 3):
                for d in (1, 2):
                    for x in (1, 2, 3):
                        p = params(D=D, d=d, x=x, M=M, N=N)
                        net = build_mps(p, seed=0)
                        _, report = execute(net, mps_plan(net))
                        assert report.total == mps_cost(p), p

    def test_rejects_comb_network(self):
        comb = build_comb(params(N=2), seed=0)
        with pytest.raises(ValueError, match="requires an MPS"):
            mps_plan(comb)


class TestCombPlan:
    def test_smallest_comb_cost(self):
        net = build_comb(params(D=3, d=2, x=2, M=2, N=2), seed=0)
        _, report = execute(net, comb_plan(net))
        assert report.total == 66
        assert report.analytic_printed == 74
        assert report.residual_printed_minus_measured == 8

    def test_reference_scale_cost(self):
        p = params(D=100, d=30, x=10, M=50, N=5)
        net = build_comb(p, seed=0)
        _, report = execute(net, comb_plan(net))
        assert report.total == 1_438_010
        assert report.analytic_printed == 1_443_010
        assert report.residual_printed_minus_measured == 5_000

    @pytest.mark.parametrize("M,N,x", [(2, 1, 1), (3, 2, 2), (4, 3, 3), (5, 1, 2)])
    def test_residual_is_teeth_times_bond_squared(self, M, N, x):
        p = params(D=3, d=2, x=x, M=M, N=N)
        net = build_comb(p, seed=0)
        _, report = execute(net, comb_plan(net))
        assert report.residual_printed_minus_measured == M * x * x
        assert comb_cost_printed(p) - comb_cost_schedule(p) == M * x * x

    def test_phase_subtotals_match_terms(self):
        p = params(D=4, d=3, x=2, M=4, N=3)
        net = build_comb(p, seed=1)
        _, report = execute(net, comb_plan(net))
        terms = comb_cost_terms(p, "schedule")
        assert report.phase_subtotals["compress"] == terms["compress"]
        assert report.phase_subtotals["absorb-physical"] == (
            terms["absorb-tooth-end"] + terms["absorb-tooth-interior"])
        assert report.phase_subtotals["tooth-sweep"] == terms["tooth-sweep"]
        assert report.phase_subtotals["tooth-to-backbone"] == (
            terms["tooth-to-backbone-boundary"] + terms["tooth-to-backbone-interior"])
        assert report.phase_subtotals["chain-sweep"] == terms["chain-sweep"]
        assert report.phase_subtotals["final-dot"] == terms["final-dot"]

    def test_rejects_mps_network(self):
        mps = build_mps(params(), seed=0)
        with pytest.raises(ValueError, match="requires a comb"):
            comb_plan(mps)


class TestPlanSharing:
    @pytest.mark.parametrize("build, plan_fn", [(build_mps, mps_plan),
                                                (build_comb, comb_plan)])
    def test_same_geometry_shares_one_plan(self, build, plan_fn):
        a = build(params(D=3, d=2, x=2, M=3, N=2), seed=0)
        b = build(params(D=5, d=1, x=4, M=3, N=2), seed=1)
        assert plan_fn(a) is plan_fn(b)
        other = build(params(D=3, d=2, x=2, M=3, N=3), seed=0)
        assert plan_fn(other) is not plan_fn(a)
        assert len(plan_fn(other).steps) > len(plan_fn(a).steps)

    def test_shared_plan_still_checks_the_kind(self):
        mps = build_mps(params(M=3, N=2), seed=0)
        comb = build_comb(params(M=3, N=2), seed=0)
        mps_plan(mps)
        comb_plan(comb)
        with pytest.raises(ValueError, match="requires an MPS"):
            mps_plan(comb)
        with pytest.raises(ValueError, match="requires a comb"):
            comb_plan(mps)

    def test_memo_is_bounded(self):
        for memo in (engine._mps_plan, engine._comb_plan):
            assert memo.cache_info().maxsize is not None
            assert memo.cache_info().maxsize <= 8


class TestExecute:
    def test_zero_data_gives_exact_zero(self):
        p = params(M=3, N=2)
        for build in (build_mps, build_comb):
            net = attach_data(build(p, seed=0), np.zeros((p.sites, p.dim_raw)))
            scalar, _ = execute(net, plan_for(net))
            assert scalar == 0.0

    def test_repeat_execution_identical(self):
        net = build_comb(params(M=3, N=2), seed=5)
        plan = comb_plan(net)
        first = execute(net, plan)
        second = execute(net, plan)
        assert first == second

    def test_cost_independent_of_values(self):
        p = params(D=4, d=3, x=2, M=3, N=2)
        for build, plan_fn in ((build_mps, mps_plan), (build_comb, comb_plan)):
            r1 = execute(build(p, seed=1), plan_fn(build(p, seed=1)))[1]
            r2 = execute(build(p, seed=2), plan_fn(build(p, seed=2)))[1]
            assert r1 == r2

    def test_total_equals_subtotal_sum(self):
        net = build_comb(params(M=4, N=2), seed=3)
        _, report = execute(net, comb_plan(net))
        assert report.total == sum(report.phase_subtotals.values())

    def test_plan_network_mismatch(self):
        small = build_mps(params(M=2, N=1), seed=0)
        large = build_mps(params(M=3, N=1), seed=0)
        with pytest.raises(ValueError, match="does not match network"):
            execute(small, mps_plan(large))

    def test_kind_mismatch(self):
        mps = build_mps(params(), seed=0)
        comb = build_comb(params(N=2), seed=0)
        with pytest.raises(ValueError, match="kind"):
            execute(mps, comb_plan(comb))

    def test_intermediates_consumed_exactly_once(self):
        for net in (build_mps(params(M=3, N=2), seed=0),
                    build_comb(params(M=3, N=2), seed=0)):
            plan = plan_for(net)
            produced = [s.out for s in plan.steps]
            assert len(produced) == len(set(produced))
            consumed = [name for s in plan.steps for name in (s.a, s.b)]
            for out in produced:
                uses = consumed.count(out)
                assert uses == (0 if out == "result" else 1)

    @pytest.mark.parametrize("build", [build_mps, build_comb])
    def test_no_step_copies_an_operand(self, build, monkeypatch):
        # large sites, so a copy of any operand would dwarf the allowance
        net = build(params(D=40, d=30, x=64, M=3, N=2), seed=1)
        plan = plan_for(net)
        execute(net, plan)
        extra = []

        def traced(a, b, pairing):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out, cost = contract_pair(a, b, pairing)
            extra.append(tracemalloc.get_traced_memory()[1] - before - out.array.nbytes)
            return out, cost

        monkeypatch.setattr(engine, "contract_pair", traced)
        tracemalloc.start()
        try:
            execute(net, plan)
        finally:
            tracemalloc.stop()
        # every step, tooth-to-backbone on the [x, x, x] backbone included
        assert len(extra) == len(plan.steps)
        over = [(step.phase, step.b, n) for step, n in zip(plan.steps, extra) if n > 4096]
        assert not over


class TestValueOracle:
    def test_all_ones_unit_network(self):
        p = params(D=1, d=1, x=1, M=2, N=1)
        net = build_mps(p, seed=0)
        ones = {name: Tensor(np.ones(node.tensor.shape))
                for name, node in net.nodes.items()}
        net = _with_tensors(net, ones)
        assert naive_value_oracle(net) == 1.0
        scalar, _ = execute(net, plan_for(net))
        assert scalar == 1.0

    def test_zero_data(self):
        p = params(M=2, N=2)
        net = attach_data(build_comb(p, seed=0), np.zeros((p.sites, p.dim_raw)))
        assert naive_value_oracle(net) == 0.0

    def test_matches_execute_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            p = params(
                D=int(rng.integers(1, 4)),
                d=1,  # adjusted below to stay <= D
                x=int(rng.integers(1, 4)),
                M=int(rng.integers(2, 5)),
                N=int(rng.integers(1, 4)),
            )
            d = int(rng.integers(1, p.dim_raw + 1))
            p = NetworkParams(dim_raw=p.dim_raw, dim_comp=d, bond_dim=p.bond_dim,
                              teeth=p.teeth, tooth_len=p.tooth_len)
            build = build_mps if rng.integers(2) else build_comb
            net = build(p, seed=int(rng.integers(1 << 30)))
            scalar, _ = execute(net, plan_for(net))
            reference = naive_value_oracle(net)
            assert math.isfinite(reference) and reference != 0.0, p
            assert math.isclose(scalar, reference, rel_tol=1e-10), p

    def test_equals_bond_order_tensordot_reference(self):
        rng = np.random.default_rng(17)
        for i in range(20):
            p = params(D=3, d=2, x=int(rng.integers(1, 5)),
                       M=int(rng.integers(2, 5)), N=int(rng.integers(1, 4)))
            build = build_mps if i % 2 == 0 else build_comb
            net = build(p, seed=int(rng.integers(1 << 30)))
            assert naive_value_oracle(net) == _tensordot_oracle(net), p

    def test_matches_execute_on_long_chain(self):
        p = params(D=3, d=2, x=3, M=30, N=4)
        for build in (build_mps, build_comb):
            net = build(p, seed=8)
            scalar, _ = execute(net, plan_for(net))
            assert math.isclose(scalar, naive_value_oracle(net), rel_tol=1e-10), build

    def test_cycle_rejected(self):
        net = _graph({"a": (2, 2), "b": (2, 2), "c": (2, 2)},
                     [("a", 1, "b", 0), ("b", 1, "c", 0), ("c", 1, "a", 0)])
        with pytest.raises(ValueError, match="cycle"):
            naive_value_oracle(net)

    def test_disconnected_rejected(self):
        net = _graph({"a": (2,), "b": (2,), "c": (3,), "d": (3,)},
                     [("a", 0, "b", 0), ("c", 0, "d", 0)])
        with pytest.raises(ValueError, match="disconnected"):
            naive_value_oracle(net)

    def test_free_axis_rejected(self):
        net = _graph({"a": (2, 3), "b": (2,)}, [("a", 0, "b", 0)])
        with pytest.raises(ValueError, match="not closed"):
            naive_value_oracle(net)

    def test_bond_extent_mismatch_rejected(self):
        net = _graph({"a": (2,), "b": (4,)}, [("a", 0, "b", 0)])
        with pytest.raises(ValueError, match="joins extents 2 and 4"):
            naive_value_oracle(net)

    def test_guard_raises(self):
        net = build_mps(params(M=3, N=2), seed=0)
        with pytest.raises(OracleGuardError, match="guard"):
            naive_value_oracle(net, guard=1)
