import hashlib
import itertools
import math
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from combtn.costmodel import (
    comb_cost_printed,
    comb_cost_schedule,
    comb_cost_terms,
    mps_cost,
    mps_cost_terms,
    sequential_products,
)
from combtn import engine, network
from combtn.engine import (
    ContractionPlan,
    OracleGuardError,
    PlanStep,
    comb_plan,
    execute,
    mps_plan,
    naive_value_oracle,
    plan_for,
)
from combtn.network import (
    NetworkParams,
    TensorNetwork,
    attach_data,
    build_comb,
    build_mps,
    make_geometry,
)
from combtn.tensor import CHAIN, AxisPairing, contract_pair
from combtn.verification import grid_params
from exact import exact_value


def params(D=3, d=2, x=2, M=2, N=1) -> NetworkParams:
    return NetworkParams(dim_raw=D, dim_comp=d, bond_dim=x, teeth=M, tooth_len=N)


def _graph(*nodes) -> TensorNetwork:
    """A hand tree of all-ones tensors, each node (name, shape, parent,
    parent axis, axis) the one row of a stack named after it."""
    geometry = make_geometry("tree", [(name, name, *bond) for name, _, *bond in nodes],
                             [(name, (1,), "x" * len(shape), "", None)
                              for name, shape, *_ in nodes])
    return TensorNetwork(params(), geometry,
                         {name: np.ones((1, *shape)) for name, shape, *_ in nodes})


def _tensordot_oracle(net: TensorNetwork) -> float:
    """Bond-order contraction through ``np.tensordot``, one component per
    node, merged with the first operand's component kept."""
    arrays = {name: node.tensor.array for name, node in net.nodes.items()}
    legs = {name: [None] * len(node.tensor.shape) for name, node in net.nodes.items()}
    for label, bond in enumerate(net.bonds):
        legs[bond.node_a][bond.axis_a] = label
        legs[bond.node_b][bond.axis_b] = label
    owner = {name: name for name in net.nodes}
    for label, bond in enumerate(net.bonds):
        ca, cb = owner[bond.node_a], owner[bond.node_b]
        axis_a, axis_b = legs[ca].index(label), legs[cb].index(label)
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
        p = params(D=3, d=2, x=2, M=2, N=1)
        net = build_mps(p, seed=0)
        _, report = execute(net, mps_plan(net))
        assert report.total == 22
        assert report.analytic_printed == 22
        assert mps_cost(p) == 22

    def test_reference_scale_cost(self):
        p = params(D=100, d=30, x=10, M=50, N=5)
        net = build_mps(p, seed=0)
        _, report = execute(net, mps_plan(net))
        assert report.total == 1_519_410

    @pytest.mark.parametrize("M,N", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 3)])
    def test_chain_sweep_step_count(self, M, N):
        # one chain step through all L - 2 absorbed interior sites: the whole
        # result of the step that absorbs into the whole interior-site stack
        net = build_mps(params(M=M, N=N), seed=0)
        plan = mps_plan(net)
        sweeps = [(s.b[1], plan.steps[s.b[0]].b, s.pairing)
                  for s in plan.steps if s.phase == "chain-sweep"]
        assert sweeps == [(None, ("interior-sites", None), CHAIN)] * (M * N > 2)
        assert dict(plan.stacks).get("interior-sites") == \
            ((M * N - 2,) if M * N > 2 else None)

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
        p = params(D=3, d=2, x=2, M=2, N=2)
        net = build_comb(p, seed=0)
        _, report = execute(net, comb_plan(net))
        assert report.total == 66
        assert report.analytic_printed == 74
        assert comb_cost_printed(p) - report.total == 8

    def test_reference_scale_cost(self):
        p = params(D=100, d=30, x=10, M=50, N=5)
        net = build_comb(p, seed=0)
        _, report = execute(net, comb_plan(net))
        assert report.total == 1_438_010
        assert report.analytic_printed == 1_443_010
        assert comb_cost_printed(p) - report.total == 5_000

    @pytest.mark.parametrize("M,N,x", [(2, 1, 1), (3, 2, 2), (4, 3, 3), (5, 1, 2)])
    def test_residual_is_teeth_times_bond_squared(self, M, N, x):
        p = params(D=3, d=2, x=x, M=M, N=N)
        net = build_comb(p, seed=0)
        _, report = execute(net, comb_plan(net))
        assert comb_cost_printed(p) - report.total == M * x * x
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
        assert plan_fn(other).stacks != plan_fn(a).stacks

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
        assert engine._plan.cache_info().maxsize is not None
        assert engine._plan.cache_info().maxsize <= 8


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
        with pytest.raises(ValueError, match=r"reads stacks \[\('boundary-spines'.*'first-site'"):
            execute(mps, comb_plan(comb))

    def test_intermediates_consumed_exactly_once(self):
        for net in (build_mps(params(M=3, N=2), seed=0),
                    build_comb(params(M=3, N=2), seed=0)):
            plan = plan_for(net)
            # each read from an existing source: a stack of the network or
            # an earlier step's result
            reads = [(k, source) for k, s in enumerate(plan.steps) for source, _ in (s.a, s.b)]
            assert all(source in net.arrays if isinstance(source, str) else 0 <= source < k
                       for k, source in reads)
            # every stack and every result but the last is read, and dropped
            # exactly once, after its last read
            last = {source: k for k, source in reads}
            assert sorted(last, key=str) == \
                sorted([*net.arrays, *range(len(plan.steps) - 1)], key=str)
            dropped = [(source, k) for k, drops in enumerate(plan.drops) for source in drops]
            assert sorted(dropped, key=str) == sorted(last.items(), key=str)

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
            extra.append(tracemalloc.get_traced_memory()[1] - before - out.nbytes)
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


def _operand(operand) -> tuple:
    """A source read whole, or a (source, index) pair as it is."""
    return operand if isinstance(operand, tuple) else (operand, None)


def _steps(*steps) -> tuple[PlanStep, ...]:
    """Plan steps from (a, b, axis of b) tuples, all in one phase, over
    one-row stacks: each pairs the operands' first axes past the row. An
    operand is a source, read whole, or a (source, index) pair."""
    return tuple(PlanStep(_operand(a), _operand(b), AxisPairing([(1, ib + 1)], 1),
                          "compress") for a, b, ib in steps)


def _plan(*steps) -> ContractionPlan:
    """An MPS plan of ``_steps`` that lists, as one-row stacks, every
    stack name a step reads."""
    names = [_operand(operand)[0] for a, b, _ in steps for operand in (a, b)]
    reads = dict.fromkeys(name for name in names if isinstance(name, str))
    return ContractionPlan(_steps(*steps), tuple((name, (1,)) for name in reads))


# the smallest MPS as one-row stacks: site0 [d, x], site1 [x, d], u0/u1
# [D, d], data0/data1 [D]
SMALLEST = (("site0", (2, 2), None, None, None), ("u0", (3, 2), "site0", 0, 1),
            ("data0", (3,), "u0", 0, 0), ("site1", (2, 2), "site0", 1, 0),
            ("u1", (3, 2), "site1", 1, 1), ("data1", (3,), "u1", 0, 0))


class TestExecuteRefusals:
    """Hand-built stack plans that do not fit their network, one per refusal."""

    COMPRESS = (("data0", "u0", 0), ("data1", "u1", 0))
    ABSORB = ((0, "site0", 0), (1, "site1", 1))

    def refusal(self, *steps, net=None) -> str:
        with pytest.raises(ValueError) as raised:
            execute(net or _graph(*SMALLEST), _plan(*steps))
        return str(raised.value)

    def test_missing_operand(self):
        assert self.refusal(("data0", "ghost", 0)) == (
            "plan does not match network: where they differ, the plan reads "
            "stacks [('ghost', (1,))] and the network holds [('data1', (1,)), "
            "('site0', (1,)), ('site1', (1,)), ('u0', (1,)), ('u1', (1,))]")

    def test_tensors_left_over(self):
        assert self.refusal(*self.COMPRESS, *self.ABSORB) == \
            "plan leaves 2 tensors instead of a single scalar"
        assert self.refusal() == "plan leaves 0 tensors instead of a single scalar"

    def test_network_with_an_extra_node(self):
        # the comb plan for N=1 on N=2, which has interior teeth
        net = build_comb(params(M=3, N=2), seed=0)
        with pytest.raises(ValueError) as raised:
            execute(net, comb_plan(build_comb(params(M=3, N=1), seed=0)))
        assert str(raised.value) == MISMATCHES["extra"]

    def test_non_scalar_result(self):
        # each step keeps the row axis, so the last result is (1,)
        net = _graph(("a", (2,), None, None, None), ("b", (2, 3), "a", 0, 0),
                     ("c", (3,), "b", 1, 0))
        assert self.refusal(("a", "b", 0), (0, "c", 0), net=net) == \
            "plan result has shape (1,), expected a scalar"


class TestPlanRefusals:
    """Faults that no network could mend are refused when a plan is made;
    the rest wait for ``execute`` and the network."""

    COMPRESS = TestExecuteRefusals.COMPRESS
    ABSORB = TestExecuteRefusals.ABSORB

    @pytest.mark.parametrize("steps, message", [
        ((*COMPRESS, (0.0, "site0", 0)),
         "plan step 2 reads 0.0, neither a stack nor an earlier step"),
        ((*COMPRESS, (True, "site0", 0)),
         "plan step 2 reads True, neither a stack nor an earlier step"),
        (((1, "site0", 0), ("data0", "u0", 0)),
         "plan step 0 reads 1, neither a stack nor an earlier step"),
        ((*COMPRESS, (2, "site0", 0)),
         "plan step 2 reads 2, neither a stack nor an earlier step"),
        ((*COMPRESS, *ABSORB), "plan leaves 2 tensors instead of a single scalar"),
        ((), "plan leaves 0 tensors instead of a single scalar"),
        ((*COMPRESS, (-1, "site0", 0)),
         "plan step 2 reads -1, neither a stack nor an earlier step"),
    ])
    def test_refused_without_a_network(self, steps, message):
        with pytest.raises(ValueError) as raised:
            _plan(*steps)
        assert str(raised.value) == message

    @pytest.mark.parametrize("steps", [
        (("data0", "ghost", 0),),           # a stack the network lacks
        (("data0", "u0", 0),),              # stacks the plan does not read
        (*COMPRESS, (0, 1, 0)),             # no step reads a site
    ])
    def test_network_faults_are_refused_by_execute(self, steps):
        plan = _plan(*steps)
        with pytest.raises(ValueError, match="does not match network"):
            execute(_graph(*SMALLEST), plan)


MISMATCHES = {
    "missing": "plan does not match network: where they differ, the plan reads "
               "stacks [('compressions', (3, 2)), ('data', (3, 2)), "
               "('interior-teeth', (3, 1))] and the network holds "
               "[('compressions', (3, 1)), ('data', (3, 1))]",
    "extra": "plan does not match network: where they differ, the plan reads "
             "stacks [('compressions', (3, 1)), ('data', (3, 1))] and the network "
             "holds [('compressions', (3, 2)), ('data', (3, 2)), "
             "('interior-teeth', (3, 1))]",
    "extents": "plan does not match network: where they differ, the plan reads "
               "stacks [('compressions', (4,)), ('data', (4,)), "
               "('interior-sites', (2,))] and the network holds "
               "[('compressions', (3,)), ('data', (3,)), ('interior-sites', (1,))]",
    "kind": "plan does not match network: where they differ, the plan reads "
            "stacks [('boundary-spines', (2,)), ('compressions', (3, 2)), "
            "('data', (3, 2)), ('interior-spines', (1,)), ('interior-teeth', (3, 1)), "
            "('tooth-ends', (3,))] and the network holds [('compressions', (3,)), "
            "('data', (3,)), ('first-site', (1,)), ('interior-sites', (1,)), "
            "('last-site', (1,))]",
}


@pytest.mark.parametrize("case", list(MISMATCHES))
def test_execute_refuses_a_mismatched_network_before_any_step(case, monkeypatch):
    comb = build_comb(params(M=3, N=2), seed=0)
    mps = build_mps(params(M=3, N=1), seed=0)
    net, plan = {
        # the comb plan for N=2 on N=1, which has no interior teeth
        "missing": (build_comb(params(M=3, N=1), seed=0), comb_plan(comb)),
        # and the one for N=1 on N=2, which has
        "extra": (comb, comb_plan(build_comb(params(M=3, N=1), seed=0))),
        # the MPS plan for 4 sites on 3
        "extents": (mps, mps_plan(build_mps(params(M=2, N=2), seed=0))),
        "kind": (mps, comb_plan(comb)),
    }[case]
    calls = []

    def counted(a, b, pairing):
        calls.append(pairing)
        return contract_pair(a, b, pairing)

    monkeypatch.setattr(engine, "contract_pair", counted)
    with pytest.raises(ValueError) as raised:
        execute(net, plan)
    assert str(raised.value) == MISMATCHES[case]
    assert calls == []


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_a_complex_stack_is_refused_not_cast(build):
    # an array put in by hand is held as it is given, so complex data
    # stays complex through every step; the scalar is refused rather than
    # cut to its real part
    net = build(params(M=3, N=2), seed=0)
    net = replace(net, arrays={**net.arrays, "data": net.arrays["data"] + 1j})
    with pytest.raises(TypeError, match="complex"):
        execute(net, plan_for(net))


# sha256 over every executed scalar's float.hex and every phase subtotal of
# the networks in ``test_executed_values_are_pinned``; a kernel or schedule
# change that moves one bit of one scalar changes it
VALUE_DIGEST = "ef1d778da57a0f957193cbb1affcbe9310ad251a5794c9fa1c0fa8674298822f"


def test_executed_values_are_pinned():
    digest = hashlib.sha256()
    runs = 0
    for idx, p in enumerate(grid_params("small")):
        data = np.random.default_rng(idx).standard_normal((p.sites, p.dim_raw))
        for build in (build_mps, build_comb):
            net = build(p, seed=42 + idx)
            for scored in (net, attach_data(net, data)):
                scalar, report = execute(scored, plan_for(scored))
                digest.update(f"{scored.kind} {scalar.hex()}".encode())
                for phase, count in report.phase_subtotals.items():
                    digest.update(f" {phase}={count}".encode())
                digest.update(f" total={report.total};".encode())
                runs += 1
    assert runs == 648
    assert digest.hexdigest() == VALUE_DIGEST


# the same digest over both networks of the reference point (M=50, N=5, D=100,
# d=30, x=10), build seed 3, raw and with two seeded samples each; its
# steps run at other extents, so other BLAS paths, than the small grid's
REFERENCE_DIGEST = "350960ec418072e93b0ba76689f3d0bc5867ec6638cc2afc0e3ebfa3c52afece"


def test_reference_values_are_pinned():
    p = params(D=100, d=30, x=10, M=50, N=5)
    digest = hashlib.sha256()
    for build in (build_mps, build_comb):
        net = build(p, seed=3)
        rng = np.random.default_rng(11)
        samples = [rng.standard_normal((p.sites, p.dim_raw)) for _ in range(2)]
        for scored in (net, *(attach_data(net, data) for data in samples)):
            scalar, report = execute(scored, plan_for(scored))
            digest.update(f"{scored.kind} {scalar.hex()}".encode())
            for phase, count in report.phase_subtotals.items():
                digest.update(f" {phase}={count}".encode())
            digest.update(f" total={report.total};".encode())
    assert digest.hexdigest() == REFERENCE_DIGEST


# sha256 over every phase subtotal and total, without the scalars, of every
# small-grid network and both reference networks; a schedule or kernel
# change that moves one count changes it, a change of summation order does not
COUNT_DIGEST = "b7ac43e2a240471f58d6e8876a59a0b09d2e1d8417b3e51a8ab4f61b96da304c"


def test_counts_are_pinned():
    cases = [*grid_params("small"), params(D=100, d=30, x=10, M=50, N=5)]
    digest = hashlib.sha256()
    for p in cases:
        for build in (build_mps, build_comb):
            net = build(p, seed=1)
            _, report = execute(net, plan_for(net))
            digest.update(f"{net.kind}".encode())
            for phase, count in report.phase_subtotals.items():
                digest.update(f" {phase}={count}".encode())
            digest.update(f" total={report.total};".encode())
    assert digest.hexdigest() == COUNT_DIGEST


# sha256 over every step both kinds run at every (M, N) of the full grid
# (D=3, d=2, x=3, build seed 1): each step's phase, pairing, operand shapes,
# result shape and result bytes, in step order; a schedule change that
# moves one step, pairing or view, or one bit of one intermediate, changes it
STEP_DIGEST = "3043df2c2d6f4ccfc718a86983d5b5a018cba47ffb0b4c1e6468dd1f796343eb"


def test_schedules_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    steps = []

    def recorded(a, b, pairing):
        out, cost = contract_pair(a, b, pairing)
        digest.update(f"{steps.pop(0).phase} {pairing.pairs} {pairing.batch} "
                      f"{pairing.chain} {a.shape} {b.shape} {out.shape};".encode())
        digest.update(out.tobytes())
        return out, cost

    monkeypatch.setattr(engine, "contract_pair", recorded)
    runs = 0
    for m, n in sorted({(p.teeth, p.tooth_len) for p in grid_params("full")}):
        for build in (build_mps, build_comb):
            net = build(params(D=3, d=2, x=3, M=m, N=n), seed=1)
            plan = plan_for(net)
            steps[:] = plan.steps
            execute(net, plan)
            assert not steps
            runs += len(plan.steps)
    assert runs == 899
    assert digest.hexdigest() == STEP_DIGEST


@pytest.mark.parametrize("lead, rows, batch, extents", [
    ((5,), [(1,), (2,), (3,)], None, (3,)),
    ((5,), [(0,), (4,)], None, (2,)),
    ((3, 2), [(0, 1), (1, 1), (2, 1)], None, (3,)),
    ((3, 2), [(0, 1), (1, 1), (2, 1)], 2, (3, 1)),
    ((3,), [(0,), (1,), (2,)], 1, (3,)),
    ((3, 2), [(2, 0)], 0, ()),
])
def test_a_view_reads_exactly_its_rows(lead, rows, batch, extents):
    index, kept = engine._index(lead, rows, batch)
    cells = np.arange(math.prod(lead)).reshape(lead)
    view = cells if index is None else cells[index]
    assert kept == extents == view.shape
    assert view.ravel().tolist() == [cells[row] for row in rows]


@pytest.mark.parametrize("rows, batch", [
    ([(0,), (2,), (3,)], None),     # not one run
    ([(3,), (1,)], 1),              # not in row order
    ([(0,), (1,)], 0),              # more rows than the batch holds
])
def test_rows_no_basic_index_reads_are_refused(rows, batch):
    with pytest.raises(ValueError, match="no basic index"):
        engine._index((4,), rows, batch)


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_consumed_intermediates_are_released(build, monkeypatch):
    net = build(params(M=3, N=2), seed=0)
    plan = plan_for(net)
    # a weak reference to the memory of every result but the scalar, in
    # step order: the views its readers take keep it alive
    owners = []
    alive = []      # results alive as each step starts

    def tracked(a, b, pairing):
        alive.append(sum(ref() is not None for ref in owners))
        out, cost = contract_pair(a, b, pairing)
        if out.shape:
            owners.append(weakref.ref(out if out.base is None else out.base))
        return out, cost

    monkeypatch.setattr(engine, "contract_pair", tracked)
    execute(net, plan)
    # a result lives from its step to its last read, this step's operands
    # included
    last = {source: k for k, step in enumerate(plan.steps) for source, _ in (step.a, step.b)}
    expected = [sum(last.get(j, -1) >= k for j in range(k)) for k in range(len(plan.steps))]
    assert alive == expected == {"mps": [0, 1, 2, 3, 3, 2],
                                 "comb": [0, 1, 2, 2, 1, 2, 2, 2]}[net.kind]


def test_a_plan_may_read_a_result_twice_and_a_stack_in_part(monkeypatch):
    # the MPS of three sites, by hand: the data and compression stacks in
    # two parts, the first result read by two sites, the absorbed sites
    # joined by plain pairings rather than a chain
    net = build_mps(params(D=3, d=2, x=2, M=3, N=1), seed=4)
    dot, stacked = AxisPairing([(0, 0)]), AxisPairing([(1, 1)], 1)
    steps = (
        PlanStep(("data", (slice(0, 2),)), ("compressions", (slice(0, 2),)), stacked,
                 "compress"),
        PlanStep(("data", (2,)), ("compressions", (2,)), dot, "compress"),
        PlanStep((0, (0,)), ("first-site", (0,)), dot, "absorb-physical"),
        PlanStep((0, (slice(1, 2),)), ("interior-sites", None), stacked, "absorb-physical"),
        PlanStep((1, None), ("last-site", (0,)), AxisPairing([(0, 1)]), "absorb-physical"),
        PlanStep((2, None), (3, (0,)), dot, "chain-sweep"),
        PlanStep((5, None), (4, None), dot, "final-dot"),
    )
    plan = ContractionPlan(steps, tuple(
        (name, lead) for name, lead, *_ in net.geometry.draws))
    owners, alive = [], []      # as in test_consumed_intermediates_are_released

    def tracked(a, b, pairing):
        alive.append({j for j, ref in enumerate(owners) if ref() is not None})
        out, cost = contract_pair(a, b, pairing)
        owners.append(weakref.ref(out if out.base is None else out.base))
        return out, cost

    monkeypatch.setattr(engine, "contract_pair", tracked)
    scalar, report = execute(net, plan)
    assert math.isclose(scalar, naive_value_oracle(net), rel_tol=1e-10)
    assert report.total == mps_cost(net.params)
    # each result is freed after its last read, the scalar once returned
    assert alive == [set(), {0}, {0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {4, 5}]
    assert [ref() for ref in owners] == [None] * len(steps)


def expected_calls(kind: str, m: int, n: int) -> int:
    """``contract_pair`` calls of one ``execute``: one per stacked phase
    step, one chain step per sweep with an interior, and the dot."""
    if kind == "mps":
        # compress; absorb into the first, the interior and the last sites;
        # the chain through the interior sites and the dot
        sites = m * n
        return 4 + 2 * (sites > 2)
    # compress; absorb into the interior teeth and the tooth ends; N - 1
    # tooth sweeps; enter the boundary and the interior spines; the chain
    # through the interior spines and the dot
    return n + 3 + (n > 1) + 2 * (m > 2)


def test_call_count_is_the_closed_form(monkeypatch):
    calls = []

    def counted(a, b, pairing):
        calls.append(pairing)
        return contract_pair(a, b, pairing)

    monkeypatch.setattr(engine, "contract_pair", counted)
    cases = [*grid_params("small"), params(D=100, d=30, x=10, M=50, N=5)]
    for p in cases:
        for build in (build_mps, build_comb):
            net = build(p, seed=1)
            calls.clear()
            execute(net, plan_for(net))
            assert len(calls) == len(plan_for(net).steps) == \
                expected_calls(net.kind, p.teeth, p.tooth_len), (net.kind, p)
    assert expected_calls("mps", 50, 5) + expected_calls("comb", 50, 5) == 17


def test_the_count_is_the_parameters_plus_one_chain():
    # every parameter is read in exactly one multiplication; beyond them
    # the contraction pays one x^2 per interior link of an L-site chain
    # and x for the dot, in both kinds
    for p in grid_params("small"):
        for build in (build_mps, build_comb):
            net = build(p, seed=0)
            _, cost = execute(net, plan_for(net))
            parameters = sum(arr.size for name, arr in net.arrays.items() if name != "data")
            assert cost.total - parameters == \
                (p.sites - 2) * p.bond_dim ** 2 + p.bond_dim, (net.kind, p)


def test_sequential_products_are_the_longest_dependency_path(monkeypatch):
    # a step waits for the steps that made its operands; a stacked step is
    # one product whatever its batch, and a chain step is one per row
    rows = []

    def recorded(a, b, pairing):
        rows.append(b.shape[0] if pairing.chain else 1)
        return contract_pair(a, b, pairing)

    monkeypatch.setattr(engine, "contract_pair", recorded)
    for p in grid_params("small"):
        for build in (build_mps, build_comb):
            net = build(p, seed=0)
            plan = plan_for(net)
            rows.clear()
            execute(net, plan)
            depth = []      # by step number; a stack is ready at the start
            for step, products in zip(plan.steps, rows):
                depth.append(max(0 if isinstance(source, str) else depth[source]
                                 for source, _ in (step.a, step.b)) + products)
            assert depth[-1] == sequential_products(net.kind, p), (net.kind, p)
    reference = params(D=100, d=30, x=10, M=50, N=5)
    assert sequential_products("mps", reference) == 251
    assert sequential_products("comb", reference) == 56
    with pytest.raises(ValueError, match="kind"):
        sequential_products("tree", reference)


def test_every_step_costs_its_items_times_one_monomial(monkeypatch):
    # at the prime extents D=7, d=5, x=3 the six monomials x, x², x³, dx,
    # dx² and Dd are distinct, so each step's count, over its item count
    # (its batch, or a chain's rows), names the one it costs per item
    D, d, x = 7, 5, 3
    monomials = {"compress": {D * d}, "absorb-physical": {d * x, d * x * x},
                 "tooth-sweep": {x * x}, "tooth-to-backbone": {x * x, x ** 3},
                 "chain-sweep": {x * x}, "final-dot": {x}}
    assert len(set().union(*monomials.values())) == 6
    recorded = []

    def counted(a, b, pairing):
        out, cost = contract_pair(a, b, pairing)
        items = b.shape[0] if pairing.chain else math.prod(a.shape[:pairing.batch])
        recorded.append((items, cost.multiplications))
        return out, cost

    monkeypatch.setattr(engine, "contract_pair", counted)
    for m, n in sorted({(p.teeth, p.tooth_len) for p in grid_params("small")}):
        for build in (build_mps, build_comb):
            net = build(params(D=D, d=d, x=x, M=m, N=n), seed=0)
            plan = plan_for(net)
            recorded.clear()
            execute(net, plan)
            assert len(recorded) == len(plan.steps)
            for step, (items, count) in zip(plan.steps, recorded):
                assert count % items == 0, (net.kind, m, n, step)
                assert count // items in monomials[step.phase], (net.kind, m, n, step)


def _exact_rank(rows) -> int:
    """Rank of an integer matrix, by elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("grid, rank", [("full", 16), ("small", 12)])
def test_grid_points_pin_the_span_of_step_costs(grid, rank):
    # an engine total, like every closed form, lies in the span of the 16
    # monomials D^a d^b x^c (a, b <= 1, c <= 3); a polynomial there is fixed
    # by its values on points whose evaluation matrix has rank 16, so a full
    # grid PASS holds at every (D, d, x) of its (M, N), and a small one does
    # not prove it
    points: dict[tuple[int, int], set[tuple[int, int, int]]] = {}
    for p in grid_params(grid):
        points.setdefault((p.teeth, p.tooth_len), set()).add(
            (p.dim_raw, p.dim_comp, p.bond_dim))
    shared = points[2, 1]
    assert all(group == shared for group in points.values())
    assert len(shared) == {"full": 36, "small": 18}[grid]
    matrix = [[D ** a * d ** b * x ** c
               for a, b, c in itertools.product((0, 1), (0, 1), range(4))]
              for D, d, x in sorted(shared)]
    assert _exact_rank(matrix) == rank


def test_step_counts_per_phase_and_monomial_are_affine_in_m_n_mn(monkeypatch):
    # items per (phase, monomial) at the prime extents D=7, d=5, x=3; a
    # function of (M, N) is affine in (1, M, N, MN) when it is affine in M
    # at each N and in N at each M, so its second differences vanish
    D, d, x = 7, 5, 3
    recorded = []

    def counted(a, b, pairing):
        out, cost = contract_pair(a, b, pairing)
        items = b.shape[0] if pairing.chain else math.prod(a.shape[:pairing.batch])
        monomial, rest = divmod(cost.multiplications, items)
        assert rest == 0 and monomial in {x, x * x, x ** 3, d * x, d * x * x, D * d}
        recorded.append((items, monomial))
        return out, cost

    monkeypatch.setattr(engine, "contract_pair", counted)
    m_range, n_range = range(2, 13), range(1, 13)
    for build in (build_mps, build_comb):
        tallies = {}
        for m, n in itertools.product(m_range, n_range):
            net = build(params(D=D, d=d, x=x, M=m, N=n), seed=0)
            plan = plan_for(net)
            recorded.clear()
            execute(net, plan)
            tally = tallies[m, n] = Counter()
            for step, (items, monomial) in zip(plan.steps, recorded):
                tally[step.phase, monomial] += items
        keys = set().union(*tallies.values())
        assert len(keys) == {"mps": 5, "comb": 8}[net.kind]
        for key in keys:
            f = {mn: tally[key] for mn, tally in tallies.items()}
            for m, n in itertools.product(m_range[:-2], n_range):
                assert f[m, n] - 2 * f[m + 1, n] + f[m + 2, n] == 0, (build, key, m, n)
            for m, n in itertools.product(m_range, n_range[:-2]):
                assert f[m, n] - 2 * f[m, n + 1] + f[m, n + 2] == 0, (build, key, m, n)


def test_stacked_plan_on_other_extents_is_refused():
    small = build_mps(params(M=3, N=1), seed=0)
    plan = mps_plan(build_mps(params(M=2, N=2), seed=0))
    with pytest.raises(ValueError) as raised:
        execute(small, plan)
    assert str(raised.value) == MISMATCHES["extents"]
    comb = build_comb(params(M=3, N=2), seed=0)
    with pytest.raises(ValueError) as raised:
        execute(build_comb(params(M=3, N=1), seed=0), comb_plan(comb))
    assert str(raised.value) == MISMATCHES["missing"]


def test_plan_stacks_must_be_the_stacks_it_reads():
    steps = _steps(("data", "u0", 0), (0, "site0", 0))
    # a name it reads is not listed; a listed stack is not read
    for stacks, message in [
            ((("data", (2,)), ("site0", (1,))),
             "plan stacks ['data', 'site0'] are not the stacks it reads, "
             "['data', 'site0', 'u0']"),
            ((("data", (2,)), ("u0", (1,)), ("site0", (1,)), ("site1", (1,))),
             "plan stacks ['data', 'u0', 'site0', 'site1'] are not the stacks it "
             "reads, ['data', 'site0', 'u0']")]:
        with pytest.raises(ValueError) as raised:
            ContractionPlan(steps, stacks)
        assert str(raised.value) == message


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_every_step_calls_the_module_contract_pair(build, monkeypatch):
    # the plan is memoised before the name is patched, as when a tracer
    # wraps engine.contract_pair in a process that has planned already
    net = build(params(M=3, N=2), seed=0)
    plan = plan_for(net)
    expected = execute(net, plan)
    calls = []

    def counted(a, b, pairing):
        calls.append(pairing)
        return contract_pair(a, b, pairing)

    monkeypatch.setattr(engine, "contract_pair", counted)
    assert plan_for(net) is plan
    assert execute(net, plan) == expected
    assert calls == [step.pairing for step in plan.steps]


class TestValueOracle:
    def test_all_ones_unit_network(self):
        p = params(D=1, d=1, x=1, M=2, N=1)
        net = build_mps(p, seed=0)
        net = replace(net, arrays={group: np.ones(arr.shape)
                                   for group, arr in net.arrays.items()})
        assert all((node.tensor.array == 1.0).all() for node in net.nodes.values())
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
        # a hangs from c, b from a and c from b: the first node hangs from
        # a node, so there is no root
        with pytest.raises(ValueError, match="^not one tree: node 'a' hangs from 'c'"):
            _graph(("a", (2, 2), "c", 1, 0), ("b", (2, 2), "a", 1, 0),
                   ("c", (2, 2), "b", 1, 0))

    def test_cycle_among_later_nodes_rejected(self):
        # c and d hang from each other, apart from the tree of a and b
        with pytest.raises(ValueError, match="^not one tree: node 'c' hangs from 'd'"):
            _graph(("a", (2,), None, None, None), ("b", (2,), "a", 0, 0),
                   ("c", (3,), "d", 0, 0), ("d", (3,), "c", 0, 0))

    def test_root_absorbs_nodes_through_any_of_its_axes(self):
        # the root b gives up its axes 1, 2 and 0, in that order, to the
        # nodes it absorbs
        net = _graph(("b", (2, 3, 4), None, None, None), ("c", (3,), "b", 1, 0),
                     ("d", (4,), "b", 2, 0), ("a", (2,), "b", 0, 0))
        assert naive_value_oracle(net) == 2 * 3 * 4

    def test_disconnected_rejected(self):
        # c hangs from None as the root a does: two trees
        with pytest.raises(ValueError, match="^not one tree: node 'c' hangs from None"):
            _graph(("a", (2,), None, None, None), ("b", (2,), "a", 0, 0),
                   ("c", (3,), None, None, None), ("d", (3,), "c", 0, 0))

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError, match="^not one tree: there are no nodes$"):
            _graph()

    def test_free_axis_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "node 'a' is bonded on axes [0], not on each int in range(2) once")):
            _graph(("a", (2, 3), None, None, None), ("b", (2,), "a", 0, 0))

    def test_bond_extent_mismatch_rejected(self):
        net = _graph(("a", (2,), None, None, None), ("b", (4,), "a", 0, 0))
        with pytest.raises(ValueError, match="joins extents 2 and 4"):
            naive_value_oracle(net)

    def test_wider_first_extent_rejected(self):
        net = _graph(("a", (4,), None, None, None), ("b", (2,), "a", 0, 0))
        with pytest.raises(ValueError, match="^bond 0 joins extents 4 and 2$"):
            naive_value_oracle(net)

    def test_guard_raises(self, monkeypatch):
        net = build_mps(params(M=3, N=2), seed=0)
        monkeypatch.setattr(engine, "ORACLE_GUARD", 1)
        with pytest.raises(OracleGuardError, match="guard of 1"):
            naive_value_oracle(net)

    def test_guard_admits_an_intermediate_of_its_size(self, monkeypatch):
        # in bond order a and b merge into (2, 5), the largest intermediate,
        # then c and d sum it down to (2,) and ()
        net = _graph(("a", (2, 3), None, None, None), ("b", (3, 5), "a", 1, 0),
                     ("c", (5,), "b", 1, 0), ("d", (2,), "a", 0, 0))
        monkeypatch.setattr(engine, "ORACLE_GUARD", 10)
        assert naive_value_oracle(net) == 2 * 3 * 5
        monkeypatch.setattr(engine, "ORACLE_GUARD", 9)
        with pytest.raises(OracleGuardError, match="^intermediate with 10 elements "
                                                   "exceeds the oracle guard of 9$"):
            naive_value_oracle(net)

    @pytest.mark.parametrize("children, message, warm", [
        ((("b", (2,), "c", 0, 0),), "not one tree: node 'b' hangs from 'c', but the first "
         "node hangs from None, each other from one before it", False),
        ((("b", (2,), "a", 0, 1),), "node 'b' is bonded on axes [1], not on each int in "
         "range(1) once", False),
        ((("b", (2,), "a", -1, 0),), "node 'a' is bonded on axes [-1], not on each int in "
         "range(1) once", False),
        ((("b", (2,), "a", 0, 0), ("c", (2,), "a", 0, 0)), "node 'a' is bonded on axes "
         "[0, 0], not on each int in range(1) once", False),
        ((("b", (2,), "a", 0.0, 0),), "node 'a' is bonded on axes [0.0], not on each int "
         "in range(1) once", False),
        ((("b", (2,), "a", 0, "0"),), "node 'b' is bonded on axes ['0'], not on each int "
         "in range(1) once", False),
        ((("b", (2,), "a", 0.0, 0),), "node 'a' is bonded on axes [0.0], not on each int "
         "in range(1) once", True),
        ((("b", (2,), "a", 0, np.int64(0)),), "node 'b' is bonded on axes [np.int64(0)], "
         "not on each int in range(1) once", False),
        ((("b", (2,), "a", 0, np.int64(0)),), "node 'b' is bonded on axes [np.int64(0)], "
         "not on each int in range(1) once", True),
    ], ids=["unknown-node", "axis-past-rank", "negative-axis", "axis-bonded-twice",
            "float-axis", "str-axis", "float-axis-warm-memo", "int64-axis",
            "int64-axis-warm-memo"])
    def test_malformed_bond_end_rejected(self, children, message, warm):
        # each child hangs from the root a; an axis 0.0 or np.int64(0)
        # equals 0, and from an empty memo, or one holding the integer
        # graph's schedule (warm), the answer is the same refusal, made
        # before any walk
        root = ("a", (2,), None, None, None)
        engine._walk_bond_graph.cache_clear()
        if warm:
            ints = [(name, shape, parent, *map(int, axes))
                    for name, shape, parent, *axes in children]
            assert naive_value_oracle(_graph(root, *ints)) == 2.0
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _graph(root, *children)
        assert engine._walk_bond_graph.cache_info().misses == warm

    def _two_stacks(self, parent: str = "b") -> TensorNetwork:
        # rows a and c of one stack, row b of another; c hangs from ``parent``
        geometry = make_geometry("tree", [
            ("a", "ends", None, None, None), ("b", "mid", "a", 0, 0),
            ("c", "ends", parent, 1, 0)],
            [("ends", (2,), "x", "", None), ("mid", (1,), "xx", "", None)])
        return TensorNetwork(params(), geometry, {"ends": np.array([[1.0, 2.0], [3.0, 4.0]]),
                                                  "mid": np.eye(2)[None]})

    def test_a_hand_network_has_exactly_its_stacks_rows(self, monkeypatch):
        net = self._two_stacks()
        # the nodes are the stacks' rows, in node order
        assert list(net.nodes) == ["a", "b", "c"]
        assert [view.tolist() for view in network._node_arrays(net)] == \
            [[1.0, 2.0], np.eye(2).tolist(), [3.0, 4.0]]
        walked, walk = [], engine._walk_bond_graph
        monkeypatch.setattr(engine, "_walk_bond_graph",
                            lambda geometry: walked.append(geometry) or walk(geometry))
        # the oracle walks the network's geometry: a . c
        assert naive_value_oracle(net) == 1.0 * 3.0 + 2.0 * 4.0
        assert walked == [net.geometry]

    def test_a_bond_to_a_node_no_stack_holds_is_refused(self):
        with pytest.raises(ValueError, match="^not one tree: node 'c' hangs from 'd'"):
            self._two_stacks("d")

    def test_makes_no_node_wrappers(self):
        net = build_comb(params(M=3, N=2), seed=0)
        naive_value_oracle(net)
        assert "nodes" not in vars(net)


# sha256 over the float.hex of the value oracle's scalar on every small-grid
# network (both kinds, build seed 42 + idx) and on both reference networks
# (M=50, N=5, D=100, d=30, x=10, build seed 3); a change to the oracle's
# merge order or layouts that moves one bit of one scalar changes it
ORACLE_DIGEST = "e35e8254463fbf0d87a760ee7d18bdfcf660e4fec74df2c9972d96f1151fe40f"


def test_oracle_values_are_pinned():
    cases = [(p, 42 + idx) for idx, p in enumerate(grid_params("small"))]
    cases.append((params(D=100, d=30, x=10, M=50, N=5), 3))
    digest = hashlib.sha256()
    runs = 0
    for p, seed in cases:
        for build in (build_mps, build_comb):
            net = build(p, seed=seed)
            digest.update(f"{net.kind} {naive_value_oracle(net).hex()};".encode())
            runs += 1
    assert runs == 326
    assert digest.hexdigest() == ORACLE_DIGEST


class TestOracleSchedules:
    """The oracle walks a geometry once and replays it per network."""

    @pytest.fixture
    def walks(self):
        # an empty memo; walks() counts the graphs walked since
        engine._walk_bond_graph.cache_clear()
        return lambda: engine._walk_bond_graph.cache_info().misses

    def test_another_graph_after_a_build_gets_its_own_schedule(self, walks):
        net = build_mps(params(), seed=5)
        built = naive_value_oracle(net)
        # the build's geometry with all-ones arrays replays its schedule
        ones = replace(net, arrays={name: np.ones(arr.shape)
                                    for name, arr in net.arrays.items()})
        assert naive_value_oracle(ones) == 2 * 2 * 3 * 2 * 3
        assert walks() == 1
        # the same stacks, arrays, kind and params, but each site reads the
        # other's compression and data rows: another geometry, so another
        # schedule and value
        swapped = replace(net, geometry=make_geometry("mps", [
            ("site0", "first-site", None, None, None), ("site1", "last-site", "site0", 1, 0),
            ("u1", "compressions", "site1", 1, 1), ("data1", "data", "u1", 0, 0),
            ("u0", "compressions", "site0", 0, 1), ("data0", "data", "u0", 0, 0)],
            net.geometry.draws))
        assert naive_value_oracle(swapped) == _tensordot_oracle(swapped) != built
        assert walks() == 2
        # a graph that is not one tree is refused before any walk
        with pytest.raises(ValueError, match="not one tree"):
            _graph(("a", (2,), None, None, None), ("b", (2,), "a", 0, 0),
                   ("c", (3,), None, None, None), ("d", (3,), "c", 0, 0))
        assert naive_value_oracle(net) == built
        assert walks() == 2

    def test_extent_mismatch_on_a_cached_schedule(self, walks):
        pair = (("a", (2,), None, None, None), ("b", (2,), "a", 0, 0))
        two = _graph(*pair)
        assert naive_value_oracle(two) == 2.0
        # the same graph made again: an equal geometry, so the same schedule
        again = _graph(*pair)
        assert again.geometry == two.geometry and again.geometry is not two.geometry
        assert naive_value_oracle(again) == 2.0
        net = _graph(("a", (2,), None, None, None), ("b", (4,), "a", 0, 0))
        with pytest.raises(ValueError, match="^bond 0 joins extents 2 and 4$"):
            naive_value_oracle(net)
        assert walks() == 1

    def test_guard_on_a_cached_schedule(self, walks, monkeypatch):
        net = build_mps(params(M=3, N=2), seed=0)
        naive_value_oracle(net)
        monkeypatch.setattr(engine, "ORACLE_GUARD", 1)
        with pytest.raises(OracleGuardError,
                           match="^intermediate with 6 elements exceeds "
                                 "the oracle guard of 1$"):
            naive_value_oracle(net)
        assert walks() == 1

    def test_memo_is_bounded_and_holds_no_arrays(self, walks):
        def held(item):
            if isinstance(item, (tuple, list)):
                return [leaf for part in item for leaf in held(part)]
            return [item]

        memo = engine._walk_bond_graph
        for m, n in itertools.product((2, 3, 4), (1, 2)):
            for build in (build_mps, build_comb):
                net = build(params(M=m, N=n), seed=0)
                naive_value_oracle(net)
                assert memo.cache_info().currsize <= memo.cache_info().maxsize
                # the schedule the oracle just replayed, read back as a hit
                walked = walks()
                schedule = memo(net.geometry)
                assert walks() == walked
                leaves = held(schedule)
                assert {type(leaf) for leaf in leaves} <= {int, str, type(None)}
        assert walks() == 12
        assert memo.cache_info().maxsize == engine._MEMO
        assert memo.cache_info().currsize == engine._MEMO


# A tree that is neither an MPS nor a comb: the backbone p0-p1-p2-p3, each
# interior node with a two-node branch q-r, and a leaf l on each end. Every
# node lists the next backbone node as its last child. Distinct extents, so
# an axis read in the wrong order cannot agree.
BRANCHED_NODES = (
    ("p0", "end0", None, None, None), ("l0", "leaves", "p0", 0, 0),
    ("p1", "inner", "p0", 1, 0), ("q1", "q", "p1", 1, 0), ("r1", "r", "q1", 1, 0),
    ("p2", "inner", "p1", 2, 0), ("q2", "q", "p2", 1, 0), ("r2", "r", "q2", 1, 0),
    ("p3", "end3", "p2", 2, 0), ("l3", "leaves", "p3", 1, 0))
BRANCHED_DRAWS = (
    ("end0", (1,), "dx", "x", None), ("leaves", (2,), "d", "", None),
    ("inner", (2,), "xDx", "xx", None), ("q", (2,), "Dd", "D", None),
    ("r", (2,), "d", "", None), ("end3", (1,), "xd", "x", None))


# The backbone a-b-c, with the leaves e and f both on b: a tree whose plan
# would give b two children in one round.
FORKED_NODES = (
    ("a", "a", None, None, None), ("b", "b", "a", 0, 0), ("e", "e", "b", 1, 0),
    ("f", "f", "b", 2, 0), ("c", "c", "b", 3, 0))
FORKED_DRAWS = (
    ("a", (1,), "x", "", None), ("b", (1,), "xddx", "", None), ("e", (1,), "d", "", None),
    ("f", (1,), "d", "", None), ("c", (1,), "x", "", None))


def _node_view(net: TensorNetwork, node: int) -> np.ndarray:
    # the node's row of its stack, numbered by how many of the stack's
    # members are listed before it, in its node's axis order
    stack = net.geometry.stacks[node]
    _, lead, *_, node_axes = next(draw for draw in net.geometry.draws if draw[0] == stack)
    arr = net.arrays[stack]
    row = arr.reshape(-1, *arr.shape[len(lead):])[net.geometry.stacks[:node].count(stack)]
    return row if node_axes is None else row.transpose(node_axes)


def test_every_reader_numbers_nodes_by_their_place_in_the_list():
    nets = [build(p, seed=42 + idx) for idx, p in enumerate(grid_params("small"))
            for build in (build_mps, build_comb)]
    nets += [network._draw(params(D=5, d=3, x=4), 11, make_geometry("tree", nodes, draws))
             for nodes, draws in ((BRANCHED_NODES, BRANCHED_DRAWS),
                                  (FORKED_NODES, FORKED_DRAWS))]
    for net in nets:
        assert list(net.nodes) == list(net.geometry.names)
        views = network._node_arrays(net)
        assert len(views) == len(net.geometry.names)
        for node, view in enumerate(views):
            made = _node_view(net, node)
            # the same memory, shape and strides: the same view
            assert view.__array_interface__ == made.__array_interface__, node
            assert np.array_equal(net.nodes[net.geometry.names[node]].tensor.array, made)


class TestHandTrees:
    """The planner takes any tree that ``make_geometry`` accepts, and
    refuses, by name, a tree whose plan would need more than its steps."""

    def test_a_branched_tree_runs_through_the_planner(self):
        geometry = make_geometry("tree", BRANCHED_NODES, BRANCHED_DRAWS)
        assert engine._backbone(geometry.parents) == [0, 2, 5, 8]
        net = network._draw(params(D=5, d=3, x=4), 11, geometry)
        plan = plan_for(net)
        assert plan_for(replace(net, geometry=make_geometry(
            "tree", BRANCHED_NODES, BRANCHED_DRAWS))) is plan
        scalar, report = execute(net, plan)
        assert report.total == sum(report.phase_subtotals.values())
        assert [step.phase for step in plan.steps][-2:] == ["chain-sweep", "final-dot"]
        assert math.isclose(scalar, naive_value_oracle(net), rel_tol=1e-10)
        sign, _, exact = exact_value(net)
        assert sign != 0 and abs(scalar - exact) <= 1e-10 * abs(exact)

    def test_a_tree_of_hundreds_of_one_node_stacks_runs_through_the_planner(self):
        # a root with 40 paths of lengths 1 to 40, each node its own stack:
        # 821 nodes; the root's bonds have extent d = 1, so it is one element
        nodes, draws = [("r", "r", None, None, None)], [("r", (1,), "d" * 40, "", None)]
        for path in range(40):
            parent, axis = "r", path
            for i in range(path + 1):
                name = f"n{path}.{i}"
                nodes.append((name, name, parent, axis, 0))
                draws.append((name, (1,), ("x", "d")[i == 0] + "x" * (i < path), "x", None))
                parent, axis = name, 1
        net = network._draw(params(D=1, d=1, x=3), 5, make_geometry("tree", nodes, draws))
        plan = plan_for(net)
        assert len(plan.steps) == 820 and plan.steps[-1].phase == "final-dot"
        scalar, report = execute(net, plan)
        assert report.total == sum(report.phase_subtotals.values())
        assert scalar != 0.0
        assert math.isclose(scalar, naive_value_oracle(net), rel_tol=1e-10)

    def test_two_children_of_one_node_in_one_round_are_refused(self):
        geometry = make_geometry("tree", FORKED_NODES, FORKED_DRAWS)
        assert engine._backbone(geometry.parents) == [0, 1, 4]
        with pytest.raises(ValueError, match="^node 'b' takes two children in round 0;"):
            engine._plan(geometry)

    def test_a_tree_of_one_node_is_refused_by_name(self):
        # a rank-0 root alone is one tree, and the oracle reads its value
        geometry = make_geometry("tree", [("a", "a", None, None, None)],
                                 [("a", (1,), "", "", None)])
        net = TensorNetwork(params(), geometry, {"a": np.array([2.5])})
        assert naive_value_oracle(net) == 2.5
        with pytest.raises(ValueError, match="^a tree of one node has no step to plan$"):
            plan_for(net)

    @pytest.mark.parametrize("case", ["two-arrays", "next-first"])
    def test_a_backbone_interior_the_chain_cannot_read_is_refused(self, case):
        nodes, draws = list(BRANCHED_NODES), list(BRANCHED_DRAWS)
        if case == "two-arrays":
            # p2 takes a leaf for its branch, so p1 and p2 are ready in
            # different rounds, in different arrays
            nodes[6:8] = [("q2", "leaves2", "p2", 1, 0)]
            draws += [("leaves2", (1,), "D", "", None)]
            draws[3] = ("q", (1,), "Dd", "D", None)
            draws[4] = ("r", (1,), "d", "", None)
        else:
            # each interior node holds its next node on axis 0 and its
            # previous on axis 2, so its matrix reads (next, previous)
            nodes[2] = ("p1", "inner", "p0", 1, 2)
            nodes[5] = ("p2", "inner", "p1", 0, 2)
            nodes[8] = ("p3", "end3", "p2", 0, 0)
        geometry = make_geometry("tree", nodes, draws)
        with pytest.raises(ValueError, match="^the backbone's interior is not one array"):
            engine._plan(geometry)
