"""Deterministic contraction schedules and instrumented execution.

Both planners emit fully explicit step lists over named operands, so a plan
can be audited, costed, and replayed bit-for-bit. The independent value
oracle contracts the raw bond graph in bond-index order and is used to
cross-check the scalar produced by plan execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import costmodel
from .network import CombGeometry, MpsGeometry, TensorNetwork
from .tensor import AxisPairing, Tensor, checked_count, contract_pair

ORACLE_GUARD = 10_000_000


class OracleGuardError(RuntimeError):
    """An oracle intermediate would exceed the size guard."""


@dataclass(frozen=True)
class PlanStep:
    a: str
    b: str
    pairing: AxisPairing
    phase: str
    out: str


@dataclass(frozen=True)
class ContractionPlan:
    kind: str
    steps: tuple[PlanStep, ...]


@dataclass
class CostReport:
    """Measured per-phase multiplication counts plus analytic predictions.

    ``total`` always equals the sum of the subtotals; for plans produced
    here it also equals ``analytic_schedule`` exactly. The residual is
    printed-form minus measured: zero for MPS, M*x**2 for the comb.
    """

    phase_subtotals: dict[str, int] = field(default_factory=dict)
    total: int = 0
    analytic_printed: int = 0
    analytic_schedule: int = 0
    residual_printed_minus_measured: int = 0


def _pair(ia: int, ib: int) -> AxisPairing:
    return AxisPairing(((ia, ib),))


def mps_plan(net: TensorNetwork) -> ContractionPlan:
    """Schedule: compress all data, absorb into sites, sweep left to right, dot.

    Phase costs per step: compress D*d; absorption x*d at the two boundaries
    and x^2*d at interiors; each sweep step x^2; the final dot x.
    """
    if not isinstance(net.geometry, MpsGeometry):
        raise ValueError(f"mps_plan requires an MPS network, got {net.kind}")
    length = net.geometry.length
    steps = []
    for i in range(length):
        steps.append(PlanStep(f"data{i}", f"u{i}", _pair(0, 0), "compress", f"w{i}"))
    for i in range(length):
        phys_axis = 0 if i == 0 else 1
        steps.append(PlanStep(f"w{i}", f"site{i}", _pair(0, phys_axis),
                              "absorb-physical", f"m{i}"))
    acc = "m0"
    for i in range(1, length - 1):
        steps.append(PlanStep(acc, f"m{i}", _pair(0, 0), "chain-sweep", f"s{i}"))
        acc = f"s{i}"
    steps.append(PlanStep(acc, f"m{length - 1}", _pair(0, 0), "final-dot", "result"))
    return ContractionPlan("mps", tuple(steps))


def comb_plan(net: TensorNetwork) -> ContractionPlan:
    """Schedule: collapse each tooth to a bond vector, then sweep the backbone.

    Per tooth: compress the N data vectors, absorb them into the tooth
    tensors (x*d at the free end, x^2*d elsewhere), then sweep from the free
    end toward the backbone (N-1 steps of x^2). Tooth vectors enter the
    backbone at x^2 per boundary and x^3 per interior; the backbone sweep
    costs (M-2) x^2 and the final dot x.
    """
    if not isinstance(net.geometry, CombGeometry):
        raise ValueError(f"comb_plan requires a comb network, got {net.kind}")
    m_count, n_count = net.geometry.teeth, net.geometry.tooth_len
    steps = []
    for m in range(m_count):
        for n in range(n_count):
            tag = f"{m}.{n}"
            steps.append(PlanStep(f"data{tag}", f"u{tag}", _pair(0, 0),
                                  "compress", f"w{tag}"))
        for n in range(n_count):
            tag = f"{m}.{n}"
            steps.append(PlanStep(f"w{tag}", f"tooth{tag}", _pair(0, 1),
                                  "absorb-physical", f"t{tag}"))
        acc = f"t{m}.{n_count - 1}"
        for n in range(n_count - 2, -1, -1):
            # pair the running vector with the interior's downward axis
            steps.append(PlanStep(acc, f"t{m}.{n}", _pair(0, 1),
                                  "tooth-sweep", f"ts{m}.{n}"))
            acc = f"ts{m}.{n}"
        down_axis = 1 if m in (0, m_count - 1) else 2
        steps.append(PlanStep(acc, f"spine{m}", _pair(0, down_axis),
                              "tooth-to-backbone", f"b{m}"))
    acc = "b0"
    for m in range(1, m_count - 1):
        steps.append(PlanStep(acc, f"b{m}", _pair(0, 0), "chain-sweep", f"bs{m}"))
        acc = f"bs{m}"
    steps.append(PlanStep(acc, f"b{m_count - 1}", _pair(0, 0), "final-dot", "result"))
    return ContractionPlan("comb", tuple(steps))


def plan_for(net: TensorNetwork) -> ContractionPlan:
    return mps_plan(net) if net.kind == "mps" else comb_plan(net)


def execute(net: TensorNetwork, plan: ContractionPlan) -> tuple[float, CostReport]:
    """Run the plan over the network, counting every multiplication.

    Each operand is consumed exactly once; the plan must reduce the network
    to a single scalar. Raises ValueError when the plan does not match the
    network and CountOverflowError if any count leaves the 64-bit range.
    """
    if plan.kind != net.kind:
        raise ValueError(
            f"plan kind {plan.kind!r} does not match network kind {net.kind!r}"
        )
    pool: dict[str, Tensor] = {name: node.tensor for name, node in net.nodes.items()}
    subtotals: dict[str, int] = {}
    for step in plan.steps:
        for operand in (step.a, step.b):
            if operand not in pool:
                raise ValueError(
                    f"plan does not match network: operand {operand!r} is not available"
                )
        if step.out in pool:
            raise ValueError(f"plan output name {step.out!r} already in use")
        a = pool.pop(step.a)
        b = pool.pop(step.b)
        out, cost = contract_pair(a, b, step.pairing)
        pool[step.out] = out
        subtotals[step.phase] = subtotals.get(step.phase, 0) + cost.multiplications
    if len(pool) != 1:
        raise ValueError(
            f"plan leaves {len(pool)} tensors instead of a single scalar"
        )
    (final,) = pool.values()
    if final.shape != ():
        raise ValueError(f"plan result has shape {final.shape}, expected a scalar")
    total = checked_count(sum(subtotals.values()))
    p = net.params
    if net.kind == "mps":
        printed = schedule = costmodel.mps_cost(p)
    else:
        printed = costmodel.comb_cost_printed(p)
        schedule = costmodel.comb_cost_schedule(p)
    report = CostReport(
        phase_subtotals=subtotals,
        total=total,
        analytic_printed=printed,
        analytic_schedule=schedule,
        residual_printed_minus_measured=printed - total,
    )
    return float(final.array), report


def naive_value_oracle(net: TensorNetwork, guard: int = ORACLE_GUARD) -> float:
    """Contract the bond graph in bond-index order, ignoring cost.

    Independent of the planners and of ``contract_pair``: works directly off
    nodes and bonds with generic component merging, contracting through
    ``np.tensordot``. Each component keeps its member list, and a merge
    relabels the smaller one, so relabelling costs O(nodes log nodes) over a
    whole contraction. Raises OracleGuardError if any intermediate would
    hold more than ``guard`` scalars.
    """
    arrays: dict[str, np.ndarray] = {}
    legs: dict[str, list[int]] = {}
    owner: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    for name, node in net.nodes.items():
        arrays[name] = node.tensor.array
        legs[name] = [-1] * len(node.tensor.shape)
        owner[name] = name
        members[name] = [name]
    for bond in net.bonds:
        legs[bond.node_a][bond.axis_a] = bond.index
        legs[bond.node_b][bond.axis_b] = bond.index
    for name, axes in legs.items():
        if -1 in axes:
            raise ValueError(f"network is not closed: node {name!r} has a free axis")

    for bond in sorted(net.bonds, key=lambda b: b.index):
        comp_a = owner[bond.node_a]
        comp_b = owner[bond.node_b]
        if comp_a == comp_b:
            raise ValueError("cycle in bond graph; oracle supports trees only")
        axis_a = legs[comp_a].index(bond.index)
        axis_b = legs[comp_b].index(bond.index)
        merged = np.tensordot(arrays[comp_a], arrays[comp_b],
                              axes=([axis_a], [axis_b]))
        if math.prod(merged.shape) > guard:
            raise OracleGuardError(
                f"intermediate with {math.prod(merged.shape)} elements exceeds "
                f"the oracle guard of {guard}"
            )
        merged_legs = [l for i, l in enumerate(legs[comp_a]) if i != axis_a]
        merged_legs += [l for i, l in enumerate(legs[comp_b]) if i != axis_b]
        keep, gone = comp_a, comp_b
        if len(members[keep]) < len(members[gone]):
            keep, gone = gone, keep
        del arrays[gone], legs[gone]
        arrays[keep] = merged
        legs[keep] = merged_legs
        for name in members[gone]:
            owner[name] = keep
        members[keep] += members.pop(gone)

    if len(arrays) != 1:
        raise ValueError("network is disconnected; oracle needs one component")
    (result,) = arrays.values()
    if result.shape != ():
        raise ValueError(f"oracle result has shape {result.shape}, expected scalar")
    return float(result)
