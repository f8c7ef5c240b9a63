"""Deterministic contraction schedules and instrumented execution.

Both planners emit fully explicit step lists over named operands, so a plan
can be audited, costed, and replayed bit-for-bit. A plan depends only on the
network's kind and its (M, N), so networks that share them share one frozen
plan object, kept in a small bounded memo. The independent value oracle
contracts the raw bond graph in bond order and is used to cross-check the
scalar produced by plan execution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import costmodel
from .network import TensorNetwork
from .tensor import AxisPairing, checked_count, contract_pair

ORACLE_GUARD = 10_000_000


class OracleGuardError(RuntimeError):
    """An oracle intermediate would exceed the size guard."""


@dataclass(frozen=True, slots=True)
class PlanStep:
    a: str
    b: str
    pairing: AxisPairing
    phase: str
    out: str


@dataclass(frozen=True)
class _Slots:
    """A plan's steps over the positions of one list instead of names.

    ``inputs`` are the names the plan reads from the network, in order of
    first use; list position i starts as ``inputs[i]``. ``program`` holds
    four entries per step, ``a, b, phase, pairing``: the step contracts
    positions a and b, puts the result at a and clears b, and adds its
    count to the subtotal of ``phases[phase]``. ``fits`` says whether the
    plan runs on a network whose nodes are exactly ``inputs``, leaving one
    tensor at ``result``.
    """

    inputs: tuple[str, ...]
    program: tuple
    phases: tuple[str, ...]
    fits: bool
    result: int


def _resolve(steps: tuple[PlanStep, ...]) -> _Slots:
    # the rules of _refusal, so a plan that fits is never refused on a
    # network whose nodes are exactly its inputs
    inputs: list[str] = []
    slot_of: dict[str, int] = {}      # name -> its position; -1 once consumed
    phases: dict[str, int] = {}
    program: list = []
    fits = True
    for step in steps:
        where = []
        for name in (step.a, step.b):
            slot = slot_of.get(name)
            if slot is None:
                slot = len(inputs)
                inputs.append(name)
            # a name read again after it was consumed is in no pool
            fits = fits and slot >= 0
            slot_of[name] = -1
            where.append(slot)
        if slot_of.get(step.out, -1) >= 0 or step.out in (step.a, step.b):
            fits = False
        slot_of[step.out] = where[0]
        phase = phases.setdefault(step.phase, len(phases))
        program += (where[0], where[1], phase, step.pairing)
    fits = fits and sum(slot >= 0 for slot in slot_of.values()) == 1
    return _Slots(tuple(inputs), tuple(program), tuple(phases), fits,
                  program[-4] if program else 0)


@dataclass(frozen=True)
class ContractionPlan:
    """Named steps, with their operand positions resolved once, when the
    plan is made."""

    kind: str
    steps: tuple[PlanStep, ...]
    slots: _Slots = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", _resolve(self.steps))


@dataclass
class CostReport:
    """Measured per-phase multiplication counts plus analytic predictions.

    ``total`` always equals the sum of the subtotals; for plans produced
    here it also equals ``analytic_schedule`` exactly. The residual is
    printed-form minus measured: zero for MPS, M*x**2 for the comb.
    """

    phase_subtotals: dict[str, int]
    total: int
    analytic_printed: int
    analytic_schedule: int

    @property
    def residual_printed_minus_measured(self) -> int:
        return self.analytic_printed - self.total


# Every planner step sums axis 0 of its first operand; ``_PAIRS[ib]`` pairs
# it with axis ib of the second, so three pairings serve every plan.
_PAIRS = tuple(AxisPairing(((0, ib),)) for ib in range(3))

# A plan depends only on the kind and (M, N). The grid visits every tuple of
# one (M, N) in a row, so a few entries hit almost always, and a bound keeps
# the memo from holding every plan a long run has seen.
_PLAN_MEMO = 4


def mps_plan(net: TensorNetwork) -> ContractionPlan:
    """Schedule: compress all data, absorb into sites, sweep left to right, dot.

    Phase costs per step: compress D*d; absorption x*d at the two boundaries
    and x^2*d at interiors; each sweep step x^2; the final dot x. Networks
    of one chain length share one plan object.
    """
    if net.kind != "mps":
        raise ValueError(f"mps_plan requires an MPS network, got {net.kind}")
    return _mps_plan(net.params.sites)


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _mps_plan(length: int) -> ContractionPlan:
    steps = []
    for i in range(length):
        steps.append(PlanStep(f"data{i}", f"u{i}", _PAIRS[0], "compress", f"w{i}"))
    for i in range(length):
        phys_axis = 0 if i == 0 else 1
        steps.append(PlanStep(f"w{i}", f"site{i}", _PAIRS[phys_axis],
                              "absorb-physical", f"m{i}"))
    acc = "m0"
    for i in range(1, length - 1):
        steps.append(PlanStep(acc, f"m{i}", _PAIRS[0], "chain-sweep", f"s{i}"))
        acc = f"s{i}"
    steps.append(PlanStep(acc, f"m{length - 1}", _PAIRS[0], "final-dot", "result"))
    return ContractionPlan("mps", tuple(steps))


def comb_plan(net: TensorNetwork) -> ContractionPlan:
    """Schedule: collapse each tooth to a bond vector, then sweep the backbone.

    Per tooth: compress the N data vectors, absorb them into the tooth
    tensors (x*d at the free end, x^2*d elsewhere), then sweep from the free
    end toward the backbone (N-1 steps of x^2). Tooth vectors enter the
    backbone at x^2 per boundary and x^3 per interior; the backbone sweep
    costs (M-2) x^2 and the final dot x. Networks of one (M, N) share one
    plan object.
    """
    if net.kind != "comb":
        raise ValueError(f"comb_plan requires a comb network, got {net.kind}")
    return _comb_plan(net.params.teeth, net.params.tooth_len)


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _comb_plan(m_count: int, n_count: int) -> ContractionPlan:
    steps = []
    for m in range(m_count):
        for n in range(n_count):
            tag = f"{m}.{n}"
            steps.append(PlanStep(f"data{tag}", f"u{tag}", _PAIRS[0],
                                  "compress", f"w{tag}"))
        for n in range(n_count):
            tag = f"{m}.{n}"
            steps.append(PlanStep(f"w{tag}", f"tooth{tag}", _PAIRS[1],
                                  "absorb-physical", f"t{tag}"))
        acc = f"t{m}.{n_count - 1}"
        for n in range(n_count - 2, -1, -1):
            # pair the running vector with the interior's downward axis
            steps.append(PlanStep(acc, f"t{m}.{n}", _PAIRS[1],
                                  "tooth-sweep", f"ts{m}.{n}"))
            acc = f"ts{m}.{n}"
        down_axis = 1 if m in (0, m_count - 1) else 2
        steps.append(PlanStep(acc, f"spine{m}", _PAIRS[down_axis],
                              "tooth-to-backbone", f"b{m}"))
    acc = "b0"
    for m in range(1, m_count - 1):
        steps.append(PlanStep(acc, f"b{m}", _PAIRS[0], "chain-sweep", f"bs{m}"))
        acc = f"bs{m}"
    steps.append(PlanStep(acc, f"b{m_count - 1}", _PAIRS[0], "final-dot", "result"))
    return ContractionPlan("comb", tuple(steps))


def plan_for(net: TensorNetwork) -> ContractionPlan:
    return mps_plan(net) if net.kind == "mps" else comb_plan(net)


def _refusal(nodes: dict, plan: ContractionPlan) -> str:
    """Step through ``plan`` by name alone and raise the refusal of the
    first step that does not fit ``nodes``; returns the one name left."""
    live = set(nodes)
    for step in plan.steps:
        for operand in (step.a, step.b):
            if operand not in live:
                raise ValueError(
                    f"plan does not match network: operand {operand!r} is not available"
                )
            live.remove(operand)
        if step.out in live or step.out in (step.a, step.b):
            raise ValueError(f"plan output name {step.out!r} already in use")
        live.add(step.out)
    if len(live) != 1:
        raise ValueError(
            f"plan leaves {len(live)} tensors instead of a single scalar"
        )
    (name,) = live
    return name


def execute(net: TensorNetwork, plan: ContractionPlan) -> tuple[float, CostReport]:
    """Run the plan over the network, counting every multiplication.

    Each operand is consumed exactly once; the plan must reduce the network
    to a single scalar. Raises ValueError when the plan does not match the
    network and CountOverflowError if any count leaves the 64-bit range.
    The plan is checked against the network once, before any step runs;
    each step is one ``contract_pair`` call, looked up on this module.
    """
    if plan.kind != net.kind:
        raise ValueError(
            f"plan kind {plan.kind!r} does not match network kind {net.kind!r}"
        )
    slots = plan.slots
    nodes = net.nodes
    pool = None
    if slots.fits and len(nodes) == len(slots.inputs):
        try:
            pool = [nodes[name].tensor for name in slots.inputs]
        except KeyError:
            pass
    if pool is None:
        # refused, unless the plan has no steps and the network one node
        pool = [nodes[_refusal(nodes, plan)].tensor]
    pair = contract_pair
    subtotals = [0] * len(slots.phases)
    entries = iter(slots.program)
    for a, b, phase, pairing in zip(entries, entries, entries, entries):
        out, cost = pair(pool[a], pool[b], pairing)
        pool[a] = out
        pool[b] = None
        subtotals[phase] += cost.multiplications
    final = pool[slots.result]
    if final.shape != ():
        raise ValueError(f"plan result has shape {final.shape}, expected a scalar")
    total = checked_count(sum(subtotals))
    p = net.params
    if net.kind == "mps":
        printed = schedule = costmodel.mps_cost(p)
    else:
        printed = costmodel.comb_cost_printed(p)
        schedule = costmodel.comb_cost_schedule(p)
    report = CostReport(
        phase_subtotals=dict(zip(slots.phases, subtotals)),
        total=total,
        analytic_printed=printed,
        analytic_schedule=schedule,
    )
    return float(final.array), report


def naive_value_oracle(net: TensorNetwork) -> float:
    """Contract the bond graph in bond order, ignoring cost.

    Independent of the planners and of ``contract_pair``: works directly off
    nodes and bonds with generic component merging. Each merge sums one
    bond, moving its axis last in the first component and first in the
    second, then multiplies the two as matrices with ``np.dot``; that is
    ``np.tensordot``'s own layout, without its argument handling. Each
    component keeps its member list, and a merge relabels the smaller one,
    so relabelling costs O(nodes log nodes) over a whole contraction. Each
    bond is labelled by its position in ``net.bonds``. Raises
    OracleGuardError if any intermediate would hold more than
    ``ORACLE_GUARD`` scalars.
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
    for label, bond in enumerate(net.bonds):
        legs[bond.node_a][bond.axis_a] = label
        legs[bond.node_b][bond.axis_b] = label
    for name, axes in legs.items():
        if -1 in axes:
            raise ValueError(f"network is not closed: node {name!r} has a free axis")

    for label, bond in enumerate(net.bonds):
        comp_a = owner[bond.node_a]
        comp_b = owner[bond.node_b]
        if comp_a == comp_b:
            raise ValueError("cycle in bond graph; oracle supports trees only")
        a, b = arrays[comp_a], arrays[comp_b]
        legs_a, legs_b = legs[comp_a], legs[comp_b]
        axis_a = legs_a.index(label)
        axis_b = legs_b.index(label)
        summed = a.shape[axis_a]
        if b.shape[axis_b] != summed:
            raise ValueError(
                f"bond {label} joins extents {summed} and {b.shape[axis_b]}"
            )
        shape = a.shape[:axis_a] + a.shape[axis_a + 1:] \
            + b.shape[:axis_b] + b.shape[axis_b + 1:]
        if math.prod(shape) > ORACLE_GUARD:
            raise OracleGuardError(
                f"intermediate with {math.prod(shape)} elements exceeds "
                f"the oracle guard of {ORACLE_GUARD}"
            )
        if axis_a != a.ndim - 1:
            order = list(range(a.ndim))
            order.append(order.pop(axis_a))
            a = a.transpose(order)
        if axis_b != 0:
            order = list(range(b.ndim))
            order.insert(0, order.pop(axis_b))
            b = b.transpose(order)
        merged = np.dot(a.reshape(-1, summed), b.reshape(summed, -1)).reshape(shape)
        merged_legs = legs_a[:axis_a] + legs_a[axis_a + 1:] \
            + legs_b[:axis_b] + legs_b[axis_b + 1:]
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
