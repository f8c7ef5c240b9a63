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


def _walk(steps: tuple[PlanStep, ...], live: dict | None) -> tuple:
    """Resolve named steps to list positions, as ``ContractionPlan.slots``.

    ``live`` is None when a plan is made, and any name read before a step
    makes it is an input. Otherwise it holds a network's node names, and
    they are the only inputs. Raises the refusal of the first step that
    reads a name that is not live or makes one that is, then refuses the
    walk unless it leaves one tensor (or, with ``live`` None, none).
    """
    inputs = [] if live is None else list(live)
    slot_of = {name: i for i, name in enumerate(inputs)}   # -1 once consumed
    phases: dict[str, int] = {}
    program: list = []
    for step in steps:
        where = []
        for name in (step.a, step.b):
            slot = slot_of.get(name)
            if slot is None and live is None:
                slot = len(inputs)
                inputs.append(name)
            if slot is None or slot < 0:
                raise ValueError(
                    f"plan does not match network: operand {name!r} is not available"
                )
            slot_of[name] = -1
            where.append(slot)
        if slot_of.get(step.out, -1) >= 0 or step.out in (step.a, step.b):
            raise ValueError(f"plan output name {step.out!r} already in use")
        slot_of[step.out] = where[0]
        phase = phases.setdefault(step.phase, len(phases))
        program += (where[0], where[1], phase, step.pairing)
    left = [slot for slot in slot_of.values() if slot >= 0]
    # a plan without steps leaves whatever tensor its network holds
    if len(left) > 1 or (not left and live is not None):
        raise ValueError(
            f"plan leaves {len(left)} tensors instead of a single scalar"
        )
    return tuple(inputs), tuple(program), tuple(phases), left[0] if left else 0


@dataclass(frozen=True)
class ContractionPlan:
    """Named steps, walked once, when the plan is made.

    ``slots`` is ``(inputs, program, phases, result)``: ``inputs`` are the
    names the plan reads from the network, in order of first use, and list
    position i starts as ``inputs[i]``; ``program`` holds four entries per
    step, ``a, b, phase, pairing``: the step contracts positions a and b,
    puts the result at a and clears b, and adds its count to the subtotal
    of ``phases[phase]``; ``result`` is the position of the tensor left.

    Raises ValueError for a fault that no network could mend: an operand
    read after it was consumed or named twice in one step, an output name
    that is live or one of its step's own operands, or more than one tensor
    left at the end. A plan with several faults is refused for the first of
    these, which may not be the first fault a network would show.
    """

    kind: str
    steps: tuple[PlanStep, ...]
    slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", _walk(self.steps, None))


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
    inputs, program, phases, result = plan.slots
    nodes = net.nodes
    pool = None
    if len(nodes) == len(inputs):
        try:
            pool = [nodes[name].tensor for name in inputs]
        except KeyError:
            pass
    if not pool:
        # refused, unless the plan has no steps and the network one node
        pool = [nodes[name].tensor for name in _walk(plan.steps, nodes)[0]]
    pair = contract_pair
    subtotals = [0] * len(phases)
    entries = iter(program)
    for a, b, phase, pairing in zip(entries, entries, entries, entries):
        out, cost = pair(pool[a], pool[b], pairing)
        pool[a] = out
        pool[b] = None
        subtotals[phase] += cost.multiplications
    final = pool[result]
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
        phase_subtotals=dict(zip(phases, subtotals)),
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
