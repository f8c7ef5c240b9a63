"""Deterministic contraction schedules and instrumented execution.

Both planners emit fully explicit step lists over named operands, so a
plan can be audited, costed, and replayed bit-for-bit. A plan reads only
the network's stacks, and every operand and result is a plain read-only
``np.ndarray``: compress, absorb-physical, tooth-sweep and
tooth-to-backbone each run across every site or tooth at once, and pass
their results on whole or as named views; the chain sweep (the backbone
sweep, for a comb) is one ``CHAIN`` step through every interior matrix,
and the final dot one more step. A plan is walked by name once, when it is
made, and ``execute`` checks the network's stack names and leading extents
against it once, then runs its steps by name and reports the
multiplications it counted, which ``verification`` and ``cli`` compare
with ``costmodel``. A plan depends only on the network's kind and its
(M, N), so networks that share them share one frozen plan object, kept in
a small bounded memo. The independent value oracle contracts the raw bond
graph in bond order, reading each node as a plain array view of its stack
row, and is used to cross-check the scalar produced by plan execution. Its
merge schedule depends only on the bond graph, so it is walked once per
graph, kept in a small ``lru_cache``, and replayed for every network on
that graph; a replay only transposes, reshapes and multiplies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import costmodel
from .network import _MEMO, TensorNetwork, _node_arrays
from .tensor import CHAIN, AxisPairing, checked_count, contract_pair

ORACLE_GUARD = 10_000_000


class OracleGuardError(RuntimeError):
    """An oracle intermediate would exceed the size guard."""


@dataclass(frozen=True, slots=True)
class PlanStep:
    """Contract ``a`` with ``b`` and add the count to ``phase``.

    ``out`` names the result, or is a tuple of (name, index) parts: the
    result goes on as the views ``result[index]``, one per name, and is
    not kept whole. An index is an int (one row), a slice (a run of rows)
    or a tuple of these, one per leading axis.
    """

    a: str
    b: str
    pairing: AxisPairing
    phase: str
    out: str | tuple


def _made(step: PlanStep) -> list[str]:
    """The names a step makes: its result, or its parts."""
    return [step.out] if isinstance(step.out, str) else [name for name, _ in step.out]


@dataclass(frozen=True)
class ContractionPlan:
    """Named steps over a network's stacks.

    ``stacks`` names each stack the plan reads with its leading extents,
    and a network fits the plan when it holds exactly these stacks at these
    extents. The steps are walked by name once, when the plan is made.

    Raises ValueError for a fault that no network could mend: an operand
    read after it was consumed or named twice in one step, an output name
    that is live or one of its step's own operands, anything but one tensor
    left at the end (a plan with no steps leaves none), or ``stacks`` that
    are not the names it reads before a step makes them. A plan with
    several faults is refused for the first of these.
    """

    kind: str
    steps: tuple[PlanStep, ...]
    stacks: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        read, live, gone = [], set(), set()
        for step in self.steps:
            for name in (step.a, step.b):
                if name in gone:
                    raise ValueError(
                        f"plan does not match network: operand {name!r} is not available"
                    )
                if name not in live:
                    read.append(name)
                live.discard(name)
                gone.add(name)
            for name in _made(step):
                if name in live or name in (step.a, step.b):
                    raise ValueError(f"plan output name {name!r} already in use")
                live.add(name)
                gone.discard(name)
        if len(live) != 1:
            raise ValueError(
                f"plan leaves {len(live)} tensors instead of a single scalar"
            )
        if sorted(name for name, _ in self.stacks) != sorted(read):
            raise ValueError(f"plan stacks {[name for name, _ in self.stacks]} "
                             f"are not the stacks it reads, {sorted(read)}")


@dataclass
class CostReport:
    """Measured per-phase multiplication counts and their checked sum.

    ``total`` always equals the sum of the subtotals. ``analytic_printed``
    is the printed closed form of the network's kind (see ``execute``).
    """

    phase_subtotals: dict[str, int]
    total: int
    analytic_printed: int


# The final dot sums a vector against a vector; a stacked step sums the
# first axis past its batch axes of the first operand against axis ``ib``
# of the second. The interior sites, teeth and spines are stored with that
# axis first past their leading axes, so the absorbs and the spine entry
# that read them pair ``ib`` = batch.
_DOT = AxisPairing(((0, 0),))


def _stacked(batch: int, ib: int) -> AxisPairing:
    return AxisPairing(((batch, ib),), batch)


def _sweep(steps: list, first: str, interior: str | None, last: str) -> None:
    # the running vector through every interior matrix in one chain step,
    # when there are any, then a dot with the last vector
    if interior is not None:
        steps.append(PlanStep(first, interior, CHAIN, "chain-sweep", "swept"))
        first = "swept"
    steps.append(PlanStep(first, last, _DOT, "final-dot", "result"))


def mps_plan(net: TensorNetwork) -> ContractionPlan:
    """Schedule: compress all data, absorb into sites, sweep left to right, dot.

    Phase costs per site: compress D*d; absorption x*d at the two boundaries
    and x^2*d at interiors; each sweep step x^2; the final dot x. Compress
    is one step over the compression stack, absorption one step per site
    stack, the sweep one chain step through the absorbed interior sites,
    and the dot one step: 4 + 2*[L > 2] steps in all. Networks of one
    chain length share one plan object.
    """
    if net.kind != "mps":
        raise ValueError(f"mps_plan requires an MPS network, got {net.kind}")
    return _mps_plan(net.params.sites)


@functools.lru_cache(maxsize=_MEMO)
def _mps_plan(length: int) -> ContractionPlan:
    last = length - 1
    interior = length > 2
    w_parts = [("w0", slice(0, 1)), (f"w{last}", slice(last, length))]
    if interior:
        w_parts.insert(1, ("w-interior", slice(1, last)))
    steps = [
        PlanStep("data", "compressions", _stacked(1, 1), "compress", tuple(w_parts)),
        PlanStep("w0", "first-site", _stacked(1, 1), "absorb-physical", (("m0", 0),)),
    ]
    stacks = [("data", (length,)), ("compressions", (length,)),
              ("first-site", (1,)), ("last-site", (1,))]
    if interior:
        steps.append(PlanStep("w-interior", "interior-sites", _stacked(1, 1),
                              "absorb-physical", "m-interior"))
        stacks.append(("interior-sites", (length - 2,)))
    steps.append(PlanStep(f"w{last}", "last-site", _stacked(1, 2),
                          "absorb-physical", ((f"m{last}", 0),)))
    _sweep(steps, "m0", "m-interior" if interior else None, f"m{last}")
    return ContractionPlan("mps", tuple(steps), tuple(stacks))


def comb_plan(net: TensorNetwork) -> ContractionPlan:
    """Schedule: collapse each tooth to a bond vector, then sweep the backbone.

    Per tooth: compress the N data vectors, absorb them into the tooth
    tensors (x*d at the free end, x^2*d elsewhere), then sweep from the free
    end toward the backbone (N-1 steps of x^2). Tooth vectors enter the
    backbone at x^2 per boundary and x^3 per interior; the backbone sweep
    costs (M-2) x^2 and the final dot x. Every step before the backbone
    sweep runs across all M teeth at once: compress is one step, absorb
    one per tooth-tensor stack, the tooth sweep one per tooth position and
    the entry into the backbone one per spine stack. The backbone sweep is
    one chain step through the entered interior spines, and the dot one
    step: N + 3 + [N > 1] + 2*[M > 2] steps in all. Networks of one
    (M, N) share one plan object.
    """
    if net.kind != "comb":
        raise ValueError(f"comb_plan requires a comb network, got {net.kind}")
    return _comb_plan(net.params.teeth, net.params.tooth_len)


@functools.lru_cache(maxsize=_MEMO)
def _comb_plan(m_count: int, n_count: int) -> ContractionPlan:
    teeth, inner, spines = slice(None), range(n_count - 1), m_count > 2
    w_parts = [("w-end", (teeth, n_count - 1))]
    stacks = [("data", (m_count, n_count)), ("compressions", (m_count, n_count)),
              ("tooth-ends", (m_count,)), ("boundary-spines", (2,))]
    if inner:
        w_parts.insert(0, ("w-interior", (teeth, slice(0, n_count - 1))))
        stacks.append(("interior-teeth", (m_count, n_count - 1)))
    if spines:
        stacks.append(("interior-spines", (m_count - 2,)))
    # the tooth vectors at the backbone: rows 0 and M-1 enter the boundary
    # spines, the rows between them the interior spines
    at_backbone = [("v-boundary", slice(0, m_count, m_count - 1))]
    if spines:
        at_backbone.append(("v-interior", slice(1, m_count - 1)))
    at_backbone = tuple(at_backbone)

    steps = [PlanStep("data", "compressions", _stacked(2, 2), "compress",
                      tuple(w_parts))]
    if inner:
        steps.append(PlanStep("w-interior", "interior-teeth", _stacked(2, 2),
                              "absorb-physical",
                              tuple((f"t{n}", (teeth, n)) for n in inner)))
    # the running vectors of all teeth: ts{n} has swept positions n to N-1
    steps.append(PlanStep("w-end", "tooth-ends", _stacked(1, 2), "absorb-physical",
                          f"ts{n_count - 1}" if inner else at_backbone))
    for n in reversed(inner):
        # pair the running vectors with the interiors' downward axis
        steps.append(PlanStep(f"ts{n + 1}", f"t{n}", _stacked(1, 2), "tooth-sweep",
                              f"ts{n}" if n else at_backbone))
    steps.append(PlanStep("v-boundary", "boundary-spines", _stacked(1, 2),
                          "tooth-to-backbone",
                          (("b0", 0), (f"b{m_count - 1}", 1))))
    if spines:
        steps.append(PlanStep("v-interior", "interior-spines", _stacked(1, 1),
                              "tooth-to-backbone", "b-interior"))
    _sweep(steps, "b0", "b-interior" if spines else None, f"b{m_count - 1}")
    return ContractionPlan("comb", tuple(steps), tuple(stacks))


def plan_for(net: TensorNetwork) -> ContractionPlan:
    return mps_plan(net) if net.kind == "mps" else comb_plan(net)


def execute(net: TensorNetwork, plan: ContractionPlan) -> tuple[float, CostReport]:
    """Run the plan over the network's stacks, counting every multiplication.

    Raises ValueError when the plan does not match the network and
    CountOverflowError if any count leaves the 64-bit range. Before any
    step runs, the network's stack names and leading extents are checked
    against ``plan.stacks`` in one comparison. Each step pops its operands,
    so an intermediate is freed once consumed, and is one ``contract_pair``
    call, looked up on this module, so whatever replaces that name sees
    every step. A step's read-only result goes on whole or as the views
    ``result[index]`` of its parts. The scalar is ``float`` of the 0-d
    array left: a complex one, which only a stack made by hand can bring
    in, raises TypeError rather than losing its imaginary part. The
    report's ``analytic_printed`` is the one closed form evaluated here: no
    program code reads it, only perfbench does, as ``net.nodes`` is there
    only for perfbench.
    """
    if plan.kind != net.kind:
        raise ValueError(
            f"plan kind {plan.kind!r} does not match network kind {net.kind!r}"
        )
    reads = set(plan.stacks)
    holds = {(name, stack.array.shape[:stack.lead])
             for name, stack in net.stacks.items()}
    if holds != reads:
        raise ValueError(f"plan does not match network: where they differ, the "
                         f"plan reads stacks {sorted(reads - holds)} and the "
                         f"network holds {sorted(holds - reads)}")
    arrays = {name: stack.array for name, stack in net.stacks.items()}
    subtotals: dict[str, int] = {}
    for step in plan.steps:
        made, cost = contract_pair(arrays.pop(step.a), arrays.pop(step.b),
                                   step.pairing)
        if isinstance(step.out, str):
            arrays[step.out] = made
        else:
            for name, index in step.out:
                arrays[name] = made[index]
        subtotals[step.phase] = subtotals.get(step.phase, 0) + cost.multiplications
    (final,) = arrays.values()
    if final.shape != ():
        raise ValueError(f"plan result has shape {final.shape}, expected a scalar")
    total = checked_count(sum(subtotals.values()))
    printed = (costmodel.mps_cost if net.kind == "mps"
               else costmodel.comb_cost_printed)(net.params)
    return float(final), CostReport(subtotals, total, printed)


@dataclass(frozen=True, slots=True)
class _OracleSchedule:
    """The value oracle's merges of one bond graph, in bond order.

    Node i of the graph starts in component slot i. Each op is (bond label,
    slot of the bond's first end, its transpose order or None, slot of the
    second end, its transpose order or None, slot kept, the larger of the
    two sides' ranks); the first side is transposed to sum its last axis,
    the second its first, and the merge is kept in the larger component's
    slot. ``result`` is the slot left.
    """

    ops: tuple[tuple, ...]
    result: int


# An oracle schedule depends only on the bond graph: the node order, the
# bonds, each node's rank and the types of each bond's axes. Builds of one
# kind and (M, N) share the layout memo's tuples, so a hit hashes every
# name and bond, in C since a bond is a named tuple, and then finds the
# same tuples by identity.
@functools.lru_cache(maxsize=_MEMO)
def _walk_bond_graph(order: tuple[str, ...], bonds, ranks: tuple[int, ...],
                     axis_types: tuple[tuple[type, type], ...]) -> _OracleSchedule:
    """Label every leg, check the graph is a closed tree, and record one
    merge per bond; reads no extent, so any network on this graph replays it.

    ``axis_types``, the types of each bond's two axes, is read only as part
    of the memo's key: a bond hashes and compares as a tuple, and an axis
    ``0.0`` or ``np.int64(0)`` equals ``0``, so without the types such a
    graph would be answered from the schedule of the integer one, where a
    walk of its own refuses it.

    A bond end that names no node, an axis that is not an int or is outside
    its node's rank, or a leg already labelled is refused, naming the bond's position and end.
    Each component keeps its member list, and a merge relabels the smaller
    one, so relabelling costs O(nodes log nodes) over a whole walk.
    """
    slot_of = {name: i for i, name in enumerate(order)}
    legs = [[-1] * rank for rank in ranks]
    for label, bond in enumerate(bonds):
        for end, name, axis in (("a", bond.node_a, bond.axis_a),
                                ("b", bond.node_b, bond.axis_b)):
            where = f"bond {label} end {end}"
            if name not in slot_of:
                raise ValueError(f"{where}: no node {name!r}")
            node_legs = legs[slot_of[name]]
            if not isinstance(axis, int):
                raise ValueError(f"{where}: axis {axis!r} of node {name!r} "
                                 f"is not an integer")
            if not 0 <= axis < len(node_legs):
                raise ValueError(f"{where}: node {name!r} has no axis {axis} "
                                 f"(rank {len(node_legs)})")
            if node_legs[axis] != -1:
                raise ValueError(f"{where}: axis {axis} of node {name!r} is "
                                 f"already bonded by bond {node_legs[axis]}")
            node_legs[axis] = label
    for name, axes in zip(order, legs):
        if -1 in axes:
            raise ValueError(f"network is not closed: node {name!r} has a free axis")

    owner = list(range(len(order)))
    members = [[slot] for slot in owner]
    ops = []
    for label, bond in enumerate(bonds):
        comp_a = owner[slot_of[bond.node_a]]
        comp_b = owner[slot_of[bond.node_b]]
        if comp_a == comp_b:
            raise ValueError("cycle in bond graph; oracle supports trees only")
        legs_a, legs_b = legs[comp_a], legs[comp_b]
        axis_a = legs_a.index(label)
        axis_b = legs_b.index(label)
        rank_a, rank_b = len(legs_a), len(legs_b)
        order_a = None if axis_a == rank_a - 1 else \
            (*range(axis_a), *range(axis_a + 1, rank_a), axis_a)
        order_b = None if axis_b == 0 else \
            (axis_b, *range(axis_b), *range(axis_b + 1, rank_b))
        keep, gone = comp_a, comp_b
        if len(members[keep]) < len(members[gone]):
            keep, gone = gone, keep
        ops.append((label, comp_a, order_a, comp_b, order_b, keep,
                    max(rank_a, rank_b)))
        legs[keep] = legs_a[:axis_a] + legs_a[axis_a + 1:] \
            + legs_b[:axis_b] + legs_b[axis_b + 1:]
        legs[gone] = None
        for slot in members[gone]:
            owner[slot] = keep
        members[keep] += members[gone]
        members[gone] = None

    left = [slot for slot, comp in enumerate(members) if comp is not None]
    if len(left) != 1:
        raise ValueError("network is disconnected; oracle needs one component")
    return _OracleSchedule(tuple(ops), left[0])


def naive_value_oracle(net: TensorNetwork) -> float:
    """Contract the bond graph in bond order, ignoring cost.

    Independent of the planners and of ``contract_pair``: works directly off
    the node arrays (each stack row in its node's axis order, the views
    ``net.nodes`` hands out) and the bonds, with generic component merging.
    Each merge sums one bond, moving its axis last in the first component
    and first in the second, then multiplies the two as matrices with
    ``np.dot``; that is ``np.tensordot``'s own layout, without its argument
    handling; a merge of two sides of rank 2 or less hands them to
    ``np.dot`` as they are, without the reshapes. Each bond is labelled by
    its position in ``net.bonds``.

    The merge schedule (legs, component owners, transpose orders, which
    component is kept) depends only on the bond graph, so it is walked once
    per graph, kept in an ``lru_cache`` keyed on the node order, the bonds,
    each node's rank and each bond's axis types, and replayed for every
    network on that graph, so a memo hit answers as a fresh walk would; a
    replay only transposes, reshapes and multiplies. A graph with a bond
    end that names no node, a non-int axis, no axis or an axis bonded twice,
    or that is not closed, has a cycle or is disconnected, raises ValueError
    before any merge. Raises ValueError if a bond joins two extents that differ, and
    OracleGuardError if any intermediate would hold more than
    ``ORACLE_GUARD`` scalars.
    """
    arrays = list(_node_arrays(net).values())
    # tuple() returns a tuple as it is, so a hit compares the layout's own
    # tuples by identity, and makes a network built with lists hashable
    bonds = tuple(net.bonds)
    schedule = _walk_bond_graph(tuple(net.order), bonds, tuple([a.ndim for a in arrays]),
                                tuple([(type(b[1]), type(b[3])) for b in bonds]))
    for label, slot_a, order_a, slot_b, order_b, keep, widest in schedule.ops:
        a, b = arrays[slot_a], arrays[slot_b]
        if order_a is not None:
            a = a.transpose(order_a)
        if order_b is not None:
            b = b.transpose(order_b)
        summed = a.shape[-1]
        if b.shape[0] != summed:
            raise ValueError(f"bond {label} joins extents {summed} and {b.shape[0]}")
        shape = a.shape[:-1] + b.shape[1:]
        size = math.prod(shape)
        if size > ORACLE_GUARD:
            raise OracleGuardError(
                f"intermediate with {size} elements exceeds "
                f"the oracle guard of {ORACLE_GUARD}"
            )
        arrays[slot_a] = arrays[slot_b] = None
        if widest > 2:
            arrays[keep] = np.dot(a.reshape(-1, summed),
                                  b.reshape(summed, -1)).reshape(shape)
        else:
            # vectors and matrices already have the matrix layout: numpy
            # picks the same ddot, gemv or gemm as for the reshaped forms
            arrays[keep] = np.dot(a, b)

    result = arrays[schedule.result]
    if result.shape != ():
        raise ValueError(f"oracle result has shape {result.shape}, expected scalar")
    return float(result)
