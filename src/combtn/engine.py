"""Deterministic contraction schedules and instrumented execution.

One planner derives either geometry's steps from its description in
``network``, leaf to root: nodes that are ready together are contracted
into their parents in one stacked step over plain read-only arrays, and
the backbone ends as one ``CHAIN`` step and the final dot. A step reads
each operand by source, a stack's name or an earlier step's number, and
row index, so a result may be read whole, in parts, or more than once. A
plan depends only on the kind and (M, N), so networks that share them
share one frozen plan from a small bounded memo; it is checked once, when
it is made. ``execute`` checks the network's stack names and leading
extents against it once, runs its steps, freeing each result after its
last read, and reports the multiplications it counted, which
``verification`` and ``cli`` compare with ``costmodel``. The independent
value oracle contracts the raw bond graph in bond order, reading each node
as a plain array view of its stack row, numbered stack by stack, and is
used to cross-check the scalar produced by plan execution. Its merge
schedule, each merge kept in the first end's slot, depends only on the
bond graph, so it is walked once per graph, kept in a small
``lru_cache``, and replayed for every network on that graph; a replay only
transposes, reshapes and multiplies.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from . import costmodel
from .network import _MEMO, TensorNetwork, _geometry, _node_arrays
from .tensor import CHAIN, AxisPairing, checked_count, contract_pair

ORACLE_GUARD = 10_000_000


class OracleGuardError(RuntimeError):
    """An oracle intermediate would exceed the size guard."""


@dataclass(frozen=True, slots=True)
class PlanStep:
    """Contract operand ``a`` with operand ``b`` and add the count to ``phase``.

    An operand is (source, index): the source is a stack's name or the
    number of an earlier step, whose result it reads, and the index is None
    for the whole array, else a basic index (an int for one row, a slice
    for a run of rows, or a tuple of these, one per leading axis).
    """

    a: tuple
    b: tuple
    pairing: AxisPairing
    phase: str


@dataclass(frozen=True)
class ContractionPlan:
    """Steps over a network's stacks, each result kept under its number.

    ``stacks`` names each stack the plan reads with its leading extents,
    and a network fits the plan when it holds exactly these stacks at these
    extents; that is the one fit check, and it refuses a plan of the other
    kind too, since the two kinds name their stacks apart. The last step's
    result is the scalar. ``drops[k]`` holds the sources step k reads for
    the last time, so ``execute`` frees each array after its last read.

    Raises ValueError for a fault that no network could mend: a source that
    is neither a string nor the ``int`` number of an earlier step, a result
    other than the last that no step reads (a plan with no steps leaves no
    tensor), or ``stacks`` that are not the names it reads. A plan with
    several faults is refused for the first of these.
    """

    steps: tuple[PlanStep, ...]
    stacks: tuple[tuple[str, tuple[int, ...]], ...]
    drops: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        last = {}       # source -> the last step that reads it
        for k, step in enumerate(self.steps):
            for source, _ in (step.a, step.b):
                if not (isinstance(source, str) or type(source) is int and 0 <= source < k):
                    raise ValueError(f"plan step {k} reads {source!r}, neither "
                                     f"a stack nor an earlier step")
                last[source] = k
        left = [k for k in range(len(self.steps)) if k not in last]
        if left != [len(self.steps) - 1]:
            raise ValueError(f"plan leaves {len(left)} tensors instead of a single scalar")
        read = sorted(source for source in last if isinstance(source, str))
        if sorted(name for name, _ in self.stacks) != read:
            raise ValueError(f"plan stacks {[name for name, _ in self.stacks]} "
                             f"are not the stacks it reads, {read}")
        drops = [()] * len(self.steps)
        for source, k in last.items():
            drops[k] += (source,)
        object.__setattr__(self, "drops", tuple(drops))


@dataclass
class CostReport:
    """Measured per-phase multiplication counts and their checked sum.

    ``total`` always equals the sum of the subtotals. ``analytic_printed``
    is the printed closed form of the network's kind (see ``execute``).
    """

    phase_subtotals: dict[str, int]
    total: int
    analytic_printed: int


# The final dot sums two vectors.
_DOT = AxisPairing(((0, 0),))


def _index(lead: tuple[int, ...], rows: list, batch: int | None = None):
    """The basic index reading ``rows`` of an array with leading extents
    ``lead``, in C order, as ``batch`` leading axes (by default those the
    rows differ on), and the extents it keeps; None for the whole array.
    Raises ValueError where no basic index reads these rows in this order.
    """
    # each axis's run, from the last axis on: its step is how far it moves
    # over as many rows as the later axes' runs span
    first, last, runs, span = rows[0], rows[-1], [], 1
    for axis in reversed(range(len(lead))):
        step = rows[min(span, len(rows) - 1)][axis] - first[axis] or 1
        runs.insert(0, range(first[axis], last[axis] + 1, step))
        span *= len(runs[0])
    spare = 0 if batch is None else batch - sum(map(operator.ne, first, last))
    index = []     # an int where the rows agree, save the first the batch needs
    for run in runs:
        keep = len(run) > 1 or spare > 0
        spare -= keep and len(run) == 1
        index.append(slice(run.start, run.stop, run.step) if keep else run.start)
    extents = tuple(len(run) for run, at in zip(runs, index) if isinstance(at, slice))
    if batch not in (None, len(extents)) or list(itertools.product(*runs)) != rows:
        raise ValueError(f"no basic index reads rows {rows} as {batch} leading axes")
    return (None if extents == lead else tuple(index)), extents


@functools.lru_cache(maxsize=_MEMO)
def _plan(kind: str, m_count: int, n_count: int) -> ContractionPlan:
    """The plan of ``network._geometry(kind, m_count, n_count)``, leaf to
    root: a node off the backbone is contracted into its parent in the
    round after its children's last. The nodes of a round whose values sit
    in one array, as their parents' do, share one stacked step that sums a
    child's one axis left against the parent's axis holding their bond; its
    result holds the parents' values in row order. Each operand reads its
    nodes' rows of a stack or of an earlier result through ``_index``: the
    parents keep all of a stack's leading axes, or those their rows of a
    result differ on, and the children as many. Rounds 0 and 1 are
    "compress" and "absorb-physical", later ones "tooth-to-backbone" into
    the backbone, else "tooth-sweep". The backbone ends as one ``CHAIN``
    step through its interior, if any, and the dot.
    """
    geometry = _geometry(kind, m_count, n_count)
    parents, stored, backbone = geometry.parents, geometry.stored, set(geometry.backbone)
    # per array (a stack by name, step k's result by k): leading extents,
    # stored axes not yet summed, and each node's row
    lead = {name: extents for name, extents, *_ in geometry.draws}
    left = {name: tuple(range(len(axes))) for name, _, axes, *_ in geometry.draws}
    rows = {name: dict(zip(nodes, itertools.product(*map(range, lead[name]))))
            for name, nodes in geometry.members.items()}
    at, steps = list(geometry.stacks), []       # each node's array

    def read(array, nodes: list, batch: int | None = None):
        # the operand holding the values of ``nodes``, and its leading extents
        if batch is None and isinstance(array, str):
            batch = len(lead[array])        # a stack keeps all its leading axes
        index, extents = _index(lead[array], list(map(rows[array].__getitem__, nodes)), batch)
        return (array, index), extents

    rounds, by_round = [0] * len(at), {}
    for node in reversed(range(len(at))):    # a child comes after its parent
        if node not in backbone:
            by_round.setdefault(rounds[node], []).append(node)
            up = parents[node]
            if rounds[up] <= rounds[node]:
                rounds[up] = rounds[node] + 1
    for r in sorted(by_round):
        groups: dict[tuple, list[int]] = {}
        for node in reversed(by_round[r]):
            groups.setdefault((at[node], at[parents[node]], stored[node]), []).append(node)
        for (child, parent, axis), nodes in groups.items():
            ups = [parents[node] for node in nodes]
            b, extents = read(parent, ups)
            batch = len(extents)
            a, _ = read(child, nodes, batch)
            summed = left[parent].index(axis)
            phase = ("compress", "absorb-physical")[r] if r < 2 else \
                "tooth-to-backbone" if ups[0] in backbone else "tooth-sweep"
            k = len(steps)
            steps.append(PlanStep(a, b, AxisPairing(((batch, batch + summed),), batch), phase))
            lead[k], left[k] = extents, left[parent][:summed] + left[parent][summed + 1:]
            rows[k] = dict(zip(ups, itertools.product(*map(range, extents))))
            for up in ups:
                at[up] = k

    first, *inner, last = geometry.backbone
    a, _ = read(at[first], [first], 0)
    if inner:
        steps.append(PlanStep(a, read(at[inner[0]], inner, 1)[0], CHAIN, "chain-sweep"))
        a = (len(steps) - 1, None)
    steps.append(PlanStep(a, read(at[last], [last], 0)[0], _DOT, "final-dot"))
    return ContractionPlan(tuple(steps), tuple(
        (name, extents) for name, extents, *_ in geometry.draws))


def mps_plan(net: TensorNetwork) -> ContractionPlan:
    """The MPS's plan: compress every data vector (D*d each), absorb them
    into the sites (x*d at the ends, x^2*d inside), one ``CHAIN`` step
    through the interior sites (x^2 each) and the dot (x): 4 + 2*[L > 2]
    steps, shared per chain length."""
    if net.kind != "mps":
        raise ValueError(f"mps_plan requires an MPS network, got {net.kind}")
    return _plan("mps", net.params.sites, 1)


def comb_plan(net: TensorNetwork) -> ContractionPlan:
    """The comb's plan: compress every data vector (D*d each), absorb them
    into the teeth (x*d at the ends, x^2*d inside), sweep all teeth toward
    the backbone (x^2 per tooth and step), enter the spines (x^2 at the
    ends, x^3 inside), one ``CHAIN`` step through the interior spines and
    the dot: N + 3 + [N > 1] + 2*[M > 2] steps, shared per (M, N)."""
    if net.kind != "comb":
        raise ValueError(f"comb_plan requires a comb network, got {net.kind}")
    return _plan("comb", net.params.teeth, net.params.tooth_len)


def plan_for(net: TensorNetwork) -> ContractionPlan:
    return mps_plan(net) if net.kind == "mps" else comb_plan(net)


def execute(net: TensorNetwork, plan: ContractionPlan) -> tuple[float, CostReport]:
    """Run the plan over the network's stacks, counting every multiplication.

    Raises ValueError when the plan does not fit the network and
    CountOverflowError if any count leaves the 64-bit range. Before any
    step runs, the network's stack names and leading extents are checked
    against ``plan.stacks`` in one comparison, the one fit check: a plan of
    the other kind fails it too, since no MPS holds ``boundary-spines`` and
    no comb ``first-site``. Each step reads its operands as ``array`` or
    ``array[index]``, keeps its read-only result under its number and drops
    every array it read for the last time, so an intermediate is freed
    after its last read. It is one ``contract_pair`` call, looked up on
    this module, so whatever replaces that name sees every step. The scalar
    is ``float`` of the last step's 0-d result: a complex one, which only a
    stack made by hand can bring in, raises TypeError rather than losing
    its imaginary part. The report's ``analytic_printed`` is the one closed
    form evaluated here: no program code reads it, only perfbench does, as
    ``net.nodes`` is there only for perfbench.
    """
    reads = set(plan.stacks)
    holds = {(name, stack.array.shape[:stack.lead])
             for name, stack in net.stacks.items()}
    if holds != reads:
        raise ValueError(f"plan does not match network: where they differ, the "
                         f"plan reads stacks {sorted(reads - holds)} and the "
                         f"network holds {sorted(holds - reads)}")
    arrays = {name: stack.array for name, stack in net.stacks.items()}
    subtotals: dict[str, int] = {}
    for k, (step, drops) in enumerate(zip(plan.steps, plan.drops)):
        (a, ia), (b, ib) = step.a, step.b
        made, cost = contract_pair(arrays[a] if ia is None else arrays[a][ia],
                                   arrays[b] if ib is None else arrays[b][ib],
                                   step.pairing)
        arrays[k] = made
        for source in drops:
            del arrays[source]
        subtotals[step.phase] = subtotals.get(step.phase, 0) + cost.multiplications
    if made.shape != ():
        raise ValueError(f"plan result has shape {made.shape}, expected a scalar")
    total = checked_count(sum(subtotals.values()))
    printed = (costmodel.mps_cost if net.kind == "mps"
               else costmodel.comb_cost_printed)(net.params)
    return float(made), CostReport(subtotals, total, printed)


# An oracle schedule depends only on the bond graph: the node names in
# stack order, the bonds, each node's rank and the types of each bond's
# axes. Builds of one kind and (M, N) share the layout memo's tuples, so a
# hit hashes every name and bond, in C since a bond is a named tuple, and
# then finds the same bonds, and the same name strings, by identity.
@functools.lru_cache(maxsize=_MEMO)
def _walk_bond_graph(names: tuple[str, ...], bonds, ranks: tuple[int, ...],
                     axis_types: tuple[tuple[type, type], ...]) -> tuple[tuple, int]:
    """Label every leg, check the graph is a closed tree, and record one
    merge per bond; reads no extent, so any network on this graph replays it.

    ``axis_types``, the types of each bond's two axes, is read only as part
    of the memo's key: a bond hashes and compares as a tuple, and an axis
    ``0.0`` or ``np.int64(0)`` equals ``0``, so without the types such a
    graph would be answered from the schedule of the integer one, where a
    walk of its own refuses it.

    A bond end that names no node of ``names``, an axis that is not an int
    or is outside its node's rank, or a leg already labelled is refused,
    naming the bond's position and end.

    Node ``names[i]``, of rank ``ranks[i]``, starts in slot i; the slot
    numbers never enter a product, since each merge is fixed by its bond's
    two ends. Returns ``(ops, result)``: one op per bond, ``(label, slot_a,
    order_a, slot_b, order_b, widest)``, merges the components in the slots
    of the bond's two ends, transposing the first by ``order_a`` to sum its
    last axis and the second by ``order_b`` to sum its first (None where the
    axis is already there); ``widest`` is the larger of the two sides'
    ranks. Each merge is kept in the first end's slot, so ``result`` is the
    slot left holding the whole graph.
    """
    slot_of = {name: i for i, name in enumerate(names)}
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
    for name, axes in zip(names, legs):
        if -1 in axes:
            raise ValueError(f"network is not closed: node {name!r} has a free axis")

    root = list(range(len(names)))      # a merged slot points at the slot it joined

    def find(slot: int) -> int:
        while root[slot] != slot:
            root[slot] = slot = root[root[slot]]    # path halving
        return slot

    ops = []
    for label, bond in enumerate(bonds):
        slot_a, slot_b = find(slot_of[bond.node_a]), find(slot_of[bond.node_b])
        if slot_a == slot_b:
            raise ValueError("cycle in bond graph; oracle supports trees only")
        legs_a, legs_b = legs[slot_a], legs[slot_b]
        axis_a, axis_b = legs_a.index(label), legs_b.index(label)
        rank_a, rank_b = len(legs_a), len(legs_b)
        order_a = None if axis_a == rank_a - 1 else \
            (*range(axis_a), *range(axis_a + 1, rank_a), axis_a)
        order_b = None if axis_b == 0 else \
            (axis_b, *range(axis_b), *range(axis_b + 1, rank_b))
        ops.append((label, slot_a, order_a, slot_b, order_b, max(rank_a, rank_b)))
        legs[slot_a] = legs_a[:axis_a] + legs_a[axis_a + 1:] \
            + legs_b[:axis_b] + legs_b[axis_b + 1:]
        root[slot_b] = slot_a

    # every merge joins two components, so n nodes and k merges leave n - k
    if len(names) - len(ops) != 1:
        raise ValueError("network is disconnected; oracle needs one component")
    return tuple(ops), find(0)


def naive_value_oracle(net: TensorNetwork) -> float:
    """Contract the bond graph in bond order, ignoring cost.

    Independent of the planners and of ``contract_pair``: works directly off
    the node arrays (each stack row in its node's axis order, the views
    ``net.nodes`` hands out, numbered into slots stack by stack) and the
    bonds, with generic component merging. Each merge sums one bond, moving
    its axis last in the first component and first in the second, then
    multiplies the two as matrices with ``np.dot``; that is
    ``np.tensordot``'s own layout, without its argument handling; a merge of
    two sides of rank 2 or less hands them to ``np.dot`` as they are,
    without the reshapes. Each bond is labelled by its position in
    ``net.bonds``.

    The merge schedule (the two component slots of each bond and their
    transpose orders, each merge kept in the first end's slot) depends only
    on the bond graph, so it is walked once per graph, kept in an
    ``lru_cache`` keyed on the node names in slot order, the bonds, each
    node's rank and each bond's axis types, and replayed for every network
    on that graph, so a memo hit answers as a fresh walk would; a replay
    only transposes, reshapes and multiplies. A graph with a bond end that
    names no stack row, a non-int axis, no axis or an axis bonded twice, or
    that is not closed, has a cycle or is disconnected, raises ValueError
    before any merge. Raises ValueError if a bond joins two extents that
    differ, and OracleGuardError if any intermediate would hold more than
    ``ORACLE_GUARD`` scalars.
    """
    views = _node_arrays(net)
    arrays = list(views.values())
    # tuple() returns a tuple as it is, so a hit compares the layout's own
    # tuples by identity, and makes a network built with lists hashable
    bonds = tuple(net.bonds)
    ops, result = _walk_bond_graph(tuple(views), bonds, tuple([a.ndim for a in arrays]),
                                   tuple([(type(b[1]), type(b[3])) for b in bonds]))
    for label, slot_a, order_a, slot_b, order_b, widest in ops:
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
        arrays[slot_b] = None
        # ndarray.dot is np.dot without its dispatch layer
        if widest > 2:
            arrays[slot_a] = a.reshape(-1, summed).dot(
                b.reshape(summed, -1)).reshape(shape)
        else:
            # vectors and matrices already have the matrix layout: numpy
            # picks the same ddot, gemv or gemm as for the reshaped forms
            arrays[slot_a] = a.dot(b)
    return float(arrays[result])
