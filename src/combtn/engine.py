"""Deterministic contraction schedules and instrumented execution.

One planner derives the steps of any tree from its geometry, made in
``network``, leaf to root: nodes that are ready together are contracted
into their parents in one stacked step over plain read-only arrays, and the
backbone ends as one ``CHAIN`` step and the final dot. The planner works
out the backbone (``_backbone``) and the stored axis of each bond itself,
from the node list, and ``plan_for`` hands it any network's geometry, built
or made by hand. A step reads each operand by source, a stack's name or an
earlier step's number, and row index, so a result may be read whole, in
parts, or more than once. A plan depends only on the geometry, so networks
that share one share one frozen plan from a small bounded memo; it is
checked once, when it is made. ``execute`` checks the network's stack names
and leading extents against it once, runs its steps, freeing each result
after its last read, and reports the multiplications it counted, which
``verification`` and ``cli`` compare with ``costmodel``. The independent
value oracle contracts the bond graph in bond order, reading each node as a
plain array view of its stack row, and is used to cross-check the scalar
produced by plan execution. Its schedule, node k + 1 absorbed into node 0's
tensor by bond k, nodes numbered by their place in the list, depends only
on the geometry, so it is walked once per geometry, kept in a small
``lru_cache``, and replayed for every network on that geometry; a replay
only transposes, reshapes and multiplies.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

from . import costmodel
from .network import _MEMO, Geometry, TensorNetwork, _node_arrays
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
    and a network fits the plan when its arrays are exactly these stacks at
    these extents; that is the one fit check, and it refuses a plan of the
    other kind too, since the two kinds name their stacks apart. The last
    step's result is the scalar. ``drops[k]`` holds the sources step k reads for
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


def _backbone(parents: tuple[int, ...]) -> list[int]:
    """The chain a plan ends on: it starts at the root, and each next node
    is the last listed child of the last; it ends at a node, other than the
    root, with fewer than two children. Every other node hangs from it."""
    last, children, backbone = {up: i for i, up in enumerate(parents)}, Counter(parents), [0]
    while children[backbone[-1]] > (len(backbone) > 1):
        backbone.append(last[backbone[-1]])
    return backbone


@functools.lru_cache(maxsize=_MEMO)
def _plan(geometry: Geometry) -> ContractionPlan:
    """The plan of ``geometry``, leaf to root: a node off the backbone (see
    ``_backbone``) is contracted into its parent in the round after its
    children's last. Each node has one place, (array, row): one walk of the
    node list starts it at the next row of its stack, and a step moves each
    parent it writes to (the step's number, its row of the result), so
    planning a tree is linear in its nodes. The nodes of a round whose
    values sit in one array, as their parents' do, share one stacked step
    that sums a child's one axis left against the parent's axis holding
    their bond, read in the parent's stored member; its result holds the
    parents' values in row order. Each operand reads its nodes' places, the
    array off the first, through ``_index``: the parents keep all of a
    stack's leading axes, or those their rows of a result differ on, and
    the children as many. Rounds 0 and 1 are "compress" and
    "absorb-physical", later ones "tooth-to-backbone" into the backbone,
    else "tooth-sweep". The backbone ends as one ``CHAIN`` step through its
    interior, if any, and the dot.

    Raises ValueError for a tree of one node, where one node takes two
    children in one round (naming it), and where the backbone's interior is
    not one array of matrices read (previous, next) or its rows are not one
    basic index.
    """
    parents = geometry.parents
    if len(parents) == 1:
        raise ValueError("a tree of one node has no step to plan")
    backbone, bonds = _backbone(parents), geometry.bonds
    # per array (a stack by name, step k's result by k): leading extents and
    # the node axis each stored axis not yet summed holds
    lead = {name: extents for name, extents, *_ in geometry.draws}
    left = {name: tuple(map((node_axes or range(len(axes))).index, range(len(axes))))
            for name, _, axes, *_, node_axes in geometry.draws}
    # each node's place, (array, row): node i is the next row of its stack
    rows = {name: itertools.product(*map(range, extents)) for name, extents in lead.items()}
    place, steps = [(stack, next(rows[stack])) for stack in geometry.stacks], []

    def read(nodes: list, batch: int | None = None):
        # the operand holding the values of ``nodes``, and its leading extents
        array = place[nodes[0]][0]
        if batch is None and isinstance(array, str):
            batch = len(lead[array])        # a stack keeps all its leading axes
        index, extents = _index(lead[array], [place[node][1] for node in nodes], batch)
        return (array, index), extents

    rounds, by_round = [0] * len(place), {}
    # the nodes off the backbone, children before their parents
    for node in sorted(set(range(len(place))).difference(backbone), reverse=True):
        by_round.setdefault(rounds[node], []).append(node)
        up = parents[node]
        rounds[up] = max(rounds[up], rounds[node] + 1)
    for r in sorted(by_round):
        groups, taken = {}, {}
        for node in reversed(by_round[r]):
            if taken.setdefault(parents[node], node) != node:
                raise ValueError(f"node {geometry.names[parents[node]]!r} takes two "
                                 f"children in round {r}; a round gives each node one")
            groups.setdefault((place[node][0], place[parents[node]][0], bonds[node - 1].axis_a),
                              []).append(node)
        for (_, parent, axis), nodes in groups.items():
            ups = [parents[node] for node in nodes]
            b, extents = read(ups)
            batch = len(extents)
            a, _ = read(nodes, batch)
            summed = left[parent].index(axis)
            phase = ("compress", "absorb-physical")[r] if r < 2 else \
                "tooth-to-backbone" if ups[0] in backbone else "tooth-sweep"
            k = len(steps)
            steps.append(PlanStep(a, b, AxisPairing(((batch, batch + summed),), batch), phase))
            lead[k], left[k] = extents, left[parent][:summed] + left[parent][summed + 1:]
            for up, row in zip(ups, itertools.product(*map(range, extents))):
                place[up] = k, row

    first, *inner, last = backbone
    a, _ = read([first], 0)
    if inner:
        chain = place[inner[0]][0]
        if {place[node][0] for node in inner} != {chain} or \
                {bonds[node - 1].axis_a for node in backbone[2:]} != {left[chain][-1]}:
            raise ValueError("the backbone's interior is not one array of "
                             "matrices read (previous, next)")
        steps.append(PlanStep(a, read(inner, 1)[0], CHAIN, "chain-sweep"))
        a = (len(steps) - 1, None)
    steps.append(PlanStep(a, read([last], 0)[0], _DOT, "final-dot"))
    return ContractionPlan(tuple(steps), tuple(
        (name, extents) for name, extents, *_ in geometry.draws))


def mps_plan(net: TensorNetwork) -> ContractionPlan:
    """The MPS's plan: compress every data vector (D*d each), absorb them
    into the sites (x*d at the ends, x^2*d inside), one ``CHAIN`` step
    through the interior sites (x^2 each) and the dot (x): 4 + 2*[L > 2]
    steps, shared per chain length."""
    if net.kind != "mps":
        raise ValueError(f"mps_plan requires an MPS network, got {net.kind}")
    return _plan(net.geometry)


def comb_plan(net: TensorNetwork) -> ContractionPlan:
    """The comb's plan: compress every data vector (D*d each), absorb them
    into the teeth (x*d at the ends, x^2*d inside), sweep all teeth toward
    the backbone (x^2 per tooth and step), enter the spines (x^2 at the
    ends, x^3 inside), one ``CHAIN`` step through the interior spines and
    the dot: N + 3 + [N > 1] + 2*[M > 2] steps, shared per (M, N)."""
    if net.kind != "comb":
        raise ValueError(f"comb_plan requires a comb network, got {net.kind}")
    return _plan(net.geometry)


def plan_for(net: TensorNetwork) -> ContractionPlan:
    """The plan of any network's geometry, an MPS, a comb or a tree made by
    hand; ``_plan`` refuses, by name, a tree it cannot plan."""
    return _plan(net.geometry)


def execute(net: TensorNetwork, plan: ContractionPlan) -> tuple[float, CostReport]:
    """Run the plan over the network's arrays, counting every multiplication.

    Raises ValueError when the plan does not fit the network and
    CountOverflowError if any count leaves the 64-bit range. Before any
    step runs, the network's stack names and its arrays' leading extents,
    as many as its geometry gives each stack, are checked against
    ``plan.stacks`` in one comparison, the one fit check: a plan of
    the other kind fails it too, since no MPS holds ``boundary-spines`` and
    no comb ``first-site``. Each step reads its operands as ``array`` or
    ``array[index]``, keeps its read-only result under its number and drops
    every array it read for the last time, so an intermediate is freed
    after its last read. It is one ``contract_pair`` call, looked up on
    this module, so whatever replaces that name sees every step. The scalar
    is ``float`` of the last step's 0-d result: a complex one, which only an
    array put in by hand can bring in, raises TypeError rather than losing
    its imaginary part. The report's ``analytic_printed`` is the one closed
    form evaluated here: no program code reads it, only perfbench does, as
    ``net.nodes`` is there only for perfbench.
    """
    reads = set(plan.stacks)
    holds = {(name, net.arrays[name].shape[:len(lead)])
             for name, lead, *_ in net.geometry.draws}
    if holds != reads:
        raise ValueError(f"plan does not match network: where they differ, the "
                         f"plan reads stacks {sorted(reads - holds)} and the "
                         f"network holds {sorted(holds - reads)}")
    arrays = dict(net.arrays)
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


@functools.lru_cache(maxsize=_MEMO)
def _walk_bond_graph(geometry: Geometry) -> tuple[tuple, ...]:
    """Label every leg and record one merge per bond; reads no extent, so
    every network on ``geometry`` replays it.

    ``network.make_geometry`` has refused every graph that is not one
    closed tree, and lists each node after its parent. So in bond order
    each bond joins a node alone, its second end, to the growing tensor of
    the root, its first end's component: bond k absorbs node k + 1 into
    node 0's tensor, nodes numbered by their place in the list, as
    ``_node_arrays`` lists the views. Op k, ``(order_a, order_b, widest)``,
    transposes the root's tensor by ``order_a`` to sum its last axis and
    node k + 1 by ``order_b`` to sum its first (None where the axis is
    already there); ``widest`` is the larger of the two sides' ranks.
    """
    rank = {name: len(axes) for name, _, axes, *_ in geometry.draws}
    legs = [[-1] * rank[stack] for stack in geometry.stacks]
    # node i hangs by bond i - 1, the one that absorbs it
    for node, bond in enumerate(geometry.bonds, 1):
        legs[geometry.parents[node]][bond.axis_a] = legs[node][bond.axis_b] = node - 1
    legs_a, ops = legs[0], []
    for node, legs_b in enumerate(legs[1:], 1):
        axis_a, axis_b = legs_a.index(node - 1), legs_b.index(node - 1)
        rank_a, rank_b = len(legs_a), len(legs_b)
        order_a = None if axis_a == rank_a - 1 else \
            (*range(axis_a), *range(axis_a + 1, rank_a), axis_a)
        order_b = None if axis_b == 0 else \
            (axis_b, *range(axis_b), *range(axis_b + 1, rank_b))
        ops.append((order_a, order_b, max(rank_a, rank_b)))
        legs_a = legs_a[:axis_a] + legs_a[axis_a + 1:] + legs_b[:axis_b] + legs_b[axis_b + 1:]
    return tuple(ops)


def naive_value_oracle(net: TensorNetwork) -> float:
    """Contract the bond graph in bond order, ignoring cost.

    Independent of the planners and of ``contract_pair``: works directly off
    the node arrays (each stack row in its node's axis order, the views
    ``net.nodes`` hands out, numbered by the node's place in the list) and
    the bonds. In bond order bond k absorbs node k + 1 into the root's
    tensor: it sums the bond, moving its axis last in the root's tensor and
    first in the node, then multiplies the two as matrices with ``np.dot``;
    that is ``np.tensordot``'s own layout, without its argument handling; a
    merge of two sides of rank 2 or less hands them to ``np.dot`` as they
    are, without the reshapes. Each bond is labelled by its position in
    ``net.bonds``.

    The schedule (each bond's two transpose orders) depends only on the
    geometry, which ``network.make_geometry`` has checked, so it is walked
    once per geometry, kept in an ``lru_cache`` keyed on it, and replayed
    for every network on that geometry; a replay only transposes, reshapes
    and multiplies. Raises ValueError if a bond joins two extents that
    differ, and OracleGuardError if any intermediate would hold more than
    ``ORACLE_GUARD`` scalars.
    """
    a, *arrays = _node_arrays(net)
    for label, ((order_a, order_b, widest), b) in enumerate(
            zip(_walk_bond_graph(net.geometry), arrays)):
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
        # ndarray.dot is np.dot without its dispatch layer
        if widest > 2:
            a = a.reshape(-1, summed).dot(b.reshape(summed, -1)).reshape(shape)
        else:
            # vectors and matrices already have the matrix layout: numpy
            # picks the same ddot, gemv or gemm as for the reshaped forms
            a = a.dot(b)
    return float(a)
