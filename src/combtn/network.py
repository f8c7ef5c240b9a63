"""Networks as trees: a geometry and one array per stack.

A network is its dimensions, its geometry and its arrays. ``make_geometry``
makes a geometry from a node list and the draws of its stacks, and refuses
anything that is not one closed tree; ``_geometry`` describes the two trees
the lab compares through it, and so does every network made by hand.

An MPS network is a single chain of M*N site tensors. A comb network is a
backbone chain of M tensors, each carrying a vertical tooth of N tensors;
only tooth tensors have physical legs. In both geometries every physical
site reads one data vector of length dim_raw through its own compression
matrix of shape [dim_raw, dim_comp].

Axis conventions (fixed so plans and bonds agree), and after "stored" the
order a stack keeps a member's axes in where that differs: the axis a plan
sums first leads, so that step reads each member in place as one matrix.
  MPS sites:        left boundary [d, x], right boundary [x, d],
                    interior [x_left, d, x_right], stored [d, x_left, x_right]
  backbone:         boundary [x_horizontal, x_down],
                    interior [x_left, x_right, x_down], stored [x_down, x_left, x_right]
  tooth tensors:    end (farthest) [x_up, d],
                    interior [x_up, d, x_down], stored [d, x_up, x_down]
  compression:      [D, d];  data: [D]

Tensors of one shape and role are held in one stack, an array whose leading
axes run over its members. A node is one row of its stack, in C order, and
nothing else holds it; its array is a read-only view of that row, in the
node's axis order, made only when something reads the nodes (the value
oracle does). Every reader numbers a node by its place in the geometry's
node list, so node i's view is the i-th. Stacks and their leading axes:
  MPS:   first-site [1], interior-sites [L-2], last-site [1],
         compressions [L], data [L]  (L = M*N sites, left to right)
  comb:  boundary-spines [2], interior-spines [M-2], interior-teeth [M, N-1],
         tooth-ends [M], compressions [M, N], data [M, N]
A stack with no members (the interior sites at L=2, the interior teeth at
N=1, the interior spines at M=2) is left out of the geometry, once, so no
build draws it and no plan reads it. ``_draw`` makes every array, and
``attach_data`` and ``set_orthonormal_compressions`` each replace one; each
is a plain read-only ``np.ndarray`` that this module made.
``TensorNetwork.nodes`` hands the node views out by name, in node order, as
``Node(Tensor(view))`` named tuples, made anew on every read; a network
keeps no view.

A geometry is the validated node list and draws, nothing derived: the
backbone a plan ends on and the stored axis each bond sums are worked out
by ``engine``'s planner, which alone reads them. Each built geometry is
made once per kind and (M, N), in a small bounded memo (``_geometry``);
``engine``'s plan is read off it, and a build only draws, stack by stack in
the order each stack is stored. A stack of at most ``tensor._CHUNK``
elements is one call on the build's generator; a larger one is cut into
runs of ``_CHUNK`` elements, each drawn from its own child stream, and the
runs are filled on threads by ``tensor._run_all``, the one helper that
shares work over the CPUs. The values depend only on the seed and
``_CHUNK``, never on how many workers fill them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import tensor
from .tensor import Tensor


@dataclass(frozen=True)
class NetworkParams:
    """Dimensions shared by both geometries.

    dim_raw:   physical dimension before compression (D)
    dim_comp:  physical dimension after compression (d)
    bond_dim:  internal bond dimension (x)
    teeth:     backbone length (M), at least 2
    tooth_len: tensors per tooth (N); the MPS chain has M*N sites
    """

    dim_raw: int
    dim_comp: int
    bond_dim: int
    teeth: int
    tooth_len: int

    def __post_init__(self) -> None:
        for name in ("dim_raw", "dim_comp", "bond_dim", "teeth", "tooth_len"):
            value = getattr(self, name)
            # type(True) is bool, so a bool is refused as 1.0 is
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.dim_comp > self.dim_raw:
            raise ValueError(
                f"compressed dimension must not exceed raw dimension "
                f"(dim_comp={self.dim_comp} > dim_raw={self.dim_raw})"
            )
        if self.teeth < 2:
            raise ValueError(f"teeth must be >= 2, got {self.teeth}")

    @property
    def sites(self) -> int:
        return self.teeth * self.tooth_len


class Node(NamedTuple):
    """One node's array, as ``TensorNetwork.nodes`` hands it out."""

    tensor: Tensor


class Bond(NamedTuple):
    """Edge joining axis ``axis_a`` of ``node_a`` to axis ``axis_b`` of ``node_b``.

    A bond's extent is read off either end's shape; its position in
    ``TensorNetwork.bonds`` is the value oracle's contraction order.
    """

    node_a: str
    axis_a: int
    node_b: str
    axis_b: int


class Geometry(NamedTuple):
    """A closed tree of nodes, whatever its extents and seed, as
    ``make_geometry`` makes it. ``kind`` names it ("mps" and "comb" for a
    build). Its nodes, in list order, are (name, stack, position of the
    node each hangs from or -1), by field in ``names``, ``stacks`` and
    ``parents``; ``bonds`` holds each node's bond to its parent, parent
    first, in list order. ``draws`` gives every stack with members, in
    draw order, as (name, leading extents, stored member axes as letters of
    "D", "d" and "x", the letters whose product is its fan-in,
    ``node_axes``); a stack's members are its nodes in list order, one a
    row. Every reader numbers a node by its place in the list. All of it
    is tuples, so a geometry hashes and compares by value, and ``engine``
    keys its memos on it.
    """

    kind: str
    names: tuple[str, ...]
    stacks: tuple[str, ...]
    parents: tuple[int, ...]
    bonds: tuple[Bond, ...]
    draws: tuple[tuple, ...]

    def rows(self, stack: str) -> list[int]:
        """The positions of ``stack``'s members, in row order."""
        return [node for node, at in enumerate(self.stacks) if at == stack]


def make_geometry(kind: str, nodes, draws) -> Geometry:
    """The geometry of the tree ``nodes``, whose stacks ``draws`` describe.

    A node is (name, stack, parent, parent axis, axis). The first node is
    the root and hangs from None, its axes unread; every other node hangs
    from a node listed before it, by a bond from axis ``parent axis`` of
    the parent to its own axis ``axis``, both in node axis order. A draw is
    (name, leading extents, member axes as letters, fan-in letters,
    ``node_axes``): a member has one axis per letter, the stack stores it
    transposed by ``node_axes`` (None: as it is), and its members fill the
    rows of its leading extents in C order, in list order. A stack with no
    members is left out.

    Raises ValueError, naming the node or stack, where a node name or a
    drawn stack repeats; where the list is not one tree (the first node
    hangs from a node, or a later one from None, from no node or from a
    node listed after it); where a node's bonds do not hold each of its
    axes once, by an int (so an axis past its rank, an axis bonded twice
    and a free axis are refused); and where a stack's rows are not its
    members (a stack that no draw names has none).
    """
    names = tuple(name for name, *_ in nodes)
    stacks = tuple(stack for _, stack, *_ in nodes)
    index = {name: i for i, name in enumerate(names)}
    twice = [name for i, name in enumerate(names) if index[name] != i]
    if twice:
        raise ValueError(f"node {twice[0]!r} is named twice")
    if not names:
        raise ValueError("not one tree: there are no nodes")
    drawn = [name for name, *_ in draws]
    twice = [name for i, name in enumerate(drawn) if drawn.index(name) != i]
    if twice:
        raise ValueError(f"stack {twice[0]!r} is drawn twice")
    lead = {name: extents for name, extents, *_ in draws}
    # a stack no draw names has no rows
    for name in dict.fromkeys((*lead, *stacks)):
        if stacks.count(name) != math.prod(lead.get(name, (0,))):
            raise ValueError(f"stack {name!r} has {lead.get(name)} rows for "
                             f"{stacks.count(name)} nodes")
    rank = {name: len(axes) for name, _, axes, *_ in draws}
    legs, parents, bonds = [[] for _ in names], [], []
    for i, (name, _, parent, parent_axis, axis) in enumerate(nodes):
        up = -1 if parent is None else index.get(parent, i)
        if (up < 0) != (i == 0) or up >= i:
            raise ValueError(f"not one tree: node {name!r} hangs from {parent!r}, but the "
                             f"first node hangs from None, each other from one before it")
        parents.append(up)
        if i:       # every node but the root hangs by one bond
            legs[up].append(parent_axis)
            legs[i].append(axis)
            bonds.append(Bond(parent, parent_axis, name, axis))
    for name, stack, axes in zip(names, stacks, legs):
        if any(type(at) is not int for at in axes) or sorted(axes) != [*range(rank[stack])]:
            raise ValueError(f"node {name!r} is bonded on axes {axes}, not on each "
                             f"int in range({rank[stack]}) once")
    return Geometry(kind, names, stacks, tuple(parents), tuple(bonds),
                    tuple(draw for draw in draws if draw[0] in stacks))


@dataclass(frozen=True)
class TensorNetwork:
    """A closed tree network: its dimensions in ``params``, its structure
    in ``geometry`` and, in ``arrays``, one array per stack of the geometry
    by name, its members along the leading axes. A plan reads the arrays;
    the kind, the bonds, the data sites and the node views are read off the
    geometry."""

    params: NetworkParams
    geometry: Geometry
    arrays: dict[str, np.ndarray]

    kind = property(operator.attrgetter("geometry.kind"))
    bonds = property(operator.attrgetter("geometry.bonds"))

    @property
    def data_sites(self) -> tuple[str, ...]:
        """The data nodes in row order of ``attach_data``'s matrix."""
        return tuple(map(self.geometry.names.__getitem__, self.geometry.rows("data")))

    @property
    def nodes(self) -> dict[str, Node]:
        """Each node's view from ``_node_arrays`` as ``Node(Tensor(view))``,
        by name in node order, made anew on every read; the network keeps
        none. Nothing in combtn reads it: the value oracle reads
        ``_node_arrays``, and the benchmark in ``perfbench/`` reads this."""
        return dict(zip(self.geometry.names, map(Node, map(Tensor, _node_arrays(self)))))


def _node_arrays(net: TensorNetwork) -> list[np.ndarray]:
    """Node i's stack row at index i, as a view in its axis order,
    read-only when its array is: the node set ``net.nodes`` and the value
    oracle read. Scoring, which reads only the arrays, makes none."""
    rows = {}
    for name, lead, *_, node_axes in net.geometry.draws:
        arr = net.arrays[name]
        arr = arr.reshape(math.prod(lead), *arr.shape[len(lead):])
        rows[name] = iter(arr if node_axes is None else
                          arr.transpose(0, *(axis + 1 for axis in node_axes)))
    return [next(rows[stack]) for stack in net.geometry.stacks]


# The bound of every memo keyed by a network's geometry: the geometries
# here, and the plans and oracle schedules in ``engine``. The grid visits
# every tuple of one (M, N) in a row, so a few entries hit almost always,
# and a long run is not all held.
_MEMO = 4


@functools.lru_cache(maxsize=_MEMO)
def _geometry(kind: str, m_count: int, n_count: int) -> Geometry:
    """The geometry of ``kind`` at (M, N); an MPS depends only on its
    length, so ``build_mps`` asks for (M*N, 1)."""
    if kind == "mps":
        length = m_count * n_count
        draws = (("first-site", (1,), "dx", "x", None),
                 ("compressions", (length,), "Dd", "D", None),
                 ("data", (length,), "D", "", None),
                 ("interior-sites", (length - 2,), "dxx", "xx", (1, 0, 2)),
                 ("last-site", (1,), "xd", "x", None))
    else:
        draws = (("boundary-spines", (2,), "xx", "xx", None),
                 ("interior-teeth", (m_count, n_count - 1), "dxx", "xx", (1, 0, 2)),
                 ("tooth-ends", (m_count,), "xd", "x", None),
                 ("compressions", (m_count, n_count), "Dd", "D", None),
                 ("data", (m_count, n_count), "D", "", None),
                 ("interior-spines", (m_count - 2,), "xxx", "xxx", (1, 2, 0)))
    nodes = []

    def add(name: str, stack: str, parent: str | None, parent_axis: int, axis: int = 0) -> str:
        nodes.append((name, stack, parent, parent_axis, axis))
        return name

    def physical(site: str, tag: str, axis: int) -> None:
        # one compression matrix and one data vector per physical site
        add(f"data{tag}", "data", add(f"u{tag}", "compressions", site, axis, 1), 0)

    site = None
    if kind == "mps":
        for i in range(length):
            stack, axis = (("first-site", 0) if i == 0 else
                           ("last-site", 1) if i == length - 1 else ("interior-sites", 1))
            site = add(f"site{i}", stack, site, 1 if i == 1 else 2)
            physical(site, str(i), axis)
    else:
        for m in range(m_count):
            end = m in (0, m_count - 1)
            site = add(f"spine{m}", "boundary-spines" if end else "interior-spines",
                       site, 0 if m == 1 else 1)
            parent, axis = site, 1 if end else 2
            for n in range(n_count):
                tag = f"{m}.{n}"
                stack = "tooth-ends" if n == n_count - 1 else "interior-teeth"
                parent, axis = add(f"tooth{tag}", stack, parent, axis), 2
                physical(parent, tag, 1)
    return make_geometry(kind, nodes, draws)


def _draw(params: NetworkParams, seed, geometry: Geometry) -> TensorNetwork:
    """Draw every stack of ``geometry``, in its ``draws`` order, from one
    generator seeded once per build.

    A stack's member shape and fan-in are its letters read as D, d and x.
    A stack of at most ``tensor._CHUNK`` elements is one
    ``standard_normal(lead + stored shape)`` call on the generator. A larger
    one is made with ``np.empty`` and cut into runs of ``_CHUNK`` elements
    in C order; run j is filled in place from the j-th of ``spawn(k)``
    child generators, which advances the generator itself not at all, and
    the runs are filled by ``tensor._run_all``; a fill that raised fails
    the build, so no unfilled run becomes parameters. Every
    stack is scaled in place by 1/sqrt(fan_in), so each tensor is Gaussian
    with std 1/sqrt(fan_in), and every array is frozen once every run is
    filled.
    """
    dims = {"D": params.dim_raw, "d": params.dim_comp, "x": params.bond_dim}
    rng = np.random.default_rng(seed)
    chunk = tensor._CHUNK
    arrays, runs = {}, []
    for group, lead, axes, fan_in, _ in geometry.draws:
        shape = lead + tuple(map(dims.__getitem__, axes))
        size = math.prod(shape)
        scale = 1.0 / math.sqrt(math.prod(map(dims.__getitem__, fan_in)))
        if size <= chunk:
            arr = rng.standard_normal(shape)
            arr *= scale
        else:
            arr = np.empty(shape)
            flat = arr.reshape(-1)
            starts = range(0, size, chunk)
            runs += [(child, flat[start:start + chunk], scale)
                     for child, start in zip(rng.spawn(len(starts)), starts)]
        arrays[group] = arr
    if runs:
        tensor._run_all(_fill, runs, fork=False)
    for arr in arrays.values():
        arr.setflags(write=False)
    return TensorNetwork(params, geometry, arrays)


def _fill(rng: np.random.Generator, run: np.ndarray, scale: float) -> None:
    rng.standard_normal(out=run)
    run *= scale


def build_mps(params: NetworkParams, seed=0) -> TensorNetwork:
    """Chain of M*N sites, each with its compression matrix and data vector.

    All tensors are Gaussian with std 1/sqrt(fan-in), where fan-in is the
    product of the non-physical extents; values never affect cost counts.
    """
    return _draw(params, seed, _geometry("mps", params.sites, 1))


def build_comb(params: NetworkParams, seed=0) -> TensorNetwork:
    """Backbone of M tensors, a tooth of N tensors hanging from each.

    Tooth position 0 is adjacent to the backbone; position N-1 is the free
    end with shape [x, d]. Rejects M < 2: the boundary/interior split of the
    cost model presupposes two backbone ends.
    """
    return _draw(params, seed, _geometry("comb", params.teeth, params.tooth_len))


def attach_data(net: TensorNetwork, data) -> TensorNetwork:
    """Return a copy of ``net`` with data vectors taken from the rows of ``data``.

    Rows follow site order: MPS left to right; comb tooth-major, backbone
    left to right and within a tooth from the backbone outward. Every value
    must be real and finite. ``data`` is copied once; that copy, frozen, is
    the data array, and the data tensors are its rows. Only the data array
    changes.
    """
    if np.iscomplexobj(data):
        raise ValueError("data matrix must be real, got complex values")
    matrix = np.array(data, dtype=np.float64, order="C", copy=True)
    shape = net.arrays["data"].shape
    expected = (math.prod(shape[:-1]), net.params.dim_raw)
    if matrix.ndim != 2 or matrix.shape != expected:
        raise ValueError(
            f"data matrix must have shape {expected} "
            f"(sites x dim_raw), got {matrix.shape}"
        )
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"data matrix row {row}, column {col} is not finite: {matrix[row, col]}"
        )
    matrix.setflags(write=False)
    return replace(net, arrays={**net.arrays, "data": matrix.reshape(shape)})


def set_orthonormal_compressions(net: TensorNetwork, seed=0) -> TensorNetwork:
    """Replace every compression matrix with one having orthonormal columns.

    Stand-in for trained compressions; cost counting never depends on values.
    One ``normal`` draw of the whole compression stack, in row order, and
    one batched QR make the new stack: each matrix is the Q of its row's
    draw with every column's sign set so that R's diagonal is positive,
    which are the Gram-Schmidt columns of that draw. Only the compression
    array changes.
    """
    shape = net.arrays["compressions"].shape
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=shape))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q.setflags(write=False)
    return replace(net, arrays={**net.arrays, "compressions": q})
