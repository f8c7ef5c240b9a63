"""Builders for the two supported network geometries.

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
axes run over its members. A network's nodes are its stacks' rows, stack by
stack in C order, and nothing else names them; a node's array is a
read-only view of one member, in the node's axis order, made only when
something reads the nodes (the value oracle does). Stacks and their leading
axes:
  MPS:   first-site [1], interior-sites [L-2], last-site [1],
         compressions [L], data [L]  (L = M*N sites, left to right)
  comb:  boundary-spines [2], interior-spines [M-2], interior-teeth [M, N-1],
         tooth-ends [M], compressions [M, N], data [M, N]
A stack with no members (the interior sites at L=2, the interior teeth at
N=1, the interior spines at M=2) is left out of the geometry, once, so no
build draws it and no plan reads it. ``_draw`` makes every stack, and
``attach_data`` and ``set_orthonormal_compressions`` replace one stack's
array; each holds a plain read-only ``np.ndarray`` that this module made.
``TensorNetwork.nodes`` hands the node views out as ``Node(Tensor(view))``
named tuples, made anew on every read; a network keeps no view.

Each geometry is described once per kind and (M, N), in a small bounded
memo (``_geometry``): every node with its stack and the bond to the node it
hangs from, the backbone, and every stack's draw. Its build order names the
rows and the bonds, ``engine``'s plan is read off it, and a build only
draws, stack by stack in the order each stack is stored. A stack of at most
``tensor._CHUNK`` elements is one call on the build's generator; a larger
one is cut into runs of ``_CHUNK`` elements, each drawn from its own child
stream, and the runs are filled on threads by ``tensor._run_all``, the one
helper that shares work over the CPUs. The values depend only on the seed and
``_CHUNK``, never on how many workers fill them.
"""

from __future__ import annotations

import functools
import math
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


@dataclass(frozen=True, eq=False)
class Stack:
    """Tensors of one shape held in one array, ``array``: its first
    ``lead`` axes run over the members, and the member named ``names[i]``
    is row i of them, in C order. A member is stored with its node's axes
    permuted: the node is the member transposed by ``node_axes``, or the
    member itself when that is None.

    The builders make every stack of a network, each holding a read-only
    array they made; ``attach_data`` and ``set_orthonormal_compressions``
    replace one stack's array by ``dataclasses.replace``. A stack made by
    hand holds the array it is given, as numpy containers do: no copy, no
    check and no change to its flags."""

    array: np.ndarray
    names: tuple[str, ...]
    lead: int
    node_axes: tuple[int, ...] | None = None


class Bond(NamedTuple):
    """Edge joining axis ``axis_a`` of ``node_a`` to axis ``axis_b`` of ``node_b``.

    A bond's extent is read off either end's shape; its position in
    ``TensorNetwork.bonds`` is the value oracle's contraction order. A
    named tuple, so hashing a network's bonds, as the oracle's memo does on
    every call, runs in C.
    """

    node_a: str
    axis_a: int
    node_b: str
    axis_b: int


@dataclass(frozen=True)
class TensorNetwork:
    """A closed network of named nodes; ``kind`` is "mps" or "comb", and its
    dimensions are all in ``params``. Its nodes are its stacks' rows, stack
    by stack and in C order within each, so a bond can name only a node
    some stack holds; a plan reads the stacks."""

    params: NetworkParams
    kind: str
    bonds: tuple[Bond, ...]
    stacks: dict[str, Stack]

    @property
    def data_sites(self) -> tuple[str, ...]:
        """The data nodes in row order of ``attach_data``'s matrix."""
        return self.stacks["data"].names

    @property
    def nodes(self) -> dict[str, Node]:
        """Each node's view from ``_node_arrays`` as ``Node(Tensor(view))``,
        made anew on every read; the network keeps none. Nothing in combtn
        reads it: the value oracle reads ``_node_arrays``, and the
        benchmark in ``perfbench/`` reads this."""
        return {name: Node(Tensor(arr)) for name, arr in _node_arrays(self).items()}


def _node_arrays(net: TensorNetwork) -> dict[str, np.ndarray]:
    """Each stack row as a view in its node's axis order, read-only when
    its stack is, by name, stack by stack in C order: the network's node
    set, the one ``net.nodes`` and the value oracle read. Scoring, which
    reads only the stacks, makes none."""
    views = {}
    for stack in net.stacks.values():
        arr = stack.array
        rows = arr.reshape(len(stack.names), *arr.shape[stack.lead:])
        if stack.node_axes is not None:
            rows = rows.transpose(0, *(axis + 1 for axis in stack.node_axes))
        views.update(zip(stack.names, rows))
    return views


class _Geometry(NamedTuple):
    """One geometry at one (M, N), whatever its extents and seed. Its nodes,
    in build order, are (name, stack, position of the node each hangs from
    or -1, axis of that node's stored member holding their bond), by field
    in ``order``, ``stacks``, ``parents`` and ``stored``; ``bonds`` holds
    each node's bond to its parent. ``members`` and ``names`` list each
    stack's nodes in node order, the C order of its rows. ``backbone`` is
    the chain the others hang from. ``draws`` gives every stack, in draw
    order, as (name, leading extents, stored member axes as letters of "D",
    "d" and "x", the letters whose product is its fan-in, ``node_axes``).
    A stack with no members is in none of ``members``, ``names`` and
    ``draws``.
    """

    order: tuple[str, ...]
    stacks: tuple[str, ...]
    parents: tuple[int, ...]
    stored: tuple[int, ...]
    bonds: tuple[Bond, ...]
    members: dict[str, tuple[int, ...]]
    names: dict[str, tuple[str, ...]]
    backbone: tuple[int, ...]
    draws: tuple[tuple, ...]


# The bound of every memo keyed by a network's kind and (M, N): the
# geometries here, and the plans and oracle schedules in ``engine``. The
# grid visits every tuple of one (M, N) in a row, so a few entries hit
# almost always, and a long run is not all held.
_MEMO = 4


@functools.lru_cache(maxsize=_MEMO)
def _geometry(kind: str, m_count: int, n_count: int) -> _Geometry:
    """The geometry of ``kind`` at (M, N); an MPS depends only on its
    length, so ``build_mps`` and ``engine`` ask for (M*N, 1)."""
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
    node_axes = {name: axes for name, *_, axes in draws}
    members: dict[str, list[int]] = {name: [] for name, *_ in draws}
    nodes, bonds, backbone = [], [], []

    def add(name: str, stack: str, parent: int, parent_axis: int, axis: int = 0) -> int:
        # the first node hangs from none: its parent axis is never read
        if parent >= 0:
            bonds.append(Bond(nodes[parent][0], parent_axis, name, axis))
            permuted = node_axes[nodes[parent][1]]
            parent_axis = parent_axis if permuted is None else permuted[parent_axis]
        members[stack].append(len(nodes))
        nodes.append((name, stack, parent, parent_axis))
        return len(nodes) - 1

    def physical(site: int, tag: str, axis: int) -> None:
        # one compression matrix and one data vector per physical site
        add(f"data{tag}", "data", add(f"u{tag}", "compressions", site, axis, 1), 0)

    if kind == "mps":
        for i in range(length):
            stack, axis = (("first-site", 0) if i == 0 else
                           ("last-site", 1) if i == length - 1 else ("interior-sites", 1))
            backbone.append(add(f"site{i}", stack, backbone[-1] if i else -1,
                                1 if i == 1 else 2))
            physical(backbone[-1], str(i), axis)
    else:
        for m in range(m_count):
            end = m in (0, m_count - 1)
            backbone.append(add(f"spine{m}", "boundary-spines" if end else "interior-spines",
                                backbone[-1] if m else -1, 0 if m == 1 else 1))
            parent, axis = backbone[-1], 1 if end else 2
            for n in range(n_count):
                tag = f"{m}.{n}"
                stack = "tooth-ends" if n == n_count - 1 else "interior-teeth"
                parent, axis = add(f"tooth{tag}", stack, parent, axis), 2
                physical(parent, tag, 1)
    order, stacks, parents, stored = map(tuple, zip(*nodes))
    # the one place a stack with no members is left out
    kept = {stack: tuple(ids) for stack, ids in members.items() if ids}
    names = {stack: tuple(map(order.__getitem__, ids)) for stack, ids in kept.items()}
    return _Geometry(order, stacks, parents, stored, tuple(bonds), kept, names,
                     tuple(backbone), tuple(draw for draw in draws if draw[0] in kept))


def _draw(params: NetworkParams, kind: str, seed, geometry: _Geometry) -> TensorNetwork:
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
    with std 1/sqrt(fan_in), made a ``Stack`` as it is drawn, and frozen
    once every run is filled.
    """
    dims = {"D": params.dim_raw, "d": params.dim_comp, "x": params.bond_dim}
    rng = np.random.default_rng(seed)
    chunk = tensor._CHUNK
    stacks, runs = {}, []
    for group, lead, axes, fan_in, node_axes in geometry.draws:
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
        stacks[group] = Stack(arr, geometry.names[group], len(lead), node_axes)
    if runs:
        tensor._run_all(_fill, runs, fork=False)
    for stack in stacks.values():
        stack.array.setflags(write=False)
    return TensorNetwork(params, kind, geometry.bonds, stacks)


def _fill(rng: np.random.Generator, run: np.ndarray, scale: float) -> None:
    rng.standard_normal(out=run)
    run *= scale


def build_mps(params: NetworkParams, seed=0) -> TensorNetwork:
    """Chain of M*N sites, each with its compression matrix and data vector.

    All tensors are Gaussian with std 1/sqrt(fan-in), where fan-in is the
    product of the non-physical extents; values never affect cost counts.
    """
    return _draw(params, "mps", seed, _geometry("mps", params.sites, 1))


def build_comb(params: NetworkParams, seed=0) -> TensorNetwork:
    """Backbone of M tensors, a tooth of N tensors hanging from each.

    Tooth position 0 is adjacent to the backbone; position N-1 is the free
    end with shape [x, d]. Rejects M < 2: the boundary/interior split of the
    cost model presupposes two backbone ends.
    """
    return _draw(params, "comb", seed,
                 _geometry("comb", params.teeth, params.tooth_len))


def attach_data(net: TensorNetwork, data) -> TensorNetwork:
    """Return a copy of ``net`` with data vectors taken from the rows of ``data``.

    Rows follow site order: MPS left to right; comb tooth-major, backbone
    left to right and within a tooth from the backbone outward. Every value
    must be real and finite. ``data`` is copied once; that copy, frozen, is
    the data stack, and the data tensors are its rows. Only the data stack
    changes.
    """
    if np.iscomplexobj(data):
        raise ValueError("data matrix must be real, got complex values")
    matrix = np.array(data, dtype=np.float64, order="C", copy=True)
    expected = (len(net.data_sites), net.params.dim_raw)
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
    stack = net.stacks["data"]
    data_stack = replace(stack, array=matrix.reshape(stack.array.shape))
    return replace(net, stacks={**net.stacks, "data": data_stack})


def set_orthonormal_compressions(net: TensorNetwork, seed=0) -> TensorNetwork:
    """Replace every compression matrix with one having orthonormal columns.

    Stand-in for trained compressions; cost counting never depends on values.
    One ``normal`` draw of the whole compression stack, in row order, and
    one batched QR make the new stack: each matrix is the Q of its row's
    draw with every column's sign set so that R's diagonal is positive,
    which are the Gram-Schmidt columns of that draw. Only the compression
    stack changes.
    """
    stack = net.stacks["compressions"]
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=stack.array.shape))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q.setflags(write=False)
    return replace(net, stacks={**net.stacks, "compressions": replace(stack, array=q)})
