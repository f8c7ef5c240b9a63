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
axes run over its members; a node's array is a read-only view of one
member, in the node's axis order, made only when something reads the nodes
(the value oracle does). Stacks and their leading axes:
  MPS:   first-site [1], interior-sites [L-2], last-site [1],
         compressions [L], data [L]  (L = M*N sites, left to right)
  comb:  boundary-spines [2], interior-spines [M-2], interior-teeth [M, N-1],
         tooth-ends [M], compressions [M, N], data [M, N]
A stack with no members is left out. Every stack this module makes holds a
plain read-only ``np.ndarray`` that it made; ``TensorNetwork.nodes`` hands
the node views out as ``Node(Tensor(view))`` named tuples.

Names, bonds and node order depend only on the kind and (M, N), so each
build reads them from a small bounded memo and only draws, stack by stack in
the order each stack is stored. A stack of at most ``_CHUNK`` elements is
one call on the build's generator; a larger one is cut into runs of
``_CHUNK`` elements, each drawn from its own child stream, and the runs
are filled on a ``concurrent.futures`` thread pool of one worker per CPU,
imported only when a build needs it.
The values depend only on the seed and ``_CHUNK``, never on how many
workers fill them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

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
            if not isinstance(value, int) or value < 1:
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

    Every stack the builders, ``attach_data`` and
    ``set_orthonormal_compressions`` make holds a read-only array they
    made. A stack made by hand holds the array it is given, as numpy
    containers do: no copy, no check and no change to its flags."""

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
    dimensions are all in ``params``. Every node's tensor is a row of one
    of ``stacks``, and ``order`` names the nodes in the order the builder
    made them; a plan reads the stacks."""

    params: NetworkParams
    kind: str
    bonds: tuple[Bond, ...]
    stacks: dict[str, Stack]
    order: tuple[str, ...]

    @property
    def data_sites(self) -> tuple[str, ...]:
        """The data nodes in row order of ``attach_data``'s matrix."""
        return self.stacks["data"].names

    @functools.cached_property
    def nodes(self) -> dict[str, Node]:
        """Each node's view from ``_node_arrays`` as ``Node(Tensor(view))``,
        made when first read and kept. Nothing in
        combtn reads it: the value oracle reads ``_node_arrays``, and the
        benchmark in ``perfbench/`` reads this."""
        return {name: Node(Tensor(arr)) for name, arr in _node_arrays(self).items()}


def _node_arrays(net: TensorNetwork) -> dict[str, np.ndarray]:
    """Each stack row as a view in its node's axis order, read-only when
    its stack is, by name in ``net.order``; scoring, which reads only the
    stacks, makes none."""
    views = {}
    for stack in net.stacks.values():
        arr = stack.array
        rows = arr.reshape(len(stack.names), *arr.shape[stack.lead:])
        if stack.node_axes is not None:
            rows = rows.transpose(0, *(axis + 1 for axis in stack.node_axes))
        views.update(zip(stack.names, rows))
    return {name: views[name] for name in net.order}


@dataclass(frozen=True)
class _Layout:
    """What every build of one kind and (M, N) shares, whatever its extents
    and seed: each stack's member names, the bonds and the node order."""

    names: dict[str, tuple[str, ...]]
    bonds: tuple[Bond, ...]
    order: tuple[str, ...]


class _Recorder:
    """Records a layout: one ``add`` per tensor, in node order, each the
    next member of its stack, and one ``bond`` per edge."""

    def __init__(self) -> None:
        self._names: dict[str, list[str]] = {}
        self._order: list[str] = []
        self._bonds: list[Bond] = []

    def add(self, name: str, group: str) -> None:
        self._names.setdefault(group, []).append(name)
        self._order.append(name)

    def bond(self, node_a: str, axis_a: int, node_b: str, axis_b: int) -> None:
        self._bonds.append(Bond(node_a, axis_a, node_b, axis_b))

    def layout(self) -> _Layout:
        names = {group: tuple(members) for group, members in self._names.items()}
        return _Layout(names, tuple(self._bonds), tuple(self._order))


# The bound of every memo keyed by a network's kind and (M, N): the layouts
# here, and the plans and oracle schedules in ``engine``. The grid visits
# every tuple of one (M, N) in a row, so a few entries hit almost always,
# and the bound keeps a memo from holding all a long run has seen.
_MEMO = 4


# A stack of more elements than this is drawn in runs of this many, in C
# order, each from its own child stream of the build's generator, so the
# runs can be filled at once. 2**20 doubles are 8 MiB: a run takes about
# 20 ms, long against starting a thread. The values a seed gives depend on
# this constant, so changing it changes every large stack.
_CHUNK = 2**20


def _draw(params: NetworkParams, kind: str, seed, layout: _Layout,
          groups) -> TensorNetwork:
    """Draw every stack, in ``groups`` order, from one generator seeded once
    per build.

    ``groups`` gives each stack's name, leading extents, stored member
    shape, fan-in and ``node_axes`` (None when a member is stored in its
    node's axis order). A stack of at most ``_CHUNK`` elements is one
    ``standard_normal(lead + stored shape)`` call on the generator. A larger
    one is made with ``np.empty`` and cut into runs of ``_CHUNK`` elements
    in C order; run j is filled in place from the j-th of ``spawn(k)``
    child generators, which advances the generator itself not at all. Every
    stack is scaled in place by 1/sqrt(fan_in), so each tensor is Gaussian
    with std 1/sqrt(fan_in), and frozen once every run is filled. A stack
    with no members is left out and draws nothing.
    """
    rng = np.random.default_rng(seed)
    drawn, runs = [], []
    for group, lead, shape, fan_in, node_axes in groups:
        size = math.prod(lead + shape)
        if not size:
            continue
        scale = 1.0 / math.sqrt(fan_in)
        if size <= _CHUNK:
            arr = rng.standard_normal(lead + shape)
            arr *= scale
        else:
            arr = np.empty(lead + shape)
            flat = arr.reshape(-1)
            starts = range(0, size, _CHUNK)
            runs += [(child, flat[start:start + _CHUNK], scale)
                     for child, start in zip(rng.spawn(len(starts)), starts)]
        drawn.append((group, arr, len(lead), node_axes))
    if runs:
        _fill_all(runs)
    stacks = {}
    for group, arr, lead, node_axes in drawn:
        arr.setflags(write=False)
        stacks[group] = Stack(arr, layout.names[group], lead, node_axes)
    return TensorNetwork(params, kind, layout.bonds, stacks, layout.order)


def _fill(rng: np.random.Generator, run: np.ndarray, scale: float) -> None:
    rng.standard_normal(out=run)
    run *= scale


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_all(runs: list) -> None:
    """``_fill`` every (generator, run, scale) on a thread pool of one worker
    per CPU, at most one per run; numpy releases the GIL while it draws and
    scales. Leaving the pool joins every worker, and the first run whose
    fill raised raises its exception here, so no unfilled run becomes
    parameters."""
    # imported here: only a stack past _CHUNK needs it, and it loads logging
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(_cpus(), len(runs))) as pool:
        list(pool.map(_fill, *zip(*runs)))


def _add_physical_column(b: _Recorder, site: str, tag: str, phys_axis: int) -> None:
    # one compression matrix and one data vector per physical site
    b.add(f"u{tag}", "compressions")
    b.bond(site, phys_axis, f"u{tag}", 1)
    b.add(f"data{tag}", "data")
    b.bond(f"u{tag}", 0, f"data{tag}", 0)


@functools.lru_cache(maxsize=_MEMO)
def _mps_layout(length: int) -> _Layout:
    b = _Recorder()
    for i in range(length):
        if i == 0:
            group, phys_axis = "first-site", 0
        elif i == length - 1:
            group, phys_axis = "last-site", 1
        else:
            group, phys_axis = "interior-sites", 1
        b.add(f"site{i}", group)
        if i > 0:
            prev_right = 1 if i == 1 else 2
            b.bond(f"site{i - 1}", prev_right, f"site{i}", 0)
        _add_physical_column(b, f"site{i}", str(i), phys_axis)
    return b.layout()


def build_mps(params: NetworkParams, seed=0) -> TensorNetwork:
    """Chain of M*N sites, each with its compression matrix and data vector.

    All tensors are Gaussian with std 1/sqrt(fan-in), where fan-in is the
    product of the non-physical extents; values never affect cost counts.
    """
    length = params.sites
    if length < 2:
        raise ValueError(f"an MPS needs at least 2 sites, got {length}")
    big_d, d, x = params.dim_raw, params.dim_comp, params.bond_dim
    return _draw(params, "mps", seed, _mps_layout(length), [
        ("first-site", (1,), (d, x), x, None),
        ("compressions", (length,), (big_d, d), big_d, None),
        ("data", (length,), (big_d,), 1, None),
        ("interior-sites", (length - 2,), (d, x, x), x * x, (1, 0, 2)),
        ("last-site", (1,), (x, d), x, None),
    ])


@functools.lru_cache(maxsize=_MEMO)
def _comb_layout(m_count: int, n_count: int) -> _Layout:
    b = _Recorder()
    for m in range(m_count):
        if m in (0, m_count - 1):
            group, down_axis = "boundary-spines", 1
        else:
            group, down_axis = "interior-spines", 2
        b.add(f"spine{m}", group)
        if m > 0:
            prev_right = 0 if m == 1 else 1
            b.bond(f"spine{m - 1}", prev_right, f"spine{m}", 0)
        for n in range(n_count):
            tag = f"{m}.{n}"
            if n == n_count - 1:
                b.add(f"tooth{tag}", "tooth-ends")
            else:
                b.add(f"tooth{tag}", "interior-teeth")
            if n == 0:
                b.bond(f"spine{m}", down_axis, f"tooth{tag}", 0)
            else:
                b.bond(f"tooth{m}.{n - 1}", 2, f"tooth{tag}", 0)
            _add_physical_column(b, f"tooth{tag}", tag, 1)
    return b.layout()


def build_comb(params: NetworkParams, seed=0) -> TensorNetwork:
    """Backbone of M tensors, a tooth of N tensors hanging from each.

    Tooth position 0 is adjacent to the backbone; position N-1 is the free
    end with shape [x, d]. Rejects M < 2: the boundary/interior split of the
    cost model presupposes two backbone ends.
    """
    m_count, n_count = params.teeth, params.tooth_len
    big_d, d, x = params.dim_raw, params.dim_comp, params.bond_dim
    return _draw(params, "comb", seed, _comb_layout(m_count, n_count), [
        ("boundary-spines", (2,), (x, x), x * x, None),
        ("interior-teeth", (m_count, n_count - 1), (d, x, x), x * x, (1, 0, 2)),
        ("tooth-ends", (m_count,), (x, d), x, None),
        ("compressions", (m_count, n_count), (big_d, d), big_d, None),
        ("data", (m_count, n_count), (big_d,), 1, None),
        ("interior-spines", (m_count - 2,), (x, x, x), x ** 3, (1, 2, 0)),
    ])


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
    matrix.flags.writeable = False
    stack = net.stacks["data"]
    stacks = dict(net.stacks)
    stacks["data"] = Stack(matrix.reshape(stack.array.shape),
                           stack.names, stack.lead)
    return replace(net, stacks=stacks)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # QR of a Gaussian draw; the sign fix makes diag(r) positive, so the
    # columns are the Gram-Schmidt ones of the same draw
    q, r = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q * np.sign(np.diag(r))


def set_orthonormal_compressions(net: TensorNetwork, seed=0) -> TensorNetwork:
    """Replace every compression matrix with one having orthonormal columns.

    Stand-in for trained compressions; cost counting never depends on values.
    One draw per row of the compression stack, in row order, fills a new
    stack; only the compression stack changes.
    """
    rng = np.random.default_rng(seed)
    d_raw, d_comp = net.params.dim_raw, net.params.dim_comp
    stack = net.stacks["compressions"]
    arr = np.empty(stack.array.shape)
    for row in arr.reshape(-1, d_raw, d_comp):
        row[...] = _orthonormal_columns(rng, d_raw, d_comp)
    arr.setflags(write=False)
    compressions = Stack(arr, stack.names, stack.lead)
    return replace(net, stacks={**net.stacks, "compressions": compressions})
