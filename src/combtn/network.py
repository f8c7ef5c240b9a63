"""Builders for the two supported network geometries.

An MPS network is a single chain of M*N site tensors. A comb network is a
backbone chain of M tensors, each carrying a vertical tooth of N tensors;
only tooth tensors have physical legs. In both geometries every physical
site reads one data vector of length dim_raw through its own compression
matrix of shape [dim_raw, dim_comp].

Axis conventions (fixed so plans and bonds agree):
  MPS sites:        left boundary [d, x], interior [x_left, d, x_right],
                    right boundary [x, d]
  backbone:         boundary [x_horizontal, x_down], interior [x_left, x_right, x_down]
  tooth tensors:    interior [x_up, d, x_down], end (farthest) [x_up, d]
  compression:      [D, d];  data: [D]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .tensor import Tensor, _owned, random_tensor


class NodeRole(Enum):
    SITE_BOUNDARY = "site-boundary"
    SITE_INTERIOR = "site-interior"
    BACKBONE_BOUNDARY = "backbone-boundary"
    BACKBONE_INTERIOR = "backbone-interior"
    TOOTH_END = "tooth-end"
    TOOTH_INTERIOR = "tooth-interior"
    COMPRESSION = "compression"
    DATA = "data"


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


@dataclass(frozen=True)
class MpsGeometry:
    length: int


@dataclass(frozen=True)
class CombGeometry:
    teeth: int
    tooth_len: int


Geometry = Union[MpsGeometry, CombGeometry]


@dataclass(frozen=True)
class Node:
    name: str
    role: NodeRole
    tensor: Tensor


@dataclass(frozen=True)
class Bond:
    """Edge joining axis ``axis_a`` of ``node_a`` to axis ``axis_b`` of ``node_b``.

    ``index`` is assigned in construction order and defines the contraction
    order used by the value oracle.
    """

    index: int
    node_a: str
    axis_a: int
    node_b: str
    axis_b: int
    dim: int


@dataclass(frozen=True)
class TensorNetwork:
    params: NetworkParams
    geometry: Geometry
    nodes: dict[str, Node]
    bonds: tuple[Bond, ...]
    data_sites: tuple[str, ...]

    @property
    def kind(self) -> str:
        return "mps" if isinstance(self.geometry, MpsGeometry) else "comb"


class _Builder:
    """Accumulates nodes and bonds; every tensor is drawn, in order of
    ``add`` calls, from one generator seeded once per build."""

    def __init__(self, seed) -> None:
        self._rng = np.random.default_rng(seed)
        self.nodes: dict[str, Node] = {}
        self.bonds: list[Bond] = []

    def add(self, name: str, role: NodeRole, shape: Sequence[int], fan_in: int) -> None:
        tensor = random_tensor(shape, self._rng, std=1.0 / math.sqrt(fan_in))
        self.nodes[name] = Node(name, role, tensor)

    def bond(self, node_a: str, axis_a: int, node_b: str, axis_b: int, dim: int) -> None:
        self.bonds.append(Bond(len(self.bonds), node_a, axis_a, node_b, axis_b, dim))


def _add_physical_column(b: _Builder, site: str, tag: str, phys_axis: int,
                         dim_raw: int, dim_comp: int) -> None:
    # one compression matrix and one data vector per physical site
    b.add(f"u{tag}", NodeRole.COMPRESSION, (dim_raw, dim_comp), fan_in=dim_raw)
    b.bond(site, phys_axis, f"u{tag}", 1, dim_comp)
    b.add(f"data{tag}", NodeRole.DATA, (dim_raw,), fan_in=1)
    b.bond(f"u{tag}", 0, f"data{tag}", 0, dim_raw)


def build_mps(params: NetworkParams, seed=0) -> TensorNetwork:
    """Chain of M*N sites, each with its compression matrix and data vector.

    All tensors are Gaussian with std 1/sqrt(fan-in), where fan-in is the
    product of the non-physical extents; values never affect cost counts.
    """
    length = params.sites
    if length < 2:
        raise ValueError(f"an MPS needs at least 2 sites, got {length}")
    d, x = params.dim_comp, params.bond_dim
    b = _Builder(seed)
    for i in range(length):
        if i == 0:
            shape, phys_axis, role = (d, x), 0, NodeRole.SITE_BOUNDARY
        elif i == length - 1:
            shape, phys_axis, role = (x, d), 1, NodeRole.SITE_BOUNDARY
        else:
            shape, phys_axis, role = (x, d, x), 1, NodeRole.SITE_INTERIOR
        b.add(f"site{i}", role, shape, fan_in=x ** (len(shape) - 1))
        if i > 0:
            prev_right = 1 if i == 1 else 2
            b.bond(f"site{i - 1}", prev_right, f"site{i}", 0, x)
        _add_physical_column(b, f"site{i}", str(i), phys_axis,
                             params.dim_raw, params.dim_comp)
    data_sites = tuple(f"data{i}" for i in range(length))
    return TensorNetwork(params, MpsGeometry(length), b.nodes, tuple(b.bonds), data_sites)


def build_comb(params: NetworkParams, seed=0) -> TensorNetwork:
    """Backbone of M tensors, a tooth of N tensors hanging from each.

    Tooth position 0 is adjacent to the backbone; position N-1 is the free
    end with shape [x, d]. Rejects M < 2: the boundary/interior split of the
    cost model presupposes two backbone ends.
    """
    m_count, n_count = params.teeth, params.tooth_len
    d, x = params.dim_comp, params.bond_dim
    b = _Builder(seed)
    for m in range(m_count):
        boundary = m in (0, m_count - 1)
        if boundary:
            shape, role, down_axis = (x, x), NodeRole.BACKBONE_BOUNDARY, 1
        else:
            shape, role, down_axis = (x, x, x), NodeRole.BACKBONE_INTERIOR, 2
        b.add(f"spine{m}", role, shape, fan_in=x ** len(shape))
        if m > 0:
            prev_right = 0 if m == 1 else 1
            b.bond(f"spine{m - 1}", prev_right, f"spine{m}", 0, x)
        for n in range(n_count):
            tag = f"{m}.{n}"
            if n == n_count - 1:
                shape, role = (x, d), NodeRole.TOOTH_END
            else:
                shape, role = (x, d, x), NodeRole.TOOTH_INTERIOR
            b.add(f"tooth{tag}", role, shape, fan_in=x ** (len(shape) - 1))
            if n == 0:
                b.bond(f"spine{m}", down_axis, f"tooth{tag}", 0, x)
            else:
                b.bond(f"tooth{m}.{n - 1}", 2, f"tooth{tag}", 0, x)
            _add_physical_column(b, f"tooth{tag}", tag, 1,
                                 params.dim_raw, params.dim_comp)
    data_sites = tuple(
        f"data{m}.{n}" for m in range(m_count) for n in range(n_count)
    )
    return TensorNetwork(params, CombGeometry(m_count, n_count),
                         b.nodes, tuple(b.bonds), data_sites)


def _with_tensors(net: TensorNetwork, updates: dict[str, Tensor]) -> TensorNetwork:
    nodes = dict(net.nodes)
    for name, tensor in updates.items():
        nodes[name] = replace(nodes[name], tensor=tensor)
    return replace(net, nodes=nodes)


def attach_data(net: TensorNetwork, data) -> TensorNetwork:
    """Return a copy of ``net`` with data vectors taken from the rows of ``data``.

    Rows follow site order: MPS left to right; comb tooth-major, backbone
    left to right and within a tooth from the backbone outward. Every value
    must be finite. ``data`` is copied once; the data tensors are read-only
    rows of that copy.
    """
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
    updates = {
        name: _owned(matrix[row]) for row, name in enumerate(net.data_sites)
    }
    return _with_tensors(net, updates)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # modified Gram-Schmidt, two passes for orthogonality well below 1e-10
    g = rng.normal(size=(rows, cols))
    q = np.empty_like(g)
    for j in range(cols):
        v = g[:, j].copy()
        for _ in range(2):
            for k in range(j):
                v -= (q[:, k] @ v) * q[:, k]
        q[:, j] = v / np.linalg.norm(v)
    return q


def set_orthonormal_compressions(net: TensorNetwork, seed=0) -> TensorNetwork:
    """Replace every compression matrix with one having orthonormal columns.

    Stand-in for trained compressions; cost counting never depends on values.
    """
    rng = np.random.default_rng(seed)
    d_raw, d_comp = net.params.dim_raw, net.params.dim_comp
    updates = {
        name: Tensor(_orthonormal_columns(rng, d_raw, d_comp))
        for name, node in net.nodes.items()
        if node.role is NodeRole.COMPRESSION
    }
    return _with_tensors(net, updates)
