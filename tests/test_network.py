import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from combtn import engine, network, tensor
from combtn.engine import execute, naive_value_oracle, plan_for
from combtn.network import (
    NetworkParams,
    attach_data,
    build_comb,
    build_mps,
    set_orthonormal_compressions,
)
from combtn.verification import grid_params
from pools import nothing_left_but_the_pool, recording_shares, running


def small_params(**overrides) -> NetworkParams:
    base = dict(dim_raw=3, dim_comp=2, bond_dim=2, teeth=2, tooth_len=2)
    base.update(overrides)
    return NetworkParams(**base)


def audit_bonds(net) -> None:
    # every axis of every node is joined exactly once, to an axis of equal extent
    joined = []
    for bond in net.bonds:
        shape_a = net.nodes[bond.node_a].tensor.shape
        shape_b = net.nodes[bond.node_b].tensor.shape
        assert shape_a[bond.axis_a] == shape_b[bond.axis_b]
        joined += [(bond.node_a, bond.axis_a), (bond.node_b, bond.axis_b)]
    axes = [(name, axis) for name, node in net.nodes.items()
            for axis in range(len(node.tensor.shape))]
    assert sorted(joined) == sorted(axes)


def build_order(net) -> list[str]:
    """A built network's nodes in the order its build added them: the
    first bond's ``node_a``, then every bond's ``node_b``, since each bond
    of a build adds the node at its ``node_b`` end."""
    return [net.bonds[0].node_a, *(bond.node_b for bond in net.bonds)]


class TestParams:
    def test_rejects_compressed_larger_than_raw(self):
        with pytest.raises(ValueError, match="must not exceed raw"):
            NetworkParams(dim_raw=2, dim_comp=3, bond_dim=1, teeth=2, tooth_len=1)

    def test_rejects_single_tooth_backbone(self):
        with pytest.raises(ValueError, match="teeth"):
            NetworkParams(dim_raw=2, dim_comp=2, bond_dim=1, teeth=1, tooth_len=3)

    @pytest.mark.parametrize("field", ["dim_raw", "dim_comp", "bond_dim", "tooth_len"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            small_params(**{field: 0})

    @pytest.mark.parametrize("value", [True, False, 2.0, np.int64(2)], ids=repr)
    @pytest.mark.parametrize("field", ["dim_raw", "dim_comp", "bond_dim", "teeth",
                                       "tooth_len"])
    def test_rejects_an_extent_that_is_not_an_int(self, field, value):
        # a bool is an int subclass, yet bond_dim=True is no extent
        message = f"{field} must be a positive integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_params(**{field: value})


class TestBuildMps:
    def test_smallest_chain(self):
        net = build_mps(small_params(tooth_len=1), seed=0)
        assert net.nodes["site0"].tensor.shape == (2, 2)
        assert net.nodes["site1"].tensor.shape == (2, 2)
        assert set(net.nodes) == {"site0", "u0", "data0", "site1", "u1", "data1"}
        assert build_order(net) == ["site0", "u0", "data0", "site1", "u1", "data1"]
        assert all(net.nodes[f"u{i}"].tensor.shape == (3, 2) for i in range(2))
        assert all(net.nodes[f"data{i}"].tensor.shape == (3,) for i in range(2))

    def test_node_and_bond_counts(self):
        p = small_params(teeth=3, tooth_len=2)  # L = 6
        net = build_mps(p, seed=0)
        length = p.sites
        assert len(net.nodes) == 3 * length
        assert len(net.bonds) == (length - 1) + length + length
        audit_bonds(net)

    def test_reference_scale_shapes(self):
        p = NetworkParams(dim_raw=100, dim_comp=30, bond_dim=10, teeth=50, tooth_len=5)
        net = build_mps(p, seed=0)
        sites = [n for name, n in net.nodes.items() if name.startswith("site")]
        assert len(sites) == 250
        assert sites[0].tensor.shape == (30, 10)
        assert sites[-1].tensor.shape == (10, 30)
        interior = [n for n in sites if n.tensor.shape == (10, 30, 10)]
        assert len(interior) == 248

    def test_deterministic(self):
        p = small_params(teeth=3, tooth_len=1)
        a = build_mps(p, seed=9)
        b = build_mps(p, seed=9)
        assert list(a.nodes) == list(b.nodes)
        for name in a.nodes:
            assert np.array_equal(a.nodes[name].tensor.array, b.nodes[name].tensor.array)

    def test_seed_changes_values(self):
        p = small_params(teeth=3, tooth_len=1)
        a = build_mps(p, seed=1)
        b = build_mps(p, seed=2)
        assert not np.array_equal(a.nodes["site0"].tensor.array, b.nodes["site0"].tensor.array)


class TestBuildComb:
    def test_smallest_comb(self):
        net = build_comb(small_params(), seed=0)
        assert net.nodes["spine0"].tensor.shape == (2, 2)
        assert net.nodes["spine1"].tensor.shape == (2, 2)
        for m in range(2):
            assert net.nodes[f"tooth{m}.0"].tensor.shape == (2, 2, 2)
            assert net.nodes[f"tooth{m}.1"].tensor.shape == (2, 2)  # the tooth end
        compressions = [name for name in net.nodes if name.startswith("u")]
        assert compressions == ["u0.0", "u0.1", "u1.0", "u1.1"]
        assert all(net.nodes[name].tensor.shape == (3, 2) for name in compressions)
        assert [name for name in net.nodes if name.startswith("data")] == list(net.data_sites)

    def test_node_and_bond_counts(self):
        p = small_params(teeth=4, tooth_len=3)
        net = build_comb(p, seed=0)
        m, sites = p.teeth, p.sites
        assert len(net.nodes) == m + 3 * sites
        assert len(net.bonds) == (m - 1) + 3 * sites
        audit_bonds(net)

    def test_reference_scale_shapes(self):
        p = NetworkParams(dim_raw=100, dim_comp=30, bond_dim=10, teeth=50, tooth_len=5)
        net = build_comb(p, seed=0)
        spine = [n for name, n in net.nodes.items() if name.startswith("spine")]
        assert len(spine) == 50
        assert sum(n.tensor.shape == (10, 10, 10) for n in spine) == 48
        teeth = [n for name, n in net.nodes.items() if name.startswith("tooth")]
        assert len(teeth) == 250
        for m in range(50):
            assert net.nodes[f"tooth{m}.4"].tensor.shape == (10, 30)

    def test_single_site_teeth(self):
        net = build_comb(small_params(tooth_len=1), seed=0)
        for m in range(2):
            # the only tooth tensor is also the tooth end
            assert net.nodes[f"tooth{m}.0"].tensor.shape == (2, 2)
            assert f"tooth{m}.1" not in net.nodes

    def test_site_count_matches_mps(self):
        p = small_params(teeth=3, tooth_len=2)
        comb = build_comb(p, seed=0)
        mps = build_mps(p, seed=0)
        assert len(comb.data_sites) == len(mps.data_sites) == p.sites

    def test_deterministic(self):
        p = small_params(teeth=3, tooth_len=2)
        a = build_comb(p, seed=4)
        b = build_comb(p, seed=4)
        for name in a.nodes:
            assert np.array_equal(a.nodes[name].tensor.array, b.nodes[name].tensor.array)

    def test_seed_changes_values(self):
        p = small_params(teeth=3, tooth_len=2)
        a = build_comb(p, seed=1)
        b = build_comb(p, seed=2)
        for name in ("spine0", "tooth1.0", "u2.1"):
            assert not np.array_equal(a.nodes[name].tensor.array, b.nodes[name].tensor.array)


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_tensors_of_one_build_are_distinct(build):
    # one stream per build: two same-shaped tensors never repeat a draw
    net = build(small_params(teeth=3, tooth_len=2), seed=7)
    compressions = [n.tensor.array for name, n in net.nodes.items() if name.startswith("u")]
    assert len(compressions) == 6
    for i, first in enumerate(compressions):
        for second in compressions[i + 1:]:
            assert not np.array_equal(first, second)


# sha256 over every node's name and tensor bytes, in build order, of the
# networks in ``test_draw_policy_is_pinned``; a change here changes every
# scalar a seed gives, so it must be deliberate and noted in the README
DRAW_DIGEST = "c72c00b65a9c497e50d18346665390603fcb2a5fe76c9b3d9d5ddd150846eba6"


def test_draw_policy_is_pinned():
    nets = [build(p, seed=42) for p in grid_params("small")
            for build in (build_mps, build_comb)]
    p = NetworkParams(dim_raw=6, dim_comp=3, bond_dim=4, teeth=5, tooth_len=3)
    nets += [set_orthonormal_compressions(build(p, seed=42), seed=42)
             for build in (build_mps, build_comb)]
    digest = hashlib.sha256()
    tensors = elements = 0
    for net in nets:
        nodes = net.nodes
        for name in build_order(net):
            node = nodes[name]
            digest.update(name.encode())
            digest.update(node.tensor.array.tobytes())
            tensors += 1
            elements += node.tensor.size
    assert (tensors, elements) == (7115, 39428)
    assert digest.hexdigest() == DRAW_DIGEST


def _stacks_in_draw_order(kind: str, p: NetworkParams):
    """Each stack a build of ``kind`` draws, in the order it draws them, as
    (name, leading extents, stored member shape, fan-in)."""
    big_d, d, x, m, n = p.dim_raw, p.dim_comp, p.bond_dim, p.teeth, p.tooth_len
    if kind == "mps":
        length = m * n
        return [("first-site", (1,), (d, x), x),
                ("compressions", (length,), (big_d, d), big_d),
                ("data", (length,), (big_d,), 1),
                ("interior-sites", (length - 2,), (d, x, x), x * x),
                ("last-site", (1,), (x, d), x)]
    return [("boundary-spines", (2,), (x, x), x * x),
            ("interior-teeth", (m, n - 1), (d, x, x), x * x),
            ("tooth-ends", (m,), (x, d), x),
            ("compressions", (m, n), (big_d, d), big_d),
            ("data", (m, n), (big_d,), 1),
            ("interior-spines", (m - 2,), (x, x, x), x ** 3)]


def _stack_by_definition(rng, lead, shape, fan_in, chunk) -> tuple[np.ndarray, bool]:
    """A stack as the draw policy defines it, and whether it was chunked:
    at most ``chunk`` elements are one standard_normal call on ``rng``;
    more are runs of ``chunk`` elements in C order, run j drawn from the
    j-th of ``rng.spawn(k)``; then times 1/sqrt(fan-in)."""
    size = math.prod(lead + shape)
    if size <= chunk:
        values = rng.standard_normal(lead + shape)
    else:
        starts = range(0, size, chunk)
        values = np.concatenate([child.standard_normal(min(chunk, size - start))
                                 for child, start in zip(rng.spawn(len(starts)), starts)])
    return values.reshape(lead + shape) * (1 / math.sqrt(fan_in)), size > chunk


def _check_small_grid_by_definition(as_generator: bool) -> int:
    """Rebuild every small-grid stack of both kinds by the definition, byte
    for byte, at the current ``tensor._CHUNK``; return how many stacks
    were chunked."""
    left_out = chunked = 0
    for idx, p in enumerate(grid_params("small")):
        for build in (build_mps, build_comb):
            seed = 42 + idx
            given = np.random.default_rng(seed) if as_generator else seed
            net = build(p, seed=given)
            rng = np.random.default_rng(seed)
            drawn = []
            for group, lead, shape, fan_in in _stacks_in_draw_order(net.kind, p):
                if not math.prod(lead):
                    assert group not in net.arrays
                    left_out += 1
                    continue
                expected, was_chunked = _stack_by_definition(rng, lead, shape, fan_in,
                                                             tensor._CHUNK)
                chunked += was_chunked
                arr = net.arrays[group]
                assert arr.shape == expected.shape, group
                assert arr.tobytes() == expected.tobytes(), (group, p)
                drawn.append(group)
            assert list(net.arrays) == drawn
            if as_generator:
                # the caller's generator is advanced by exactly the serial
                # draws, and has spawned exactly the chunks' streams
                assert given.bit_generator.state == rng.bit_generator.state
                assert given.bit_generator.seed_seq.n_children_spawned \
                    == rng.bit_generator.seed_seq.n_children_spawned
    # M=2 leaves out the interior spines, N=1 the interior teeth, and an
    # MPS of two sites its interior sites
    assert left_out == 54 + 54 + 18
    return chunked


@pytest.mark.parametrize("as_generator", [False, True])
def test_each_stack_is_one_scaled_draw_in_stored_order(as_generator):
    # the draw policy by its definition: one standard_normal call per stack,
    # of its leading extents and stored member shape, in the builder's
    # order, times 1/sqrt(fan-in); a stack with no members draws nothing;
    # no small-grid stack reaches the chunk size
    assert _check_small_grid_by_definition(as_generator) == 0


@pytest.mark.parametrize("as_generator", [False, True])
def test_large_stacks_are_drawn_in_chunks(as_generator, monkeypatch):
    monkeypatch.setattr(tensor, "_CHUNK", 64)
    assert _check_small_grid_by_definition(as_generator) == 132


# sha256 over every node's name and tensor bytes, in build order, of every
# small-grid network of both kinds (build seed 42) drawn with a chunk of 64
# elements, so most of them hold chunked stacks
CHUNKED_DRAW_DIGEST = "c9b4153f889b944975ad481b60c2864607a667f64f8d7b1ab07816eef3b664b5"


def test_chunked_draw_is_pinned(monkeypatch):
    monkeypatch.setattr(tensor, "_CHUNK", 64)
    digest = hashlib.sha256()
    for p in grid_params("small"):
        for build in (build_mps, build_comb):
            net = build(p, seed=42)
            nodes = net.nodes
            for name in build_order(net):
                digest.update(name.encode())
                digest.update(nodes[name].tensor.array.tobytes())
    assert digest.hexdigest() == CHUNKED_DRAW_DIGEST


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_chunked_bytes_do_not_depend_on_the_thread_count(build, monkeypatch):
    # more workers than this host may have CPUs, each switching often
    monkeypatch.setattr(tensor, "_CHUNK", 64)
    p = small_params(dim_raw=5, dim_comp=3, bond_dim=4, teeth=5, tooth_len=3)
    threads, fill = [], network._fill

    def recorded(rng, run, scale):
        threads.append(threading.current_thread())
        fill(rng, run, scale)

    monkeypatch.setattr(network, "_fill", recorded)
    built = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 3):
            monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
            threads.clear()
            before = running()
            built[cpus] = build(p, seed=3)
            assert nothing_left_but_the_pool(before)
            assert len(threads) >= 3
            # the calling thread fills its share, every cpus-th run, and
            # the pool the others
            share = len(range(0, len(threads), cpus))
            assert threads.count(threading.current_thread()) == share
    finally:
        sys.setswitchinterval(interval)
    for name, node in built[1].nodes.items():
        assert node.tensor.array.tobytes() == built[3].nodes[name].tensor.array.tobytes()


@pytest.mark.parametrize("cpus, chunk", [(1, 64), (3, 64), (3, 256)])
def test_one_worker_per_cpu_at_most_one_per_run(cpus, chunk, monkeypatch):
    # one share of the runs per CPU, at most one per run: the calling
    # thread fills one and a thread of the pool each other; with one CPU
    # the caller fills them all. At a chunk of 256 only the comb's 480
    # interior-tooth elements are cut, into 2 runs, fewer than the CPUs
    monkeypatch.setattr(tensor, "_CHUNK", chunk)
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    shares = recording_shares(monkeypatch)
    net = build_comb(small_params(dim_raw=5, dim_comp=3, bond_dim=4, teeth=5,
                                  tooth_len=3), seed=3)
    runs = sum(math.ceil(arr.size / chunk) for arr in net.arrays.values() if arr.size > chunk)
    assert shares == [min(cpus, runs)]
    assert runs == {64: 17, 256: 2}[chunk]


def test_importing_the_cli_loads_no_thread_pool():
    # only a build with a stack past _CHUNK needs the pool, and
    # concurrent.futures loads logging with it; nor does the import load
    # multiprocessing, which only verify's pool of processes needs
    probe = ("import sys, combtn.cli; print(sorted("
             "{'concurrent.futures', 'logging', 'multiprocessing'} & set(sys.modules)))")
    src = str(Path(network.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_failed_fill_fails_the_build(cpus, monkeypatch):
    monkeypatch.setattr(tensor, "_CHUNK", 64)
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    calls, fill = itertools.count(), network._fill

    def fails_once(rng, run, scale):
        if next(calls) == 2:
            raise RuntimeError("fill 2 failed")
        fill(rng, run, scale)

    monkeypatch.setattr(network, "_fill", fails_once)
    before = running()
    with pytest.raises(RuntimeError, match="fill 2 failed"):
        build_comb(small_params(dim_raw=5, dim_comp=3, bond_dim=4, teeth=5,
                                tooth_len=3), seed=3)
    assert next(calls) >= 3
    assert nothing_left_but_the_pool(before)


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_each_stack_has_std_one_over_root_fan_in(build):
    # every stack holds at least 2400 draws, so a 5% band is over 3 standard
    # errors of the sample std wide
    p = NetworkParams(dim_raw=400, dim_comp=50, bond_dim=50, teeth=3, tooth_len=2)
    net = build(p, seed=9)
    groups = _stacks_in_draw_order(net.kind, p)
    assert list(net.arrays) == [group for group, *_ in groups]
    for group, lead, shape, fan_in in groups:
        arr = net.arrays[group]
        assert arr.size >= 2400
        assert float(np.std(arr)) * math.sqrt(fan_in) == pytest.approx(1.0, abs=0.05), group


# sha256 over every node's name and shape, in build order, and every bond,
# of each small-grid network of both kinds: the graph a build gives, which
# does not depend on the draws or on how a stack lays out its members
GRAPH_DIGEST = "60d20e49f6ad5edb12842eb9ebb4f579cc96e45c434acc0026d84f6eda5198d2"


def test_graph_is_pinned():
    digest = hashlib.sha256()
    for p in grid_params("small"):
        for build in (build_mps, build_comb):
            net = build(p, seed=0)
            digest.update(f"{net.kind} {p}".encode())
            nodes = net.nodes
            for name in build_order(net):
                digest.update(f" {name}{nodes[name].tensor.shape}".encode())
            for bond in net.bonds:
                digest.update(f" {bond.node_a}.{bond.axis_a}-"
                              f"{bond.node_b}.{bond.axis_b}".encode())
    assert digest.hexdigest() == GRAPH_DIGEST


def test_bonds_list_the_nodes_in_build_order():
    # the structural digests above hash the nodes in this order
    for p in grid_params("small"):
        for build in (build_mps, build_comb):
            net = build(p, seed=0)
            m, n = (p.sites, 1) if net.kind == "mps" else (p.teeth, p.tooth_len)
            assert build_order(net) == list(network._geometry(net.kind, m, n).names)
            assert sorted(build_order(net)) == sorted(net.nodes)


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_build_tensors_are_read_only_and_separate(build):
    net = build(small_params(teeth=3, tooth_len=2), seed=5)
    arrays = [node.tensor.array for node in net.nodes.values()]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    for i, first in enumerate(arrays):
        for second in arrays[i + 1:]:
            assert not np.shares_memory(first, second)


def _members(net, group: str) -> list[str]:
    """The names of the stack's members, in row order."""
    return [name for name, stack in zip(net.geometry.names, net.geometry.stacks)
            if stack == group]


def _draw_of(net, group: str) -> tuple:
    """The stack's draw: (name, leading extents, letters, fan-in, node_axes)."""
    return next(draw for draw in net.geometry.draws if draw[0] == group)


def _rows(net, group: str) -> np.ndarray:
    """The stack's members, one per row, as stored."""
    arr, lead = net.arrays[group], _draw_of(net, group)[1]
    return arr.reshape(len(_members(net, group)), *arr.shape[len(lead):])


def _as_node(net, group: str, row: np.ndarray) -> np.ndarray:
    """A stored member with its axes permuted back to its node's order."""
    node_axes = _draw_of(net, group)[4]
    return row if node_axes is None else row.transpose(node_axes)


@pytest.mark.parametrize("group, build", [("interior-sites", build_mps),
                                          ("interior-teeth", build_comb),
                                          ("interior-spines", build_comb)])
def test_interior_stacks_store_the_summed_axis_first(group, build):
    # a plan's first step on an interior stack sums one node axis: an
    # absorb the physical axis, node axis 1, the spine entry the downward
    # axis, node axis 2, whose partner is a tooth; the stack keeps it right
    # after the leading axes, the others in order; distinct extents, so a
    # wrong order of d and x cannot pass
    axis, partner = (2, "tooth") if group == "interior-spines" else (1, "u")
    p = NetworkParams(dim_raw=5, dim_comp=3, bond_dim=2, teeth=4, tooth_len=3)
    net = build(p, seed=6)
    partners = {}
    for bond in net.bonds:
        partners[bond.node_a, bond.axis_a] = bond.node_b
        partners[bond.node_b, bond.axis_b] = bond.node_a
    arr, names = net.arrays[group], _members(net, group)
    shape = net.nodes[names[0]].tensor.shape
    assert arr.shape[len(_draw_of(net, group)[1]):] == \
        (shape[axis], *(e for i, e in enumerate(shape) if i != axis))
    assert arr.flags.c_contiguous and not arr.flags.writeable
    for name, row in zip(names, _rows(net, group)):
        node = net.nodes[name].tensor.array
        assert partners[name, axis].startswith(partner)
        assert np.shares_memory(node, row) and not node.flags.writeable
        assert np.array_equal(np.moveaxis(node, axis, 0), row), name


@pytest.mark.parametrize("build", [build_mps, build_comb])
@pytest.mark.parametrize("mutate", ["built", "data", "orthonormal"])
def test_every_node_is_a_read_only_view_of_a_read_only_stack(build, mutate):
    p = small_params(teeth=4, tooth_len=3)
    net = build(p, seed=5)
    if mutate == "data":
        net = attach_data(net, np.ones((p.sites, p.dim_raw)))
    elif mutate == "orthonormal":
        net = set_orthonormal_compressions(net, seed=5)
    owners = {}
    for group, arr in net.arrays.items():
        owner = arr if arr.base is None else arr.base
        names = _members(net, group)
        assert not arr.flags.writeable and not owner.flags.writeable
        assert arr.shape[-1] > 0 and math.prod(arr.shape) == \
            len(names) * net.nodes[names[0]].tensor.size
        for name, row in zip(names, _rows(net, group)):
            node = net.nodes[name].tensor.array
            assert node.base is owner and not node.flags.writeable, name
            assert np.shares_memory(node, row)
            assert np.array_equal(node, _as_node(net, group, row))
            owners[name] = group
    # every node is in exactly one stack, and the stacks of a build are
    # the groups of its kind
    assert sorted(owners) == sorted(net.nodes)
    groups = {"mps": {"first-site", "interior-sites", "last-site", "compressions", "data"},
              "comb": {"boundary-spines", "interior-spines", "interior-teeth",
                       "tooth-ends", "compressions", "data"}}
    assert set(net.arrays) == groups[net.kind]


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_node_views_are_made_on_first_read(build, monkeypatch):
    p = small_params(teeth=3, tooth_len=2)
    net = build(p, seed=4)
    data = np.arange(p.sites * p.dim_raw, dtype=float).reshape(p.sites, p.dim_raw)
    scored = attach_data(net, data)
    reads = []
    node_arrays = network._node_arrays
    monkeypatch.setattr(network, "_node_arrays",
                        lambda n: reads.append(n) or node_arrays(n))
    execute(scored, plan_for(scored))
    # scoring reads the stacks alone, so it makes no view
    assert reads == []
    first, second = scored.nodes, scored.nodes
    # each read makes the views anew, and the network keeps none
    assert reads == [scored, scored] and first is not second
    assert "nodes" not in vars(scored) and "nodes" not in vars(net)
    # in node order, each a read-only row of its stack in its node's axes
    assert list(first) == list(second) == list(net.geometry.names)
    for group in scored.arrays:
        for name, row in zip(_members(scored, group), _rows(scored, group)):
            for nodes in (first, second):
                view = nodes[name].tensor.array
                assert not view.flags.writeable and np.shares_memory(view, row)
                assert np.array_equal(view, _as_node(scored, group, row))
    assert [first[name].tensor.array.tolist() for name in net.data_sites] == \
        data.tolist()


def test_stacks_without_members_are_left_out():
    mps = build_mps(small_params(tooth_len=1), seed=0)
    assert "interior-sites" not in mps.arrays
    comb = build_comb(small_params(teeth=2, tooth_len=1), seed=0)
    assert not {"interior-spines", "interior-teeth"} & set(comb.arrays)
    # nor in the geometry a plan and the oracle read
    for net in (mps, comb):
        assert [name for name, *_ in net.geometry.draws] == list(net.arrays)


def test_replacing_a_tensor_restacks_only_its_group():
    # orthonormal compressions restack only the compressions; every other
    # stack is shared
    net = build_comb(small_params(teeth=3, tooth_len=2), seed=1)
    ortho = set_orthonormal_compressions(net, seed=2)
    for group, arr in net.arrays.items():
        assert (ortho.arrays[group] is arr) == (group != "compressions")
    before, after = net.arrays["compressions"], ortho.arrays["compressions"]
    assert ortho.geometry is net.geometry and after.shape == before.shape
    assert not np.shares_memory(after, before)
    assert not after.flags.writeable
    for name in _members(net, "compressions"):
        assert not np.array_equal(ortho.nodes[name].tensor.array, net.nodes[name].tensor.array)


class TestAttachData:
    def test_zero_data_contracts_to_zero(self):
        p = small_params(teeth=2, tooth_len=2)
        for build in (build_mps, build_comb):
            net = build(p, seed=3)
            net = attach_data(net, np.zeros((p.sites, p.dim_raw)))
            scalar, _ = execute(net, plan_for(net))
            assert scalar == 0.0

    def test_identity_compression_passes_raw_vectors(self):
        # D == d with U = identity: the compressed vector equals the raw one,
        # so swapping U for the identity must not change the scalar computed
        # from raw data directly attached at the physical legs
        p = NetworkParams(dim_raw=2, dim_comp=2, bond_dim=2, teeth=2, tooth_len=1)
        net = build_mps(p, seed=5)
        data = np.arange(p.sites * 2, dtype=float).reshape(p.sites, 2) + 1.0
        net = attach_data(net, data)
        eyes = np.stack([np.eye(2)] * p.sites)
        net = replace(net, arrays={**net.arrays, "compressions": eyes})
        expected = float(
            data[0] @ net.nodes["site0"].tensor.array
            @ net.nodes["site1"].tensor.array @ data[1]
        )
        scalar, _ = execute(net, plan_for(net))
        assert scalar == pytest.approx(expected, rel=1e-12)

    def test_row_scaling_scales_scalar(self):
        p = small_params(teeth=3, tooth_len=1)
        net = build_mps(p, seed=6)
        rng = np.random.default_rng(0)
        data = rng.normal(size=(p.sites, p.dim_raw))
        base, _ = execute(attach_data(net, data), plan_for(net))
        scaled = data.copy()
        scaled[1] *= -7.5
        result, _ = execute(attach_data(net, scaled), plan_for(net))
        assert result == pytest.approx(-7.5 * base, rel=1e-10)

    def test_the_raw_dimension_is_read_off_the_data_stack(self):
        # a hand network's params are a dummy: dim_raw 3, data vectors of 5
        geometry = network.make_geometry("tree", [
            ("u", "u", None, None, None), ("data", "data", "u", 0, 0)],
            [("u", (1,), "D", "", None), ("data", (1,), "D", "", None)])
        net = network.TensorNetwork(small_params(), geometry,
                                    {"u": np.ones((1, 5)), "data": np.zeros((1, 5))})
        net = attach_data(net, np.arange(5.0)[None])
        assert execute(net, plan_for(net))[0] == 10.0
        with pytest.raises(ValueError, match=re.escape("shape (1, 5) (sites x dim_raw)")):
            attach_data(net, np.zeros((1, 3)))

    def test_shape_mismatch_rejected(self):
        net = build_mps(small_params(), seed=0)
        with pytest.raises(ValueError, match="data matrix"):
            attach_data(net, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        p = small_params()
        net = build_comb(p, seed=0)
        data = np.zeros((p.sites, p.dim_raw))
        data[2, 1] = bad
        with pytest.raises(ValueError, match="row 2.*not finite"):
            attach_data(net, data)

    def test_complex_rejected(self):
        # a cast would keep only the real part, and the value would be wrong
        p = small_params()
        net = build_mps(p, seed=0)
        data = np.ones((p.sites, p.dim_raw), dtype=complex)
        data[0, 0] = 1.0 + 2.0j
        with pytest.raises(ValueError, match="^data matrix must be real"):
            attach_data(net, data)

    def test_caller_array_is_copied(self):
        p = small_params()
        net = build_mps(p, seed=0)
        data = np.ones((p.sites, p.dim_raw))
        attached = attach_data(net, data)
        data[:] = 5.0
        for name in attached.data_sites:
            assert np.array_equal(attached.nodes[name].tensor.array, np.ones(p.dim_raw))
            assert not attached.nodes[name].tensor.array.flags.writeable

    def test_the_copy_is_the_data_stack(self):
        p = small_params(teeth=3, tooth_len=2)
        net = build_comb(p, seed=0)
        data = np.arange(p.sites * p.dim_raw, dtype=float).reshape(p.sites, p.dim_raw)
        attached = attach_data(net, data)
        stack = attached.arrays["data"]
        assert stack.shape == (3, 2, p.dim_raw)
        assert np.array_equal(stack.reshape(data.shape), data)
        assert attached.geometry is net.geometry
        for group in net.arrays:
            assert (attached.arrays[group] is net.arrays[group]) == (group != "data")

    def test_comb_row_order_is_tooth_major(self):
        net = build_comb(small_params(teeth=3, tooth_len=2), seed=0)
        assert net.data_sites == ("data0.0", "data0.1", "data1.0",
                                  "data1.1", "data2.0", "data2.1")


class TestOrthonormalCompressions:
    def test_columns_orthonormal(self):
        net = build_comb(small_params(dim_raw=7, dim_comp=3), seed=2)
        net = set_orthonormal_compressions(net, seed=2)
        compressions = [name for name in net.nodes if name.startswith("u")]
        assert len(compressions) == 4
        for name in compressions:
            u = net.nodes[name].tensor.array
            gram = u.T @ u
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-10

    def test_square_case_is_orthogonal(self):
        p = NetworkParams(dim_raw=4, dim_comp=4, bond_dim=2, teeth=2, tooth_len=1)
        net = set_orthonormal_compressions(build_mps(p, seed=8), seed=8)
        u = net.nodes["u0"].tensor.array
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8

    def test_deterministic(self):
        net = build_mps(small_params(), seed=1)
        a = set_orthonormal_compressions(net, seed=3)
        b = set_orthonormal_compressions(net, seed=3)
        for name in a.nodes:
            assert np.array_equal(a.nodes[name].tensor.array, b.nodes[name].tensor.array)

    def test_cost_unchanged_by_values(self):
        p = small_params(teeth=3, tooth_len=2)
        net = build_comb(p, seed=1)
        plain = execute(net, plan_for(net))[1]
        ortho = execute(set_orthonormal_compressions(net, seed=9), plan_for(net))[1]
        assert plain == ortho


def test_oracle_agrees_after_mutations():
    p = small_params(teeth=3, tooth_len=2)
    net = build_comb(p, seed=11)
    rng = np.random.default_rng(1)
    net = attach_data(net, rng.normal(size=(p.sites, p.dim_raw)))
    net = set_orthonormal_compressions(net, seed=12)
    scalar, _ = execute(net, plan_for(net))
    assert scalar == pytest.approx(naive_value_oracle(net), rel=1e-10)


class TestMakeGeometry:
    """Every network, built or made by hand, is one closed tree."""

    def test_a_repeated_name_is_refused(self):
        # stack x holds rows a and b, stack y row b, and one bond joins
        # a.0 and b.0: two stacks would hold one node b
        with pytest.raises(ValueError, match="^node 'b' is named twice$"):
            network.make_geometry("tree", [
                ("a", "x", None, None, None), ("b", "x", "a", 0, 0),
                ("b", "y", "a", 0, 0)],
                [("x", (2,), "x", "", None), ("y", (1,), "x", "", None)])

    def test_a_stack_drawn_twice_is_refused(self):
        # one stack s holds rows a and b; a draw list naming it twice
        # would draw it twice and keep the second array
        with pytest.raises(ValueError, match="^stack 's' is drawn twice$"):
            network.make_geometry("tree", [
                ("a", "s", None, None, None), ("b", "s", "a", 0, 0)],
                [("s", (2,), "x", "", None), ("s", (2,), "x", "", None)])

    @pytest.mark.parametrize("lead", [(1,), (3,), None])
    def test_a_stack_whose_rows_are_not_its_members_is_refused(self, lead):
        # None: no draw names the stack, so it has no rows
        draws = [] if lead is None else [("ends", lead, "x", "", None)]
        with pytest.raises(ValueError, match=re.escape(
                f"stack 'ends' has {lead} rows for 2 nodes")):
            network.make_geometry("tree", [
                ("a", "ends", None, None, None), ("b", "ends", "a", 0, 0)], draws)

    @pytest.mark.parametrize("lead", [(-1, -2), (2.0,), (np.int64(2),), (True, 2)])
    def test_leading_extents_that_are_not_ints_from_0_are_refused(self, lead):
        # each product is 2, the stack's member count, so only the extents
        # themselves are wrong
        with pytest.raises(ValueError, match=re.escape(
                f"stack 'ends' has leading extents {lead}, not ints >= 0")):
            network.make_geometry("tree", [
                ("a", "ends", None, None, None), ("b", "ends", "a", 0, 0)],
                [("ends", lead, "x", "", None)])

    @pytest.mark.parametrize("node_axes", [(0, 1, 2), (0, 0), (1,), (0, 1.0), (True, 0)])
    def test_node_axes_that_are_not_a_permutation_are_refused(self, node_axes):
        with pytest.raises(ValueError, match=re.escape(
                f"stack 'mid' stores node axes {node_axes}, not each int in range(2) once")):
            network.make_geometry("tree", [
                ("a", "ends", None, None, None), ("b", "mid", "a", 0, 0),
                ("c", "ends", "b", 1, 0)],
                [("ends", (2,), "x", "", None), ("mid", (1,), "xx", "", node_axes)])

    def test_an_empty_stack_is_left_out(self):
        geometry = network.make_geometry("tree", [
            ("a", "ends", None, None, None), ("b", "ends", "a", 0, 0)],
            [("ends", (2,), "x", "", None), ("none", (0, 3), "xx", "", (1, 0))])
        assert [name for name, *_ in geometry.draws] == ["ends"]

    @pytest.mark.parametrize("build", [build_mps, build_comb])
    def test_the_backbone_of_a_build_is_its_sites_or_spines(self, build):
        p = small_params(teeth=4, tooth_len=3)
        geometry = build(p, seed=0).geometry
        prefix, count = ("site", p.sites) if build is build_mps else ("spine", p.teeth)
        assert [geometry.names[node] for node in engine._backbone(geometry.parents)] == \
            [f"{prefix}{i}" for i in range(count)]

    def test_a_geometry_is_a_value(self):
        # equal lists make equal geometries, which hash alike, so the plan
        # and oracle memos hit on a geometry made again
        made = network._geometry("comb", 3, 2)
        network._geometry.cache_clear()
        again = network._geometry("comb", 3, 2)
        assert again is not made and again == made and hash(again) == hash(made)
        assert again != network._geometry("comb", 3, 3)


class TestArraysAreTheStacks:
    """A network's arrays are exactly its geometry's stacks, at their
    leading extents, or it is refused when it is made."""

    GEOMETRY = network.make_geometry("tree", [
        ("a", "ends", None, None, None), ("b", "data", "a", 0, 0),
        ("c", "ends", "b", 1, 0)],
        [("ends", (2,), "x", "", None), ("data", (1,), "xx", "", None)])

    @pytest.mark.parametrize("arrays, message", [
        ({"ends": np.ones((2, 2))},
         "the arrays hold stacks [] where the geometry draws [('data', (1,))]"),
        ({"ends": np.ones((2, 2)), "data": np.ones((1, 2, 2)), "extra": np.ones((4, 2))},
         "the arrays hold stacks [('extra', ())] where the geometry draws []"),
        ({"ends": np.ones((3, 2)), "data": np.ones((1, 2, 2))},
         "the arrays hold stacks [('ends', (3,))] where the geometry draws [('ends', (2,))]"),
    ], ids=["missing", "extra", "extents"])
    def test_missing_extra_and_misshapen_stacks_are_refused(self, arrays, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network.TensorNetwork(small_params(), self.GEOMETRY, arrays)

    def test_stacks_that_fit_are_held_as_given(self):
        arrays = {"ends": np.ones((2, 2)), "data": np.eye(2)[None]}
        net = network.TensorNetwork(small_params(), self.GEOMETRY, arrays)
        assert net.arrays is arrays and naive_value_oracle(net) == 2.0
