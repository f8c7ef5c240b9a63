import numpy as np
import pytest

from combtn.engine import execute, naive_value_oracle, plan_for
from combtn.network import (
    NetworkParams,
    NodeRole,
    attach_data,
    build_comb,
    build_mps,
    set_orthonormal_compressions,
)
from combtn.network import _with_tensors
from combtn.tensor import Tensor


def small_params(**overrides) -> NetworkParams:
    base = dict(dim_raw=3, dim_comp=2, bond_dim=2, teeth=2, tooth_len=2)
    base.update(overrides)
    return NetworkParams(**base)


def audit_bonds(net) -> None:
    for bond in net.bonds:
        shape_a = net.nodes[bond.node_a].tensor.shape
        shape_b = net.nodes[bond.node_b].tensor.shape
        assert shape_a[bond.axis_a] == bond.dim == shape_b[bond.axis_b]


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


class TestBuildMps:
    def test_smallest_chain(self):
        net = build_mps(small_params(tooth_len=1), seed=0)
        assert net.nodes["site0"].tensor.shape == (2, 2)
        assert net.nodes["site1"].tensor.shape == (2, 2)
        assert net.nodes["site0"].role is NodeRole.SITE_BOUNDARY
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
        sites = [n for n in net.nodes.values()
                 if n.role in (NodeRole.SITE_BOUNDARY, NodeRole.SITE_INTERIOR)]
        assert len(sites) == 250
        interior = [n for n in sites if n.tensor.shape == (10, 30, 10)]
        assert len(interior) == 248

    def test_deterministic(self):
        p = small_params(teeth=3, tooth_len=1)
        a = build_mps(p, seed=9)
        b = build_mps(p, seed=9)
        assert list(a.nodes) == list(b.nodes)
        for name in a.nodes:
            assert a.nodes[name].tensor == b.nodes[name].tensor

    def test_seed_changes_values(self):
        p = small_params(teeth=3, tooth_len=1)
        a = build_mps(p, seed=1)
        b = build_mps(p, seed=2)
        assert a.nodes["site0"].tensor != b.nodes["site0"].tensor


class TestBuildComb:
    def test_smallest_comb(self):
        net = build_comb(small_params(), seed=0)
        assert net.nodes["spine0"].tensor.shape == (2, 2)
        assert net.nodes["spine1"].tensor.shape == (2, 2)
        for m in range(2):
            assert net.nodes[f"tooth{m}.0"].tensor.shape == (2, 2, 2)
            assert net.nodes[f"tooth{m}.0"].role is NodeRole.TOOTH_INTERIOR
            assert net.nodes[f"tooth{m}.1"].tensor.shape == (2, 2)
            assert net.nodes[f"tooth{m}.1"].role is NodeRole.TOOTH_END
        assert sum(n.role is NodeRole.COMPRESSION for n in net.nodes.values()) == 4
        assert sum(n.role is NodeRole.DATA for n in net.nodes.values()) == 4

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
        spine = [n for n in net.nodes.values()
                 if n.role in (NodeRole.BACKBONE_BOUNDARY, NodeRole.BACKBONE_INTERIOR)]
        assert len(spine) == 50
        assert sum(n.tensor.shape == (10, 10, 10) for n in spine) == 48
        teeth = [n for n in net.nodes.values()
                 if n.role in (NodeRole.TOOTH_END, NodeRole.TOOTH_INTERIOR)]
        assert len(teeth) == 250

    def test_single_site_teeth(self):
        net = build_comb(small_params(tooth_len=1), seed=0)
        for m in range(2):
            node = net.nodes[f"tooth{m}.0"]
            assert node.role is NodeRole.TOOTH_END
            assert node.tensor.shape == (2, 2)

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
            assert a.nodes[name].tensor == b.nodes[name].tensor

    def test_seed_changes_values(self):
        p = small_params(teeth=3, tooth_len=2)
        a = build_comb(p, seed=1)
        b = build_comb(p, seed=2)
        for name in ("spine0", "tooth1.0", "u2.1"):
            assert a.nodes[name].tensor != b.nodes[name].tensor


@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_tensors_of_one_build_are_distinct(build):
    # one stream per build: two same-shaped tensors never repeat a draw
    net = build(small_params(teeth=3, tooth_len=2), seed=7)
    compressions = [n.tensor for n in net.nodes.values()
                    if n.role is NodeRole.COMPRESSION]
    assert len(compressions) == 6
    for i, first in enumerate(compressions):
        for second in compressions[i + 1:]:
            assert first != second


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
        eye = Tensor(np.eye(2))
        net = _with_tensors(net, {"u0": eye, "u1": eye})
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

    def test_caller_array_is_copied(self):
        p = small_params()
        net = build_mps(p, seed=0)
        data = np.ones((p.sites, p.dim_raw))
        attached = attach_data(net, data)
        data[:] = 5.0
        for name in attached.data_sites:
            assert np.array_equal(attached.nodes[name].tensor.array, np.ones(p.dim_raw))
            assert not attached.nodes[name].tensor.array.flags.writeable

    def test_comb_row_order_is_tooth_major(self):
        net = build_comb(small_params(teeth=3, tooth_len=2), seed=0)
        assert net.data_sites == ("data0.0", "data0.1", "data1.0",
                                  "data1.1", "data2.0", "data2.1")


class TestOrthonormalCompressions:
    def test_columns_orthonormal(self):
        net = build_comb(small_params(dim_raw=7, dim_comp=3), seed=2)
        net = set_orthonormal_compressions(net, seed=2)
        for node in net.nodes.values():
            if node.role is NodeRole.COMPRESSION:
                u = node.tensor.array
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
            assert a.nodes[name].tensor == b.nodes[name].tensor

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
