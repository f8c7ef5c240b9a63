import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtn import engine, tensor
from combtn.engine import execute, plan_for
from combtn.network import NetworkParams, attach_data, build_comb, build_mps
from combtn.verification import grid_params

from combtn.tensor import (
    CHAIN,
    INT64_MAX,
    AxisPairing,
    CountOverflowError,
    StepCost,
    Tensor,
    _chain,
    _kernel,
    _owned,
    _transposed,
    contract_pair,
    random_tensor,
)


def loop_contract(a: Tensor, b: Tensor, pairs) -> np.ndarray:
    """Reference contraction by explicit summation; independent of numpy's
    tensordot path."""
    a_axes = [ia for ia, _ in pairs]
    b_axes = [ib for _, ib in pairs]
    out_a = [i for i in range(len(a.shape)) if i not in a_axes]
    out_b = [i for i in range(len(b.shape)) if i not in b_axes]
    out_shape = tuple(a.shape[i] for i in out_a) + tuple(b.shape[i] for i in out_b)
    result = np.zeros(out_shape)
    contracted_ranges = [range(a.shape[i]) for i in a_axes]
    for out_idx in itertools.product(*(range(e) for e in out_shape)):
        total = 0.0
        for summed in itertools.product(*contracted_ranges):
            ia = [0] * len(a.shape)
            ib = [0] * len(b.shape)
            for pos, axis in enumerate(out_a):
                ia[axis] = out_idx[pos]
            for pos, axis in enumerate(out_b):
                ib[axis] = out_idx[len(out_a) + pos]
            for (axis_a, axis_b), value in zip(pairs, summed):
                ia[axis_a] = value
                ib[axis_b] = value
            total += a.array[tuple(ia)] * b.array[tuple(ib)]
        result[out_idx] = total
    return result


def _strided(t: Tensor) -> list[Tensor]:
    """``t`` as laid out, then as a Fortran-ordered copy and as a sliced view.

    Tensors made through the constructor are C-contiguous; these are wrapped
    without a copy, so ``contract_pair`` must also read other layouts right.
    """
    arr = t.array
    wide = np.repeat(arr, 2, axis=-1)[..., ::2]
    return [t, _owned(np.asfortranarray(arr)), _owned(wide)]


def convention_cost(a_shape, b_shape, pairs) -> int:
    """Independent recomputation of the counting convention from shapes."""
    a_axes = {ia for ia, _ in pairs}
    b_axes = {ib for _, ib in pairs}
    out = math.prod(e for i, e in enumerate(a_shape) if i not in a_axes)
    out *= math.prod(e for i, e in enumerate(b_shape) if i not in b_axes)
    contracted = math.prod(a_shape[ia] for ia, _ in pairs)
    return out * contracted


class TestContractPair:
    def test_vector_matrix(self):
        v = random_tensor((3,), seed=1)
        m = random_tensor((3, 3), seed=2)
        out, cost = contract_pair(v, m, AxisPairing([(0, 0)]))
        assert out.shape == (3,)
        assert cost.multiplications == 9

    def test_rank3_vector(self):
        t = random_tensor((2, 3, 2), seed=3)
        v = random_tensor((3,), seed=4)
        out, cost = contract_pair(t, v, AxisPairing([(1, 0)]))
        assert out.shape == (2, 2)
        assert cost.multiplications == 12

    def test_scalar_outer_product(self):
        s = Tensor(np.array(2.5))
        v = Tensor(np.arange(5.0))
        out, cost = contract_pair(s, v, AxisPairing())
        assert out.shape == (5,)
        assert cost.multiplications == 5
        assert np.allclose(out.array, 2.5 * np.arange(5.0))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ndim_a = int(rng.integers(1, 4))
            ndim_b = int(rng.integers(1, 4))
            a = random_tensor(tuple(rng.integers(1, 5, ndim_a)), seed=int(rng.integers(1 << 30)))
            b_shape = list(rng.integers(1, 5, ndim_b))
            n_pairs = int(rng.integers(0, min(ndim_a, ndim_b) + 1))
            a_axes = list(rng.choice(ndim_a, n_pairs, replace=False))
            b_axes = list(rng.choice(ndim_b, n_pairs, replace=False))
            for ia, ib in zip(a_axes, b_axes):
                b_shape[ib] = a.shape[ia]
            b = random_tensor(tuple(b_shape), seed=int(rng.integers(1 << 30)))
            pairs = list(zip(a_axes, b_axes))
            out, cost = contract_pair(a, b, AxisPairing(pairs))
            reference = loop_contract(a, b, pairs)
            assert out.shape == reference.shape
            assert np.allclose(out.array, reference, rtol=1e-12, atol=1e-14)
            assert cost.multiplications == convention_cost(a.shape, b.shape, pairs)

    def test_identity_leaves_values_unchanged(self):
        t = random_tensor((2, 3, 4), seed=11)
        eye = Tensor(np.eye(3))
        out, _ = contract_pair(t, eye, AxisPairing([(1, 0)]))
        # identity lands the contracted axis last
        assert np.allclose(out.array, np.moveaxis(t.array, 1, 2))

    @pytest.mark.parametrize("rank_a", range(4))
    @pytest.mark.parametrize("rank_b", range(4))
    def test_every_pairing_matches_loop_reference(self, rank_a, rank_b):
        # distinct extents per axis, so a wrong axis order cannot pass
        a_shape = (2, 3, 4)[:rank_a]
        for n_pairs in range(min(2, rank_a, rank_b) + 1):
            for a_axes in itertools.permutations(range(rank_a), n_pairs):
                for b_axes in itertools.permutations(range(rank_b), n_pairs):
                    b_shape = [5, 1, 2][:rank_b]
                    for ia, ib in zip(a_axes, b_axes):
                        b_shape[ib] = a_shape[ia]
                    pairs = list(zip(a_axes, b_axes))
                    a = random_tensor(a_shape, seed=rank_a)
                    b = random_tensor(b_shape, seed=rank_b + 10)
                    out, cost = contract_pair(a, b, AxisPairing(pairs))
                    reference = loop_contract(a, b, pairs)
                    assert out.shape == reference.shape, pairs
                    assert np.allclose(out.array, reference, rtol=1e-12, atol=1e-14), pairs
                    assert cost.multiplications == convention_cost(a.shape, b.shape, pairs)

    def test_non_contiguous_inputs(self):
        base = np.arange(120.0).reshape(4, 5, 6)
        vec = Tensor(np.linspace(-1.0, 1.0, 5))
        for view in (base[:, :, ::-2], np.asfortranarray(base),
                     base.transpose(1, 0, 2)[:, ::2]):
            a = Tensor(view)
            assert np.array_equal(a.array, view)
            pairs = [(view.shape.index(5), 0)]
            out, _ = contract_pair(a, vec, AxisPairing(pairs))
            assert np.allclose(out.array, loop_contract(a, vec, pairs), rtol=1e-12)

    def test_outputs_read_only(self):
        a = random_tensor((2, 3), seed=1)
        b = random_tensor((3,), seed=2)
        for pairs in ([(1, 0)], []):
            out, _ = contract_pair(a, b, AxisPairing(pairs))
            assert not out.array.flags.writeable
            with pytest.raises(ValueError):
                out.array[...] = 0.0
        assert not a.array.flags.writeable

    def test_extent_mismatch(self):
        a = random_tensor((2, 3), seed=1)
        b = random_tensor((4,), seed=2)
        with pytest.raises(ValueError, match="paired extents differ"):
            contract_pair(a, b, AxisPairing([(1, 0)]))

    def test_duplicate_axis(self):
        a = random_tensor((2, 2), seed=1)
        b = random_tensor((2, 2), seed=2)
        with pytest.raises(ValueError, match="reuses an axis"):
            contract_pair(a, b, AxisPairing([(0, 0), (0, 1)]))

    def test_axis_out_of_range(self):
        a = random_tensor((2,), seed=1)
        b = random_tensor((2,), seed=2)
        with pytest.raises(ValueError, match="out of range"):
            contract_pair(a, b, AxisPairing([(1, 0)]))

    def test_one_pairing_across_ranks_matches_loop_reference(self):
        # the layout is worked out once per (pairs, ranks); a pairing reused
        # on operands of other ranks must not pick up a stale layout
        pairing = AxisPairing([(0, 1)])
        for a_shape, b_shape in [((3,), (2, 3)), ((3,), (2, 3, 4)),
                                 ((3, 2), (4, 3)), ((3, 2, 4), (5, 3, 2)),
                                 ((3,), (2, 3))]:
            a = random_tensor(a_shape, seed=len(a_shape))
            b = random_tensor(b_shape, seed=len(b_shape) + 10)
            out, cost = contract_pair(a, b, pairing)
            assert np.allclose(out.array, loop_contract(a, b, pairing.pairs),
                               rtol=1e-12, atol=1e-14), (a_shape, b_shape)
            assert cost.multiplications == convention_cost(a_shape, b_shape,
                                                           pairing.pairs)

    @pytest.mark.parametrize("rank_a", range(1, 4))
    @pytest.mark.parametrize("rank_b", range(1, 5))
    def test_every_summed_block_position_matches_loop_reference(self, rank_a, rank_b):
        # one contiguous block of b's axes is summed, leading, in the middle
        # or trailing, in pair order or reversed, against every choice of a's
        # axes; a with free axes meets a middle block too
        for count in range(1, min(rank_a, rank_b) + 1):
            for start in range(rank_b - count + 1):
                block = tuple(range(start, start + count))
                for b_axes in {block, block[::-1]}:
                    for a_axes in itertools.permutations(range(rank_a), count):
                        b_shape = (2, 3, 4, 5)[:rank_b]
                        a_shape = [3, 2, 4][:rank_a]
                        for ia, ib in zip(a_axes, b_axes):
                            a_shape[ia] = b_shape[ib]
                        pairs = list(zip(a_axes, b_axes))
                        a = random_tensor(a_shape, seed=rank_a)
                        b = random_tensor(b_shape, seed=rank_b + 10)
                        reference = loop_contract(a, b, pairs)
                        for a_op, b_op in zip(_strided(a), _strided(b)):
                            out, cost = contract_pair(a_op, b_op, AxisPairing(pairs))
                            assert out.shape == reference.shape, pairs
                            assert np.allclose(out.array, reference,
                                               rtol=1e-12, atol=1e-14), pairs
                            assert cost.multiplications == \
                                convention_cost(a_shape, b_shape, pairs)
                            assert not out.array.flags.writeable

    def test_absorb_reads_the_site_in_place(self):
        self.test_stacked_absorb_reads_the_sites_in_place(())

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    def test_stacked_absorb_reads_the_sites_in_place(self, lead):
        # data vectors against the leading axis of [d, x, x] sites, the
        # order an interior site is stored in
        w = random_tensor(lead + (30,), seed=1)
        site = random_tensor(lead + (30, 64, 64), seed=2)
        pairing = AxisPairing([(len(lead), len(lead))], batch=len(lead))
        contract_pair(w, site, pairing)
        tracemalloc.start()
        try:
            out, _ = contract_pair(w, site, pairing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.array.nbytes == math.prod(lead) * 64 * 64 * 8
        assert peak < site.array.nbytes / 10

    @pytest.mark.parametrize("pairs, good, bad, words", [
        ([(0, 0)], ((2,), (2,)), ((2,), (3,)), "paired extents differ"),
        ([(0, 1), (1, 0)], ((2, 3), (3, 2)), ((2, 3), (4, 2)), "paired extents differ"),
        ([(0, 1)], ((2,), (3, 2)), ((2,), (2,)), "out of range"),
        ([(0, 0), (1, 0)], None, ((2, 2), (2, 2)), "reuses an axis"),
        ([(0, 1), (1, 1)], None, ((3, 3), (3, 3)), "reuses an axis"),
        ([(-1, 0)], None, ((2,), (2,)), "out of range"),
        ([(0, 1)], ((3,), (2, 3, 4)), ((3,), (2, 5, 4)), "paired extents differ"),
        ([(0, 1), (1, 2)], ((3, 4), (2, 3, 4, 5)), ((3, 4), (2, 3, 5, 5)),
         "paired extents differ"),
        ([(0, 2)], ((4,), (2, 3, 4)), ((4,), (2, 4, 3)), "paired extents differ"),
        ([(0, 1)], ((3,), (2, 3, 4)), ((3,), (3,)), "out of range"),
    ])
    def test_errors_after_warm_up_match_validate(self, pairs, good, bad, words):
        pairing = AxisPairing(pairs)
        if good is not None:
            # a valid call first, so the pairing's layout is already worked out
            contract_pair(random_tensor(good[0], seed=1),
                          random_tensor(good[1], seed=2), pairing)
        a, b = random_tensor(bad[0], seed=3), random_tensor(bad[1], seed=4)
        with pytest.raises(ValueError, match=words) as raised:
            contract_pair(a, b, pairing)
        with pytest.raises(ValueError) as expected:
            pairing.validate(a.shape, b.shape)
        assert str(raised.value) == str(expected.value)


def transposed_path(a: np.ndarray, b: np.ndarray, pairs) -> np.ndarray:
    """``a`` as [free, summed] and ``b`` as [summed, free], one ``np.dot``:
    the path ``contract_pair`` takes for every plan step but the sweeps,
    run on one item."""
    a_sum = [ia for ia, _ in pairs]
    b_sum = [ib for _, ib in pairs]
    a_t = a.transpose([i for i in range(a.ndim) if i not in a_sum] + a_sum)
    b_t = b.transpose(b_sum + [i for i in range(b.ndim) if i not in b_sum])
    summed = math.prod(b_t.shape[:len(pairs)])
    out = np.dot(a_t.reshape(-1, summed), b_t.reshape(summed, -1))
    return out.reshape(a_t.shape[:a.ndim - len(pairs)] + b_t.shape[len(pairs):])


def per_site_sweep(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """A sweep as plans ran it one site at a time: one ``np.dot`` per row."""
    for matrix in stack:
        v = np.dot(v, matrix)
    return v


@pytest.mark.parametrize("k", [1, 2, 7])
def test_chain_is_the_per_site_sweep_bit_for_bit(k):
    # frozen stacks as a build makes them, a Fortran-ordered copy and a
    # strided view; the chain counts x**2 per row
    for x in [*range(1, 20), 30, 64]:
        v = random_tensor((x,), seed=x)
        stack = random_tensor((k, x, x), seed=100 + x)
        for v_op, stack_op in zip(_strided(v), _strided(stack)):
            out, cost = contract_pair(v_op, stack_op, CHAIN)
            expected = per_site_sweep(v_op.array, stack_op.array)
            assert out.shape == (x,)
            assert out.array.tobytes() == expected.tobytes(), (k, x)
            assert cost.multiplications == k * x * x == stack.size
            assert not out.array.flags.writeable


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3,), (2, 3, 4)),          # rows not square
    ((3,), (2, 4, 3)),
    ((3,), (2, 4, 4)),          # square rows of another extent
    ((3,), (3, 3)),             # not a stack
    ((3,), (1, 2, 3, 3)),
    ((3, 3), (2, 3, 3)),        # not a vector
])
def test_chain_refuses_a_stack_that_does_not_fit(a_shape, b_shape):
    a, b = random_tensor(a_shape, seed=1), random_tensor(b_shape, seed=2)
    with pytest.raises(ValueError) as raised:
        contract_pair(a, b, CHAIN)
    assert str(a_shape) in str(raised.value) and str(b_shape) in str(raised.value)
    with pytest.raises(ValueError) as expected:
        CHAIN.validate(a_shape, b_shape)
    assert str(raised.value) == str(expected.value)


def test_a_chain_takes_no_pairs_and_no_batch():
    for pairs, batch in (([(0, 1)], 0), ([], 1)):
        with pytest.raises(ValueError, match="no axis pairs and no batch"):
            AxisPairing(pairs, batch, chain=True)


# every (pairs, rank of a, rank of b, batch, chain) the two planners emit,
# and its kernel
PLAN_KERNELS = {
    ((), 1, 3, 0, True): _chain,                # chain and backbone sweeps
    (((0, 0),), 1, 1, 0, False): _transposed,   # final dot
    (((1, 1),), 2, 3, 1, False): _transposed,   # MPS compress and first absorb
    (((1, 1),), 2, 4, 1, False): _transposed,   # MPS interior absorb, teeth
                                                # into the interior spines
    (((1, 2),), 2, 3, 1, False): _transposed,   # last absorb, tooth ends,
                                                # tooth sweep, boundary spines
    (((2, 2),), 3, 4, 2, False): _transposed,   # comb compress
    (((2, 2),), 3, 5, 2, False): _transposed,   # comb interior absorb
}


def test_plan_steps_run_on_their_kernels_bit_for_bit(monkeypatch):
    # each batch item of a stacked step has the bits of the transposed
    # path run on that item alone, and a chain step the bits of its sweep
    # as plans ran it one site at a time
    steps = []

    def recorded(a, b, pairing):
        out, cost = contract_pair(a, b, pairing)
        steps.append((a.array, b.array, pairing, out.array))
        return out, cost

    monkeypatch.setattr(engine, "contract_pair", recorded)
    nets = [build(p, seed=7) for p in grid_params("small")
            for build in (build_mps, build_comb)]
    reference = NetworkParams(dim_raw=100, dim_comp=30, bond_dim=10,
                              teeth=50, tooth_len=5)
    rng = np.random.default_rng(3)
    for build in (build_mps, build_comb):
        data = rng.standard_normal((reference.sites, reference.dim_raw))
        nets.append(attach_data(build(reference, seed=3), data))
    for net in nets:
        execute(net, plan_for(net))
    seen = set()
    for a, b, pairing, out in steps:
        key = (pairing.pairs, a.ndim, b.ndim, pairing.batch, pairing.chain)
        seen.add(key)
        if pairing.chain:
            assert PLAN_KERNELS[key] is _chain
            assert out.tobytes() == per_site_sweep(a, b).tobytes()
            continue
        assert _kernel(*key[:4]).func is PLAN_KERNELS[key], key
        batch = pairing.batch
        pairs = tuple((ia - batch, ib - batch) for ia, ib in pairing.pairs)
        for item in np.ndindex(a.shape[:batch]):
            assert np.array_equal(out[item], transposed_path(a[item], b[item], pairs)), key
        assert out.flags.c_contiguous and not out.flags.writeable
    assert seen == set(PLAN_KERNELS)


def test_every_pairing_runs_the_transposed_path():
    for rank_a, rank_b in itertools.product(range(5), repeat=2):
        for batch in range(min(rank_a, rank_b, 2) + 1):
            for count in range(min(rank_a, rank_b) - batch + 1):
                for a_axes in itertools.permutations(range(batch, rank_a), count):
                    for b_axes in itertools.permutations(range(batch, rank_b), count):
                        kernel = _kernel(tuple(zip(a_axes, b_axes)),
                                         rank_a, rank_b, batch)
                        assert kernel.func is _transposed


def test_final_dot_is_a_read_only_scalar_with_the_bits_of_np_dot():
    # the final dot runs on the matmul path, as [1, n] @ [n, 1]
    rng = np.random.default_rng(5)
    for n in [*range(1, 70), 100, 128, 257]:
        for _ in range(10):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            out, cost = contract_pair(Tensor(a), Tensor(b), AxisPairing([(0, 0)]))
            assert out.shape == () and not out.array.flags.writeable
            assert float(out.array).hex() == float(np.dot(a, b)).hex(), n
            assert cost.multiplications == n


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("rank_a", range(3))
@pytest.mark.parametrize("rank_b", range(4))
def test_batched_pairing_matches_the_loop_reference_per_item(batch, rank_a, rank_b):
    # distinct extents per axis, so a wrong axis order cannot pass; the
    # batch axes lead both operands, and a strided view of a stack must be
    # read right too
    lead = (3, 2)[:batch]
    a_item = (2, 3, 4)[:rank_a]
    for count in range(min(rank_a, rank_b, 2) + 1):
        for a_axes in itertools.permutations(range(rank_a), count):
            for b_axes in itertools.permutations(range(rank_b), count):
                b_item = [5, 1, 2, 6][:rank_b]
                for ia, ib in zip(a_axes, b_axes):
                    b_item[ib] = a_item[ia]
                a = random_tensor(lead + a_item, seed=rank_a)
                b = random_tensor(lead + tuple(b_item), seed=rank_b + 10)
                pairs = [(ia + batch, ib + batch) for ia, ib in zip(a_axes, b_axes)]
                item_pairs = list(zip(a_axes, b_axes))
                for a_op, b_op in zip(_strided(a), _strided(b)):
                    out, cost = contract_pair(a_op, b_op, AxisPairing(pairs, batch))
                    for item in np.ndindex(lead):
                        reference = loop_contract(Tensor(a.array[item]),
                                                  Tensor(b.array[item]), item_pairs)
                        assert np.allclose(out.array[item], reference,
                                           rtol=1e-12, atol=1e-14), (pairs, item)
                    assert out.shape[:batch] == lead
                    assert cost.multiplications == math.prod(lead) * convention_cost(
                        a_item, tuple(b_item), item_pairs)
                    # a view is frozen with the array that owns its memory
                    owner = out.array if out.array.base is None else out.array.base
                    assert not out.array.flags.writeable
                    assert not owner.flags.writeable


@pytest.mark.parametrize("pairing, a_shape, b_shape, words", [
    (AxisPairing([(1, 1)], batch=1), (3, 2), (4, 2, 5), "batch of 1 leading axes"),
    (AxisPairing([(2, 2)], batch=2), (3, 4, 2), (3, 5, 2, 2), "batch of 2 leading axes"),
    (AxisPairing([], batch=2), (3,), (3, 4), "batch of 2 leading axes"),
    (AxisPairing([(0, 1)], batch=1), (3, 2), (3, 2), "out of range"),
    (AxisPairing([(1, 0)], batch=1), (3, 2), (3, 2), "out of range"),
    (AxisPairing([(1, 1)], batch=1), (3, 2), (3, 4), "paired extents differ"),
])
def test_batch_errors_match_validate(pairing, a_shape, b_shape, words):
    a, b = random_tensor(a_shape, seed=3), random_tensor(b_shape, seed=4)
    with pytest.raises(ValueError, match=words) as raised:
        contract_pair(a, b, pairing)
    with pytest.raises(ValueError) as expected:
        pairing.validate(a.shape, b.shape)
    assert str(raised.value) == str(expected.value)


@st.composite
def contraction_cases(draw):
    ndim_a = draw(st.integers(1, 3))
    ndim_b = draw(st.integers(1, 3))
    a_shape = draw(st.lists(st.integers(1, 4), min_size=ndim_a, max_size=ndim_a))
    b_shape = draw(st.lists(st.integers(1, 4), min_size=ndim_b, max_size=ndim_b))
    n_pairs = draw(st.integers(0, min(ndim_a, ndim_b)))
    a_axes = draw(st.permutations(range(ndim_a)))[:n_pairs]
    b_axes = draw(st.permutations(range(ndim_b)))[:n_pairs]
    for ia, ib in zip(a_axes, b_axes):
        b_shape[ib] = a_shape[ia]
    return tuple(a_shape), tuple(b_shape), tuple(zip(a_axes, b_axes))


@settings(max_examples=60, deadline=None)
@given(contraction_cases(), st.integers(0, 2**31))
def test_cost_convention_property(case, seed):
    a_shape, b_shape, pairs = case
    a = random_tensor(a_shape, seed=seed)
    b = random_tensor(b_shape, seed=seed + 1)
    out, cost = contract_pair(a, b, AxisPairing(pairs))
    assert cost.multiplications == convention_cost(a_shape, b_shape, pairs)
    out_a = [e for i, e in enumerate(a_shape) if i not in {ia for ia, _ in pairs}]
    out_b = [e for i, e in enumerate(b_shape) if i not in {ib for _, ib in pairs}]
    assert out.shape == tuple(out_a) + tuple(out_b)
    assert np.allclose(out.array, loop_contract(a, b, pairs), rtol=1e-12, atol=1e-14)


class TestRandomTensor:
    def test_deterministic(self):
        assert random_tensor((4, 2), seed=123) == random_tensor((4, 2), seed=123)

    def test_seed_sensitive(self):
        assert random_tensor((4,), seed=1) != random_tensor((4,), seed=2)

    def test_sample_mean_near_zero(self):
        values = [random_tensor((1,), seed=s).array[0] for s in range(100_000)]
        assert abs(np.mean(values)) < 0.02

    def test_generator_is_advanced(self):
        rng = np.random.default_rng(5)
        first = random_tensor((3, 2), rng)
        second = random_tensor((3, 2), rng)
        assert first != second
        expected = np.random.default_rng(5).normal(0.0, 1.0, size=(2, 3, 2))
        assert np.array_equal(first.array, expected[0])
        assert np.array_equal(second.array, expected[1])

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError, match="extent"):
            random_tensor((2, 0), seed=1)

    def test_std_scales_samples(self):
        wide = random_tensor((1000,), seed=3, std=1.0)
        narrow = random_tensor((1000,), seed=3, std=0.1)
        assert np.allclose(narrow.array, wide.array * 0.1)


class TestTensorInvariants:
    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError, match="extent"):
            Tensor(np.zeros((2, 0)))

    def test_caller_array_is_copied(self):
        source = np.arange(6.0).reshape(2, 3)
        t = Tensor(source)
        source[0, 0] = 99.0
        assert t.array[0, 0] == 0.0
        assert source.flags.writeable
        assert not t.array.flags.writeable

    def test_immutable(self):
        t = random_tensor((3,), seed=1)
        with pytest.raises(ValueError):
            t.array[0] = 1.0

    def test_contract_pair_checks_each_count(self, monkeypatch):
        a, b = random_tensor((3,), seed=1), random_tensor((3, 4), seed=2)
        pairing = AxisPairing([(0, 0)])
        monkeypatch.setattr(tensor, "INT64_MAX", 12)
        assert contract_pair(a, b, pairing)[1].multiplications == 12
        monkeypatch.setattr(tensor, "INT64_MAX", 11)
        with pytest.raises(CountOverflowError, match="12 exceeds"):
            contract_pair(a, b, pairing)

    def test_step_cost_bounds(self):
        with pytest.raises(ValueError):
            StepCost(-1)
        with pytest.raises(CountOverflowError):
            StepCost(INT64_MAX + 1)
        assert StepCost(INT64_MAX).multiplications == INT64_MAX
