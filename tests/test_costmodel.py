import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtn import costmodel
from combtn.costmodel import (
    Regime,
    comb_cost_printed,
    comb_cost_schedule,
    cost_delta,
    crosscheck_quadratic,
    mps_cost,
    threshold_roots,
    threshold_sweep,
    verify_vieta,
)
from combtn.network import NetworkParams
from combtn.tensor import CountOverflowError


def params(D, d, x, M, N) -> NetworkParams:
    return NetworkParams(dim_raw=D, dim_comp=d, bond_dim=x, teeth=M, tooth_len=N)

REFERENCE = params(D=100, d=30, x=10, M=50, N=5)


class TestClosedForms:
    def test_reference_values(self):
        assert mps_cost(REFERENCE) == 1_519_410
        assert comb_cost_printed(REFERENCE) == 1_443_010
        assert comb_cost_schedule(REFERENCE) == 1_438_010

    def test_minimal_chain(self):
        assert mps_cost(params(D=1, d=1, x=1, M=2, N=1)) == 5

    def test_smallest_comb(self):
        p = params(D=3, d=2, x=2, M=2, N=2)
        assert comb_cost_printed(p) == 74
        assert comb_cost_schedule(p) == 66

    def test_delta_reference(self):
        assert cost_delta(REFERENCE, "schedule") == 81_400
        assert cost_delta(REFERENCE, "printed") == 76_400

    def test_invalid_basis(self):
        with pytest.raises(ValueError, match="basis"):
            cost_delta(REFERENCE, "both")

    def test_overflow_detected(self):
        huge = params(D=2**21, d=2**21, x=2**21, M=2**21, N=2)
        with pytest.raises(CountOverflowError):
            mps_cost(huge)

    @pytest.mark.parametrize("basis", ["schedule", "printed"])
    def test_delta_overflow_detected_in_the_comb_count_alone(self, basis):
        # the comb's (M-2)x^3 spine entry is 2**66 here, the MPS about 2**45
        wide = params(D=1, d=1, x=2**22, M=3, N=1)
        assert mps_cost(wide) < 2**63
        with pytest.raises(CountOverflowError):
            cost_delta(wide, basis)


valid_params = st.builds(
    lambda d, extra, x, m, n: params(D=d + extra, d=d, x=x, M=m, N=n),
    st.integers(1, 40), st.integers(0, 40), st.integers(1, 40),
    st.integers(2, 40), st.integers(1, 40),
)


@given(valid_params)
def test_printed_minus_schedule_identity(p):
    assert comb_cost_printed(p) - comb_cost_schedule(p) == p.teeth * p.bond_dim**2


@given(valid_params, st.integers(1, 40), st.integers(0, 40))
def test_delta_independent_of_chain_shape(p, n2, extra2):
    # same (M, d, x); N and D vary freely
    other = NetworkParams(dim_raw=p.dim_comp + extra2, dim_comp=p.dim_comp,
                          bond_dim=p.bond_dim, teeth=p.teeth, tooth_len=n2)
    for basis in ("schedule", "printed"):
        assert cost_delta(p, basis) == cost_delta(other, basis)


class TestThresholdRoots:
    def test_reference_pair(self):
        result = threshold_roots(30, 50)
        assert result.x_minus == pytest.approx(1.0373076074243241, rel=1e-12)
        assert result.x_plus == pytest.approx(28.921025725909009, rel=1e-12)
        assert result.regime is Regime.COMB_WINDOW
        assert (result.a, result.b, result.c) == (48.0, -1438.0, 1440.0)
        assert result.discriminant == 1_791_364.0

    def test_no_real_roots(self):
        result = threshold_roots(2, 50)
        assert result.roots is None
        assert result.regime is Regime.MPS_ALWAYS_CHEAPER
        assert result.discriminant < 0

    def test_degenerate_backbone(self):
        result = threshold_roots(30, 2)
        assert result.roots is None
        assert result.regime is Regime.MPS_ALWAYS_CHEAPER
        # the gap itself is -2x^2 regardless of d
        for x in (1, 2, 5):
            p = params(D=30, d=30, x=x, M=2, N=1)
            assert cost_delta(p, "schedule") == -2 * x * x

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="teeth"):
            threshold_roots(5, 1)
        with pytest.raises(ValueError, match="positive"):
            threshold_roots(0, 5)

    def test_rejects_float_teeth(self):
        with pytest.raises(TypeError):
            threshold_roots(30, 3.9)
        assert threshold_roots(30, np.int64(50)).teeth == 50

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_d(self, d):
        with pytest.raises(ValueError, match="finite"):
            threshold_roots(d, 50)

    @pytest.mark.parametrize("d, m, name", [(30, 10**400, "teeth"),
                                            (10**400, 50, "comp_dim")],
                             ids=["teeth", "comp_dim"])
    def test_rejects_values_beyond_float64(self, d, m, name):
        with pytest.raises(ValueError, match=name):
            threshold_roots(d, m)

    @pytest.mark.parametrize("d, m", [(1e300, 50), (1e200, 3), (30, 10**300)],
                             ids=["d-1e300", "d-1e200", "teeth-1e300"])
    def test_rejects_non_finite_discriminant(self, d, m):
        with pytest.raises(ValueError, match="discriminant"):
            threshold_roots(d, m)

    def test_largest_finite_discriminant_still_solved(self):
        result = threshold_roots(1e150, 50)
        assert math.isfinite(result.discriminant)
        assert verify_vieta(result)

    def test_accepts_real_valued_d(self):
        result = threshold_roots(7.5, 20)
        assert result.roots is not None
        assert verify_vieta(result)

    def test_stable_under_cancellation(self):
        # b*b >> 4ac: the naive small root would lose most digits
        result = threshold_roots(1e8, 1000)
        xm, xp = result.roots
        assert xm * xp == pytest.approx(1e8, rel=1e-12)
        assert xm + xp == pytest.approx(1e8 - 2 / 998, rel=1e-12)


@settings(max_examples=300)
@given(st.integers(3, 500), st.floats(5.0, 1e4))
def test_vieta_identities(m, d):
    result = threshold_roots(d, m)
    if result.roots is None:
        return
    xm, xp = result.roots
    assert xm <= xp
    assert math.isclose(xm * xp, d, rel_tol=1e-12)
    assert math.isclose(xm + xp, d - 2.0 / (m - 2), rel_tol=1e-12)


def test_vieta_refuses_roots_whose_sum_is_off():
    # the product of these roots is d to rounding; their sum is one part in
    # a billion off d - 2/(M-2)
    result = threshold_roots(30, 50)
    total = (30 - 2 / 48) * (1 + 1e-9)
    root = math.sqrt(total * total / 4 - 30)
    shifted = dataclasses.replace(result, roots=(total / 2 - root, total / 2 + root))
    assert verify_vieta(result)
    assert math.isclose(shifted.roots[0] * shifted.roots[1], 30, rel_tol=1e-12)
    assert not verify_vieta(shifted)


def test_vieta_holds_without_roots():
    result = threshold_roots(2, 50)
    assert result.roots is None
    assert verify_vieta(result)


class TestSweep:
    def test_rows_without_roots(self):
        rows = list(threshold_sweep(50, 1, 4))
        assert len(rows) == 4
        assert all(r.regime is Regime.MPS_ALWAYS_CHEAPER for r in rows)
        assert all(r.x_minus is None and r.x_plus is None for r in rows)

    def test_row_matches_threshold_roots(self):
        # every row is threshold_roots of its d, field by field, and holds d
        # as passed: an int, exact past 2**53
        for teeth, d_min, d_max, step in ((2, 1, 30, 1), (3, 2, 400, 7), (50, 1, 120, 1),
                                          (200, 2**53 - 2, 2**53 + 8, 1)):
            dims = range(d_min, d_max + 1, step)
            rows = list(threshold_sweep(teeth, d_min, d_max, step))
            assert len(rows) == len(dims)
            for d, row in zip(dims, rows):
                direct = threshold_roots(d, teeth)
                for field in dataclasses.fields(row):
                    assert getattr(row, field.name) == getattr(direct, field.name)
                assert type(row.comp_dim) is int and row.comp_dim == d

    def test_monotone_roots(self):
        rows = list(threshold_sweep(50, 5, 60))
        assert len(rows) == 56
        for prev, cur in zip(rows, rows[1:]):
            assert cur.x_plus > prev.x_plus
            assert cur.x_minus < prev.x_minus
        assert 1.0 < rows[-1].x_minus < 1.05

    def test_step(self):
        rows = threshold_sweep(50, 5, 15, step=5)
        assert [r.comp_dim for r in rows] == [5, 10, 15]

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="d_min"):
            threshold_sweep(50, 10, 5)
        with pytest.raises(ValueError, match="step"):
            threshold_sweep(50, 1, 5, step=0)

    def test_rows_are_yielded_as_they_are_solved(self):
        rows = threshold_sweep(50, 1, 10**12)
        start = time.perf_counter()
        first = list(itertools.islice(rows, 3))
        assert time.perf_counter() - start < 1.0
        assert [r.comp_dim for r in first] == [1, 2, 3]
        assert next(rows).comp_dim == 4

    @pytest.mark.parametrize("d_min, d_max", [(0, 5), (1, 10**200), (10**200, 10**201)],
                             ids=["first", "last", "both"])
    def test_range_is_checked_before_the_first_row(self, d_min, d_max):
        # the first or the last d has no float64 roots
        with pytest.raises(ValueError):
            threshold_sweep(50, d_min, d_max, step=max(1, d_max // 7))


def gap_schedule_polynomial(m: int, d: int, x: float) -> float:
    """Schedule-basis gap evaluated from the two closed forms at real x,
    with N=1 and D=d (the gap does not depend on either)."""
    length = m
    mps = length * d * d + 2 * x * d + (length - 2) * x * x * d \
        + (length - 2) * x * x + x
    comb = (d * d + d * x) * m + 2 * x * x + (m - 2) * x**3 \
        + (m - 2) * x * x + x
    return mps - comb


def test_gap_sign_at_midpoint_and_beyond_upper_root():
    for m in (3, 5, 8, 50):
        for d in (5, 10, 30, 60):
            result = threshold_roots(d, m)
            if result.roots is None:
                continue
            xm, xp = result.roots
            assert gap_schedule_polynomial(m, d, (xm + xp) / 2) > 0, (m, d)
            assert gap_schedule_polynomial(m, d, 2 * xp) < 0, (m, d)


class TestCrosscheck:
    def test_reference_probes(self):
        report = crosscheck_quadratic(50, 30)
        assert report.consistent
        by_x = {p.x: p for p in report.probes}
        assert by_x[10].inside_window and by_x[10].delta > 0
        assert not by_x[40].inside_window and by_x[40].delta < 0
        # x = 1 sits within the 0.5 guard of the lower root but the raw
        # gap is still negative there
        assert by_x[1].near_root and by_x[1].delta < 0

    def test_no_roots_all_negative(self):
        report = crosscheck_quadratic(50, 2)
        assert report.consistent
        assert all(p.delta < 0 for p in report.probes)

    def test_requires_three_teeth(self):
        with pytest.raises(ValueError, match="teeth"):
            crosscheck_quadratic(2, 10)

    def test_rejects_float_arguments(self):
        for teeth, comp_dim in ((3.9, 30), (3, 30.7)):
            with pytest.raises(TypeError):
                crosscheck_quadratic(teeth, comp_dim)
        assert crosscheck_quadratic(np.int64(50), np.int64(30)).consistent

    def test_a_wrong_sign_one_step_past_a_root_is_inconsistent(self, monkeypatch):
        # the first probe past the upper root's 0.5 guard: a wider guard
        # would leave it unchecked
        xp = threshold_roots(30, 50).x_plus
        past = math.floor(xp + 0.5) + 1
        assert 0.5 < past - xp <= 1.5
        true_delta = costmodel.cost_delta
        monkeypatch.setattr(costmodel, "cost_delta", lambda p, basis="schedule": (
            -true_delta(p, basis) if p.bond_dim == past else true_delta(p, basis)))
        report = crosscheck_quadratic(50, 30)
        assert not report.consistent
        assert [p.x for p in report.probes if not p.consistent] == [past]

    @pytest.mark.parametrize("m", range(3, 9))
    @pytest.mark.parametrize("d", range(2, 11))
    def test_consistency_sweep(self, m, d):
        assert crosscheck_quadratic(m, d).consistent
