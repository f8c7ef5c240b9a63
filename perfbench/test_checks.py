"""Self-tests of the benchmark's own checks and span recorder.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check must pass on the program's real output and fail when that output
is corrupted: a count off by one, a flipped sign, a zeroed scalar. The
host-speed scaling of the timings is tested here too.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import combtn  # noqa: E402
import combtn.cli  # noqa: E402
from combtn import engine, network, verification  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = network.NetworkParams(dim_raw=5, dim_comp=3, bond_dim=4, teeth=4, tooth_len=3)
DIMS = (4, 3, 5, 3, 4)


class FakeReport:
    def __init__(self, total, analytic_printed):
        self.total = total
        self.analytic_printed = analytic_printed


@pytest.fixture(params=[network.build_mps, network.build_comb], ids=["mps", "comb"])
def contracted(request):
    net = request.param(SMALL, seed=7)
    value, report = engine.execute(net, engine.plan_for(net))
    return net, value, report


def test_count_check_passes_on_real_report(contracted):
    net, _, report = contracted
    assert checks.check_count(net.kind, DIMS, report) is None


def test_count_check_fails_on_corrupted_count(contracted):
    net, _, report = contracted
    bad = FakeReport(report.total + 1, report.analytic_printed + 1)
    assert checks.check_count(net.kind, DIMS, bad) is not None


def test_comb_residual_check_fails_on_corrupted_printed_form():
    net = network.build_comb(SMALL, seed=7)
    _, report = engine.execute(net, engine.plan_for(net))
    bad = FakeReport(report.total, report.analytic_printed - 1)
    assert checks.check_count("comb", DIMS, bad) is not None


def test_value_check_passes_on_real_scalar(contracted):
    net, value, _ = contracted
    assert checks.check_value(value, *checks.reference_value(net)) is None


@pytest.mark.parametrize("corrupt", [
    lambda v: -v,
    lambda v: 0.0,
    lambda v: v * (1 + 1e-6),
    lambda v: math.nan,
    lambda v: math.inf,
], ids=["flipped-sign", "zeroed", "perturbed", "nan", "inf"])
def test_value_check_fails_on_corrupted_scalar(contracted, corrupt):
    net, value, _ = contracted
    assert checks.check_value(corrupt(value), *checks.reference_value(net)) is not None


def test_value_check_refuses_a_zero_reference():
    assert checks.check_value(0.0, 0.0, -math.inf) is not None


def test_reference_agrees_with_program_across_grid_shapes():
    for idx, p in enumerate(verification.grid_params("full")[::97]):
        for build in (network.build_mps, network.build_comb):
            net = build(p, seed=idx)
            value, _ = engine.execute(net, engine.plan_for(net))
            assert checks.check_value(value, *checks.reference_value(net)) is None, p


def test_deep_chain_underflow_is_caught():
    params = network.NetworkParams(dim_raw=8, dim_comp=4, bond_dim=8,
                                   teeth=200, tooth_len=10)
    net = network.build_mps(params, seed=42)
    value, _ = engine.execute(net, engine.plan_for(net))
    sign, log_abs = checks.reference_value(net)
    assert math.isfinite(log_abs) and log_abs < math.log(sys.float_info.min)
    assert value == 0.0
    assert checks.check_value(value, sign, log_abs) is not None


def test_full_grid_matches_program_grid():
    grid = checks.full_grid()
    assert len(grid) == checks.FULL_GRID_TUPLES
    program = sorted((p.teeth, p.tooth_len, p.dim_raw, p.dim_comp, p.bond_dim)
                     for p in verification.grid_params("full"))
    assert sorted(grid) == program


def test_gap_identity_passes_and_fails():
    mps, comb = checks.mps_count(*DIMS), checks.comb_count(*DIMS)
    assert checks.check_gap_identity(DIMS, mps, comb, mps - comb) is None
    assert checks.check_gap_identity(DIMS, mps + 1, comb, mps + 1 - comb) is not None
    assert checks.check_gap_identity(DIMS, mps, comb - 1, mps - comb + 1) is not None
    assert checks.check_gap_identity(DIMS, mps, comb, comb - mps) is not None


def test_closed_forms_match_the_worked_example():
    dims = (50, 5, 100, 30, 10)
    assert checks.mps_count(*dims) == 1_519_410
    assert checks.comb_count(*dims) == 1_438_010


def test_roots_check():
    x_minus, x_plus = checks.threshold_roots(50, 30)
    assert round(x_minus, 2) == 1.04 and round(x_plus, 2) == 28.92
    good = {"x_minus": round(x_minus, 6), "x_plus": round(x_plus, 6),
            "regime": "comb-window"}
    assert checks.check_roots(50, 30, 0, good) is None
    assert checks.check_roots(50, 30, 1, good) is not None
    assert checks.check_roots(50, 30, 0, {**good, "x_plus": 28.83}) is not None
    assert checks.check_roots(50, 30, 0, {**good, "x_minus": -x_minus}) is not None
    assert checks.check_roots(50, 30, 0, {**good, "regime": "degenerate"}) is not None


VERIFY_TEXT = """verification grid: full (2016 parameter tuples), seed 42
  [PASS] mps measured == closed form (2016 checked)
  [PASS] comb measured == printed form - M*x^2 (2016 checked)
  [PASS] printed - measured residual == M*x^2 (2016 checked)
  [PASS] executed scalar == value oracle (4032 checked)
  [PASS] vieta identities on threshold roots (200 checked, 21 skipped)
  [PASS] cost gap independent of N and D (1974 checked)
all checks passed
"""


@pytest.mark.parametrize("code,text", [
    (1, VERIFY_TEXT),
    (0, VERIFY_TEXT.replace("2016 parameter", "2015 parameter")),
    (0, VERIFY_TEXT.replace("[PASS] mps", "[FAIL] mps")),
    (0, VERIFY_TEXT.replace("(2016 checked)\n  [PASS] comb", "(2015 checked)\n  [PASS] comb")),
    (0, VERIFY_TEXT.replace("(4032 checked)", "(4000 checked)")),
    (0, VERIFY_TEXT.replace("all checks passed", "")),
], ids=["exit-code", "tuples", "fail-line", "count", "oracle", "verdict"])
def test_verify_output_check_fails_on_corruption(code, text):
    assert checks.check_verify_output(0, VERIFY_TEXT) is None
    assert checks.check_verify_output(code, text) is not None


def test_tracer_records_nested_spans_and_restores_the_program():
    original_execute = engine.execute
    original_defaults = verification.run_verification.__defaults__
    tracer = spans.Tracer()
    tracer.install(combtn)
    try:
        assert engine.execute is not original_execute
        tracer.active = True
        net = network.build_comb(SMALL, seed=1)
        engine.execute(net, engine.plan_for(net))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert engine.execute is original_execute
    assert combtn.execute is original_execute
    assert verification.run_verification.__defaults__ == original_defaults
    totals = tracer.layer_totals(rounds=1)
    assert totals["network.build.calls"] == 1
    assert totals["engine.execute.calls"] == 1
    assert totals["engine.steps"] == totals["tensor.contract_pair.calls"] > 0
    assert totals["tensor.contract_pair.work_a"] == checks.comb_count(*DIMS)
    assert 0 <= totals["engine.execute.self_ns"] <= totals["engine.execute.ns"]


def test_speed_scales_follow_the_median_of_nearby_probes():
    assert run.speed_scales([2e-3, 2e-3, 2e-3], 1e-3) == [0.5, 0.5, 0.5]
    assert run.speed_scales([1e-3, 4e-3], 1e-3) == [1.0, 0.25]
    # one slow probe among its neighbours does not move the scale
    assert run.speed_scales([1e-3, 1e-3, 9e-3, 1e-3, 1e-3], 1e-3, window=2) == [1.0] * 5
    assert run.scale_rounds([[0.1, 0.2], [0.4]], [2.0, 0.5]) == [[0.2, 0.4], [0.2]]
