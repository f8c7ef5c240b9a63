"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module targets well under two minutes.
"""

import math

import numpy as np
import pytest

from combtn.cli import main, sweep_csv_lines
from combtn.costmodel import (
    comb_cost_printed,
    comb_cost_schedule,
    cost_delta,
    crosscheck_quadratic,
    mps_cost,
    threshold_roots,
    threshold_sweep,
)
from combtn.engine import comb_plan, execute, mps_plan, naive_value_oracle, plan_for
from combtn.network import NetworkParams, build_comb, build_mps
from combtn.verification import grid_params

REFERENCE = NetworkParams(dim_raw=100, dim_comp=30, bond_dim=10,
                          teeth=50, tooth_len=5)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def small_grid_runs():
    """Measured counts for every tuple of the small grid, both geometries."""
    runs = []
    for idx, p in enumerate(grid_params("small")):
        mps_net = build_mps(p, seed=42 + idx)
        comb_net = build_comb(p, seed=42 + idx)
        _, mps_report = execute(mps_net, mps_plan(mps_net))
        _, comb_report = execute(comb_net, comb_plan(comb_net))
        runs.append((p, mps_report, comb_report))
    return runs


def test_criterion_01_lower_root_matches_reference():
    result = threshold_roots(30, 50)
    assert result.x_minus == pytest.approx(1.04, abs=0.01)
    report(f"1 PASS: lower threshold root x- = {result.x_minus:.4f} (1.04 +/- 0.01)")


def test_criterion_02_upper_root_from_formula_with_note(capsys):
    result = threshold_roots(30, 50)
    assert result.x_plus == pytest.approx(28.925, abs=0.005)
    code = main(["threshold", "--teeth", "50", "--dim-comp", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x+ = 28.92" in out
    assert "28.83" in out  # printed note documents the quoted-value discrepancy
    with capsys.disabled():
        report(f"2 PASS: upper root {result.x_plus:.4f} from the formula "
               "(28.925 +/- 0.005), discrepancy note printed")


def test_criterion_03_reference_regime_comb_cheaper():
    schedule = cost_delta(REFERENCE, "schedule")
    printed = cost_delta(REFERENCE, "printed")
    assert schedule == 81_400 and schedule > 0
    assert printed == 76_400 and printed > 0
    report("3 PASS: cost gap positive on both bases "
           f"(schedule {schedule}, printed {printed})")


def test_criterion_04_mps_engine_formula_identity(small_grid_runs):
    assert len(small_grid_runs) >= 100
    for p, mps_report, _ in small_grid_runs:
        assert mps_report.total == mps_cost(p), p
    report(f"4 PASS: measured MPS count == closed form on all "
           f"{len(small_grid_runs)} grid tuples")


def test_criterion_05_comb_engine_formula_identity(small_grid_runs):
    for p, _, comb_report in small_grid_runs:
        overhead = p.teeth * p.bond_dim**2
        assert comb_report.total == comb_cost_printed(p) - overhead, p
        assert comb_report.total == comb_cost_schedule(p), p
        assert comb_cost_printed(p) - comb_report.total == overhead, p
    report(f"5 PASS: measured comb count == printed form - M*x^2 "
           f"(residual M*x^2) on all {len(small_grid_runs)} grid tuples")


def test_criterion_06_quadratic_sign_consistency():
    checked = 0
    for m in range(3, 9):
        for d in range(2, 11):
            result = crosscheck_quadratic(m, d)
            assert result.consistent, (m, d)
            if result.threshold.roots is not None:
                checked += 1
    assert checked > 0
    report(f"6 PASS: schedule-basis gap sign matches the root interval "
           f"for all probed (M, d); {checked} pairs had real roots")


def test_criterion_07_vieta_identities():
    rng = np.random.default_rng(7)
    confirmed = 0
    while confirmed < 1000:
        m = int(rng.integers(3, 400))
        d = float(rng.uniform(5.0, 300.0))
        result = threshold_roots(d, m)
        if result.roots is None:
            continue
        xm, xp = result.roots
        assert math.isclose(xm * xp, d, rel_tol=1e-12), (m, d)
        assert math.isclose(xm + xp, d - 2.0 / (m - 2), rel_tol=1e-12), (m, d)
        confirmed += 1
    report("7 PASS: Vieta identities hold to rel 1e-12 on 1000 random (M, d) pairs")


def test_criterion_08_delta_invariant_under_chain_shape():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(2, 60))
        d = int(rng.integers(1, 40))
        x = int(rng.integers(1, 40))
        n1, n2 = (int(v) for v in rng.integers(1, 30, 2))
        e1, e2 = (int(v) for v in rng.integers(0, 50, 2))
        a = NetworkParams(dim_raw=d + e1, dim_comp=d, bond_dim=x, teeth=m, tooth_len=n1)
        b = NetworkParams(dim_raw=d + e2, dim_comp=d, bond_dim=x, teeth=m, tooth_len=n2)
        for basis in ("schedule", "printed"):
            assert cost_delta(a, basis) == cost_delta(b, basis), (a, b, basis)
    report("8 PASS: cost gap bit-identical under independent N and D changes, "
           "200 random tuples, both bases")


def test_criterion_09_execute_matches_value_oracle():
    rng = np.random.default_rng(9)
    for i in range(100):
        dim_raw = int(rng.integers(1, 4))
        p = NetworkParams(
            dim_raw=dim_raw,
            dim_comp=int(rng.integers(1, dim_raw + 1)),
            bond_dim=int(rng.integers(1, 4)),
            teeth=int(rng.integers(2, 5)),
            tooth_len=int(rng.integers(1, 4)),
        )
        build = build_mps if i % 2 == 0 else build_comb
        net = build(p, seed=int(rng.integers(1 << 30)))
        scalar, _ = execute(net, plan_for(net))
        reference = naive_value_oracle(net)
        assert math.isfinite(reference) and reference != 0.0, p
        assert math.isclose(scalar, reference, rel_tol=1e-10), p
    report("9 PASS: executed scalar matches the value oracle (rel 1e-10) "
           "on 100 random instances, both geometries")


def test_criterion_10_sweep_regression(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--teeth", "50", "--d-min", "5", "--d-max", "60", "--out"]
    assert main(argv + [str(out_a)]) == 0
    assert main(argv + [str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = list(threshold_sweep(50, 5, 60))
    lines = out_a.read_text().splitlines()
    assert lines == list(sweep_csv_lines(rows))
    assert len(rows) == 56
    for prev, cur in zip(rows, rows[1:]):
        assert cur.x_plus > prev.x_plus
        assert cur.x_minus < prev.x_minus
    assert 1.0 < rows[-1].x_minus < 1.05
    with capsys.disabled():
        report("10 PASS: 56-row sweep byte-identical on rerun; x+ strictly "
               f"increasing, x- strictly decreasing to {rows[-1].x_minus:.4f} at d=60")
