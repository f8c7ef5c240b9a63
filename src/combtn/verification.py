"""Grid verification of the closed forms against instrumented execution.

Runs every parameter tuple of a grid through both geometries and checks:
measured MPS count equals the MPS closed form; measured comb count equals
the printed comb form minus M*x^2 (and the printed form minus the
measured count, and minus the schedule form, equals M*x^2); the
executed scalar agrees with the value oracle to a relative 1e-10, with
neither side zero or non-finite, wherever the oracle's size guard admits;
Vieta identities on the threshold roots; and independence of the cost gap
from N and D. The closed forms come from ``costmodel``, once per tuple;
only the counts and scalars come from ``execute``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from . import costmodel
from .costmodel import threshold_roots, verify_vieta
from .engine import OracleGuardError, execute, naive_value_oracle, plan_for
from .network import NetworkParams, build_comb, build_mps

GRIDS = ("small", "full")


def grid_params(grid: str = "small") -> list[NetworkParams]:
    """Parameter tuples of the named verification grid."""
    if grid == "small":
        n_values, m_values, x_values = (1, 2, 3), (2, 3, 5), (1, 2, 3)
    elif grid == "full":
        n_values, m_values, x_values = range(1, 9), range(2, 9), range(1, 7)
    else:
        raise ValueError(f"grid must be one of {GRIDS}, got {grid!r}")
    tuples = []
    for n, m, d, extra, x in product(n_values, m_values, (1, 2, 3), (0, 1), x_values):
        tuples.append(NetworkParams(dim_raw=d + extra, dim_comp=d,
                                    bond_dim=x, teeth=m, tooth_len=n))
    return tuples


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    skipped: int = 0
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class VerificationReport:
    grid: str
    seed: int
    tuples: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    @property
    def first_failure(self) -> Optional[str]:
        for check in self.checks:
            if check.failure:
                return f"{check.name}: {check.failure}"
        return None


def _describe(p: NetworkParams) -> str:
    return (f"(M={p.teeth}, N={p.tooth_len}, D={p.dim_raw}, "
            f"d={p.dim_comp}, x={p.bond_dim})")


def _value_mismatch(scalar: float, reference: float) -> Optional[str]:
    """Why the executed scalar and the oracle's value disagree, or None.

    The check is relative only: many grid scalars are far below 1e-12, where
    an absolute tolerance would accept any oracle value. An exact zero (an
    underflow, or all-zero data) or a non-finite value on either side fails,
    because a relative comparison with it shows nothing.
    """
    for side, value in (("executed", scalar), ("oracle", reference)):
        if not math.isfinite(value):
            return f"{side} value is not finite"
        if value == 0.0:
            return f"{side} value is exactly 0.0"
    if not math.isclose(scalar, reference, rel_tol=1e-10):
        return "relative difference above 1e-10"
    return None


def _fail(check: CheckResult, failure: str) -> None:
    """Keep the first failure a check meets."""
    if check.failure is None:
        check.failure = failure


def run_verification(grid: str = "small", seed: int = 42) -> VerificationReport:
    """Run every check over the grid; deterministic for a fixed seed."""
    params_list = grid_params(grid)
    report = VerificationReport(grid=grid, seed=seed, tuples=len(params_list))

    count_checks = {"mps": CheckResult("mps measured == closed form"),
                    "comb": CheckResult("comb measured == printed form - M*x^2")}
    residual_check = CheckResult("printed - measured residual == M*x^2")
    oracle_check = CheckResult("executed scalar == value oracle")

    for idx, p in enumerate(params_list):
        overhead = p.teeth * p.bond_dim * p.bond_dim
        printed = costmodel.comb_cost_printed(p)
        # the printed comb form carries M*x^2 that no schedule step makes
        expected = {"mps": costmodel.mps_cost(p), "comb": printed - overhead}
        for build in (build_mps, build_comb):
            net = build(p, seed=seed + idx)
            scalar, cost = execute(net, plan_for(net))
            count_check = count_checks[net.kind]
            if cost.total != expected[net.kind]:
                _fail(count_check, f"at {_describe(p)}: measured "
                                   f"{cost.total}, formula {expected[net.kind]}")
            else:
                count_check.passed += 1
            if net.kind == "comb":
                # the schedule form too: no other check compares it with
                # a measured count
                residual = printed - cost.total
                gap = printed - costmodel.comb_cost_schedule(p)
                if residual != overhead or gap != overhead:
                    _fail(residual_check, f"at {_describe(p)}: printed - measured = "
                                          f"{residual}, printed - schedule = {gap}, "
                                          f"expected {overhead}")
                else:
                    residual_check.passed += 1

            try:
                reference = naive_value_oracle(net)
            except OracleGuardError:
                oracle_check.skipped += 1
                continue
            mismatch = _value_mismatch(scalar, reference)
            if mismatch is not None:
                _fail(oracle_check, f"at {_describe(p)} [{net.kind}]: executed "
                                    f"{scalar!r}, oracle {reference!r}: {mismatch}")
            else:
                oracle_check.passed += 1

    vieta_check = CheckResult("vieta identities on threshold roots")
    pairs = {(p.teeth, float(p.dim_comp)) for p in params_list if p.teeth >= 3}
    # the grids keep d tiny, so add seeded pairs that actually have real roots
    rng = np.random.default_rng(seed)
    while len(pairs) < 200:
        pairs.add((int(rng.integers(3, 200)), float(rng.uniform(5.0, 100.0))))
    for m, d in sorted(pairs):
        result = threshold_roots(d, m)
        if result.roots is None:
            vieta_check.skipped += 1
        elif verify_vieta(result):
            vieta_check.passed += 1
        else:
            _fail(vieta_check, f"at (M={m}, d={d}): roots {result.roots} break Vieta")

    delta_check = CheckResult("cost gap independent of N and D")
    groups: dict[tuple[int, int, int], tuple[int, int, NetworkParams]] = {}
    for p in params_list:
        key = (p.teeth, p.dim_comp, p.bond_dim)
        deltas = (costmodel.cost_delta(p, "schedule"), costmodel.cost_delta(p, "printed"))
        if key not in groups:
            groups[key] = (*deltas, p)
            continue
        ref_sched, ref_printed, ref_p = groups[key]
        if deltas != (ref_sched, ref_printed):
            _fail(delta_check, f"{_describe(p)} and {_describe(ref_p)} disagree: "
                               f"{deltas} vs {(ref_sched, ref_printed)}")
        else:
            delta_check.passed += 1

    report.checks = [count_checks["mps"], count_checks["comb"], residual_check,
                     oracle_check, vieta_check, delta_check]
    return report
