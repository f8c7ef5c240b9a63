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

The measurements (build, ``execute`` and oracle, per tuple) run on every
CPU the process may use, through ``tensor._run_all`` on forked processes,
since the work is Python on tiny arrays and threads would take turns under
the GIL. The checks read the measurements in tuple order, so the report and
every bit in it do not depend on the CPU count; only the wall time does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from . import costmodel, tensor
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
    """One check's tally over the grid: cases passed, cases skipped (the
    caller counts these itself) and the first failure, if any."""

    name: str
    passed: int = 0
    skipped: int = 0
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def record(self, failure: Optional[str]) -> None:
        """Count one case: a pass where ``failure`` is None, else keep the
        failure if it is the check's first."""
        if failure is None:
            self.passed += 1
        elif self.failure is None:
            self.failure = failure


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


def _measure(p: NetworkParams, seed: int) -> list[tuple]:
    """Build both kinds at ``p`` and ``seed``, execute each and ask the
    value oracle. Per network (kind, measured count, scalar, oracle value),
    the oracle value None where its size guard refused."""
    measured = []
    for build in (build_mps, build_comb):
        net = build(p, seed=seed)
        scalar, cost = execute(net, plan_for(net))
        try:
            reference = naive_value_oracle(net)
        except OracleGuardError:
            reference = None
        measured.append((net.kind, cost.total, scalar, reference))
    return measured


def _measure_grid(params_list: list[NetworkParams], seed: int) -> list[list[tuple]]:
    """``_measure`` of every tuple at ``seed`` plus its index, in tuple
    order, on every CPU through forked processes."""
    parts = [(p, seed + idx) for idx, p in enumerate(params_list)]
    return tensor._run_all(_measure, parts, fork=True)


def run_verification(grid: str = "small", seed: int = 42) -> VerificationReport:
    """Run every check over the grid; deterministic for a fixed seed, and
    the same report at any CPU count."""
    params_list = grid_params(grid)
    report = VerificationReport(grid=grid, seed=seed, tuples=len(params_list))

    count_checks = {"mps": CheckResult("mps measured == closed form"),
                    "comb": CheckResult("comb measured == printed form - M*x^2")}
    residual_check = CheckResult("printed - measured residual == M*x^2")
    oracle_check = CheckResult("executed scalar == value oracle")

    for p, networks in zip(params_list, _measure_grid(params_list, seed)):
        overhead = p.teeth * p.bond_dim * p.bond_dim
        printed = costmodel.comb_cost_printed(p)
        # the printed comb form carries M*x^2 that no schedule step makes
        expected = {"mps": costmodel.mps_cost(p), "comb": printed - overhead}
        for kind, total, scalar, reference in networks:
            count_checks[kind].record(None if total == expected[kind] else
                                      f"at {_describe(p)}: measured "
                                      f"{total}, formula {expected[kind]}")
            if kind == "comb":
                # the schedule form too: no other check compares it with
                # a measured count
                residual = printed - total
                gap = printed - costmodel.comb_cost_schedule(p)
                residual_check.record(None if residual == gap == overhead else
                                      f"at {_describe(p)}: printed - measured = "
                                      f"{residual}, printed - schedule = {gap}, "
                                      f"expected {overhead}")

            if reference is None:
                oracle_check.skipped += 1
                continue
            mismatch = _value_mismatch(scalar, reference)
            oracle_check.record(None if mismatch is None else
                                f"at {_describe(p)} [{kind}]: executed "
                                f"{scalar!r}, oracle {reference!r}: {mismatch}")

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
        else:
            vieta_check.record(None if verify_vieta(result) else
                               f"at (M={m}, d={d}): roots {result.roots} break Vieta")

    delta_check = CheckResult("cost gap independent of N and D")
    groups: dict[tuple[int, int, int], tuple[int, int, NetworkParams]] = {}
    for p in params_list:
        key = (p.teeth, p.dim_comp, p.bond_dim)
        deltas = (costmodel.cost_delta(p, "schedule"), costmodel.cost_delta(p, "printed"))
        if key not in groups:
            groups[key] = (*deltas, p)
            continue
        ref_sched, ref_printed, ref_p = groups[key]
        delta_check.record(None if deltas == (ref_sched, ref_printed) else
                           f"{_describe(p)} and {_describe(ref_p)} disagree: "
                           f"{deltas} vs {(ref_sched, ref_printed)}")

    report.checks = [count_checks["mps"], count_checks["comb"], residual_check,
                     oracle_check, vieta_check, delta_check]
    return report
