import concurrent.futures
import hashlib
import math
import os
from dataclasses import replace

import pytest

from combtn import costmodel, engine, tensor, verification
from combtn.cli import main
from combtn.engine import OracleGuardError, execute, naive_value_oracle, plan_for
from combtn.network import build_comb, build_mps
from combtn.network import _geometry
from pools import nothing_left_but_the_pool, running

ORACLE_CHECK = "executed scalar == value oracle"


def _oracle_check(report):
    (check,) = [c for c in report.checks if c.name == ORACLE_CHECK]
    return check


def test_record_counts_passes_and_keeps_the_first_failure():
    check = verification.CheckResult("check")
    check.record(None)
    check.record(None)
    assert (check.passed, check.skipped, check.failure, check.ok) == (2, 0, None, True)
    check.record("first")
    # neither a later pass nor a later failure replaces the first failure
    check.record(None)
    check.record("second")
    assert (check.passed, check.skipped, check.failure, check.ok) == (3, 0, "first", False)


def test_small_grid_oracle_check_passes():
    check = _oracle_check(verification.run_verification("small", seed=42))
    assert check.ok
    assert check.passed > 0


def test_small_grid_misses_each_memo_once_per_distinct_key(monkeypatch):
    # on one CPU every tuple is measured in this process; the grid visits
    # each (M, N) in a row, so no key is asked for again once evicted
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    memos = (_geometry, engine._plan, engine._walk_bond_graph)
    for memo in memos:
        memo.cache_clear()
    verification.run_verification("small", 42)
    keys = {key for p in verification.grid_params("small")
            for key in (("mps", p.sites), ("comb", p.teeth, p.tooth_len))}
    assert len(keys) == 17
    assert [memo.cache_info().misses for memo in memos] == [len(keys)] * 3


def test_oracle_guard_refusals_count_as_skipped(monkeypatch):
    # patched before the fork, so every share's oracle refuses the six
    # networks whose largest merge holds more than 30 scalars; perfbench
    # reads the oracle check's passed plus skipped
    monkeypatch.setattr(engine, "ORACLE_GUARD", 30)
    report = verification.run_verification("small", 42)
    check = _oracle_check(report)
    assert report.ok
    assert (check.passed, check.skipped) == (318, 6)
    assert check.passed + check.skipped == 2 * report.tuples == 2 * 162


def test_an_unknown_grid_is_refused():
    with pytest.raises(ValueError,
                       match=r"^grid must be one of \('small', 'full'\), got 'medium'$"):
        verification.grid_params("medium")


def test_oracle_error_on_tiny_values_fails_the_check(monkeypatch):
    # about a third of the scalars are below 1e-12 in magnitude; an absolute
    # tolerance there would accept any oracle value of the same size
    doubled = []

    def wrong_when_tiny(net, *args, **kwargs):
        value = naive_value_oracle(net, *args, **kwargs)
        if abs(value) < 1e-12:
            doubled.append(value)
            return 2.0 * value
        return value

    monkeypatch.setattr(verification, "naive_value_oracle", wrong_when_tiny)
    check = _oracle_check(verification.run_verification("small", seed=42))
    assert doubled
    assert not check.ok
    assert check.failure.startswith("at (M=")


@pytest.mark.parametrize("bad, words", [
    (0.0, "exactly 0.0"),
    (-0.0, "exactly 0.0"),
    (math.nan, "not finite"),
    (math.inf, "not finite"),
])
@pytest.mark.parametrize("side", ["executed", "oracle"])
def test_zero_or_non_finite_value_fails_the_check(monkeypatch, side, bad, words):
    if side == "oracle":
        monkeypatch.setattr(verification, "naive_value_oracle",
                            lambda net, *args, **kwargs: bad)
    else:
        monkeypatch.setattr(verification, "execute",
                            lambda net, plan: (bad, execute(net, plan)[1]))
    check = _oracle_check(verification.run_verification("small", seed=42))
    assert not check.ok
    assert f"{side} value" in check.failure
    assert words in check.failure


def test_a_wrong_comb_count_fails_both_count_checks(monkeypatch):
    # the residual is printed form minus measured count, so a measured
    # count one too high breaks it as well as the count check
    def one_too_many(net, plan):
        scalar, report = execute(net, plan)
        if net.kind == "comb":
            report = replace(report, total=report.total + 1)
        return scalar, report

    monkeypatch.setattr(verification, "execute", one_too_many)
    checks = {c.name: c for c in verification.run_verification("small", seed=42).checks}
    assert checks["mps measured == closed form"].ok
    for name in ("comb measured == printed form - M*x^2",
                 "printed - measured residual == M*x^2"):
        assert not checks[name].ok, name
        assert checks[name].failure.startswith("at (M=")
    assert "printed - measured" in checks["printed - measured residual == M*x^2"].failure


def test_an_oracle_value_off_by_one_part_in_a_billion_fails_the_check(monkeypatch):
    # the worst grid scalar sits about 1e-11 from its oracle value, so a
    # tolerance loosened to 1e-9 or more would pass this shift
    monkeypatch.setattr(verification, "naive_value_oracle",
                        lambda net: naive_value_oracle(net) * (1 + 1e-9))
    check = _oracle_check(verification.run_verification("small", seed=42))
    assert not check.ok
    assert check.failure.endswith("relative difference above 1e-10")


def test_a_printed_gap_that_grows_with_n_fails_the_gap_check(monkeypatch):
    # only the printed basis is wrong, so a check of the schedule gap alone
    # would pass; the comb count check reads comb_cost_printed, not this
    true_delta = costmodel.cost_delta

    def printed_grows(p, basis="schedule"):
        return true_delta(p, basis) + (p.tooth_len if basis == "printed" else 0)

    monkeypatch.setattr(costmodel, "cost_delta", printed_grows)
    checks = {c.name: c for c in verification.run_verification("small", seed=42).checks}
    assert not checks["cost gap independent of N and D"].ok
    assert checks["comb measured == printed form - M*x^2"].ok


def _measured(grid: str, seed: int, monkeypatch) -> list[tuple]:
    """The measurements ``run_verification(grid, seed)`` reads, one entry
    per network in tuple order."""
    measure_grid, seen = verification._measure_grid, []

    def recorded(*args):
        seen.append(measure_grid(*args))
        return seen[-1]

    monkeypatch.setattr(verification, "_measure_grid", recorded)
    assert verification.run_verification(grid, seed).ok
    monkeypatch.setattr(verification, "_measure_grid", measure_grid)
    [measured] = seen
    return [net for networks in measured for net in networks]


def _hexed(measured) -> list[tuple]:
    return [(kind, total, scalar.hex(), None if ref is None else ref.hex())
            for kind, total, scalar, ref in measured]


def _recording_pool(monkeypatch) -> list:
    """Patch the pool verification opens; return the list of its worker
    counts."""
    workers, pool = [], concurrent.futures.ProcessPoolExecutor

    def recorded(max_workers, **kwargs):
        workers.append(max_workers)
        return pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    return workers


def test_measurements_do_not_depend_on_the_cpu_count(monkeypatch):
    # a plain loop over the grid, on the calling thread alone
    serial = []
    for idx, p in enumerate(verification.grid_params("small")):
        for build in (build_mps, build_comb):
            net = build(p, seed=42 + idx)
            scalar, cost = execute(net, plan_for(net))
            try:
                reference = naive_value_oracle(net)
            except OracleGuardError:
                reference = None
            serial.append((net.kind, cost.total, scalar, reference))
    assert len(serial) == 2 * 162
    workers = _recording_pool(monkeypatch)
    before = running()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
        measured = _measured("small", 42, monkeypatch)
        assert _hexed(measured) == _hexed(serial), cpus
        assert nothing_left_but_the_pool(before)
    # one CPU opens no pool; n CPUs open n - 1 worker processes
    assert workers == [1, 2]


def test_verify_stdout_does_not_depend_on_the_cpu_count(monkeypatch, capsys):
    outputs = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
        assert main(["verify", "--grid", "small", "--seed", "42"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


@pytest.mark.parametrize("cpus, faulty", [(2, (3, 6)), (3, (5, 7))])
def test_the_first_failure_is_the_lowest_tuple_in_any_share(cpus, faulty, monkeypatch):
    # the lower faulty tuple is in a later share than the higher one, so a
    # fold in share order would report the higher
    assert faulty[0] % cpus > faulty[1] % cpus
    params_list = verification.grid_params("small")
    bad = {params_list[idx] for idx in faulty}

    def one_too_many_at_two_tuples(net, plan):
        scalar, report = execute(net, plan)
        if net.kind == "mps" and net.params in bad:
            report = replace(report, total=report.total + 1)
        return scalar, report

    monkeypatch.setattr(verification, "execute", one_too_many_at_two_tuples)
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    checks = {c.name: c for c in verification.run_verification("small", seed=42).checks}
    check = checks["mps measured == closed form"]
    assert check.failure.startswith(
        f"at {verification._describe(params_list[faulty[0]])}: measured ")
    assert check.passed == len(params_list) - 2


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_share_that_raises_fails_the_run(where, monkeypatch):
    caller = os.getpid()

    def boom(net):
        if (os.getpid() == caller) == (where == "caller"):
            raise ValueError("boom")
        return naive_value_oracle(net)

    monkeypatch.setattr(verification, "naive_value_oracle", boom)
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    before = running()
    with pytest.raises(ValueError, match="^boom$"):
        verification.run_verification("small", seed=42)
    assert nothing_left_but_the_pool(before)


# sha256 over (kind, measured count, float.hex of the executed scalar and of
# the oracle's value) of both networks of every full-grid tuple at seed 42,
# in tuple order; with the pinned small-grid digests it guards the fold of
# the shares back into tuple order
FULL_GRID_DIGEST = "49a8f4e62431ad52913d980c8ebc6f27a294c825dbc6e7ade510cb5430c2833b"


def test_full_grid_measurements_are_pinned(monkeypatch):
    measured = _measured("full", 42, monkeypatch)
    assert len(measured) == 4032
    digest = hashlib.sha256()
    for kind, total, scalar, reference in _hexed(measured):
        digest.update(f"{kind} {total} {scalar} {reference or 'skipped'};".encode())
    assert digest.hexdigest() == FULL_GRID_DIGEST
