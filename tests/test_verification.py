import math
from dataclasses import replace

import pytest

from combtn import verification
from combtn.engine import execute, naive_value_oracle

ORACLE_CHECK = "executed scalar == value oracle"


def _oracle_check(report):
    (check,) = [c for c in report.checks if c.name == ORACLE_CHECK]
    return check


def test_small_grid_oracle_check_passes():
    check = _oracle_check(verification.run_verification("small", seed=42))
    assert check.ok
    assert check.passed > 0


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
