"""What the benchmark in ``perfbench/`` reads of the program.

perfbench wraps the functions its ``spans.TRACED`` names, and checks each
contraction against a log-space reference of its own that reads
``spine{m}`` and ``site{i}`` in node axis order. These tests load its
modules by path, so a renamed function or a wrong ``node_axes`` fails here
rather than as outputs a benchmark run reports incorrect.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import combtn
import combtn.cli  # noqa: F401  (spans resolves names on every module)
from combtn import engine, network
from combtn.engine import execute, plan_for
from combtn.network import NetworkParams, attach_data, build_comb, build_mps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    # under a name of its own, so perfbench's own tests keep theirs
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
checks = _load("checks")


def test_every_traced_function_resolves():
    for module_name, func_name, _ in spans.TRACED:
        module = getattr(combtn, module_name)
        assert callable(getattr(module, func_name)), f"{module_name}.{func_name}"


# distinct extents, more than two interior spines and teeth, so a stack
# read in the wrong axis order cannot agree with the reference
SMALL = NetworkParams(dim_raw=5, dim_comp=3, bond_dim=4, teeth=5, tooth_len=3)


@pytest.mark.parametrize("build", [build_mps, build_comb])
@pytest.mark.parametrize("with_data", [False, True])
def test_reference_and_count_checks_pass_on_the_program(build, with_data):
    net = build(SMALL, seed=7)
    if with_data:
        rng = np.random.default_rng(8)
        net = attach_data(net, rng.standard_normal((SMALL.sites, SMALL.dim_raw)))
    scalar, report = execute(net, plan_for(net))
    sign, log_abs = checks.reference_value(net)
    assert sign == math.copysign(1.0, scalar)
    assert abs(math.log(abs(scalar)) - log_abs) <= checks.VALUE_LOG_TOL
    dims = (SMALL.teeth, SMALL.tooth_len, SMALL.dim_raw, SMALL.dim_comp, SMALL.bond_dim)
    assert checks.check_count(net.kind, dims, report) is None


@pytest.mark.parametrize("build", ["build_mps", "build_comb"])
def test_traced_work_reads_the_arrays(build, monkeypatch):
    # spans.Tracer on a build, an attach_data and an execute with and
    # without data, each called on its module as the tracer patched it:
    # the per-layer work it reads off plain arrays is the counts and sizes
    # summed here by hand
    tracer = spans.Tracer()
    tracer.install(combtn)
    steps = []
    try:
        with monkeypatch.context() as patch:
            traced = engine.contract_pair

            def recorded(a, b, pairing):
                out, cost = traced(a, b, pairing)
                steps.append(8 * (a.size + b.size + out.size))
                return out, cost

            patch.setattr(engine, "contract_pair", recorded)
            tracer.active = True
            net = getattr(network, build)(SMALL, seed=7)
            data = np.random.default_rng(8).standard_normal((SMALL.sites, SMALL.dim_raw))
            reports = [engine.execute(n, engine.plan_for(n))[1]
                       for n in (net, network.attach_data(net, data))]
            tracer.active = False
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals(rounds=1)
    assert totals["tensor.contract_pair.calls"] == totals["engine.steps"] == len(steps)
    assert totals["tensor.contract_pair.work_a"] == sum(r.total for r in reports)
    assert totals["tensor.contract_pair.work_b"] == sum(steps)
    assert totals["network.build.calls"] == totals["network.attach_data.calls"] == 1
    assert totals["network.build.work_a"] == \
        8 * sum(arr.size for arr in net.arrays.values())


def test_verify_prints_the_check_lines_perfbench_reads(capsys):
    # checks.check_verify_output reads the full grid's output by these
    # keys; the small grid prints the same check names
    assert combtn.cli.main(["verify", "--grid", "small"]) == 0
    lines = capsys.readouterr().out.splitlines()
    matches = [m.groups() for m in map(checks._CHECK.match, lines) if m]
    assert len(matches) == checks.FULL_GRID_CHECKS == 6
    assert all(status == "PASS" for status, *_ in matches)
    counted = {name: (int(passed), int(skipped or 0))
               for _, name, passed, skipped in matches}
    per_tuple = [v for k, v in counted.items() if k.startswith(("mps ", "comb ", "printed "))]
    assert per_tuple == [(162, 0)] * 3
    oracle = [v for k, v in counted.items() if "oracle" in k]
    assert oracle == [(324, 0)]
