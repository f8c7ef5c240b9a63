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
