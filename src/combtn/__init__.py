"""Contraction-cost laboratory for compression-layer MPS chains and comb
tensor networks: instrumented contraction, closed-form cost polynomials,
and the bond-dimension threshold analysis between the two geometries."""

from .costmodel import (
    CrosscheckReport,
    Regime,
    ThresholdResult,
    comb_cost_printed,
    comb_cost_schedule,
    comb_cost_terms,
    cost_delta,
    crosscheck_quadratic,
    mps_cost,
    mps_cost_terms,
    sequential_products,
    threshold_roots,
    threshold_sweep,
    verify_vieta,
)
from .engine import (
    ContractionPlan,
    CostReport,
    OracleGuardError,
    PlanStep,
    comb_plan,
    execute,
    mps_plan,
    naive_value_oracle,
    plan_for,
)
from .network import (
    Bond,
    NetworkParams,
    Node,
    Stack,
    TensorNetwork,
    attach_data,
    build_comb,
    build_mps,
    set_orthonormal_compressions,
)
from .tensor import (
    CHAIN,
    INT64_MAX,
    AxisPairing,
    CountOverflowError,
    StepCost,
    Tensor,
    contract_pair,
    random_tensor,
)
from .verification import VerificationReport, grid_params, run_verification

__version__ = "0.1.0"
