"""Closed-form multiplication counts and the comb-vs-MPS threshold analysis.

Two comb formulas are carried side by side. The ``printed`` form is the
closed form as originally stated; it includes a per-tooth x**2 term that no
step of the executable schedule produces. The ``schedule`` form is the exact
count of the executable schedule and equals the printed form minus M*x**2.
The threshold quadratic below is consistent with the schedule form: the
cost gap factors as

    mps_cost - comb_cost_schedule = -x * ((M-2)*x**2 + (2 - d*(M-2))*x + d*(M-2))

so the comb wins exactly when x lies strictly between the quadratic's roots.
All user-facing commands default to the schedule basis and label it; the
residual is surfaced, never hidden.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .network import NetworkParams
from .tensor import checked_count

BASES = ("schedule", "printed")


def _check_basis(basis: str) -> None:
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")


def mps_cost_terms(params: NetworkParams) -> dict[str, int]:
    """Per-phase multiplication counts of the MPS schedule, in phase order."""
    p = params
    length = p.sites
    d, x, d_raw = p.dim_comp, p.bond_dim, p.dim_raw
    return {
        "compress": length * d_raw * d,
        "absorb-boundary": 2 * x * d,
        "absorb-interior": (length - 2) * x * x * d,
        "chain-sweep": (length - 2) * x * x,
        "final-dot": x,
    }


def mps_cost(params: NetworkParams) -> int:
    """Total MPS contraction cost N*M*D*d + 2xd + (NM-2)x^2 d + (NM-2)x^2 + x."""
    return checked_count(sum(mps_cost_terms(params).values()))


def comb_cost_terms(params: NetworkParams, basis: str = "schedule") -> dict[str, int]:
    """Per-phase counts of the comb schedule; ``printed`` adds the
    unattributed per-tooth x**2 term."""
    _check_basis(basis)
    p = params
    m, n = p.teeth, p.tooth_len
    d, x, d_raw = p.dim_comp, p.bond_dim, p.dim_raw
    terms = {
        "compress": m * n * d_raw * d,
        "absorb-tooth-end": m * d * x,
        "absorb-tooth-interior": m * (n - 1) * d * x * x,
        "tooth-sweep": m * (n - 1) * x * x,
        "tooth-to-backbone-boundary": 2 * x * x,
        "tooth-to-backbone-interior": (m - 2) * x**3,
        "chain-sweep": (m - 2) * x * x,
        "final-dot": x,
    }
    if basis == "printed":
        terms["per-tooth-unattributed"] = m * x * x
    return terms


def comb_cost_schedule(params: NetworkParams) -> int:
    """Comb cost actually incurred by the executable schedule."""
    return checked_count(sum(comb_cost_terms(params, "schedule").values()))


def comb_cost_printed(params: NetworkParams) -> int:
    """Comb cost as originally printed: schedule cost plus M*x**2."""
    return checked_count(sum(comb_cost_terms(params, "printed").values()))


def cost_delta(params: NetworkParams, basis: str = "schedule") -> int:
    """mps_cost minus the comb cost on ``basis``, the sum of
    ``comb_cost_terms``, which refuses an unknown basis; positive means
    comb is cheaper."""
    return mps_cost(params) - checked_count(sum(comb_cost_terms(params, basis).values()))


def sequential_products(kind: str, params: NetworkParams) -> int:
    """Products on the longest chain of dependent steps of the schedule.

    Steps that do not wait on one another can run as one batched product,
    so they count once; a sweep counts one product per matrix it passes.
    Batching the schedule's steps further cannot make this chain shorter.
    MPS: compress, absorb, the L - 2 interior sites and the final dot, L + 1
    in all. Comb: compress, absorb, the N - 1 tooth steps, the entry into
    the backbone, its M - 2 interior spines and the final dot, N + M + 1.
    """
    if kind == "mps":
        return params.sites + 1
    if kind == "comb":
        return params.tooth_len + params.teeth + 1
    raise ValueError(f"kind must be 'mps' or 'comb', got {kind!r}")


class Regime(Enum):
    MPS_ALWAYS_CHEAPER = "mps-always-cheaper"
    COMB_WINDOW = "comb-window"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ThresholdResult:
    """Roots and regime of (M-2)x^2 + (2 - d(M-2))x + d(M-2) = 0.

    ``roots`` is None when the discriminant is negative (and for M == 2,
    where the quadratic degenerates and the MPS always wins). DEGENERATE
    marks a zero discriminant: the window collapses to the single point
    where both costs tie.
    """

    teeth: int
    comp_dim: float
    a: float
    b: float
    c: float
    discriminant: float
    roots: Optional[tuple[float, float]]
    regime: Regime

    @property
    def x_minus(self) -> Optional[float]:
        return self.roots[0] if self.roots else None

    @property
    def x_plus(self) -> Optional[float]:
        return self.roots[1] if self.roots else None


def threshold_roots(comp_dim: float, teeth: int) -> ThresholdResult:
    """Solve the threshold quadratic for given d and M.

    Roots are computed with the stable quadratic method: the larger-magnitude
    root first from q = -(b + sign(b)*sqrt(disc))/2, the other via the
    product-of-roots identity x- * x+ = d. ``comp_dim`` may be real-valued;
    network construction requires integers but threshold curves are continuous.
    ``teeth`` must be an integer: a float raises TypeError, not truncated.
    M = 2 and a negative discriminant give one verdict: no roots, and the
    MPS always cheaper. Raises ValueError where float64 holds no roots: a
    non-finite ``comp_dim``, a ``teeth`` or ``comp_dim`` beyond the float64
    range, or a discriminant that overflows.
    """
    try:
        m = operator.index(teeth)
        a = float(m - 2)
    except OverflowError:
        raise ValueError(f"teeth={teeth} is beyond the float64 range") from None
    if m < 2:
        raise ValueError(f"teeth must be >= 2, got {teeth}")
    try:
        d = float(comp_dim)
    except OverflowError:
        raise ValueError(f"comp_dim={comp_dim} is beyond the float64 range") from None
    if not math.isfinite(d):
        raise ValueError(f"comp_dim must be finite, got {comp_dim}")
    if d <= 0:
        raise ValueError(f"comp_dim must be positive, got {comp_dim}")
    b = -d * a + 2.0
    c = d * a
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        raise ValueError(f"the discriminant at teeth={m}, comp_dim={d:g} is "
                         f"beyond the float64 range")
    if m == 2 or disc < 0.0:
        # no real roots; at M = 2 the quadratic degenerates to 2x = 0, and
        # the schedule-basis gap is -2x^2 < 0
        return ThresholdResult(m, d, a, b, c, disc, None, Regime.MPS_ALWAYS_CHEAPER)
    if disc == 0.0:
        x0 = -b / (2.0 * a)
        return ThresholdResult(m, d, a, b, c, disc, (x0, x0), Regime.DEGENERATE)
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    large = q / a
    other = c / q
    x_minus, x_plus = sorted((large, other))
    regime = Regime.COMB_WINDOW if x_minus > 0.0 else Regime.MPS_ALWAYS_CHEAPER
    return ThresholdResult(m, d, a, b, c, disc, (x_minus, x_plus), regime)


@dataclass(frozen=True)
class SweepRow:
    comp_dim: int
    x_minus: Optional[float]
    x_plus: Optional[float]
    regime: Regime


def threshold_sweep(teeth: int, d_min: int, d_max: int,
                    step: int = 1) -> Iterator[SweepRow]:
    """One SweepRow per d in [d_min, d_max] at the given step, yielded in
    order of d, each as soon as it is solved.

    The whole range is checked before the first row: a bad range, or a d
    where float64 holds no roots, raises ValueError here. For one ``teeth``,
    ``threshold_roots`` fails at every d, at d <= 0 or past the d where the
    discriminant overflows, so solving the first and the last d of the
    range checks every d in it.
    """
    if d_min > d_max:
        raise ValueError(f"d_min must not exceed d_max ({d_min} > {d_max})")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    dims = range(d_min, d_max + 1, step)
    threshold_roots(dims[0], teeth)
    threshold_roots(dims[-1], teeth)
    return (_sweep_row(d, teeth) for d in dims)


def _sweep_row(d: int, teeth: int) -> SweepRow:
    res = threshold_roots(d, teeth)
    return SweepRow(d, res.x_minus, res.x_plus, res.regime)


@dataclass(frozen=True)
class QuadraticProbe:
    x: int
    delta: int
    inside_window: bool
    near_root: bool
    consistent: bool


@dataclass(frozen=True)
class CrosscheckReport:
    threshold: ThresholdResult
    probes: tuple[QuadraticProbe, ...]
    consistent: bool


def crosscheck_quadratic(teeth: int, comp_dim: int) -> CrosscheckReport:
    """Validate the quadratic's sign prediction against the schedule-basis gap.

    For each integer probe x from 1 to twice the upper root (or 2d without
    roots), the gap must be positive strictly between the roots and negative
    outside; probes within 0.5 of either root are recorded but not
    sign-checked. The gap is evaluated through the closed forms at
    N=1, D=d (it is independent of both), not through the quadratic itself.
    Both arguments must be integers: a float raises TypeError, not truncated.
    """
    m = operator.index(teeth)
    d = operator.index(comp_dim)
    if m < 3:
        raise ValueError(f"crosscheck needs teeth >= 3, got {teeth}")
    result = threshold_roots(d, m)
    upper = math.ceil(2 * result.x_plus) if result.roots else 2 * d
    probes = []
    all_ok = True
    for x in range(1, max(upper, 2) + 1):
        params = NetworkParams(dim_raw=d, dim_comp=d, bond_dim=x,
                               teeth=m, tooth_len=1)
        delta = cost_delta(params, basis="schedule")
        if result.roots:
            xm, xp = result.roots
            inside = xm < x < xp
            near = abs(x - xm) <= 0.5 or abs(x - xp) <= 0.5
        else:
            inside = False
            near = False
        consistent = near or (delta > 0 if inside else delta < 0)
        all_ok = all_ok and consistent
        probes.append(QuadraticProbe(x, delta, inside, near, consistent))
    return CrosscheckReport(result, tuple(probes), all_ok)


def verify_vieta(result: ThresholdResult) -> bool:
    """Check x-*x+ == d and x- + x+ == d - 2/(M-2) to a relative 1e-12."""
    if not result.roots or result.teeth < 3:
        return True
    xm, xp = result.roots
    d, m = result.comp_dim, result.teeth
    prod_ok = math.isclose(xm * xp, d, rel_tol=1e-12)
    sum_ok = math.isclose(xm + xp, d - 2.0 / (m - 2), rel_tol=1e-12)
    return prod_ok and sum_ok
