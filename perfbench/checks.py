"""Independent checks of combtn's outputs.

Nothing here calls combtn's cost model, planners or executor. Counts come
from the closed forms of the paper, written out again below; values come
from a contraction the benchmark does itself with numpy, in a different
order from the program's schedules and renormalised at every step; the
threshold roots come from the benchmark's own solution of the quadratic.

Every ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not, so that a failure names what went wrong.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, getcontext
from itertools import product

import numpy as np

# The full verification grid: N, M, d, D - d, x (see combtn verify --grid full).
FULL_GRID_AXES = (range(1, 9), range(2, 9), (1, 2, 3), (0, 1), range(1, 7))
FULL_GRID_TUPLES = 2016
FULL_GRID_CHECKS = 6
VALUE_LOG_TOL = 1e-8


# ---------------------------------------------------------------- counts


def mps_count(m: int, n: int, big_d: int, d: int, x: int) -> int:
    """MPS: NMDd + 2xd + (NM-2)x^2 d + (NM-2)x^2 + x."""
    return (n * m * big_d * d + 2 * x * d + (n * m - 2) * x * x * d
            + (n * m - 2) * x * x + x)


def comb_count(m: int, n: int, big_d: int, d: int, x: int) -> int:
    """Comb, schedule basis: NMDd + Mdx + M(N-1)dx^2 + M(N-1)x^2 + 2x^2
    + (M-2)x^3 + (M-2)x^2 + x."""
    return (n * m * big_d * d + m * d * x + m * (n - 1) * d * x * x
            + m * (n - 1) * x * x + 2 * x * x + (m - 2) * x**3
            + (m - 2) * x * x + x)


def threshold_quadratic(m: int, d: int, x: int) -> int:
    """(M-2)x^2 + (2 - d(M-2))x + d(M-2), in exact integers."""
    return (m - 2) * x * x + (2 - d * (m - 2)) * x + d * (m - 2)


def check_count(kind: str, dims: tuple[int, int, int, int, int], report) -> str | None:
    """``report.total`` must equal the closed form of ``kind``; for the comb,
    ``report.analytic_printed - report.total`` must equal M*x^2.

    ``dims`` is (M, N, D, d, x).
    """
    m, _, _, _, x = dims
    expected = mps_count(*dims) if kind == "mps" else comb_count(*dims)
    if report.total != expected:
        return f"{kind} count {report.total} != closed form {expected} at {dims}"
    if kind == "comb":
        residual = report.analytic_printed - report.total
        if residual != m * x * x:
            return f"comb printed - measured = {residual} != M*x^2 = {m * x * x} at {dims}"
    return None


def full_grid() -> list[tuple[int, int, int, int, int]]:
    """Every (M, N, D, d, x) of the full grid, enumerated here, not by combtn."""
    return [(m, n, d + extra, d, x)
            for n, m, d, extra, x in product(*FULL_GRID_AXES)]


def check_gap_identity(dims: tuple[int, int, int, int, int],
                       mps_total: int, comb_total: int, gap: int) -> str | None:
    """Both counts equal the closed forms above, and the reported gap equals
    both mps - comb_schedule and -x * quadratic(x)."""
    m, _, _, d, x = dims
    if mps_total != mps_count(*dims):
        return f"mps count {mps_total} != closed form {mps_count(*dims)} at {dims}"
    if comb_total != comb_count(*dims):
        return f"comb count {comb_total} != closed form {comb_count(*dims)} at {dims}"
    expected = -x * threshold_quadratic(m, d, x)
    if gap != mps_total - comb_total or gap != expected:
        return (f"gap {gap}, mps - comb = {mps_total - comb_total}, "
                f"-x*quadratic = {expected} at {dims}")
    return None


# ---------------------------------------------------------------- roots


def threshold_roots(m: int, d: int) -> tuple[float, float]:
    """Roots of the threshold quadratic, solved in 40-digit decimals."""
    getcontext().prec = 40
    a = Decimal(m - 2)
    b = Decimal(2 - d * (m - 2))
    c = Decimal(d * (m - 2))
    root = (b * b - 4 * a * c).sqrt()
    return float((-b - root) / (2 * a)), float((-b + root) / (2 * a))


def check_roots(m: int, d: int, code: int, payload: dict) -> str | None:
    """``threshold --json`` output must hold the roots solved here (it rounds
    to six places) and report the comb window."""
    if code != 0:
        return f"threshold --json exited {code}"
    x_minus, x_plus = threshold_roots(m, d)
    for key, want in (("x_minus", x_minus), ("x_plus", x_plus)):
        got = payload.get(key)
        if not isinstance(got, float) or abs(got - want) > 1e-6:
            return f"threshold {key} = {got!r}, solved {want:.9f} at (M={m}, d={d})"
    if payload.get("regime") != "comb-window":
        return f"threshold regime {payload.get('regime')!r}, expected 'comb-window'"
    return None


# ---------------------------------------------------------------- verify


_HEADER = re.compile(r"verification grid: full \((\d+) parameter tuples\), seed (\d+)")
_CHECK = re.compile(r"\s+\[(PASS|FAIL)\] (.+) \((\d+) checked(?:, (\d+) skipped)?\)")


def check_verify_output(code: int, text: str) -> str | None:
    """``verify --grid full`` must exit 0, cover 2016 tuples, report every
    check PASS and account for every contraction of both geometries."""
    if code != 0:
        return f"verify exited {code}"
    header = _HEADER.search(text)
    if header is None or int(header.group(1)) != FULL_GRID_TUPLES:
        return f"verify grid header missing or not {FULL_GRID_TUPLES} tuples"
    checks = {}
    for line in text.splitlines():
        match = _CHECK.match(line)
        if match:
            status, name, passed, skipped = match.groups()
            if status != "PASS":
                return f"verify check failed: {name}"
            checks[name] = (int(passed), int(skipped or 0))
    if len(checks) != FULL_GRID_CHECKS:
        return f"verify reported {len(checks)} checks, expected {FULL_GRID_CHECKS}"
    per_tuple = [v for k, v in checks.items() if k.startswith(("mps ", "comb ", "printed "))]
    if len(per_tuple) != 3 or any(v != (FULL_GRID_TUPLES, 0) for v in per_tuple):
        return f"count checks do not cover every tuple: {per_tuple}"
    oracle = [v for k, v in checks.items() if "oracle" in k]
    if len(oracle) != 1 or sum(oracle[0]) != 2 * FULL_GRID_TUPLES:
        return f"oracle check does not cover both geometries of every tuple: {oracle}"
    if "all checks passed" not in text:
        return "verify did not report 'all checks passed'"
    return None


# ---------------------------------------------------------------- values


class _LogVector:
    """A vector kept at unit norm, with its scale carried as a log."""

    def __init__(self, vector: np.ndarray, log_scale: float = 0.0) -> None:
        norm = float(np.linalg.norm(vector))
        if norm == 0.0 or not math.isfinite(norm):
            raise FloatingPointError(f"reference vector norm is {norm}")
        self.v = vector / norm
        self.log = log_scale + math.log(norm)


def _compressed(nodes, tag: str) -> np.ndarray:
    return nodes[f"data{tag}"].tensor.array @ nodes[f"u{tag}"].tensor.array


def _array(nodes, name: str) -> np.ndarray:
    return nodes[name].tensor.array


def _mps_reference(net) -> tuple[float, float]:
    # right to left; at each site sweep the environment in first, absorb
    # the compressed data vector second
    nodes, length = net.nodes, net.params.sites
    env = _LogVector(_array(nodes, f"site{length - 1}") @ _compressed(nodes, str(length - 1)))
    for i in range(length - 2, 0, -1):
        swept = _array(nodes, f"site{i}") @ env.v          # [x_left, d]
        env = _LogVector(swept @ _compressed(nodes, str(i)), env.log)
    final = float(_compressed(nodes, "0") @ (_array(nodes, "site0") @ env.v))
    return final, env.log


def _tooth_reference(nodes, m: int, n_count: int) -> _LogVector:
    # from the free end toward the backbone, sweep first, absorb second
    vec = _LogVector(_array(nodes, f"tooth{m}.{n_count - 1}")
                     @ _compressed(nodes, f"{m}.{n_count - 1}"))
    for n in range(n_count - 2, -1, -1):
        swept = _array(nodes, f"tooth{m}.{n}") @ vec.v     # [x_up, d]
        vec = _LogVector(swept @ _compressed(nodes, f"{m}.{n}"), vec.log)
    return vec


def _comb_reference(net) -> tuple[float, float]:
    # backbone right to left; at each interior spine the horizontal
    # environment is contracted before the tooth vector
    nodes = net.nodes
    m_count, n_count = net.params.teeth, net.params.tooth_len
    tooth = _tooth_reference(nodes, m_count - 1, n_count)
    env = _LogVector(_array(nodes, f"spine{m_count - 1}") @ tooth.v, tooth.log)
    for m in range(m_count - 2, 0, -1):
        tooth = _tooth_reference(nodes, m, n_count)
        swept = np.tensordot(_array(nodes, f"spine{m}"), env.v, axes=([1], [0]))
        env = _LogVector(swept @ tooth.v, env.log + tooth.log)
    tooth = _tooth_reference(nodes, 0, n_count)
    final = float(env.v @ (_array(nodes, "spine0") @ tooth.v))
    return final, env.log + tooth.log


def reference_value(net) -> tuple[float, float]:
    """(sign, log|Z|) of the network's scalar, contracted here in log space.

    Returns log|Z| = -inf with sign 0.0 when the reference itself is zero.
    """
    final, log_scale = _mps_reference(net) if net.kind == "mps" else _comb_reference(net)
    if final == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, final), log_scale + math.log(abs(final))


def check_value(scalar, ref_sign: float, ref_log: float,
                tol: float = VALUE_LOG_TOL) -> str | None:
    """The program's scalar must match the reference in sign and log|Z|.

    A zero or non-finite scalar where the reference is finite fails, so the
    check never passes because both sides are zero.
    """
    if not math.isfinite(ref_log):
        return f"reference log|Z| is {ref_log}; the check cannot decide"
    if not isinstance(scalar, float) or not math.isfinite(scalar) or scalar == 0.0:
        return f"scalar {scalar!r} cannot hold a value with log|Z| = {ref_log:.6f}"
    if math.copysign(1.0, scalar) != ref_sign:
        return f"scalar {scalar!r} has the wrong sign (reference {ref_sign:+.0f})"
    got = math.log(abs(scalar))
    if abs(got - ref_log) > tol:
        return f"log|Z| = {got:.12f}, reference {ref_log:.12f}"
    return None
