"""Command-line front end.

Subcommands: cost (closed-form tables), threshold (quadratic roots), sweep
(threshold curves as CSV and optional SVG), verify (formula-vs-engine grid),
contract (build and contract a real network), bench (wall-clock medians).

Exit codes: 0 success, 1 verification, I/O or overflow failure, 2 usage error
or an allocation numpy refuses.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from statistics import median
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import costmodel
from .costmodel import ThresholdResult, threshold_roots, threshold_sweep
from .engine import execute, plan_for
from .network import NetworkParams, attach_data, build_comb, build_mps, \
    set_orthonormal_compressions
from .tensor import CountOverflowError
from .verification import GRIDS, run_verification

QUOTED_UPPER_ROOT = 28.83  # commonly quoted threshold that the formula does not reproduce


class DataFormatError(ValueError):
    """Malformed data-matrix CSV."""


def _params_from_args(args: argparse.Namespace) -> NetworkParams:
    return NetworkParams(dim_raw=args.dim_raw, dim_comp=args.dim_comp,
                         bond_dim=args.bond, teeth=args.teeth,
                         tooth_len=args.tooth_len)


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


_seed = _int_at_least(0)        # numpy seeds are non-negative integers
_reps = _int_at_least(3)        # bench reports a median of at least three runs
_teeth = _int_at_least(2)       # a comb backbone has two ends
_extent = _int_at_least(1)      # every other network dimension


def _bond_list(text: str) -> list[int]:
    """argparse type of ``--bond-list``: comma-separated positive integers,
    at least one."""
    try:
        bonds = [int(entry) for entry in text.split(",") if entry]
    except ValueError:
        bonds = []
    if not bonds or min(bonds) < 1:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive integers, at least one, got {text!r}")
    return bonds


def _fmt(count: int) -> str:
    return f"{count:,}"


def _root_str(value: Optional[float], places: int) -> str:
    return "" if value is None else f"{value:.{places}f}"


def load_data_matrix(path: str, sites: int, dim_raw: int) -> np.ndarray:
    """Read a headerless CSV of ``sites`` rows with ``dim_raw`` finite floats each."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        # utf-8-sig: spreadsheets save "CSV UTF-8" with a byte-order mark
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # decoded whole, so the error's offset (past any mark) gives the row
        r = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: row {r} is not UTF-8 text: "
                              f"{exc.reason}") from None
    rows = []
    for r, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if len(row) != dim_raw:
            raise DataFormatError(
                f"{path}: row {r} has {len(row)} columns, expected {dim_raw}")
        values = []
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r}, column {c}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {r}, column {c}: {cell!r} is not finite")
            values.append(value)
        rows.append(values)
    if len(rows) != sites:
        raise DataFormatError(
            f"{path}: {len(rows)} rows, expected {sites} (one per site)")
    return np.asarray(rows, dtype=np.float64)


def cmd_cost(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    # each total is checked against the 64-bit range before anything prints
    tables = (
        ("mps contraction cost", costmodel.mps_cost_terms(p), costmodel.mps_cost(p)),
        ("comb contraction cost [schedule basis]",
         costmodel.comb_cost_terms(p, "schedule"), costmodel.comb_cost_schedule(p)),
        ("comb contraction cost [printed basis]",
         costmodel.comb_cost_terms(p, "printed"), costmodel.comb_cost_printed(p)),
    )
    print(f"parameters: teeth={p.teeth} tooth-len={p.tooth_len} "
          f"dim-raw={p.dim_raw} dim-comp={p.dim_comp} bond={p.bond_dim} "
          f"(sites={p.sites})")
    print()
    for title, terms, total in tables:
        print(title)
        for name, value in terms.items():
            print(f"  {name:<28} {_fmt(value):>14}")
        print(f"  {'total':<28} {_fmt(total):>14}")
        print()
    delta = costmodel.cost_delta(p, args.basis)
    verdict = "comb cheaper" if delta > 0 else ("tie" if delta == 0 else "mps cheaper")
    print(f"cost gap mps - comb [{args.basis} basis]: {_fmt(delta)}  ({verdict})")
    other = "printed" if args.basis == "schedule" else "schedule"
    print(f"cost gap mps - comb [{other} basis]: "
          f"{_fmt(costmodel.cost_delta(p, other))}")
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    result = threshold_roots(args.dim_comp, args.teeth)
    if args.json:
        payload = {
            "x_minus": None if result.x_minus is None else round(result.x_minus, 6),
            "x_plus": None if result.x_plus is None else round(result.x_plus, 6),
            "regime": result.regime.value,
            "discriminant": result.discriminant,
        }
        print(json.dumps(payload, allow_nan=False))
        return 0
    print(f"teeth (M):          {result.teeth}")
    print(f"compressed dim (d): {result.comp_dim:g}")
    if result.teeth == 2:
        print(f"linear: {result.b:g}*x = 0  (the x^2 term vanishes at M = 2)")
        print("root: x = 0")
        print("MPS always cheaper for x >= 1")
        return 0
    print(f"quadratic: {result.a:g}*x^2 + {result.b:g}*x + {result.c:g} = 0  "
          f"(discriminant {result.discriminant:g})")
    if result.roots is None:
        print("no real roots; MPS always cheaper")
        return 0
    print(f"x- = {result.x_minus:.2f}")
    print(f"x+ = {result.x_plus:.2f}")
    print(f"regime: {result.regime.value}")
    if result.teeth == 50 and result.comp_dim == 30:
        print(f"note: direct evaluation of the root formula gives "
              f"x+ = {result.x_plus:.2f}; the commonly quoted value "
              f"{QUOTED_UPPER_ROOT} differs from the formula by about "
              f"{abs(result.x_plus - QUOTED_UPPER_ROOT):.2f}.")
    return 0


def sweep_csv_lines(rows: Iterable[ThresholdResult]) -> Iterator[str]:
    """The header, then one line per row, each as its row arrives."""
    yield "d,x_minus,x_plus,regime"
    for row in rows:
        yield (f"{row.comp_dim},{_root_str(row.x_minus, 6)},"
               f"{_root_str(row.x_plus, 6)},{row.regime.value}")


def sweep_svg(points: Sequence[tuple[float, Optional[float], Optional[float]]],
              teeth: int) -> str:
    """Two-polyline chart of the threshold roots, emitted as a standalone SVG,
    from each row's (d, x-, x+) in order of d."""
    width, height, margin = 800, 600, 70
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    d_lo, d_hi = points[0][0], points[-1][0]
    d_span = max(d_hi - d_lo, 1)
    y_max = max((x for _, _, x in points if x is not None), default=1.0) * 1.05

    def sx(d: float) -> float:
        return margin + (d - d_lo) / d_span * plot_w

    def sy(x: float) -> float:
        return height - margin - x / y_max * plot_h

    def polyline(root: int, color: str) -> str:
        # the point of each row with that root, x- (1) or x+ (2)
        coords = " ".join(f"{sx(point[0]):.2f},{sy(point[root]):.2f}"
                          for point in points if point[root] is not None)
        if not coords:
            return ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{coords}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i in range(6):
        d_tick = d_lo + d_span * i / 5
        px = sx(d_tick)
        parts.append(f'<line x1="{px:.2f}" y1="{height - margin}" x2="{px:.2f}" '
                     f'y2="{height - margin + 6}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{height - margin + 22}" '
                     f'font-size="13" text-anchor="middle">{d_tick:g}</text>')
        x_tick = y_max * i / 5
        py = sy(x_tick)
        parts.append(f'<line x1="{margin - 6}" y1="{py:.2f}" x2="{margin}" '
                     f'y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 10}" y="{py + 4:.2f}" font-size="13" '
                     f'text-anchor="end">{x_tick:.1f}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 20}" font-size="16" '
                 f'text-anchor="middle">d</text>')
    parts.append(f'<text x="22" y="{height / 2:.0f}" font-size="16" '
                 f'text-anchor="middle" transform="rotate(-90 22 {height / 2:.0f})">x</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{margin - 30}" font-size="16" '
                 f'text-anchor="middle">threshold roots vs d (teeth={teeth})</text>')
    parts.append(polyline(1, "#1f77b4"))
    parts.append(polyline(2, "#d62728"))
    legend_x = width - margin - 120
    parts.append(f'<line x1="{legend_x}" y1="{margin + 10}" x2="{legend_x + 30}" '
                 f'y2="{margin + 10}" stroke="#1f77b4" stroke-width="2"/>')
    parts.append(f'<text x="{legend_x + 38}" y="{margin + 14}" font-size="14">x-</text>')
    parts.append(f'<line x1="{legend_x}" y1="{margin + 32}" x2="{legend_x + 30}" '
                 f'y2="{margin + 32}" stroke="#d62728" stroke-width="2"/>')
    parts.append(f'<text x="{legend_x + 38}" y="{margin + 36}" font-size="14">x+</text>')
    parts.append("</svg>")
    return "\n".join(part for part in parts if part) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = threshold_sweep(args.teeth, args.d_min, args.d_max, args.step)
    # the CSV keeps no row; the chart reads each row's d and roots, noted
    # as the row streams to the CSV
    points = []
    if args.svg:
        rows = (points.append((row.comp_dim, row.x_minus, row.x_plus)) or row
                for row in rows)
    # every output is opened before the first row, and without truncating,
    # so an unwritable path, or two that open one file, cost no rows, no
    # "wrote" line and no file: a file an open made is removed (through a
    # dangling symlink, its target), one that was there is untouched
    made = [os.path.realpath(path) for path in (args.svg, args.out)
            if path and not os.path.exists(path)]
    with contextlib.ExitStack() as outputs:
        try:
            chart = outputs.enter_context(open(args.svg, "a")) if args.svg else None
            handle = outputs.enter_context(open(args.out, "a", newline=""))
            if chart and os.path.samestat(*(os.fstat(f.fileno()) for f in (chart, handle))):
                raise ValueError(f"--out and --svg name one file, {args.out}")
        except (OSError, ValueError):
            outputs.close()
            for path in made:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            raise
        for output in (chart, handle):
            if output:
                output.truncate(0)
        for count, line in enumerate(sweep_csv_lines(rows)):
            handle.write(line + "\n")
        if chart:
            chart.write(sweep_svg(points, args.teeth))
    print(f"wrote {count} rows to {args.out}")
    if args.svg:
        print(f"wrote chart to {args.svg}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(grid=args.grid, seed=args.seed)
    print(f"verification grid: {report.grid} ({report.tuples} parameter tuples), "
          f"seed {report.seed}")
    for check in report.checks:
        status = "PASS" if check.ok else "FAIL"
        detail = f"{check.passed} checked"
        if check.skipped:
            detail += f", {check.skipped} skipped"
        print(f"  [{status}] {check.name} ({detail})")
        if check.failure:
            print(f"         {check.failure}")
    print("all checks passed" if report.ok
          else f"FAILED: {report.first_failure}")
    return 0 if report.ok else 1


def cmd_contract(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    build = build_mps if args.kind == "mps" else build_comb
    net = build(p, seed=args.seed)
    if args.orthonormal_u:
        net = set_orthonormal_compressions(net, seed=args.seed)
    if args.data:
        matrix = load_data_matrix(args.data, p.sites, p.dim_raw)
        net = attach_data(net, matrix)
    # an intermediate that overflows ends as a non-finite scalar, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        scalar, report = execute(net, plan_for(net))
    if not math.isfinite(scalar):
        print(f"error: the contracted scalar is {scalar}: an intermediate left "
              f"the float64 range", file=sys.stderr)
        return 1
    if args.kind == "mps":
        schedule = printed = costmodel.mps_cost(p)
    else:
        schedule = costmodel.comb_cost_schedule(p)
        printed = costmodel.comb_cost_printed(p)
    residual = printed - report.total
    if args.json:
        payload = {
            "kind": args.kind,
            "scalar": scalar,
            "measured_multiplications": report.total,
            "analytic_schedule": schedule,
            "analytic_printed": printed,
            "residual_printed_minus_measured": residual,
        }
        print(json.dumps(payload, allow_nan=False))
        return 0
    print(f"kind: {args.kind}")
    print(f"parameters: teeth={p.teeth} tooth-len={p.tooth_len} "
          f"dim-raw={p.dim_raw} dim-comp={p.dim_comp} bond={p.bond_dim} "
          f"seed={args.seed}")
    print(f"scalar: {scalar:.17g}")
    print(f"measured multiplications: {_fmt(report.total)}")
    print(f"analytic (schedule basis): {_fmt(schedule)}")
    print(f"analytic (printed basis):  {_fmt(printed)}")
    print(f"residual (printed - measured): {_fmt(residual)}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    params = [NetworkParams(dim_raw=args.dim_raw, dim_comp=args.dim_comp,
                            bond_dim=x, teeth=args.teeth, tooth_len=args.tooth_len)
              for x in args.bond_list]
    # opened before any build, so an unwritable path costs no work; each
    # row is written once timed, so a later failure keeps the rows before it
    with open(args.out, "w", newline="") as handle:
        handle.write("kind,x,measured_mults,median_ns,reps\n")
        for kind, build in (("mps", build_mps), ("comb", build_comb)):
            for p in params:
                net = build(p, seed=args.seed)
                steps = plan_for(net)
                timings = []
                for _ in range(args.reps):
                    start = time.perf_counter_ns()
                    _, report = execute(net, steps)
                    timings.append(time.perf_counter_ns() - start)
                handle.write(f"{kind},{p.bond_dim},{report.total},"
                             f"{round(median(timings))},{args.reps}\n")
    print(f"wrote {2 * len(params)} rows to {args.out}")
    return 0


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--teeth", type=_teeth, required=True, help="backbone length M")
    sub.add_argument("--tooth-len", type=_extent, required=True,
                     help="tensors per tooth N")
    sub.add_argument("--dim-raw", type=_extent, required=True,
                     help="raw physical dimension D")
    sub.add_argument("--dim-comp", type=_extent, required=True,
                     help="compressed physical dimension d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combtn",
        description="Contraction-cost laboratory for MPS chains and comb tensor networks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cost = subparsers.add_parser("cost", help="closed-form cost tables")
    _add_param_flags(cost)
    cost.add_argument("--bond", type=_extent, required=True, help="bond dimension x")
    cost.add_argument("--basis", choices=costmodel.BASES, default="schedule")
    cost.set_defaults(handler=cmd_cost)

    threshold = subparsers.add_parser("threshold", help="threshold quadratic roots")
    threshold.add_argument("--teeth", type=_teeth, required=True)
    threshold.add_argument("--dim-comp", type=float, required=True)
    threshold.add_argument("--json", action="store_true")
    threshold.set_defaults(handler=cmd_threshold)

    sweep = subparsers.add_parser("sweep", help="threshold roots over a range of d")
    sweep.add_argument("--teeth", type=_teeth, required=True)
    sweep.add_argument("--d-min", type=_extent, required=True)
    sweep.add_argument("--d-max", type=_extent, required=True)
    sweep.add_argument("--step", type=_extent, default=1)
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.add_argument("--svg", help="optional SVG chart path")
    sweep.set_defaults(handler=cmd_sweep)

    verify = subparsers.add_parser("verify", help="formula-vs-engine verification grid")
    verify.add_argument("--grid", choices=GRIDS, default="small")
    verify.add_argument("--seed", type=_seed, default=42)
    verify.set_defaults(handler=cmd_verify)

    contract = subparsers.add_parser("contract", help="build and contract a network")
    contract.add_argument("--kind", choices=("mps", "comb"), required=True)
    _add_param_flags(contract)
    contract.add_argument("--bond", type=_extent, required=True)
    contract.add_argument("--seed", type=_seed, default=42)
    contract.add_argument("--data", help="data-matrix CSV (sites rows, dim-raw columns)")
    contract.add_argument("--orthonormal-u", action="store_true",
                          help="use orthonormal compression matrices")
    contract.add_argument("--json", action="store_true")
    contract.set_defaults(handler=cmd_contract)

    bench = subparsers.add_parser("bench", help="wall-clock medians per bond dimension")
    _add_param_flags(bench)
    bench.add_argument("--bond-list", type=_bond_list, required=True,
                       help="comma-separated bond dimensions")
    bench.add_argument("--reps", type=_reps, default=5)
    bench.add_argument("--seed", type=_seed, default=42)
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (2) or the help (0)
        return exc.code
    try:
        return args.handler(args)
    except (ValueError, CountOverflowError, MemoryError) as exc:
        # numpy's MemoryError message gives the size it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
