"""combtn benchmark: score seeded samples at the paper's reference point and
run the full verification grid, check every output, print the metrics.

    python3 perfbench/run.py --workload score-ref --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each exists):
  score-ref    score samples on the reference-point MPS and comb
               (M=50, N=5, D=100, d=30) at x=10, alternating geometries
  score-wide   the same at x=64
  verify-full  `combtn verify --grid full --seed 42` through cli.main, plus
               one deep-chain contraction per geometry
  all          each workload above in its own process, one after another

Every timing is scaled to a nominal host speed: a fixed piece of work of
the kind the workload's time goes to (the probe: a pure-Python loop, or on
score-wide a mat-vec streaming 64 MB) is timed after each score-* round,
every 100 ms during each verify call, and before and after each set-up, and
a time is reported as it would read on a host where the probe takes its
nominal time. The raw wall-clock figures are printed beside the scaled ones.

With --trace 0 the run prints the end-to-end metrics. With --trace 1 it runs
half its time untraced and half with spans around combtn's layers, and
prints the per-layer metrics with the tracing overhead. The last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics. The program is imported from src/ of the checkout the
benchmark sits in; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
WORKLOADS = ("score-ref", "score-wide", "verify-full")

# one client thread, and BLAS held to one thread as well (never above nproc)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REFERENCE = dict(teeth=50, tooth_len=5, dim_raw=100, dim_comp=30)
ROOTS_AT = (50, 30)                        # (M, d) of the threshold check
VERIFY_ARGV = ["verify", "--grid", "full", "--seed", "42"]
# true values near 1e-524 (MPS) and 1e-629 (comb): a float64 scalar reads 0.0
DEEP_CHAIN = dict(teeth=200, tooth_len=10, dim_raw=8, dim_comp=4, bond_dim=8)
DEEP_CHAIN_SEED = 42
IDENTITY_SAMPLE = 200
MIN_SCORE_ROUNDS = 100                     # ten samples per geometry beyond p90

# Host-speed probes. On a shared VM the speed of the same code drifts by up
# to ~65% within a minute; a probe, which touches nothing of combtn, slows
# in step with the workload it is timed next to. Each timing is multiplied
# by the probe's nominal time over its time around or during that timing.
PROBE_INTERVAL_S = 0.1                     # verify-full: probes during the call
SETUP_PROBES = 16                          # burst before and after each set-up

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import combtn.cli; "
                "print(time.perf_counter() - t)")


def dims_of(params) -> tuple[int, int, int, int, int]:
    return (params.teeth, params.tooth_len, params.dim_raw,
            params.dim_comp, params.bond_dim)


class PythonProbe:
    """10,000 turns of a pure-Python loop: interpreter work, where the time
    of score-ref's steps and of verify-full's builders and oracle goes."""

    nominal_s = 1e-3

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        return time.perf_counter() - start


class MatVecProbe:
    """One mat-vec over a fixed 64 MB matrix, which each score-wide round
    pushes out of cache: memory traffic, where score-wide's steps spend
    their time."""

    nominal_s = 6e-3

    def __init__(self, np) -> None:
        self.matrix = np.ones((2048, 4096))
        self.vector = np.ones(4096)

    def __call__(self) -> float:
        start = time.perf_counter()
        self.matrix.dot(self.vector)
        return time.perf_counter() - start


class Sampler:
    """Runs ``probe`` every PROBE_INTERVAL_S, from a SIGALRM handler, inside
    whatever the main thread is doing, and keeps each probe's time."""

    def __init__(self, probe) -> None:
        self.probe = probe

    def __enter__(self) -> "Sampler":
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, lambda *_: self.times.append(self.probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tally:
    """Operations attempted, those that failed, and wrong outputs.

    An operation fails when the program cannot deliver its value (a scalar
    of 0.0 or non-finite where the reference is finite). Any other mismatch
    is a wrong output and makes the run incorrect.
    """

    def __init__(self, checks) -> None:
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.wrong: list[str] = []

    def expect(self, reason: str | None) -> None:
        if reason is not None:
            self.wrong.append(reason)

    def contraction(self, net, value, report, reference=None) -> None:
        self.attempted += 1
        self.expect(self.checks.check_count(net.kind, dims_of(net.params), report))
        sign, log_abs = reference or self.checks.reference_value(net)
        reason = self.checks.check_value(value, sign, log_abs)
        if reason is None:
            return
        if isinstance(value, float) and (value == 0.0 or not math.isfinite(value)):
            self.failed += 1
            self.failures.setdefault(f"{net.kind} {dims_of(net.params)}", reason)
        else:
            self.wrong.append(f"{net.kind} {dims_of(net.params)}: {reason}")


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class Score:
    """Seeded samples scored on the reference-point MPS and comb in turn.

    One round scores one sample on each geometry; each sample is one
    attach_data + execute, and only those two calls are timed.
    """

    min_rounds = MIN_SCORE_ROUNDS
    samples_per_op = 1
    probe_window = 4                       # scale from the 7 nearest probes

    def __init__(self, cb, np, bond: int, seed: int) -> None:
        self.cb = cb
        # at x=10 a step is Python and dispatch, at x=64 memory traffic
        self.probe = PythonProbe() if bond <= 16 else MatVecProbe(np)
        self.params = cb.network.NetworkParams(bond_dim=bond, **REFERENCE)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.setup_reps = 5 if bond <= 16 else 3   # x=64 builds take ~1.6 s
        self.nets = []

    def setup(self) -> None:
        network, engine = self.cb.network, self.cb.engine
        self.nets = []
        for build in (network.build_mps, network.build_comb):
            net = build(self.params, seed=self.seed)
            self.nets.append((net, engine.plan_for(net)))

    def _sample(self):
        return self.rng.standard_normal((self.params.sites, self.params.dim_raw))

    def round(self, tally: Tally) -> tuple[list[float], float]:
        """The round's sample times, and one probe time taken after it."""
        network, engine = self.cb.network, self.cb.engine
        times = []
        for net, plan in self.nets:
            data = self._sample()
            start = time.perf_counter()
            scored = network.attach_data(net, data)
            value, report = engine.execute(scored, plan)
            times.append(time.perf_counter() - start)
            tally.contraction(scored, value, report)
        return times, self.probe()

    def probe_ops(self):
        return [(self.cb.network.attach_data(net, self._sample()), plan)
                for net, plan in self.nets]

    def final_checks(self, tally: Tally) -> None:
        pass


class Verify:
    """One full-grid `combtn verify` per round, then the two deep chains.

    Only the verify call is timed; the deep-chain contractions are attempted
    every round and checked, but stay out of every timing.
    """

    min_rounds = 2
    setup_reps = 5
    probe_window = 1                       # the call's own probes
    probe = PythonProbe()                  # builders, planner, oracle: Python

    def __init__(self, cb, np, checks, seed: int) -> None:
        self.cb = cb
        self.np = np
        self.checks = checks
        self.seed = seed
        self.samples_per_op = checks.FULL_GRID_TUPLES
        self.deep = []
        self.references = {}

    def setup(self) -> None:
        network, engine = self.cb.network, self.cb.engine
        params = network.NetworkParams(**DEEP_CHAIN)
        self.deep = []
        for build in (network.build_mps, network.build_comb):
            net = build(params, seed=DEEP_CHAIN_SEED)
            self.deep.append((net, engine.plan_for(net)))

    def round(self, tally: Tally) -> tuple[list[float], float]:
        """The verify call's time less the probes run inside it, and their
        median time."""
        with Sampler(self.probe) as probes:
            start = time.perf_counter()
            code, text = cli_call(self.cb.cli, VERIFY_ARGV)
            elapsed = time.perf_counter() - start
        tally.attempted += 2 * self.checks.FULL_GRID_TUPLES
        tally.expect(self.checks.check_verify_output(code, text))
        for net, plan in self.deep:
            value, report = self.cb.engine.execute(net, plan)
            if net.kind not in self.references:
                self.references[net.kind] = self.checks.reference_value(net)
            tally.contraction(net, value, report, self.references[net.kind])
        # a call shorter than PROBE_INTERVAL_S holds no probe: take one after it
        return ([elapsed - sum(probes.times)],
                statistics.median(probes.times or [self.probe()]))

    def probe_ops(self):
        return list(self.deep)

    def final_checks(self, tally: Tally) -> None:
        m, d = ROOTS_AT
        code, text = cli_call(self.cb.cli, ["threshold", "--teeth", str(m),
                                            "--dim-comp", str(d), "--json"])
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = {}
        tally.expect(self.checks.check_roots(m, d, code, payload))
        costmodel, network = self.cb.costmodel, self.cb.network
        grid = self.checks.full_grid()
        rng = self.np.random.default_rng(self.seed)
        for index in sorted(rng.choice(len(grid), IDENTITY_SAMPLE, replace=False)):
            m, n, big_d, d, x = grid[index]
            p = network.NetworkParams(dim_raw=big_d, dim_comp=d, bond_dim=x,
                                      teeth=m, tooth_len=n)
            tally.expect(self.checks.check_gap_identity(
                grid[index], costmodel.mps_cost(p), costmodel.comb_cost_schedule(p),
                costmodel.cost_delta(p, "schedule")))


def import_seconds() -> float:
    """Time to import combtn in a fresh interpreter, as a user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def speed_scales(probes: list[float], nominal_s: float, window: int = 1) -> list[float]:
    """Scale for round i: the nominal probe time over the median of the
    probe times of the ``2 * window - 1`` rounds centred on it."""
    return [nominal_s / statistics.median(probes[max(0, i + 1 - window): i + window])
            for i in range(len(probes))]


def timed_setup(workload, reps: int) -> tuple[float, float]:
    """Median set-up time over ``reps`` set-ups: scaled, and raw."""
    # set-up is import and builds, interpreter work on every workload
    probe = PythonProbe()
    scaled, raw = [], []
    for _ in range(reps):
        before = statistics.median(probe() for _ in range(SETUP_PROBES))
        import_s = import_seconds()
        start = time.perf_counter()
        workload.setup()
        raw.append(import_s + time.perf_counter() - start)
        after = statistics.median(probe() for _ in range(SETUP_PROBES))
        scaled.append(raw[-1] * 2 * probe.nominal_s / (before + after))
    return statistics.median(scaled), statistics.median(raw)


def run_rounds(workload, tally: Tally, seconds: float, min_rounds: int,
               tracer=None) -> tuple[list[list[float]], list[float]]:
    """Whole rounds: ``min_rounds`` of them, then more while one more, as
    long as the last, still ends within ``seconds``. Returns each round's
    timed operation times, raw, and the speed scale for each round."""
    rounds: list[list[float]] = []
    probes: list[float] = []
    start = last = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.request = len(rounds)
        times, probe = workload.round(tally)
        rounds.append(times)
        probes.append(probe)
        now = time.perf_counter()
        if len(rounds) >= min_rounds and 2 * now - last > start + seconds:
            return rounds, speed_scales(probes, workload.probe.nominal_s,
                                        workload.probe_window)
        last = now


def scale_rounds(rounds: list[list[float]], scales: list[float]) -> list[list[float]]:
    return [[t * k for t in times] for times, k in zip(rounds, scales)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def execute_peak_mb(engine, ops) -> float:
    """Largest tracemalloc peak above the starting level over the executes."""
    peak = 0
    tracemalloc.start()
    try:
        for net, plan in ops:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            engine.execute(net, plan)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(workload, setup_s: float, rounds: list[list[float]]) -> dict:
    # Quantiles are taken per position in the round (per geometry on
    # score-*) and averaged: the stream alternates geometries whose
    # latencies differ, so a pooled median would sit in the gap between them.
    per_position = [p50_p90([1000 * t / workload.samples_per_op for t in series])
                    for series in zip(*rounds)]
    timed = sum(map(sum, rounds))
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (workload.samples_per_op * sum(map(len, rounds)) / timed, "1/s"),
        "score_p50_ms": (statistics.fmean(p50 for p50, _ in per_position), "ms"),
        "score_p90_ms": (statistics.fmean(p90 for _, p90 in per_position), "ms"),
        "verify_wall_s": (statistics.median(map(sum, rounds)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(t: dict, peak_mb: float, overhead_pct: float) -> dict:
    pair_self_ns = t["tensor.contract_pair.self_ns"]
    mults = t["tensor.contract_pair.work_a"]
    return {
        "tensor.contract_pair.calls": (t["tensor.contract_pair.calls"], "count"),
        "tensor.contract_pair.self_ms": (pair_self_ns / 1e6, "ms"),
        "tensor.mults": (mults, "count"),
        "tensor.bytes_moved": (t["tensor.contract_pair.work_b"], "bytes"),
        "tensor.gmacs": (mults / pair_self_ns if pair_self_ns else 0.0, "GMAC/s"),
        "tensor.random_tensor.calls": (t["tensor.random_tensor.calls"], "count"),
        "tensor.random_tensor.ms": (t["tensor.random_tensor.ns"] / 1e6, "ms"),
        "network.build.calls": (t["network.build.calls"], "count"),
        "network.build.ms": (t["network.build.ns"] / 1e6, "ms"),
        "network.param_mb": (t["network.build.work_a"] / 1e6, "MB"),
        "network.attach_data.ms": (t["network.attach_data.ns"] / 1e6, "ms"),
        "engine.plan.ms": (t["engine.plan.ns"] / 1e6, "ms"),
        "engine.execute.ms": (t["engine.execute.ns"] / 1e6, "ms"),
        "engine.execute.self_ms": (t["engine.execute.self_ns"] / 1e6, "ms"),
        "engine.steps": (t["engine.steps"], "count"),
        "engine.execute.peak_mb": (peak_mb, "MB"),
        "engine.oracle.calls": (t["engine.oracle.calls"], "count"),
        "engine.oracle.ms": (t["engine.oracle.ns"] / 1e6, "ms"),
        "engine.oracle.skipped": (t["engine.oracle.work_a"], "count"),
        "costmodel.calls": (t["costmodel.calls"], "count"),
        "costmodel.ms": (t["costmodel.ns"] / 1e6, "ms"),
        "verification.run.ms": (t["verification.run.ns"] / 1e6, "ms"),
        "verification.self_ms": (t["verification.run.self_ns"] / 1e6, "ms"),
        "verification.tuples": (t["verification.run.work_a"], "count"),
        "cli.main.ms": (t["cli.main.ns"] / 1e6, "ms"),
        "cli.self_ms": (t["cli.main.self_ns"] / 1e6, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def blas_description(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        library = "unknown BLAS"
    nproc = len(os.sched_getaffinity(0))
    return f"{library}, {os.environ['OPENBLAS_NUM_THREADS']} thread(s), nproc {nproc}"


def run_workload(args) -> int:
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import combtn
    import combtn.cli
    import checks
    import spans

    if Path(combtn.__file__).resolve().parent != SRC / "combtn":
        print(f"error: combtn imported from {combtn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "verify-full":
        workload = Verify(combtn, np, checks, args.seed)
    else:
        bond = 10 if args.workload == "score-ref" else 64
        workload = Score(combtn, np, bond, args.seed)
    tally = Tally(checks)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"blas: {blas_description(np)}")

    raw_metrics = {}
    if not args.trace:
        setup_s, raw_setup_s = timed_setup(workload, workload.setup_reps)
        rounds, scales = run_rounds(workload, tally, args.seconds, workload.min_rounds)
        metrics = end_to_end(workload, setup_s, scale_rounds(rounds, scales))
        raw_metrics = end_to_end(workload, raw_setup_s, rounds)
        nominal_ms = workload.probe.nominal_s * 1000
        speeds = [nominal_ms / k for k in scales]
        print(f"rounds {len(rounds)}  timed operations {sum(map(len, rounds))}")
        print(f"{type(workload.probe).__name__} for each round: median "
              f"{statistics.median(speeds):.3f} ms, {min(speeds):.3f}-{max(speeds):.3f} ms "
              f"(timings below are scaled to {nominal_ms:g} ms)")
    else:
        workload.setup()
        plain = scale_rounds(*run_rounds(workload, tally, args.seconds / 2, 1))
        tracer = spans.Tracer()
        tracer.install(combtn)
        try:
            tracer.active = True
            workload.setup()
            traced = scale_rounds(*run_rounds(workload, tally, args.seconds / 2, 1,
                                              tracer))
        finally:
            tracer.active = False
            tracer.uninstall()
        peak_mb = execute_peak_mb(combtn.engine, workload.probe_ops())
        overhead = 100 * (statistics.median(map(sum, traced))
                          / statistics.median(map(sum, plain)) - 1)
        metrics = per_layer(tracer.layer_totals(len(traced)), peak_mb, overhead)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(out)
        print(f"rounds {len(plain)} untraced, {len(traced)} traced; "
              f"{len(tracer.starts)} spans written to {out.relative_to(HERE.parent)}")
        print("per-layer figures are for one set-up plus one round")
    workload.final_checks(tally)

    for reason in tally.failures.values():
        print(f"failed operation: {reason}")
    for reason in tally.wrong[:10]:
        print(f"WRONG: {reason}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"correct {str(not tally.wrong).lower()}")
    for name, (value, unit) in metrics.items():
        raw = f"  raw {raw_metrics[name][0]:.6f}" if name in raw_metrics else ""
        print(f"  {name:<30} {value:>16.6f} {unit:<8}{raw}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line combines them."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "combtn" / "__init__.py").is_file():
        print(f"error: no combtn sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
