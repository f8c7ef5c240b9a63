"""Spans around calls into combtn's layers, recorded from outside the program.

``Tracer.install`` replaces chosen public functions of combtn's modules with
wrappers that record a span (name, start, end, parent, round) for every call
while the tracer is active. It patches every module-level name bound to the
original function, and every default argument holding it, so calls between
combtn's own modules are caught too; ``uninstall`` puts the originals back.
Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import types
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, function, layer); a layer is the group its per-layer figures use
TRACED = (
    ("tensor", "contract_pair", "tensor.contract_pair"),
    ("tensor", "random_tensor", "tensor.random_tensor"),
    ("network", "build_mps", "network.build"),
    ("network", "build_comb", "network.build"),
    ("network", "attach_data", "network.attach_data"),
    ("engine", "mps_plan", "engine.plan"),
    ("engine", "comb_plan", "engine.plan"),
    ("engine", "plan_for", "engine.plan"),
    ("engine", "execute", "engine.execute"),
    ("engine", "naive_value_oracle", "engine.oracle"),
    ("costmodel", "mps_cost_terms", "costmodel"),
    ("costmodel", "mps_cost", "costmodel"),
    ("costmodel", "comb_cost_terms", "costmodel"),
    ("costmodel", "comb_cost_schedule", "costmodel"),
    ("costmodel", "comb_cost_printed", "costmodel"),
    ("costmodel", "cost_delta", "costmodel"),
    ("costmodel", "threshold_roots", "costmodel"),
    ("costmodel", "threshold_sweep", "costmodel"),
    ("costmodel", "crosscheck_quadratic", "costmodel"),
    ("costmodel", "verify_vieta", "costmodel"),
    ("verification", "run_verification", "verification.run"),
    ("cli", "main", "cli.main"),
)


def _contract_work(args, result, exc):
    if exc is not None:
        return 0, 0
    a, b = args[0], args[1]
    out, cost = result
    return cost.multiplications, 8 * (a.size + b.size + out.size)


def _build_work(args, result, exc):
    if exc is not None:
        return 0, 0
    return 8 * sum(node.tensor.size for node in result.nodes.values()), 0


def _oracle_work(args, result, exc):
    return int(type(exc).__name__ == "OracleGuardError"), 0


def _verification_work(args, result, exc):
    return (0 if exc is not None else result.tuples), 0


# per-span counts kept in the two work fields, by layer
WORK = {
    "tensor.contract_pair": _contract_work,     # multiplications, bytes moved
    "network.build": _build_work,               # parameter bytes
    "engine.oracle": _oracle_work,              # 1 when the size guard skipped it
    "verification.run": _verification_work,     # parameter tuples
}


class Tracer:
    """Records spans while ``active``; ``request`` is the round being run
    (-1 during set-up) and is stored with every span."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.names: list[tuple[str, str]] = []      # span id -> (function, layer)
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.rounds = array("q")
        self.work_a = array("q")
        self.work_b = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str, layer: str):
        name_id = len(self.names)
        self.names.append((span_name, layer))
        work = WORK.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.rounds.append(tracer.request)
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer.work_a.append(0)
            tracer.work_b.append(0)
            stack.append(idx)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer.ends[idx] = perf_counter_ns()
                tracer.starts[idx] = start
                stack.pop()
                if work is not None:
                    tracer.work_a[idx], tracer.work_b[idx] = work(args, result, exc)

        return traced

    def install(self, package) -> None:
        """Wrap every function in ``TRACED`` across ``package``'s modules."""
        modules = [package] + [getattr(package, name) for name in
                               ("tensor", "network", "engine", "costmodel",
                                "verification", "cli")]
        by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        replacement = {}
        for module_name, func_name, layer in TRACED:
            original = getattr(by_module[module_name], func_name)
            replacement[id(original)] = self._wrap(
                original, f"{module_name}.{func_name}", layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    defaults = value.__defaults__
                    patched = tuple(replacement.get(id(d), d) for d in defaults)
                    if patched != defaults:
                        self._patches.append((value, "__defaults__", defaults))
                        value.__defaults__ = patched
                if id(value) in replacement:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement[id(value)])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines, one per span."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tfunction\tlayer\tparent\tround\tstart_ns\tend_ns\n")
            for i, name_id in enumerate(self.name_ids):
                function, layer = self.names[name_id]
                handle.write(f"{i}\t{function}\t{layer}\t{self.parents[i]}\t"
                             f"{self.rounds[i]}\t{self.starts[i]}\t{self.ends[i]}\n")

    def layer_totals(self, rounds: int) -> dict[str, float]:
        """Per-layer figures for one set-up followed by one round.

        Set-up spans count once; spans recorded during the rounds are divided
        by ``rounds``. ``calls`` and ``ms`` count a layer's outermost spans,
        so a layer function calling another of the same layer counts once;
        ``self_ns`` is a span's duration minus the time its child spans cover.
        """
        count = len(self.starts)
        layer_of = [self.names[n][1] for n in self.name_ids]
        child_ns = [0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        setup: dict[str, int] = defaultdict(int)
        loop: dict[str, int] = defaultdict(int)
        for i in range(count):
            totals = setup if self.rounds[i] < 0 else loop
            layer = layer_of[i]
            duration = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            totals[f"{layer}.self_ns"] += duration - child_ns[i]
            totals[f"{layer}.work_a"] += self.work_a[i]
            totals[f"{layer}.work_b"] += self.work_b[i]
            if parent < 0 or layer_of[parent] != layer:
                totals[f"{layer}.calls"] += 1
                totals[f"{layer}.ns"] += duration
            if layer == "tensor.contract_pair" and parent >= 0 \
                    and layer_of[parent] == "engine.execute":
                totals["engine.steps"] += 1
        result: dict[str, float] = defaultdict(float)
        for key in setup.keys() | loop.keys():
            result[key] = setup[key] + loop[key] / rounds
        return result
