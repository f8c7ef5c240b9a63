"""``tensor._run_all``, the one helper that shares work over the CPUs, and
the stacked steps past ``tensor._CHUNK`` elements that it splits: results
in part order, every share in the caller's context, the same bits at any
CPU count, one pool per split step, a failed run fails the call, and
nothing is left running."""

import concurrent.futures
import contextvars
import decimal
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from combtn import engine, tensor
from combtn.cli import main
from combtn.engine import execute, plan_for
from combtn.network import NetworkParams, attach_data, build_comb, build_mps
from combtn.tensor import contract_pair
from combtn.verification import grid_params

# the steps that split at x=64: the MPS interior absorb (batch 1), the comb
# interior-teeth absorb (batch 2, split on M) and the spine entry (batch 1)
WIDE_STEPS = {("mps", "interior-sites"), ("comb", "interior-teeth"),
              ("comb", "interior-spines")}

# a chunk at which some stacked steps of the small grid split and some do not
SMALL_CHUNK = 80


def _grid_networks() -> list:
    """Every small-grid network of both kinds with seeded data, built at the
    default chunk, so its stacks are those the pinned digests hold."""
    nets = []
    for idx, p in enumerate(grid_params("small")):
        data = np.random.default_rng(idx).standard_normal((p.sites, p.dim_raw))
        for build in (build_mps, build_comb):
            nets.append(attach_data(build(p, seed=42 + idx), data))
    return nets


def _recording_pool(monkeypatch, fork: bool = False) -> list:
    """Patch the pool ``_run_all`` opens, threads or forked processes;
    return the list of its worker counts."""
    name = "ProcessPoolExecutor" if fork else "ThreadPoolExecutor"
    workers, pool = [], getattr(concurrent.futures, name)

    def recorded(max_workers, **kwargs):
        workers.append(max_workers)
        return pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, name, recorded)
    return workers


def _running() -> tuple:
    return threading.active_count(), multiprocessing.active_children()


# parts for _run_all, at module level so that a forked pool can pickle them

def _where(k: int) -> tuple:
    return k, os.getpid(), threading.get_ident()


def _fails_at(k: int, failing: int) -> int:
    if k == failing:
        raise ValueError(f"part {k} failed")
    return k


def _over() -> str:
    return np.geterr()["over"]


_CALLER = contextvars.ContextVar("_CALLER", default="unset")


def _context() -> tuple:
    return _CALLER.get(), decimal.getcontext().prec


def _context_once_all_meet(barrier: threading.Barrier) -> tuple:
    barrier.wait()
    return _context()


@pytest.mark.parametrize("fork", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_all_returns_every_result_in_part_order(cpus, fork, monkeypatch):
    # the caller runs parts 0, cpus, 2 * cpus, ... and a pool worker, a
    # thread or another process, each other share
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    workers = _recording_pool(monkeypatch, fork)
    running = _running()
    done = tensor._run_all(_where, [(k,) for k in range(7)], fork=fork)
    assert [k for k, _, _ in done] == list(range(7))
    here = (os.getpid(), threading.get_ident())
    assert [k for k, *where in done if tuple(where) == here] == list(range(0, 7, cpus))
    assert workers == ([cpus - 1] if cpus > 1 else [])
    assert _running() == running


@pytest.mark.parametrize("fork", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_all_of_no_parts_opens_no_pool(cpus, fork, monkeypatch):
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    workers = _recording_pool(monkeypatch, fork)
    assert tensor._run_all(_where, [], fork=fork) == []
    assert workers == []


@pytest.mark.parametrize("failing", [0, 1])
@pytest.mark.parametrize("fork", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_share_that_raises_raises_its_own_exception(cpus, fork, failing, monkeypatch):
    # part 0 is the caller's; part 1 is a worker's from two CPUs on
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    running = _running()
    with pytest.raises(ValueError, match=f"^part {failing} failed$"):
        tensor._run_all(_fails_at, [(k, failing) for k in range(7)], fork=fork)
    assert _running() == running


def test_shares_keep_the_callers_numpy_error_state(monkeypatch, capsys):
    # a thread share runs under the caller's state and a forked share
    # inherits it, so the error call, a lambda that cannot pickle, never
    # goes to a process
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    assert main(["verify", "--grid", "small"]) == 0
    plain = capsys.readouterr().out
    with np.errstate(over="raise"):
        np.seterrcall(lambda *a: None)
        assert main(["verify", "--grid", "small"]) == 0
        assert capsys.readouterr().out == plain
        for fork in (False, True):
            assert tensor._run_all(_over, [(), ()], fork=fork) == ["raise", "raise"]


def _in_callers_context(fn, parts: list, fork: bool) -> list:
    """``_run_all`` with ``_CALLER`` set and a decimal precision of 7."""
    token = _CALLER.set("caller")
    try:
        with decimal.localcontext() as local:
            local.prec = 7
            return tensor._run_all(fn, parts, fork=fork)
    finally:
        _CALLER.reset(token)


@pytest.mark.parametrize("fork", [False, True])
@pytest.mark.parametrize("cpus", [2, 3])
def test_every_share_sees_the_callers_context_variables(cpus, fork, monkeypatch):
    # a thread share runs in a copy of the caller's context, and a forked
    # one inherits the context of the thread that forked it
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    done = _in_callers_context(_context, [()] * 7, fork)
    assert done == [("caller", 7)] * 7
    assert _context() == ("unset", decimal.DefaultContext.prec)


@pytest.mark.parametrize("cpus", [2, 3])
def test_thread_shares_that_overlap_each_see_the_callers_context(cpus, monkeypatch):
    # every share, the caller's too, waits at one barrier, so all of them
    # are running at once; one context can be entered by one thread at a
    # time, so each pool thread needs its own copy
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    barrier = threading.Barrier(cpus, timeout=10)
    done = _in_callers_context(_context_once_all_meet, [(barrier,)] * cpus, False)
    assert done == [("caller", 7)] * cpus


def _execute_all(nets, monkeypatch):
    """Each scalar's ``float.hex``, each step result's bytes, and the
    (kind, second operand) of every step that opened a pool."""
    workers = _recording_pool(monkeypatch)
    scalars, results, split = [], [], set()
    for net in nets:
        steps = iter(plan_for(net).steps)

        def recorded(a, b, pairing):
            step, opened = next(steps), len(workers)
            out, cost = contract_pair(a, b, pairing)
            results.append(out.tobytes())
            if len(workers) > opened:
                split.add((net.kind, step.b[0]))
            return out, cost

        monkeypatch.setattr(engine, "contract_pair", recorded)
        scalar, _ = execute(net, plan_for(net))
        scalars.append(scalar.hex())
    return scalars, results, split


def test_split_steps_keep_every_bit(monkeypatch):
    # at the default chunk nothing in the grid splits; at a small chunk the
    # wider steps, the three that split at x=64 among them, split on 3
    # CPUs, and none on 1
    nets = _grid_networks()
    scalars, results, split = _execute_all(nets, monkeypatch)
    assert split == set()
    monkeypatch.setattr(tensor, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    assert _execute_all(nets, monkeypatch) == (scalars, results, set())
    # more workers than this host may have CPUs, each switching often
    monkeypatch.setattr(tensor, "_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got_scalars, got_results, split = _execute_all(nets, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert got_scalars == scalars
    assert got_results == results
    assert WIDE_STEPS <= split


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_a_step_opens_one_pool_exactly_when_it_reads_past_the_chunk(build, cpus,
                                                                     monkeypatch):
    # the chunk is set after the build, so the draw is the default one; the
    # MPS's chain step reads past the chunk but has no batch axis, and the
    # comb's tooth sweeps are below it
    net = build(NetworkParams(dim_raw=4, dim_comp=3, bond_dim=3, teeth=5,
                              tooth_len=3), seed=3)
    monkeypatch.setattr(tensor, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    workers = _recording_pool(monkeypatch)
    expected, seen = [], []

    def recorded(a, b, pairing):
        opened = len(workers)
        split = (pairing.batch > 0 and a.size + b.size > tensor._CHUNK
                 and cpus > 1 and a.shape[0] > 1)
        # one run per CPU, at most one per item: the calling thread takes
        # one and a pool worker each other
        expected.append([min(cpus, a.shape[0]) - 1] if split else [])
        out = contract_pair(a, b, pairing)
        seen.append(workers[opened:])
        return out

    monkeypatch.setattr(engine, "contract_pair", recorded)
    before = threading.active_count()
    execute(net, plan_for(net))
    assert threading.active_count() == before
    assert seen == expected
    splits = sum(map(bool, expected))
    assert splits == (0 if cpus == 1 else {"mps": 2, "comb": 3}[net.kind])


@pytest.mark.parametrize("failing", [0, 1])
@pytest.mark.parametrize("build", [build_mps, build_comb])
def test_a_failed_run_fails_the_step(build, failing, monkeypatch):
    # run 0 is the calling thread's, run 1 a pool worker's
    net = build(NetworkParams(dim_raw=4, dim_comp=3, bond_dim=3, teeth=5,
                              tooth_len=3), seed=3)
    monkeypatch.setattr(tensor, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(tensor, "_cpus", lambda: 3)
    run_all = tensor._run_all

    def one_run_fails(fn, parts, *, fork):
        def run(*part):
            if part[0] is parts[failing][0]:
                raise RuntimeError(f"run {failing} failed")
            return fn(*part)
        return run_all(run, parts, fork=fork)

    monkeypatch.setattr(tensor, "_run_all", one_run_fails)
    before = threading.active_count()
    result = None
    with pytest.raises(RuntimeError, match=f"run {failing} failed"):
        result = execute(net, plan_for(net))
    assert result is None
    assert threading.active_count() == before


def test_a_split_step_is_one_contract_pair_call(monkeypatch):
    # perfbench counts calls to contract_pair under either module's name:
    # a reference round stays at 17, one per plan step, while the runs of
    # its six steps past a chunk of 10,000 elements go to the pool
    p = NetworkParams(dim_raw=100, dim_comp=30, bond_dim=10, teeth=50, tooth_len=5)
    nets = [build(p, seed=1) for build in (build_mps, build_comb)]
    monkeypatch.setattr(tensor, "_CHUNK", 10_000)
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    workers = _recording_pool(monkeypatch)
    calls = []

    def counted(a, b, pairing):
        calls.append(pairing)
        return contract_pair(a, b, pairing)

    monkeypatch.setattr(tensor, "contract_pair", counted)
    monkeypatch.setattr(engine, "contract_pair", counted)
    for net in nets:
        execute(net, plan_for(net))
    assert len(calls) == 17
    assert workers == [1] * 6


def test_grid_verify_and_reference_contract_open_no_pool():
    # no step of either grid, nor of the reference point at x=10, reads
    # past _CHUNK: with _run_all raising on every call but the grid's, a
    # split or chunked fill in any share of verify's measurement, the
    # caller's or a forked worker's (two CPUs on any host), fails the run;
    # and contract at x=10, score-ref's workload, loads no
    # concurrent.futures (verify's pool loads it later)
    probe = ("import sys, io, contextlib\n"
             "from combtn import tensor, verification\n"
             "from combtn.cli import main\n"
             "run_all = tensor._run_all\n"
             "def no_split(fn, parts, *, fork):\n"
             "    if fn is not verification._measure:\n"
             "        raise RuntimeError('a step split')\n"
             "    return run_all(fn, parts, fork=fork)\n"
             "tensor._run_all = no_split\n"
             "tensor._cpus = lambda: 2\n"
             "flags = ['--teeth', '50', '--tooth-len', '5', '--dim-raw', '100',"
             " '--dim-comp', '30', '--bond', '10']\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    contracted = [main(['contract', '--kind', kind, *flags])"
             " for kind in ('mps', 'comb')]\n"
             "    loaded = 'concurrent.futures' in sys.modules\n"
             "    verified = [main(['verify', '--grid', grid]) for grid in ('small', 'full')]\n"
             "print(contracted, loaded, verified)")
    src = str(Path(tensor.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "[0, 0] False [0, 0]\n"
