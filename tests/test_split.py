"""``tensor._run_all``, the one helper that shares work over the CPUs, and
the stacked steps past ``tensor._CHUNK`` elements that it splits: results
in part order, every share in the caller's context, the same bits at any
CPU count, one thread pool for the process that a fork never inherits, a
failed run fails the call once every share has finished, and nothing but
the pool's threads is left running."""

import concurrent.futures
import contextvars
import decimal
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from combtn import engine, tensor, verification
from combtn.cli import main
from combtn.engine import execute, plan_for
from combtn.network import NetworkParams, attach_data, build_comb, build_mps
from combtn.tensor import contract_pair
from combtn.verification import grid_params
from pools import nothing_left_but_the_pool, pool_threads, recording_shares, running

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
    """Patch the pool ``_run_all`` makes, the thread pool or a forked call's
    processes; return the list of its worker counts."""
    name = "ProcessPoolExecutor" if fork else "ThreadPoolExecutor"
    workers, pool = [], getattr(concurrent.futures, name)

    def recorded(max_workers, **kwargs):
        workers.append(max_workers)
        return pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, name, recorded)
    return workers


# parts for _run_all, at module level so that a forked pool can pickle them

def _where(k: int) -> tuple:
    return k, os.getpid(), threading.get_ident()


def _fails_at(k: int, failing: int) -> int:
    if k == failing:
        raise ValueError(f"part {k} failed")
    return k


def _fails_at_or_finishes_late(k: int, failing: int, finished: list) -> int:
    # the caller's part 0 finishes at once, and every other part well after
    if k == failing:
        raise ValueError(f"part {k} failed")
    if k:
        time.sleep(0.3)
    finished.append(k)
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
    # the caller runs parts 0, cpus, 2 * cpus, ... and a worker each other
    # share: a process forked for the call, or a thread of the process's
    # pool of cpus - 1
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    forked = _recording_pool(monkeypatch, fork=True)
    before = running()
    done = tensor._run_all(_where, [(k,) for k in range(7)], fork=fork)
    assert [k for k, _, _ in done] == list(range(7))
    here = (os.getpid(), threading.get_ident())
    assert [k for k, *where in done if tuple(where) == here] == list(range(0, 7, cpus))
    elsewhere = {tuple(where) for _, *where in done} - {here}
    if fork:
        assert forked == ([cpus - 1] if cpus > 1 else [])
        assert os.getpid() not in {pid for pid, _ in elsewhere}
    else:
        assert forked == []
        assert {pid for pid, _ in elsewhere} <= {os.getpid()}
        assert {ident for _, ident in elsewhere} <= {t.ident for t in pool_threads()}
        assert cpus == 1 or tensor._pool[0] == cpus
    assert nothing_left_but_the_pool(before)


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
    before = running()
    with pytest.raises(ValueError, match=f"^part {failing} failed$"):
        tensor._run_all(_fails_at, [(k, failing) for k in range(7)], fork=fork)
    assert nothing_left_but_the_pool(before)


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failed_call_raises_once_every_share_has_finished(failing, monkeypatch):
    # three shares of one part each: the caller's part 0 fails at once or
    # finishes at once, and the pool's parts 1 and 2 fail at once or take
    # 0.3 s, so a call that raised before waiting for them would find one
    # still running; the pool then serves the next call as before
    monkeypatch.setattr(tensor, "_cpus", lambda: 3)
    before, finished = running(), []
    with pytest.raises(ValueError, match=f"^part {failing} failed$"):
        tensor._run_all(_fails_at_or_finishes_late,
                        [(k, failing, finished) for k in range(3)], fork=False)
    assert sorted(finished) == [k for k in range(3) if k != failing]
    done = tensor._run_all(_where, [(k,) for k in range(3)], fork=False)
    assert [k for k, _, _ in done] == [0, 1, 2]
    assert nothing_left_but_the_pool(before)


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


def _execute_all(nets, shares: list, monkeypatch):
    """Each scalar's ``float.hex``, each step result's bytes, and the
    (kind, second operand) of every step that was split into shares, as
    ``shares`` (a ``recording_shares`` list) records them."""
    scalars, results, split = [], [], set()
    for net in nets:
        steps = iter(plan_for(net).steps)

        def recorded(a, b, pairing):
            step, called = next(steps), len(shares)
            out, cost = contract_pair(a, b, pairing)
            results.append(out.tobytes())
            if any(n > 1 for n in shares[called:]):
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
    shares = recording_shares(monkeypatch)
    scalars, results, split = _execute_all(nets, shares, monkeypatch)
    assert split == set()
    monkeypatch.setattr(tensor, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    assert _execute_all(nets, shares, monkeypatch) == (scalars, results, set())
    # more workers than this host may have CPUs, each switching often
    monkeypatch.setattr(tensor, "_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got_scalars, got_results, split = _execute_all(nets, shares, monkeypatch)
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
    shares = recording_shares(monkeypatch)
    expected, seen = [], []

    def recorded(a, b, pairing):
        called = len(shares)
        split = (pairing.batch > 0 and a.size + b.size > tensor._CHUNK
                 and cpus > 1 and a.shape[0] > 1)
        # one run per CPU, at most one per item, each run a share: the
        # calling thread takes one and a thread of the pool each other
        expected.append([min(cpus, a.shape[0])] if split else [])
        out = contract_pair(a, b, pairing)
        seen.append(shares[called:])
        return out

    monkeypatch.setattr(engine, "contract_pair", recorded)
    before = running()
    execute(net, plan_for(net))
    assert nothing_left_but_the_pool(before)
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
    before = running()
    result = None
    with pytest.raises(RuntimeError, match=f"run {failing} failed"):
        result = execute(net, plan_for(net))
    assert result is None
    assert nothing_left_but_the_pool(before)


def test_a_split_step_is_one_contract_pair_call(monkeypatch):
    # perfbench counts calls to contract_pair under either module's name:
    # a reference round stays at 17, one per plan step, while the runs of
    # its six steps past a chunk of 10,000 elements go to two shares each
    p = NetworkParams(dim_raw=100, dim_comp=30, bond_dim=10, teeth=50, tooth_len=5)
    nets = [build(p, seed=1) for build in (build_mps, build_comb)]
    monkeypatch.setattr(tensor, "_CHUNK", 10_000)
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    shares = recording_shares(monkeypatch)
    calls = []

    def counted(a, b, pairing):
        calls.append(pairing)
        return contract_pair(a, b, pairing)

    monkeypatch.setattr(tensor, "contract_pair", counted)
    monkeypatch.setattr(engine, "contract_pair", counted)
    for net in nets:
        execute(net, plan_for(net))
    assert len(calls) == 17
    assert shares == [2] * 6


def test_one_pool_serves_every_split_step_and_build(monkeypatch):
    # the first thread share makes the pool, one worker per CPU but the
    # caller's; every later split step and chunked fill reuses it, so no
    # thread starts but its own; a new CPU count makes a new pool, and the
    # old one's threads are joined
    monkeypatch.setattr(tensor, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(tensor, "_cpus", lambda: 3)
    tensor._close_pool()
    made, shares = _recording_pool(monkeypatch), recording_shares(monkeypatch)
    started, start = [], threading.Thread.start

    def recorded(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    before = running()
    p = NetworkParams(dim_raw=4, dim_comp=3, bond_dim=3, teeth=5, tooth_len=3)
    for seed in range(3):
        for build in (build_mps, build_comb):
            net = build(p, seed=seed)
            execute(net, plan_for(net))
    # per seed one fill and two split steps (MPS), one fill and three (comb)
    assert sum(n > 1 for n in shares) == 3 * 7
    assert made == [2]
    assert len(started) <= 2
    assert all(name.startswith(tensor._POOL_NAME) for name in started)
    assert nothing_left_but_the_pool(before)
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    tensor._run_all(_where, [(0,), (1,)], fork=False)
    assert made == [2, 1]
    assert len(pool_threads()) == 1
    assert nothing_left_but_the_pool(before)
    tensor._close_pool()
    assert pool_threads() == []


def test_a_forked_worker_starts_with_one_thread_and_no_pool(tmp_path, monkeypatch):
    # a chunked build leaves the pool's thread running; verify's fork joins
    # it first, so each forked worker holds only the forking thread and no
    # pool it would have to wait on, and the next thread share here makes
    # the pool anew
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    with monkeypatch.context() as chunked:
        chunked.setattr(tensor, "_CHUNK", SMALL_CHUNK)
        build_comb(NetworkParams(dim_raw=4, dim_comp=3, bond_dim=3, teeth=5,
                                 tooth_len=3), seed=3)
    assert len(pool_threads()) == 1
    oracle = verification.naive_value_oracle

    def noted(net):
        with open(tmp_path / str(os.getpid()), "a") as note:
            note.write(f"{threading.active_count()} {tensor._pool is None}\n")
        return oracle(net)

    monkeypatch.setattr(verification, "naive_value_oracle", noted)
    before = running()
    assert verification.run_verification("small").ok
    workers = {path.read_text() for path in tmp_path.iterdir() if path.name != str(os.getpid())}
    assert len(workers) == 1
    assert set(workers.pop().splitlines()) == {"1 True"}
    assert pool_threads() == []
    done = tensor._run_all(_where, [(0,), (1,)], fork=False)
    assert done[1][2] in {t.ident for t in pool_threads()}
    assert nothing_left_but_the_pool(before)


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
