"""The benchmark's verify workload still matches the registered checks: each
op filters run_checks by one name from bench/worker.py's VERIFY_CHECKS and
expects exactly that check back, so a renamed check, a name that selects
two checks, or a change to what the deliberate red reports fails here
before it fails a benchmark run."""

import importlib.util
import pathlib
import random
import sys

import pytest

from fibtor import verify

WORKER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "worker.py"
REGISTERED = [name for name, _ in verify.CHECKS]


@pytest.fixture
def worker(monkeypatch):
    # load bench/worker.py without writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_verify_workload_check_is_registered(worker):
    assert worker.VERIFY_CHECKS
    assert set(worker.VERIFY_CHECKS) <= set(REGISTERED)
    assert worker.DELIBERATE_RED in worker.VERIFY_CHECKS


@pytest.mark.parametrize("name", REGISTERED)
def test_each_check_name_selects_only_itself(monkeypatch, name):
    # stub checks, so run_checks' own filter is what is tested
    monkeypatch.setattr(verify, "CHECKS", [(n, lambda rng, perturb=False: (True, ""))
                                           for n in REGISTERED])
    assert [r[0] for r in verify.run_checks(name_filter=name)] == [name]


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_workload_accepts_the_deliberate_red(worker, seed):
    workload = worker.Verify(random.Random(seed))
    i = worker.VERIFY_CHECKS.index(worker.DELIBERATE_RED)
    results = verify.run_checks(name_filter=worker.DELIBERATE_RED, seed=seed)
    assert workload.check(i, results)


@pytest.mark.parametrize("seed", [3, 7])
def test_a_verify_workload_pass_meets_its_oracle(worker, seed):
    # one pass over the 13 checks at a check seed the benchmark draws
    # (randrange(2^20) * 1000), as `bench/run.py --workload verify --seed N`
    # does: every op's output passes the worker's oracle, the deliberate red
    # included
    workload = worker.Verify(random.Random(seed))
    for i in range(workload.cycle):
        assert workload.check(i, workload.op(i)), workload.op(i)
