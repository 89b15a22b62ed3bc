"""Every function the benchmark's tracer wraps still exists, so a deletion
that would break the traced benchmark run fails here first."""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced(monkeypatch):
    # load bench/tracing.py without writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves(monkeypatch):
    traced = _traced(monkeypatch)
    assert traced
    for module_name, attr, *_ in traced:
        owner = importlib.import_module(module_name)
        *cls_name, name = attr.split(".")
        if cls_name:  # a method, looked up on its class as the tracer does
            owner = vars(owner)[cls_name[0]]
        assert callable(vars(owner).get(name)), (module_name, attr)
