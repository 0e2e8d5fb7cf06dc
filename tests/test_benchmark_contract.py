"""What the benchmark in ``perfbench/`` needs from prodenv.

The benchmark wraps prodenv functions by name and calls the library with
fixed arguments, so a rename or a dropped parameter under ``src/`` would
break it silently.  These tests fail first.
"""

import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(autouse=True)
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_function_resolves():
    tracing = importlib.import_module("tracing")
    for mod_name, attr, span in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            # Methods are wrapped in the class __dict__, classmethods unwrapped.
            cls_name, meth = attr.split(".")
            raw = getattr(owner, cls_name).__dict__.get(meth)
            if isinstance(raw, classmethod):
                raw = raw.__func__
        else:
            raw = getattr(owner, attr, None)
        assert inspect.isfunction(raw), f"{span}: {mod_name}.{attr} is gone"


def test_workloads_import_and_duality_call_binds():
    workloads = importlib.import_module("workloads")
    sig = inspect.signature(workloads.duality_check)
    sig.bind(None, None, None, convex_flag=True, geometric_oracle=True,
             n_boundary=10)
