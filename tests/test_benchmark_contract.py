"""What the benchmark in ``perfbench/`` needs from prodenv.

The benchmark wraps prodenv functions by name and calls the library with
fixed arguments, so a rename or a dropped parameter under ``src/`` would
break it silently.  These tests fail first.
"""

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_solver_counters_see_the_deconvolution():
    # nnls.calls and nelder_mead.calls count calls through the names prodenv
    # binds from scipy.optimize at import, so the wrappers go in before
    # prodenv is imported: a fresh interpreter.
    code = """
import json
import numpy as np
import tracing
tracer = tracing.Tracer("contract")
tracer.install_solver_wrappers()
from prodenv.identify import NoiseCdf, deconvolve_atoms
rng = np.random.default_rng(0)
noise = NoiseCdf.from_residuals(rng.uniform(-0.1, 0.1, size=500))
sample = rng.choice([1.0, 1.1, 1.2], size=1000) + rng.uniform(-0.1, 0.1, size=1000)
deconvolve_atoms(sample, noise, max_types=2)
m = tracer.metrics({})
print(json.dumps([m["nnls.calls"], m["nelder_mead.calls"]]))
"""
    path = [str(PERFBENCH), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    nnls_calls, nelder_mead_calls = json.loads(proc.stdout.splitlines()[-1])
    assert nnls_calls > 0 and nelder_mead_calls > 0


def test_import_leaves_slow_scipy_modules_unloaded():
    # setup_s is mostly ``import prodenv``; scipy.stats and scipy.interpolate
    # would add about 0.6 s and 0.05 s to it on a 2-core x86 host, so whatever
    # needs them imports them where it is called.  A fresh interpreter sees
    # the import set.
    code = ("import sys, prodenv; print(' '.join(m for m in "
            "('scipy.stats', 'scipy.interpolate') if m in sys.modules))")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
