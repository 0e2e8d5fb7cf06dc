"""Parent-aware spans around prodenv's public functions and scipy solvers.

Spans are recorded from outside the program: the benchmark replaces each
public function named in ``LAYER_FUNCTIONS`` with a timing wrapper in every
prodenv module namespace that binds it, and replaces ``linprog``, ``nnls``
and ``minimize`` in ``scipy.optimize`` before prodenv is imported (prodenv
binds them by name at import time).  Spans stay in memory and are written
out once, at the end of the run.

A layer's self time is its spans' durations minus the durations of their
direct child spans, so a function that calls itself (``Dataset.from_csv``
re-enters with the open file handle) is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

SIZE_TAGS = ("k40", "k120", "k200", "d3k120")

# (module, attribute, span name).  "Dataset.to_csv" style attributes are
# methods patched on the class; plain names are patched in every prodenv
# module that binds the same function object.
LAYER_FUNCTIONS = (
    ("prodenv.cli", "stage_simulate", "cli.stage_simulate"),
    ("prodenv.cli", "stage_identify", "cli.stage_identify"),
    ("prodenv.cli", "stage_proxies", "cli.stage_proxies"),
    ("prodenv.cli", "stage_bounds", "cli.stage_bounds"),
    ("prodenv.cli", "stage_estimate", "cli.stage_estimate"),
    ("prodenv.cli", "stage_duality", "cli.stage_duality"),
    ("prodenv.simulate", "generate_dataset", "simulate.generate_dataset"),
    ("prodenv.simulate", "Dataset.to_csv", "simulate.to_csv"),
    ("prodenv.simulate", "Dataset.from_csv", "simulate.from_csv"),
    ("prodenv.identify", "build_cells", "identify.build_cells"),
    ("prodenv.identify", "deconvolve_atoms", "identify.deconvolve_atoms"),
    ("prodenv.proxies", "recover_proxy_model", "proxies.recover_proxy_model"),
    ("prodenv.proxies", "solve_t", "proxies.solve_t"),
    ("prodenv.bounds", "wapm_feasible", "bounds.wapm_feasible"),
    ("prodenv.bounds", "profit_bounds", "bounds.profit_bounds"),
    ("prodenv.bounds", "quantity_bounds", "bounds.quantity_bounds"),
    ("prodenv.bounds", "profit_bounds_fixed_quantity", "bounds.fixed_quantity"),
    ("prodenv.bounds", "project_rationalizable", "bounds.project_rationalizable"),
    ("prodenv.geometry", "support_value", "geometry.support_value"),
    ("prodenv.geometry", "hausdorff_oracle_2d", "geometry.hausdorff_oracle_2d"),
    ("prodenv.estimation", "duality_check", "estimation.duality_check"),
    ("prodenv.estimation", "fit_diewert", "estimation.fit_diewert"),
    ("prodenv.estimation", "infinite_hausdorff_demo",
     "estimation.infinite_hausdorff_demo"),
)

# Per-layer metrics: name -> unit.  Order is the report order.
_SELF_TIME = [
    "cli.stage_simulate", "cli.stage_identify", "cli.stage_proxies",
    "cli.stage_bounds", "cli.stage_estimate", "cli.stage_duality",
    "simulate.generate_dataset", "simulate.to_csv", "simulate.from_csv",
    "identify.build_cells", "identify.deconvolve_atoms",
    "proxies.recover_proxy_model",
    "bounds.wapm_feasible", "bounds.profit_bounds", "bounds.quantity_bounds",
    "bounds.fixed_quantity", "bounds.project_rationalizable",
    "geometry.support_value", "geometry.hausdorff_oracle_2d",
    "estimation.fit_diewert", "estimation.infinite_hausdorff_demo",
]
_PER_SIZE = ["bounds.wapm_feasible", "bounds.profit_bounds",
             "bounds.quantity_bounds"]

PER_LAYER_METRICS: dict[str, str] = {}
for _name in _SELF_TIME:
    PER_LAYER_METRICS[_name + "_s"] = "s"
PER_LAYER_METRICS.update({
    "estimation.duality_check_s.convex": "s",
    "estimation.duality_check_s.nonconvex": "s",
    "simulate.csv_bytes": "bytes",
    "identify.deconvolve_atoms_calls": "count",
    "identify.nnls_per_cell": "ratio",
    "identify.recovery_err": "ratio",
    "proxies.solve_t_calls": "count",
    "proxies.gap_points": "count",
    "bounds.wapm_feasible_calls": "count",
    "bounds.sweep_feasible_ratio": "ratio",
    "geometry.support_value_calls": "count",
    "lp.calls": "count", "lp.optimal": "count", "lp.infeasible": "count",
    "lp.unbounded": "count", "lp.s": "s",
    "nnls.calls": "count", "nnls.s": "s", "nelder_mead.calls": "count",
})
for _tag in SIZE_TAGS:
    for _name in _PER_SIZE:
        PER_LAYER_METRICS[f"{_name}_s.{_tag}"] = "s"
    PER_LAYER_METRICS[f"bounds.wapm_feasible_calls.{_tag}"] = "count"
    PER_LAYER_METRICS[f"lp.calls.{_tag}"] = "count"
    PER_LAYER_METRICS[f"lp.s.{_tag}"] = "s"
PER_LAYER_METRICS["trace.overhead_s"] = "s"

_LP_STATUS = {0: "lp.optimal", 2: "lp.infeasible", 3: "lp.unbounded"}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent index,
    size tag]; its index in ``spans`` is its id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.size_tag = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def size(self, tag: str):
        prev, self.size_tag = self.size_tag, tag
        try:
            yield
        finally:
            self.size_tag = prev

    def wrap(self, name, fn, after=None):
        """Timing wrapper; ``name`` may be a callable of the call's
        arguments, and ``after(result)`` may record counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.size_tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def install_solver_wrappers(self) -> None:
        """Count scipy solver calls; must run before prodenv is imported."""
        if any(m == "prodenv" or m.startswith("prodenv.") for m in sys.modules):
            raise RuntimeError("solver wrappers must be installed before "
                               "prodenv is imported")
        import scipy.optimize as opt

        def lp_status(res):
            self.counts[_LP_STATUS.get(res.status, "lp.other")] += 1

        opt.linprog = self.wrap("lp", opt.linprog, lp_status)
        opt.nnls = self.wrap("nnls", opt.nnls)
        minimize = opt.minimize

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            if str(kwargs.get("method", "")).lower() == "nelder-mead":
                self.counts["nelder_mead.calls"] += 1
            return minimize(*args, **kwargs)

        opt.minimize = counted_minimize

    def install_layer_wrappers(self) -> None:
        """Wrap every public layer function wherever prodenv binds it."""
        import importlib
        for mod_name in {m for m, _, _ in LAYER_FUNCTIONS}:
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "prodenv" or n.startswith("prodenv.")]
        for mod_name, attr, span_name in LAYER_FUNCTIONS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self.wrap(span_name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(span_name, raw,
                                                 self._after(span_name)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(self._namer(span_name), original,
                                self._after(span_name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def _namer(self, span_name):
        if span_name == "estimation.duality_check":
            def name(args, kwargs):
                convex = kwargs.get("convex_flag", args[3] if len(args) > 3 else None)
                return span_name + (".convex" if convex else ".nonconvex")
            return name
        return span_name

    def _after(self, span_name):
        if span_name == "bounds.fixed_quantity":
            def after(res):
                meta = res.grid_metadata
                self.counts["sweep.rays"] += meta["n_rays"]
                self.counts["sweep.feasible"] += meta["n_feasible"]
            return after
        return None

    # -- reduction -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def metrics(self, extra: dict) -> dict:
        """Per-layer metrics from the spans and counts.  ``extra`` carries
        values measured outside the spans (csv bytes, recovery error,
        overhead)."""
        self_s = defaultdict(float)
        calls = Counter()
        nnls_in_cells = 0
        for span, st in zip(self.spans, self.self_times()):
            name, tag = span[0], span[4]
            self_s[name] += st
            calls[name] += 1
            if tag is not None:
                self_s[f"{name}@{tag}"] += st
                calls[f"{name}@{tag}"] += 1
            if name == "nnls" and span[3] >= 0 and \
                    self.spans[span[3]][0] == "identify.deconvolve_atoms":
                nnls_in_cells += 1
        out = dict.fromkeys(PER_LAYER_METRICS, 0.0)
        for name in _SELF_TIME:
            out[name + "_s"] = self_s[name]
        for kind in ("convex", "nonconvex"):
            out[f"estimation.duality_check_s.{kind}"] = \
                self_s[f"estimation.duality_check.{kind}"]
        cells = calls["identify.deconvolve_atoms"]
        out["identify.deconvolve_atoms_calls"] = cells
        out["identify.nnls_per_cell"] = nnls_in_cells / cells if cells else 0.0
        out["proxies.solve_t_calls"] = calls["proxies.solve_t"]
        out["proxies.gap_points"] = \
            self.counts["proxies.solve_t.raised.RankConditionError"]
        out["bounds.wapm_feasible_calls"] = calls["bounds.wapm_feasible"]
        rays = self.counts["sweep.rays"]
        out["bounds.sweep_feasible_ratio"] = \
            self.counts["sweep.feasible"] / rays if rays else 0.0
        out["geometry.support_value_calls"] = calls["geometry.support_value"]
        out["lp.calls"] = calls["lp"]
        for key in ("lp.optimal", "lp.infeasible", "lp.unbounded"):
            out[key] = self.counts[key]
        out["lp.s"] = self_s["lp"]
        out["nnls.calls"] = calls["nnls"]
        out["nnls.s"] = self_s["nnls"]
        out["nelder_mead.calls"] = self.counts["nelder_mead.calls"]
        for tag in SIZE_TAGS:
            for name in _PER_SIZE:
                out[f"{name}_s.{tag}"] = self_s[f"{name}@{tag}"]
            out[f"bounds.wapm_feasible_calls.{tag}"] = \
                calls[f"bounds.wapm_feasible@{tag}"]
            out[f"lp.calls.{tag}"] = calls[f"lp@{tag}"]
            out[f"lp.s.{tag}"] = self_s[f"lp@{tag}"]
        out.update(extra)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, size tag, run id."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "parent": parent if parent >= 0 else None,
                    "size": tag, "run": self.run_id}) + "\n")
