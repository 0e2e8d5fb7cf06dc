"""Command-line interface: pipeline orchestration and report rendering.

Subcommands: simulate, identify, proxies, bounds, estimate, duality, report,
and run (the whole pipeline from one config).  Exit codes: 0 success,
2 validation, 3 identification failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (BoundResult, ProfitData, profit_bounds,
                     profit_bounds_fixed_quantity, project_rationalizable,
                     quantity_bounds)
from .config import (PipelineConfig, SectionView, load_config,
                     parse_identify_config, parse_market_config,
                     parse_technology)
from .errors import ProdenvError, ValidationError
from .estimation import (DiewertFit, diewert_value, duality_check, fit_diewert,
                         infinite_hausdorff_demo)
from .geometry import PriceRay, RestrictedPriceSet
from .identify import ProfitTable, identify_profits
from .proxies import ProxyModel, recover_g_housing, recover_proxy_model
from .simulate import Dataset, generate_dataset, profit_oracle, TechnologySpec


def _atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".partial"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, doc: dict) -> None:
    _atomic_write_text(path, json.dumps(doc, indent=1))


# ---------------------------------------------------------------------------
# Artifact adapters
# ---------------------------------------------------------------------------


def profit_data_from_table(table: ProfitTable, e: int,
                           proxy_model: Optional[ProxyModel] = None) -> ProfitData:
    """Per-type (unit ray, profit) pairs from a profit table.

    Cell centers are price vectors (or proxies mapped to prices through a
    recovered proxy model); values are rescaled onto the unit sphere by
    degree-1 homogeneity.  Cells mapping to the same ray are averaged.
    """
    buckets: dict[tuple, list] = {}
    for cell in table.cells:
        if e not in cell.values:
            continue
        p = np.asarray(cell.x_center, dtype=float)
        if proxy_model is not None:
            p = proxy_model.price_vector(p)
        nrm = float(np.linalg.norm(p))
        if nrm <= 0:
            raise ValidationError("cell center does not map to a positive price")
        ray = p / nrm
        buckets.setdefault(tuple(np.round(ray, 10)), []).append(cell.values[e] / nrm)
    if not buckets:
        raise ValidationError(f"profit table has no cells identifying type {e}")
    rays = np.array(list(buckets.keys()))
    vals = np.array([float(np.mean(v)) for v in buckets.values()])
    return ProfitData(e=e, rays=rays / np.linalg.norm(rays, axis=1, keepdims=True),
                      values=vals)


def _csv_rows(source, name: str, **kwargs) -> np.ndarray:
    """The numeric rows of a CSV (a path or an open file past its header)
    as a 2-d array; a file with no data rows is a ValidationError naming
    it, not numpy's warning and a later crash."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        body = np.loadtxt(source, delimiter=",", ndmin=2, **kwargs)
    if body.size == 0:
        raise ValidationError(f"{name!r} has no data rows")
    return body


def profit_data_from_csv(path: str) -> dict:
    """Standalone profit pairs from a CSV with header ray_1..ray_d, value
    [, type_e].  Rays may be unnormalized prices; values are rescaled onto
    the unit sphere by homogeneity.  Returns {type: ProfitData}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        d = sum(1 for h in header if h.startswith("ray_"))
        if d == 0 or header[d:d + 1] != ["value"]:
            raise ValidationError(f"{path!r} is not a profit-pairs CSV "
                                  "(need ray_1..ray_d, value[, type_e])")
        body = _csv_rows(fh, path)
    has_type = "type_e" in header
    types = body[:, d + 1].astype(int) if has_type else np.ones(len(body), int)
    out = {}
    for e in np.unique(types):
        sub = body[types == e]
        norms = np.linalg.norm(sub[:, :d], axis=1)
        out[int(e)] = ProfitData(int(e), sub[:, :d] / norms[:, None],
                                 sub[:, d] / norms)
    return out


def _lattice_interpolant(X: np.ndarray, values, source: str):
    """Multilinear interpolant of ``values`` at the rows of ``X``, which must
    fill the lattice of their coordinates (rounded to 1e-9); returns it with
    the lattice axes.  ``source`` names the points in the error."""
    from scipy.interpolate import RegularGridInterpolator
    coords = np.round(X, 9)
    axes = [np.unique(col) for col in coords.T]
    grid_vals = np.full(tuple(a.size for a in axes), np.nan)
    grid_vals[tuple(np.searchsorted(a, col) for a, col in zip(axes, coords.T))] = values
    missing = int(np.isnan(grid_vals).sum())
    if missing:
        raise ValidationError(
            f"{source} do not form a full lattice; cannot interpolate "
            f"({missing} of {grid_vals.size} nodes missing)")
    interp = RegularGridInterpolator(axes, grid_vals, bounds_error=False,
                                     fill_value=None)
    return lambda x: float(interp(np.asarray(x, float)[None, :])[0]), axes


def table_evaluator(table: ProfitTable, e: int):
    """Multilinear interpolant of a type's identified profits over the
    lattice of cell centers."""
    cells = [c for c in table.cells if e in c.values]
    if not cells:
        raise ValidationError(f"no cells identify type {e}")
    return _lattice_interpolant(np.vstack([c.x_center for c in cells]).astype(float),
                                [c.values[e] for c in cells],
                                f"cell centers of type {e}")


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def stage_simulate(cfg: PipelineConfig, out_path: str, debug: bool = False) -> str:
    sec = cfg.section("simulate")
    tech = parse_technology(sec)
    market = parse_market_config(sec, cfg.seed, tech.dimension)
    sec.check_unknown()
    data = generate_dataset(tech, market)
    tmp = out_path + ".partial"
    data.to_csv(tmp, debug=debug)
    os.replace(tmp, out_path)
    return out_path


def stage_identify(cfg: PipelineConfig, data_path: str, out_path: str) -> str:
    sec = cfg.section("identify")
    icfg = parse_identify_config(sec)
    sec.check_unknown()
    data = Dataset.from_csv(data_path, noise_width=icfg.noise_width or 0.0)
    table = identify_profits(data, icfg)
    _write_json(out_path, table.to_json_dict())
    return out_path


def stage_proxies(cfg: PipelineConfig, table_path: str, out_path: str) -> str:
    sec = cfg.section("proxies")
    mode = sec.get_str("mode", "euler")
    if mode == "housing":
        path = sec.get_str("profile_csv", required=True)
        profile = _csv_rows(path, path, skiprows=1, usecols=(0, 1))
        anchor = (sec.get_float("anchor_v", required=True),
                  sec.get_float("anchor_p", required=True))
        sec.check_unknown()
        good = recover_g_housing(profile[:, 0], profile[:, 1], anchor)
        model = ProxyModel(goods=(good,), anchor_x=np.array([anchor[0]]),
                           anchor_p=np.array([anchor[1]]))
        _write_json(out_path, model.to_json_dict())
        return out_path

    profile_csv = sec.get_str("profile_csv", None)
    if profile_csv:
        # Aggregate-mean profile: x coordinates plus a mean-profit column.
        body = _csv_rows(profile_csv, profile_csv, skiprows=1)
        pi_tilde, axes = _lattice_interpolant(body[:, :-1], body[:, -1],
                                              f"rows of profile {profile_csv!r}")
    else:
        table = ProfitTable.load(table_path)
        e = sec.get_int("type_e", table.d_e)
        pi_tilde, axes = table_evaluator(table, e)
    d = len(axes)
    obs = sec.get_int("observed_index", d) - 1
    anchors = sec.get_vector("anchors")
    if anchors is None:
        qs = np.linspace(0.1, 0.9, max(d - 1, sec.get_int("n_anchors", d - 1)))
        anchors = np.quantile(axes[obs], qs)
    x0 = sec.get_vector("anchor_x", required=True)
    p0 = sec.get_vector("anchor_p", required=True)
    x_ref_v = sec.get_vector("x_ref")
    x_ref = (np.array([float(np.median(a)) for a in axes])
             if x_ref_v is None else x_ref_v)
    trim = sec.get_int("trim", 1)
    sec.check_unknown()
    grids = [a[trim:-trim] if trim > 0 else a for a in axes]
    model = recover_proxy_model(pi_tilde, grids, x_ref, anchors, (x0, p0),
                                observed_index=obs)
    _write_json(out_path, model.to_json_dict())
    return out_path


def _bounds_question(sec: SectionView, data: ProfitData) -> tuple[str, BoundResult]:
    kind = sec.get_str("question", "profit")
    if kind == "profit":
        pc = sec.get_vector("p_c", required=True)
        pc = pc / np.linalg.norm(pc)
        return (f"profit at p_c={pc.tolist()}", profit_bounds(data, pc))
    if kind == "quantity":
        pc = sec.get_vector("p_c", required=True)
        pc = pc / np.linalg.norm(pc)
        u = sec.get_vector("u", required=True)
        return (f"u.y at p_c={pc.tolist()}, u={u.tolist()}",
                quantity_bounds(data, pc, u))
    if kind == "fixed_quantity":
        coord = sec.get_int("coord", required=True) - 1
        ybar = sec.get_float("ybar", required=True)
        n = sec.get_int("n_grid_rays", 720)
        if data.dimension != 2:
            raise ValidationError("fixed_quantity grid is built for dimension 2")
        angles = np.linspace(0.01, np.pi / 2 - 0.01, n)
        grid = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        return (f"profit with y[{coord+1}]={ybar} fixed",
                profit_bounds_fixed_quantity(data, coord, ybar, grid))
    raise ValidationError(f"[bounds] unknown question {kind!r}")


def stage_bounds(cfg: PipelineConfig, table_path: str, out_path: str,
                 proxy_path: Optional[str] = None) -> str:
    sec = cfg.section("bounds")
    if table_path.endswith(".csv"):
        per_type_data = profit_data_from_csv(table_path)
        table = None
        proxy_model = None
    else:
        table = ProfitTable.load(table_path)
        per_type_data = None
        proxy_model = None
        proxy_file = sec.get_str("proxy_model", proxy_path)
        if proxy_file:
            proxy_model = ProxyModel.load(proxy_file)
    types = sec.get_vector("types")
    if types is not None:
        type_list = [int(v) for v in types]
    elif table is not None:
        type_list = list(range(1, table.d_e + 1))
    else:
        type_list = sorted(per_type_data)
    repair = sec.get_str("repair", "none")
    reports = []
    question = ""
    for e in type_list:
        data = (per_type_data[e] if per_type_data is not None
                else profit_data_from_table(table, e, proxy_model))
        if repair == "project":
            data, shift = project_rationalizable(data)
        elif repair != "none":
            raise ValidationError(f"[bounds] unknown repair mode {repair!r}")
        question, result = _bounds_question(sec, data)
        doc = result.to_json_dict(question=question, e=e)
        if repair == "project":
            doc["repair_shift"] = shift
        reports.append(doc)
    sec.check_unknown()
    _write_json(out_path, {"schema": "prodenv.bounds-report/1",
                           "question": question, "per_type": reports})
    return out_path


def stage_estimate(cfg: PipelineConfig, table_path: str, out_path: str,
                   proxy_path: Optional[str] = None) -> str:
    sec = cfg.section("estimate")
    if table_path.endswith(".csv"):
        per_type_data = profit_data_from_csv(table_path)
        per_type = [(per_type_data[e].rays, per_type_data[e].values)
                    for e in sorted(per_type_data)]
    else:
        table = ProfitTable.load(table_path)
        proxy_model = None
        proxy_file = sec.get_str("proxy_model", proxy_path)
        if proxy_file:
            proxy_model = ProxyModel.load(proxy_file)
        per_type = []
        for e in range(1, table.d_e + 1):
            data = profit_data_from_table(table, e, proxy_model)
            per_type.append((data.rays, data.values))
    fit = fit_diewert(per_type, d_y=per_type[0][0].shape[1],
                      convexity=sec.get_bool("convexity", True),
                      monotone=sec.get_bool("monotone", True),
                      tau=sec.get_float("tau", 0.5))
    sec.check_unknown()
    _write_json(out_path, fit.to_json_dict())
    return out_path


def _parse_pbar(spec: str) -> tuple:
    """Evaluation-grid spec: 'lo:hi:n' angles in d=2, or a CSV of ray rows."""
    if ":" in spec and not os.path.exists(spec):
        lo, hi, n = spec.split(":")
        angles = np.linspace(float(lo), float(hi), int(n))
        return tuple(PriceRay(np.array([np.cos(a), np.sin(a)])) for a in angles)
    return tuple(PriceRay.from_direction(r) for r in _csv_rows(spec, spec))


def stage_duality(cfg: PipelineConfig, fit_path: str, out_path: str,
                  pbar: Optional[str] = None) -> str:
    sec = cfg.section("duality")
    fit = DiewertFit.load(fit_path)
    b_true = sec.get_matrix("b_true", required=True)
    e = sec.get_int("type_e", fit.d_e)
    n = sec.get_int("n_rays", 90)
    lo = sec.get_float("angle_lo", 0.15)
    hi = sec.get_float("angle_hi", float(np.pi / 2 - 0.15))
    use_oracle = sec.get_bool("geometric_oracle", True)
    sec.check_unknown()
    if fit.dimension != 2 or b_true.shape != (2, 2):
        raise ValidationError("[duality] the built-in grid is 2-dimensional")
    if pbar:
        rays = _parse_pbar(pbar)
    else:
        angles = np.linspace(lo, hi, n)
        rays = tuple(PriceRay(np.array([np.cos(a), np.sin(a)])) for a in angles)
    price_set = RestrictedPriceSet(rays, convex_flag=True)
    report = duality_check(
        lambda p: float(diewert_value(b_true, p[None, :])[0]),
        fit.evaluator(e), price_set, convex_flag=True,
        geometric_oracle=use_oracle)
    _write_json(out_path, report.to_json_dict())
    return out_path


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_GOLDEN_BRACKETS = [
    ("l*_1", (0.006, 0.007)), ("y*_1", (0.1, 0.2)),
    ("l*_2", (0.02, 0.03)), ("y*_2", (0.41, 0.5)),
    ("l*_3", (0.009, 0.01)), ("y*_3", (0.39, 0.40)),
]


def golden_table() -> str:
    """Optimal input/output levels of the nonmonotone-supply triple at
    output/input price ratio 0.12, checked against their interval brackets."""
    tech = TechnologySpec.nonmonotone_supply_triple()
    p = np.array([0.12, 1.0])
    vals = []
    for e in (1, 2, 3):
        _, opt = profit_oracle(tech, e, p)
        vals.extend([-opt[1], opt[0]])     # input level, then output level
    lines = ["nonmonotone-supply golden table (price ratio 0.12)",
             f"{'quantity':>8} {'value':>12} {'bracket':>18} {'ok':>4}"]
    for (name, (lo, hi)), v in zip(_GOLDEN_BRACKETS, [vals[0], vals[1], vals[2],
                                                      vals[3], vals[4], vals[5]]):
        ok = lo < v < hi
        lines.append(f"{name:>8} {v:12.6f} ({lo:7.3f},{hi:7.3f}) {'yes' if ok else 'NO':>4}")
    l_order = vals[0] < vals[4] < vals[2]
    y_order = vals[1] < vals[5] < vals[3]
    lines.append(f"orderings: l*_1 < l*_3 < l*_2: {'yes' if l_order else 'NO'}; "
                 f"y*_1 < y*_3 < y*_2: {'yes' if y_order else 'NO'}")
    return "\n".join(lines)


def _fmt_bound_text(v, cert) -> str:
    if v == "+inf" or v == "-inf":
        ray = ""
        if cert and "ray" in cert:
            ray = " (certificate: ray " + ", ".join(
                f"{float(x):.4f}" for x in cert["ray"]) + ")"
        return f"unbounded{ray}"
    return f"{float(v):.6f}"


def render_artifact(doc: dict) -> str:
    schema = doc.get("schema", "")
    if schema.startswith("prodenv.profit-table/"):
        lines = [f"profit table: {doc['d_e']} types, {len(doc['cells'])} cells",
                 f"anchor value {doc['anchor']['value']:.6f} "
                 f"(top-down offset {doc['anchor']['e_star_offset']})"]
        for c in doc["cells"]:
            cell = ",".join(f"{v:.4g}" for v in c["x_center"])
            parts = [f"e={a['e']}: {a['value']:.5f}" for a in c["assignments"]]
            if c["unidentified_below"] > 0:
                parts.append(f"e<={c['unidentified_below']}: unidentified (low type)")
            lines.append(f"  cell ({cell}) n={c['count']}: " + "; ".join(parts))
        return "\n".join(lines)
    if schema.startswith("prodenv.bounds-report/"):
        lines = [f"bounds: {doc.get('question', '')}"]
        for r in doc.get("per_type", [doc] if "lower" in doc else []):
            if not r.get("feasible", True):
                lines.append(f"  type {r.get('type')}: infeasible restriction set")
                continue
            lo = _fmt_bound_text(r["lower"], r.get("lower_certificate"))
            hi = _fmt_bound_text(r["upper"], r.get("upper_certificate"))
            lines.append(f"  type {r.get('type')}: [{lo}, {hi}]")
        return "\n".join(lines)
    if schema.startswith("prodenv.duality-report/"):
        return ("duality: eta={eta:.6g} d_H={d_h:.6g} R={R:.6g} r={r:.6g} "
                "verdict={verdict}".format(**doc))
    if schema.startswith("prodenv.proxy-model/"):
        lines = ["proxy model:"]
        for j, g in enumerate(doc["goods"], start=1):
            tag = "observed price" if g["observed"] else "recovered map"
            lines.append(f"  good {j}: {tag}, grid [{g['grid'][0]:.4g}, "
                         f"{g['grid'][-1]:.4g}] ({len(g['grid'])} points)")
        return "\n".join(lines)
    if schema.startswith("prodenv.diewert-fit/"):
        lines = [f"generalized-Leontief fit: {doc['d_e']} types, "
                 f"residual {doc['residual']:.6g}"]
        for e, mat in enumerate(doc["b"], start=1):
            rows = "; ".join(" ".join(f"{v:8.4f}" for v in row) for row in mat)
            lines.append(f"  type {e}: [{rows}]")
        return "\n".join(lines)
    raise ValidationError(f"unknown artifact schema {schema!r}")


# ---------------------------------------------------------------------------
# Pipeline runner
# ---------------------------------------------------------------------------


def run_pipeline(config_path: str, out_dir: Optional[str] = None,
                 debug: bool = False) -> dict:
    cfg = PipelineConfig.from_file(config_path)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    with open(config_path, "rb") as fh:
        cfg_hash = hashlib.sha256(fh.read()).hexdigest()

    artifacts: dict[str, str] = {}
    timings = []
    paths = {
        "simulate": os.path.join(out, "dataset.csv"),
        "identify": os.path.join(out, "profit_table.json"),
        "proxies": os.path.join(out, "proxy_model.json"),
        "bounds": os.path.join(out, "bounds_report.json"),
        "estimate": os.path.join(out, "diewert_fit.json"),
        "duality": os.path.join(out, "duality_report.json"),
    }
    for stage in cfg.stages:
        t0 = time.perf_counter()
        try:
            if stage == "simulate":
                artifacts["dataset"] = stage_simulate(cfg, paths[stage], debug)
            elif stage == "identify":
                src = cfg.section("identify").raw("input") or artifacts["dataset"]
                artifacts["profit_table"] = stage_identify(cfg, src, paths[stage])
            elif stage == "proxies":
                src = cfg.section("proxies").raw("input") or artifacts.get("profit_table")
                artifacts["proxy_model"] = stage_proxies(cfg, src, paths[stage])
            elif stage == "bounds":
                src = cfg.section("bounds").raw("input") or artifacts["profit_table"]
                artifacts["bounds_report"] = stage_bounds(
                    cfg, src, paths[stage], artifacts.get("proxy_model"))
            elif stage == "estimate":
                src = cfg.section("estimate").raw("input") or artifacts["profit_table"]
                artifacts["diewert_fit"] = stage_estimate(
                    cfg, src, paths[stage], artifacts.get("proxy_model"))
            elif stage == "duality":
                src = cfg.section("duality").raw("input") or artifacts["diewert_fit"]
                artifacts["duality_report"] = stage_duality(cfg, src, paths[stage])
        except ProdenvError as exc:
            exc.args = (f"stage {stage!r}: {exc}",)
            raise
        timings.append({"stage": stage, "seconds": time.perf_counter() - t0})

    import scipy
    manifest = {
        "schema": "prodenv.manifest/1",
        "config_sha256": cfg_hash,
        "seed": cfg.seed,
        "versions": {"prodenv": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "stages": timings,
        "artifacts": artifacts,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prodenv",
        description="Production-set identification and counterfactual bounds")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic economy dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--debug", action="store_true",
                   help="emit the hidden type column")

    p = sub.add_parser("identify", help="recover per-type profits from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("proxies", help="recover price maps from proxies")
    p.add_argument("--profits", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bounds", help="counterfactual bounds from identified profits")
    p.add_argument("--profits", required=True)
    p.add_argument("--question", required=True,
                   help="config file with a [bounds] section")
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="shape-constrained profit fit")
    p.add_argument("--profits", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("duality", help="Hausdorff / sup-norm duality report")
    p.add_argument("--truth", required=True,
                   help="config file with a [duality] section (b_true)")
    p.add_argument("--fit", required=True)
    p.add_argument("--pbar",
                   help="evaluation grid, 'lo:hi:n' angles or a CSV of rays")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="render artifacts as text")
    p.add_argument("artifacts", nargs="*")
    p.add_argument("--golden-table", action="store_true",
                   help="print the nonmonotone-supply check table")

    p = sub.add_parser("run", help="run a full pipeline from one config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--debug", action="store_true")

    p = sub.add_parser("demo", help="print the unbounded-distance demonstration")
    p.add_argument("--m", type=int, default=10)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = PipelineConfig(stages=["simulate"], out_dir=".", seed=0,
                                 parser=load_config(args.config))
            cfg.seed = cfg.section("pipeline").get_int("seed", 0)
            stage_simulate(cfg, args.out, args.debug)
        elif args.command == "identify":
            cfg = PipelineConfig(stages=["identify"], out_dir=".", seed=0,
                                 parser=load_config(args.config))
            stage_identify(cfg, args.data, args.out)
        elif args.command == "proxies":
            cfg = PipelineConfig(stages=["proxies"], out_dir=".", seed=0,
                                 parser=load_config(args.config))
            stage_proxies(cfg, args.profits, args.out)
        elif args.command == "bounds":
            cfg = PipelineConfig(stages=["bounds"], out_dir=".", seed=0,
                                 parser=load_config(args.question))
            stage_bounds(cfg, args.profits, args.out)
        elif args.command == "estimate":
            parser = load_config(args.config) if args.config else None
            if parser is None:
                import configparser as _cp
                parser = _cp.ConfigParser()
            cfg = PipelineConfig(stages=["estimate"], out_dir=".", seed=0,
                                 parser=parser)
            stage_estimate(cfg, args.profits, args.out)
        elif args.command == "duality":
            cfg = PipelineConfig(stages=["duality"], out_dir=".", seed=0,
                                 parser=load_config(args.truth))
            stage_duality(cfg, args.fit, args.out, pbar=args.pbar)
        elif args.command == "report":
            if args.golden_table or not args.artifacts:
                print(golden_table())
            for path in args.artifacts:
                with open(path) as fh:
                    print(render_artifact(json.load(fh)))
        elif args.command == "run":
            manifest = run_pipeline(args.config, args.out_dir, args.debug)
            print(json.dumps(manifest, indent=1))
        elif args.command == "demo":
            print(json.dumps(infinite_hausdorff_demo(m=args.m), indent=1))
    except ProdenvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
