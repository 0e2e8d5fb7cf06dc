"""Command-line interface: pipeline orchestration and report rendering.

Subcommands: simulate, identify, proxies, bounds, estimate, duality, report,
and run (the whole pipeline from one config).  A ``stage_<name>`` returns its
artifact and opens no file: ``_input`` loads the files it reads, and only the
runner writes, through ``_save``.  Exit codes: 0 success, 2 validation,
3 identification failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .bounds import ProfitData, project_rationalizable
from .config import STAGES, PipelineConfig, artifact_file, parse_grid
from .errors import ProdenvError, ValidationError
from .estimation import (DiewertFit, diewert_value, duality_check, fit_diewert,
                         infinite_hausdorff_demo)
from .geometry import _check_schema, _write_json, first_duplicate
from .identify import ProfitTable, identify_profits, lattice_ids
from .proxies import (ProxyModel, quantile_anchors, recover_g_housing,
                      recover_proxy_model)
from .simulate import (Dataset, csv_rows, generate_dataset, profit_oracle,
                       TechnologySpec)


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


def profit_data_from_csv(path: str) -> dict:
    """Standalone profit pairs from a CSV with header exactly ray_1..ray_d,
    value[, type_e].  Rays may be unnormalized prices; values are rescaled onto
    the unit sphere by homogeneity.  A wrong field count, a zero, negative or
    non-finite ray, a non-finite value, a non-integer type_e or two rows of one
    type on one ray is a ValidationError naming the file.  Returns {type: ProfitData}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        d = sum(1 for h in header if h.startswith("ray_"))
        if d == 0 or header[d:] not in (["value"], ["value", "type_e"]):
            raise ValidationError(f"{path!r} is not a profit-pairs CSV "
                                  "(need ray_1..ray_d, value[, type_e])")
        body = csv_rows(fh, path, len(header))
    rays = body[:, :d]
    types = body[:, d + 1] if header[-1] == "type_e" else np.ones(len(body))
    for bad, what in ((~np.all(np.isfinite(rays) & (rays >= 0), axis=1) | ~np.any(rays, axis=1),
                       "a zero, negative or non-finite ray"),
                      (~np.isfinite(body[:, d]), "a non-finite value"),
                      (~np.isfinite(types) | (types != np.round(types)),
                       "a type_e that is not an integer")):
        if np.any(bad):
            raise ValidationError(f"{path!r} data row {int(np.argmax(bad)) + 1} has {what}")
    types = types.astype(int)
    out = {}
    for e in np.unique(types):
        rows = np.flatnonzero(types == e)
        norms = np.linalg.norm(body[rows, :d], axis=1)
        rays = body[rows, :d] / norms[:, None]
        dup = first_duplicate(rays)
        if dup is not None:
            i, j = rows[list(dup)] + 1
            raise ValidationError(f"{path!r} data rows {i} and {j} lie on one price ray")
        out[int(e)] = ProfitData(int(e), rays, body[rows, d] / norms)
    return out


def _lattice_interpolant(X: np.ndarray, values, source: str):
    """Multilinear interpolant of ``values`` at the rows of ``X``, one per
    node of the lattice of their coordinates (rounded to 1e-9); returns it
    with the lattice axes.  ``source`` names the points in the error."""
    from scipy.interpolate import RegularGridInterpolator
    axes, ids = zip(*(lattice_ids(col) for col in X.T))
    shape = tuple(a.size for a in axes)
    nodes = np.ravel_multi_index(ids, shape)
    counts = np.bincount(nodes, minlength=int(np.prod(shape)))
    if counts.min() == 0 or counts.max() > 1:
        raise ValidationError(f"{source} do not give each lattice node once; cannot "
                              f"interpolate ({(counts == 0).sum()} of {counts.size} nodes "
                              f"missing, {(counts > 1).sum()} given more than once)")
    grid_vals = np.empty(counts.size)
    grid_vals[nodes] = values
    interp = RegularGridInterpolator(axes, grid_vals.reshape(shape), bounds_error=False,
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


def _index(key: str, value, top: int, has: str) -> int:
    """A 1-based index from the config, ``top`` when unset.  Past ``top``, the
    end of the stage's input, it is an error naming ``key`` and what it ``has``."""
    if value is None:
        return top
    if value > top:
        raise ValidationError(f"{key} = {value}, but {has}")
    return value


def _input(stage: str, settings, inputs: dict, load):
    """What ``stage`` reads: its [<stage>] input, else its artifact in
    ``inputs`` (a value, or a path from a flag); a path is read with ``load``."""
    source = settings.input if settings.input is not None else inputs.get(STAGES[stage].needs)
    return load(source) if isinstance(source, str) else source


def stage_simulate(cfg: PipelineConfig, inputs: dict) -> Dataset:
    s = cfg.settings["simulate"]
    return generate_dataset(s.tech, s.market)


def stage_identify(cfg: PipelineConfig, inputs: dict) -> ProfitTable:
    s = cfg.settings["identify"]
    return identify_profits(_input("identify", s, inputs, Dataset.from_csv), s.identify)


def stage_proxies(cfg: PipelineConfig, inputs: dict) -> ProxyModel:
    s = cfg.settings["proxies"]
    if s.mode == "housing":
        profile = csv_rows(s.profile_csv, s.profile_csv, skiprows=1, usecols=(0, 1))
        good = recover_g_housing(profile[:, 0], profile[:, 1], s.anchor)
        return ProxyModel(goods=(good,), anchor_x=np.array([s.anchor[0]]),
                          anchor_p=np.array([s.anchor[1]]))

    if s.profile_csv:
        # Aggregate-mean profile: x coordinates plus a mean-profit column.
        body = csv_rows(s.profile_csv, s.profile_csv, skiprows=1)
        pi_tilde, axes = _lattice_interpolant(body[:, :-1], body[:, -1],
                                              f"rows of profile {s.profile_csv!r}")
    else:
        table = _input("proxies", s, inputs, ProfitTable.load)
        pi_tilde, axes = table_evaluator(table, _index(
            "[proxies] type_e", s.type_e, table.d_e, f"the table has {table.d_e} types"))
    d = len(axes)
    obs = _index("[proxies] observed_index", s.observed_index, d,
                 f"the lattice has {d} dimensions") - 1
    anchors = s.anchors
    if anchors is None:
        anchors = quantile_anchors(axes[obs], max(d - 1, s.n_anchors or 0))
    x_ref = (np.array([float(np.median(a)) for a in axes])
             if s.x_ref is None else s.x_ref)
    grids = [a[s.trim:-s.trim] if s.trim > 0 else a for a in axes]
    return recover_proxy_model(pi_tilde, grids, x_ref, anchors,
                               (s.anchor_x, s.anchor_p), observed_index=obs)


def _per_type_data(stage: str, s, inputs: dict, types=None) -> dict:
    """{type: ProfitData} for the stage's input, for ``types`` or every type
    it holds: pairs from a CSV, or a profit table's cells mapped to prices
    through the proxy model ([<stage>] proxy_model, else the proxies
    stage's), when there is one."""
    def load(path):
        if not path.endswith(".csv"):
            return ProfitTable.load(path)
        if s.proxy_model is not None:
            raise ValidationError(f"[{stage}] proxy_model maps a profit table's "
                                  f"cells to prices; {path!r} holds prices")
        pairs = profit_data_from_csv(path)
        missing = set(types or ()) - set(pairs)
        if missing:
            raise ValidationError(f"{path!r} has no pairs of type "
                                  f"{', '.join(map(str, sorted(missing)))}")
        return {e: pairs[e] for e in types or sorted(pairs)}
    table = _input(stage, s, inputs, load)
    if isinstance(table, dict):
        return table
    if types:
        _index(f"[{stage}] types", max(types), table.d_e, f"the table has {table.d_e} types")
    model = (inputs.get("proxy_model") if s.proxy_model is None
             else ProxyModel.load(s.proxy_model))
    return {e: profit_data_from_table(table, e, model)
            for e in types or range(1, table.d_e + 1)}


def stage_bounds(cfg: PipelineConfig, inputs: dict) -> dict:
    s = cfg.settings["bounds"]
    per_type = _per_type_data("bounds", s, inputs, s.types)
    d = next(iter(per_type.values())).dimension
    _index("[bounds] coord", s.coord, d, f"the price rays have {d}")
    for key, vec in s.vectors.items():
        if vec.shape[-1] != d:
            raise ValidationError(f"[bounds] {key} has {vec.shape[-1]} entries, "
                                  f"but the price rays have {d}")
    reports = []
    for e, data in per_type.items():
        if s.repair == "project":
            data, shift = project_rationalizable(data)
        doc = s.solve(data).to_json_dict(question=s.question, e=e)
        if s.repair == "project":
            doc["repair_shift"] = shift
        reports.append(doc)
    return {"schema": "prodenv.bounds-report/1", "question": s.question,
            "per_type": reports}


def stage_estimate(cfg: PipelineConfig, inputs: dict) -> DiewertFit:
    s = cfg.settings["estimate"]
    per_type = [(d.rays, d.values)
                for d in _per_type_data("estimate", s, inputs).values()]
    return fit_diewert(per_type, d_y=per_type[0][0].shape[1], convexity=s.convexity,
                       monotone=s.monotone, tau=s.tau)


def stage_duality(cfg: PipelineConfig, inputs: dict) -> dict:
    s = cfg.settings["duality"]
    fit = _input("duality", s, inputs, DiewertFit.load)
    e = _index("[duality] type_e", s.type_e, fit.d_e, f"the fit has {fit.d_e} types")
    pbar = inputs.get("pbar")
    price_set = parse_grid(pbar, "--pbar") if pbar else s.grid
    grid = "--pbar rays have" if pbar else "[duality] grid has"
    for what, n in ((f"{grid} {price_set.dimension} entries", price_set.dimension),
                    (f"[duality] b_true is {len(s.b_true)} x {len(s.b_true)}", len(s.b_true))):
        if n != fit.dimension:
            raise ValidationError(f"{what}, but the fit prices {fit.dimension} goods")
    return duality_check(
        lambda p: float(diewert_value(s.b_true, p[None, :])[0]), fit.evaluator(e),
        price_set, convex_flag=True, geometric_oracle=s.geometric_oracle).to_json_dict()


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
    opts = np.array([profit_oracle(tech, e, p)[1] for e in (1, 2, 3)])
    vals = np.column_stack([-opts[:, 1], opts[:, 0]]).ravel()   # input, then output level
    lines = ["nonmonotone-supply golden table (price ratio 0.12)",
             f"{'quantity':>8} {'value':>12} {'bracket':>18} {'ok':>4}"]
    for (name, (lo, hi)), v in zip(_GOLDEN_BRACKETS, vals):
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
    name = schema.partition("/")[0]
    if name not in ("prodenv.profit-table", "prodenv.bounds-report", "prodenv.proxy-model",
                    "prodenv.duality-report", "prodenv.diewert-fit", "prodenv.manifest"):
        raise ValidationError(f"unknown artifact schema {schema!r}")
    _check_schema(doc, name, 1)
    if name == "prodenv.manifest":
        versions = ", ".join(f"{k} {v}" for k, v in doc["versions"].items())
        return "\n".join([f"run manifest: seed {doc['seed']}; {versions}",
                          *(f"  stage {t['stage']}: {t['seconds']:.3f} s" for t in doc["stages"]),
                          "  artifacts: " + ", ".join(doc["artifacts"])])
    if name == "prodenv.profit-table":
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
    if name == "prodenv.bounds-report":
        lines = [f"bounds: {doc.get('question', '')}"]
        for r in doc.get("per_type", [doc] if "lower" in doc else []):
            if not r.get("feasible", True):
                lines.append(f"  type {r.get('type')}: infeasible restriction set")
                continue
            lo = _fmt_bound_text(r["lower"], r.get("lower_certificate"))
            hi = _fmt_bound_text(r["upper"], r.get("upper_certificate"))
            lines.append(f"  type {r.get('type')}: [{lo}, {hi}]")
        return "\n".join(lines)
    if name == "prodenv.duality-report":
        return ("duality: eta={eta:.6g} d_H={d_h:.6g} R={R:.6g} r={r:.6g} "
                "verdict={verdict}".format(**doc))
    if name == "prodenv.proxy-model":
        lines = ["proxy model:"]
        for j, g in enumerate(doc["goods"], start=1):
            tag = "observed price" if g["observed"] else "recovered map"
            lines.append(f"  good {j}: {tag}, grid [{g['grid'][0]:.4g}, "
                         f"{g['grid'][-1]:.4g}] ({len(g['grid'])} points)")
        return "\n".join(lines)
    lines = [f"generalized-Leontief fit: {doc['d_e']} types, "
             f"residual {doc['residual']:.6g}"]
    for e, mat in enumerate(doc["b"], start=1):
        rows = "; ".join(" ".join(f"{v:8.4f}" for v in row) for row in mat)
        lines.append(f"  type {e}: [{rows}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pipeline runner
# ---------------------------------------------------------------------------


def _save(value, path: str, debug: bool = False) -> None:
    """Writes an artifact through ``path.partial``: a dataset as CSV, with its
    hidden type column under ``debug``, any other value as JSON."""
    if isinstance(value, Dataset):
        value.to_csv(path + ".partial", debug=debug)
        os.replace(path + ".partial", path)
    else:
        _write_json(path, value if isinstance(value, dict) else value.to_json_dict())


def run_pipeline(config_path: str, out_dir: Optional[str] = None,
                 debug: bool = False) -> dict:
    cfg = PipelineConfig.from_file(config_path)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    with open(config_path, "rb") as fh:
        cfg_hash = hashlib.sha256(fh.read()).hexdigest()

    values: dict = {}             # artifact -> the value its stage made
    timings = []
    for stage in cfg.stages:
        made = STAGES[stage].makes
        t0 = time.perf_counter()
        try:
            # Looked up by name at call time, so a wrapper set on this
            # module's stage_<name> is the one that runs.
            values[made] = globals()["stage_" + stage](cfg, values)
            _save(values[made], os.path.join(out, artifact_file(made)), debug)
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
        "artifacts": {a: os.path.join(out, artifact_file(a)) for a in values},
    }
    _save(manifest, os.path.join(out, "manifest.json"))
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

    # A stage's flags are stored under the names its stage reads: the config
    # file as "config", an input file under the artifact it stands for.
    p = sub.add_parser("simulate", help="generate a synthetic economy dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--debug", action="store_true",
                   help="emit the hidden type column")

    p = sub.add_parser("identify", help="recover per-type profits from a dataset")
    p.add_argument("--data", dest="dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("proxies", help="recover price maps from proxies")
    p.add_argument("--profits", dest="profit_table", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bounds", help="counterfactual bounds from identified profits")
    p.add_argument("--profits", dest="profit_table", required=True)
    p.add_argument("--question", dest="config", required=True,
                   help="config file with a [bounds] section")
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="shape-constrained profit fit")
    p.add_argument("--profits", dest="profit_table", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("duality", help="Hausdorff / sup-norm duality report")
    p.add_argument("--truth", dest="config", required=True,
                   help="config file with a [duality] section (b_true)")
    p.add_argument("--fit", dest="diewert_fit", required=True)
    p.add_argument("--pbar", help="evaluation grid, in place of [duality] grid: "
                   "'lo:hi:n' angles or a CSV of rays")
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
        if args.command in STAGES:
            inputs = vars(args)
            cfg = PipelineConfig.from_file(args.config, stages=[args.command],
                                           inputs=inputs)
            _save(globals()["stage_" + args.command](cfg, inputs), args.out,
                  inputs.get("debug", False))
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
