"""The four benchmark workloads.

Each workload has ``build(seed, workdir)``, which makes every input from the
seed (set-up, untimed), and ``run(inputs, tracer)``, one timed pass.
Output checks run after the pass, outside the timed region, through
``check(inputs, result, outcome)``.  prodenv receives only the generated
inputs, never the seed.

An *answer* is a stage, a seed's identification with its bounds, a bound,
a verdict, or a fit; ``Outcome`` counts answers attempted and failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import checks
from prodenv import (BucketingConfig, IdentifyConfig, MarketConfig,
                     ProfitData, RestrictedPriceSet, TechnologySpec,
                     diewert_supply, diewert_value, duality_check,
                     fit_diewert, generate_dataset, identify_profits,
                     infinite_hausdorff_demo, profit_bounds,
                     profit_bounds_fixed_quantity, quantity_bounds,
                     wapm_feasible)
from prodenv.cli import main as cli_main
from prodenv.errors import IdentificationFailure, ProdenvError


class Outcome:
    """Answers attempted and failed in one run.  A failure is *known* when
    it is a defect recorded in the baseline; any other failure makes the
    run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: list[str] = []
        self.recovery_err = 0.0

    def answer(self, label: str, problems: list, known: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            target = self.known if known else self.problems
            target.extend(f"{label}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def _size_scope(tracer, tag):
    return tracer.size(tag) if tracer is not None else contextlib.nullcontext()


def _admissible_b(rng, d, diag=(0.8, 1.6), off=(0.05, 0.45)):
    b = -rng.uniform(*off, size=(d, d))
    b = (b + b.T) / 2.0
    b[np.diag_indices(d)] = rng.uniform(*diag, size=d)
    return b


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# pipeline_cli: `prodenv run` on the README pipeline, 81 cells, noisy data
# ---------------------------------------------------------------------------

PIPELINE_MARKETS = 50_000
PIPELINE_B = ("1.1 -0.3 ; -0.3 0.9", "1.9 -0.3 ; -0.3 1.6", "2.8 -0.3 ; -0.3 2.2")

PIPELINE_CONFIG = """\
[pipeline]
stages = simulate identify proxies bounds estimate duality
out_dir = {out}
seed = {seed}

[simulate]
technology = diewert
b_1 = {b1}
b_2 = {b2}
b_3 = {b3}
markets = {markets}
proxy_1 = square_plus:1.0:0.6,1.4:9
proxy_2 = identity:0.9,2.1:9
entry = all
noise_half_width = 0.05

[identify]
bucketing = unique
max_types = 3
min_anchor_count = 200
min_cell_count = 50
noise_width = 0.1
penalty_c = 0.2

[proxies]
anchor_x = 1.0 1.5
anchor_p = 2.0 1.5
trim = 0

[bounds]
question = profit
p_c = 1.0 0.6
repair = project

[estimate]

[duality]
b_true = {b3}
"""


def _parse_b(text):
    return np.array([[float(v) for v in row.split()] for row in text.split(";")])


def build_pipeline_cli(seed, workdir):
    out = os.path.join(workdir, "run")
    path = os.path.join(workdir, "pipeline.ini")
    with open(path, "w") as fh:
        fh.write(PIPELINE_CONFIG.format(out=out, seed=seed, markets=PIPELINE_MARKETS,
                                        b1=PIPELINE_B[0], b2=PIPELINE_B[1],
                                        b3=PIPELINE_B[2]))
    b = [_parse_b(t) for t in PIPELINE_B]
    pc = _unit([1.0, 0.6])
    return {"config": path, "out": out, "b": b, "pc": pc,
            "bound_truth": [float(diewert_value(bb, pc[None])[0]) for bb in b]}


def run_pipeline_cli(inputs, tracer=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["run", "--config", inputs["config"],
                       "--out-dir", inputs["out"]])
    return {"rc": rc, "stdout": buf.getvalue()}


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def check_pipeline_cli(inputs, result, outcome):
    out, b = inputs["out"], inputs["b"]
    if result["rc"] != 0:
        outcome.answer("prodenv run", [f"exit code {result['rc']}"])
        return
    manifest = json.loads(result["stdout"])
    stages = [s["stage"] for s in manifest["stages"]]

    with open(os.path.join(out, "dataset.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    outcome.answer("simulate", [] if rows == 3 * PIPELINE_MARKETS
                   else [f"{rows} rows, expected {3 * PIPELINE_MARKETS}"])

    table = _load(out, "profit_table.json")
    identified, truth = {}, {}
    for ci, cell in enumerate(table["cells"]):
        x = np.asarray(cell["x_center"], float)
        price = np.array([x[0] ** 2 + 1.0, x[1]])
        for a in cell["assignments"]:
            identified[(ci, a["e"])] = a["value"]
            truth[(ci, a["e"])] = float(diewert_value(b[a["e"] - 1], price[None])[0])
    outcome.recovery_err = checks.recovery_error(identified, truth)
    problems = checks.check_recovery(identified, truth)
    if table["d_e"] != 3 or len(table["cells"]) != 81:
        problems.append(f"d_e {table['d_e']}, {len(table['cells'])} cells")
    outcome.answer("identify", problems)

    proxy = _load(out, "proxy_model.json")
    good = proxy["goods"][0]
    outcome.answer("proxies", checks.check_proxy_map(good["grid"], good["g_values"]))

    report = _load(out, "bounds_report.json")
    problems = []
    for r, truth_e in zip(report["per_type"], inputs["bound_truth"]):
        problems += checks.check_bound(r["lower"], r["upper"], truth_e,
                                       checks.CLI_BOUND_TOL * abs(truth_e),
                                       r["lower_certificate"], r["upper_certificate"])
    if len(report["per_type"]) != 3:
        problems.append(f"{len(report['per_type'])} types bounded, expected 3")
    outcome.answer("bounds", problems)

    fit = _load(out, "diewert_fit.json")
    outcome.answer("estimate", checks.check_fit(fit["b"], np.stack(b)))

    dual = _load(out, "duality_report.json")
    outcome.answer("duality", checks.check_convex_duality(dual, dual["eta"], True))

    if stages != ["simulate", "identify", "proxies", "bounds", "estimate", "duality"]:
        outcome.answer("manifest", [f"stages {stages}"])


# ---------------------------------------------------------------------------
# identify_200k: the README library example, 24 consecutive seeds in memory
# ---------------------------------------------------------------------------

IDENTIFY_SEEDS = 24
IDENTIFY_MARKETS = 200_000
IDENTIFY_NOISE = 0.1        # half-width K of the uniform profit noise


def build_identify_200k(seed, workdir):
    b1 = np.array([[0.75, -0.85], [-0.85, 0.65]])
    mats = [b1, b1 + np.diag([1.0, 0.8]), b1 + np.diag([2.2, 1.7])]
    tech = TechnologySpec.diewert_family(mats)
    rays = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0.2, 1.3, 10)]
    configs = [MarketConfig(num_markets=IDENTIFY_MARKETS, dimension=2,
                            price_law=("grid", rays),
                            entry_rule=("nonneg_profit",),
                            noise=(IDENTIFY_NOISE, "uniform"), seed=seed + i)
               for i in range(IDENTIFY_SEEDS)]
    pc = _unit([1.0, 1.0])
    return {"tech": tech, "b": mats, "configs": configs, "pc": pc,
            "icfg": IdentifyConfig(bucketing=BucketingConfig("unique"))}


def run_identify_200k(inputs, tracer=None):
    """One pass over every seed; the unit of work is one seed, so the pass
    also returns each seed's time (including time spent before a failure)."""
    per_seed = []
    for cfg in inputs["configs"]:
        t0 = time.perf_counter()
        try:
            table = identify_profits(generate_dataset(inputs["tech"], cfg),
                                     inputs["icfg"])
        except ProdenvError as exc:
            # Drop the traceback: its frames would keep the dataset alive.
            per_seed.append({"seed": cfg.seed, "error": exc.with_traceback(None),
                             "seconds": time.perf_counter() - t0})
            continue
        bounds = {}
        for e in range(1, table.d_e + 1):
            pairs = [(c.x_center, c.values[e]) for c in table.cells if e in c.values]
            data = ProfitData.from_pairs(e, pairs)
            try:
                bounds[e] = (data.k, profit_bounds(data, inputs["pc"]))
            except ProdenvError as exc:
                bounds[e] = (data.k, exc.with_traceback(None))
        per_seed.append({"seed": cfg.seed, "table": table, "bounds": bounds,
                         "seconds": time.perf_counter() - t0})
    return {"per_seed": per_seed,
            "unit_s": [item["seconds"] for item in per_seed]}


def check_identify_200k(inputs, result, outcome):
    b, pc = inputs["b"], inputs["pc"]
    worst = 0.0
    for item in result["per_seed"]:
        label = f"seed {item['seed']}"
        err = item.get("error")
        if err is not None:
            # The median-fit-error rule for d_e can pick fewer types than a
            # cell has atoms (seed 10 at the seed commit): a known defect,
            # counted as a failed answer, not hidden.
            known = (isinstance(err, IdentificationFailure)
                     and "atoms but only" in str(err))
            outcome.answer(label, [f"{type(err).__name__}: {err}"], known=known)
            continue
        table = item["table"]
        identified, truth, sampling_err = {}, {}, {}
        for ci, cell in enumerate(table.cells):
            # Each market holds one firm of every type with nonnegative
            # true profit, so a type has count / entrants records here.
            values = [float(diewert_value(bb, cell.x_center[None])[0]) for bb in b]
            entrants = sum(v >= 0.0 for v in values)
            for e, v in cell.values.items():
                identified[(ci, e)] = v
                truth[(ci, e)] = values[e - 1]
                sampling_err[(ci, e)] = IDENTIFY_NOISE / np.sqrt(cell.count / entrants)
        worst = max(worst, checks.recovery_error(identified, truth))
        problems = checks.check_recovery(identified, truth, sampling_err=sampling_err)
        if table.d_e != 3:
            problems.append(f"d_e = {table.d_e}, expected 3")
        for e, (k, res) in item["bounds"].items():
            if isinstance(res, Exception):
                problems.append(f"type {e} bounds raised {type(res).__name__}: {res}")
                continue
            truth_e = float(diewert_value(b[e - 1], pc[None])[0])
            if k == 1:
                problems += checks.check_doubly_unbounded(
                    res.lower, res.upper, res.lower_certificate, res.upper_certificate)
            else:
                problems += checks.check_bound(
                    res.lower, res.upper, truth_e,
                    checks.IDENTIFY_BOUND_TOL * abs(truth_e),
                    res.lower_certificate, res.upper_certificate)
        outcome.answer(label, problems)
    outcome.recovery_err = worst


# ---------------------------------------------------------------------------
# counterfactual_k: WAPM, profit and quantity bounds on exact data by size
# ---------------------------------------------------------------------------

SIZES = (("k40", 2, 40), ("k120", 2, 120), ("k200", 2, 200), ("d3k120", 3, 120))
SWEEP_RAYS = 720


def _rays_2d(rng, k, lo=0.2, hi=1.37):
    step = (hi - lo) / (k - 1)
    angles = np.linspace(lo, hi, k) + rng.uniform(-0.25, 0.25, size=k) * step
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _rays_3d(rng, k):
    rays = rng.uniform(0.25, 1.0, size=(k, 3))
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def build_counterfactual_k(seed, workdir):
    rng = np.random.default_rng(seed)
    sizes = []
    for tag, d, k in SIZES:
        b = _admissible_b(rng, d)
        rays = _rays_2d(rng, k) if d == 2 else _rays_3d(rng, k)
        values = diewert_value(b, rays)
        cut = values.copy()
        cut[::7] *= 0.9
        if d == 2:
            mid = 0.5 * (np.arctan2(rays[k // 2, 1], rays[k // 2, 0])
                         + np.arctan2(rays[k // 2 + 1, 1], rays[k // 2 + 1, 0]))
            pc_in = np.array([np.cos(mid), np.sin(mid)])
            pc_out = np.array([np.cos(0.05), np.sin(0.05)])
        else:
            pc_in = _unit(rays.mean(axis=0))
            pc_out = _unit([1.0, 0.05, 0.05])
        u = np.eye(d)[0]
        sizes.append({
            "tag": tag, "b": b, "data": ProfitData(1, rays, values),
            "cut": ProfitData(1, rays, cut), "pc_in": pc_in, "pc_out": pc_out,
            "u": u, "truth_in": float(diewert_value(b, pc_in[None])[0]),
            "truth_out": float(diewert_value(b, pc_out[None])[0]),
            "truth_q": float(u @ diewert_supply(b, pc_in)),
        })
    # The CLI's default fixed-quantity sweep: 720 rays, k = 10, d = 2, with
    # y[1] pinned at the true supply of a grid ray so the truth is feasible.
    b = _admissible_b(rng, 2)
    rays = _rays_2d(rng, 10)
    angles = np.linspace(0.01, np.pi / 2 - 0.01, SWEEP_RAYS)
    grid = np.column_stack([np.cos(angles), np.sin(angles)])
    star = grid[SWEEP_RAYS // 2]
    sweep = {"b": b, "data": ProfitData(1, rays, diewert_value(b, rays)), "grid": grid,
             "coord": 0, "ybar": float(diewert_supply(b, star)[0]),
             "truth": float(diewert_value(b, star[None])[0])}
    return {"sizes": sizes, "sweep": sweep}


def _try(fn, *args):
    try:
        return fn(*args)
    except ProdenvError as exc:
        return exc.with_traceback(None)


def run_counterfactual_k(inputs, tracer=None):
    out = []
    for s in inputs["sizes"]:
        with _size_scope(tracer, s["tag"]):
            out.append({
                "wapm": _try(wapm_feasible, s["data"]),
                "wapm_cut": _try(wapm_feasible, s["cut"]),
                "pb_in": _try(profit_bounds, s["data"], s["pc_in"]),
                "pb_out": _try(profit_bounds, s["data"], s["pc_out"]),
                "qb": _try(quantity_bounds, s["data"], s["pc_in"], s["u"]),
            })
    sw = inputs["sweep"]
    sweep = _try(profit_bounds_fixed_quantity, sw["data"], sw["coord"], sw["ybar"],
                 list(sw["grid"]))
    return {"sizes": out, "sweep": sweep}


def _raised(res) -> list:
    return [f"raised {type(res).__name__}: {res}"] if isinstance(res, Exception) else []


def check_counterfactual_k(inputs, result, outcome):
    for s, r in zip(inputs["sizes"], result["sizes"]):
        tag = s["tag"]
        w = r["wapm"]
        outcome.answer(f"{tag} wapm", _raised(w) or
                       checks.check_verdict("feasible" if w[0] else "infeasible",
                                            "feasible"))
        w = r["wapm_cut"]
        outcome.answer(f"{tag} wapm cut", _raised(w) or
                       checks.check_verdict("feasible" if w[0] else "infeasible",
                                            "infeasible"))
        pb = r["pb_in"]
        outcome.answer(f"{tag} profit in cone", _raised(pb) or checks.check_bound(
            pb.lower, pb.upper, s["truth_in"], checks.EXACT_TOL,
            pb.lower_certificate, pb.upper_certificate))
        pb = r["pb_out"]
        outcome.answer(f"{tag} profit out of cone", _raised(pb) or
                       checks.check_out_of_cone(pb.lower, pb.upper, s["truth_out"],
                                                pb.upper_certificate))
        qb = r["qb"]
        outcome.answer(f"{tag} quantity", _raised(qb) or checks.check_bound(
            qb.lower, qb.upper, s["truth_q"], checks.EXACT_TOL))
    sw, res = inputs["sweep"], result["sweep"]
    problems = _raised(res)
    if not problems:
        summary = {"n_feasible": res.grid_metadata["n_feasible"],
                   "lower": res.lower, "upper": res.upper}
        problems = checks.check_sweep(summary, sw["data"].rays, sw["data"].values,
                                      sw["coord"], sw["ybar"], sw["grid"], sw["truth"])
    outcome.answer("fixed-quantity sweep", problems)


# ---------------------------------------------------------------------------
# duality_grid: many small duality checks, a LAD fit and the demo
# ---------------------------------------------------------------------------

DUALITY_CALLS = 20          # per estimator kind


def _ray_grid(rng, d):
    if d == 2:
        angles = np.linspace(0.2, 1.37, 40)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rays = rng.uniform(0.25, 1.0, size=(60, 3))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return np.unique(np.round(rays, 12), axis=0)


def _convex_case(rng, d):
    b = -rng.uniform(0.05, 0.35, size=(d, d))
    b = (b + b.T) / 2
    b[np.diag_indices(d)] = rng.uniform(0.9, 1.8, size=d)
    pts = rng.normal(size=(4, d))
    eps, delta = rng.uniform(0.002, 0.03), rng.uniform(0.0, 0.05)

    def pi(p):
        return float(diewert_value(b, np.asarray(p)[None, :])[0])

    def pi_hat(p):
        return (1 + eps) * pi(p) + delta * float(np.max(pts @ np.asarray(p)))

    return pi, pi_hat


def _nonconvex_case(rng, d, rays):
    b = -rng.uniform(0.05, 0.3, size=(d, d))
    b = (b + b.T) / 2
    b[np.diag_indices(d)] = rng.uniform(1.0, 1.8, size=d)

    def pi(p):
        return float(diewert_value(b, np.asarray(p)[None, :])[0])

    amp = 0.01 * min(pi(r) for r in rays)
    freq = int(rng.integers(5, 11))

    def pi_hat(p):
        p = np.asarray(p, float)
        u = p / np.linalg.norm(p)
        return pi(p) + amp * np.sin(freq * u[0] + 2.0 * u[-1]) * float(np.linalg.norm(p))

    return pi, pi_hat


def build_duality_grid(seed, workdir):
    rng = np.random.default_rng(seed)
    cases = []
    for convex in (True, False):
        for i in range(DUALITY_CALLS):
            d = 2 if i % 2 == 0 else 3
            rays = _ray_grid(rng, d)
            pi, pi_hat = _convex_case(rng, d) if convex else _nonconvex_case(rng, d, rays)
            a = np.array([pi(r) for r in rays])
            h = np.array([pi_hat(r) for r in rays])
            cases.append({
                "convex": convex, "d": d, "pi": pi, "pi_hat": pi_hat,
                "price_set": RestrictedPriceSet(tuple(map(tuple, rays)),
                                                convex_flag=True),
                "n_boundary": 10_000 if convex else 4000,
                "eta": float(np.max(np.abs(h - a))),
                "big_r": float(np.max(a)), "small_r": float(np.min(a))})
    # LAD generalized-Leontief fit: 3 nested types x 400 noisy rays, d = 2.
    b = _admissible_b(rng, 2)
    truth = np.stack([b, b + np.diag([0.5, 0.4]), b + np.diag([0.9, 0.8])])
    angles = np.sort(rng.uniform(0.1, 1.47, size=400))
    rays = np.column_stack([np.cos(angles), np.sin(angles)])
    per_type = [(rays, diewert_value(bb, rays) + rng.uniform(-0.05, 0.05, size=400))
                for bb in truth]
    return {"cases": cases, "fit_truth": truth, "per_type": per_type}


def run_duality_grid(inputs, tracer=None):
    reports = [duality_check(c["pi"], c["pi_hat"], c["price_set"],
                             convex_flag=c["convex"],
                             geometric_oracle=(c["d"] == 2),
                             n_boundary=c["n_boundary"])
               for c in inputs["cases"]]
    fit = _try(fit_diewert, inputs["per_type"], 2)
    demo = infinite_hausdorff_demo()
    return {"reports": reports, "fit": fit, "demo": demo}


def check_duality_grid(inputs, result, outcome):
    for i, (c, rep) in enumerate(zip(inputs["cases"], result["reports"])):
        doc = rep.to_json_dict()
        if c["convex"]:
            problems = checks.check_convex_duality(doc, c["eta"], c["d"] == 2)
        else:
            problems = checks.check_nonconvex_duality(doc, c["eta"], c["big_r"],
                                                      c["small_r"])
        outcome.answer(f"duality case {i}", problems)
    fit = result["fit"]
    outcome.answer("fit_diewert", _raised(fit) or
                   checks.check_fit(fit.b_stack, inputs["fit_truth"]))
    outcome.answer("demo", checks.check_demo(result["demo"]))


WORKLOADS = {
    "pipeline_cli": (build_pipeline_cli, run_pipeline_cli, check_pipeline_cli),
    "identify_200k": (build_identify_200k, run_identify_200k, check_identify_200k),
    "counterfactual_k": (build_counterfactual_k, run_counterfactual_k,
                         check_counterfactual_k),
    "duality_grid": (build_duality_grid, run_duality_grid, check_duality_grid),
}


def csv_bytes(inputs) -> float:
    """Size of the dataset CSV a workload wrote, 0 when it wrote none."""
    path = os.path.join(inputs.get("out", ""), "dataset.csv")
    return float(os.path.getsize(path)) if "out" in inputs and os.path.exists(path) else 0.0
