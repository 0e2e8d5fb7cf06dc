import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from prodenv.cli import (golden_table, main, profit_data_from_table,
                         render_artifact, run_pipeline, table_evaluator)
from prodenv.estimation import diewert_supply, diewert_value
from prodenv.errors import ValidationError
from prodenv.config import PipelineConfig, parse_grid
from prodenv.simulate import (Dataset, MarketConfig, PowerTech, TechnologySpec,
                              generate_dataset, profit_oracle_batch)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PROXY_KEYS = ("; p1 = x1^2 + 1, lattice draw\nproxy_1 = square_plus:1.0:0.6,1.4:3\n"
              "; observed price\nproxy_2 = identity:0.9,2.1:4\n")

# The README's pipeline config, so the printed example is the tested one.
DEMO_CONFIG = re.sub(
    r"(?m)^out_dir = .*$", "out_dir = {out}",
    re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1))


def test_every_readme_config_loads(tmp_path, monkeypatch):
    # Loading checks every key of every listed stage, and runs no stage.
    monkeypatch.chdir(tmp_path)          # where a relative out_dir would go
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 3
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.ini"
        path.write_text(block)
        PipelineConfig.from_file(str(path))
    assert sorted(os.listdir(tmp_path)) == [f"readme_{i}.ini" for i in range(len(blocks))]


def test_readme_library_example_runs(tmp_path):
    # The README's python block as printed, with warnings as errors.  Type
    # 3's true profit at (1, 1)/sqrt(2) is (2.95 - 2 * 0.85 + 2.35)/sqrt(2).
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    src = str(README.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", "-c", block], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    m = re.match(r"BoundResult\(lower=(\S+), upper=(\S+), feasible=True,", out)
    assert m, out
    lower, upper = map(float, m.groups())
    assert lower <= 3.6 / np.sqrt(2) <= upper


@pytest.fixture
def demo_config(tmp_path):
    out = tmp_path / "run"
    path = tmp_path / "pipeline.ini"
    path.write_text(DEMO_CONFIG.format(out=out))
    return str(path), str(out)


class TestPipeline:
    def test_full_run_produces_all_artifacts(self, demo_config):
        cfg_path, out = demo_config
        manifest = run_pipeline(cfg_path)
        for name in ("dataset", "profit_table", "proxy_model", "bounds_report",
                     "diewert_fit", "duality_report"):
            assert os.path.exists(manifest["artifacts"][name])
        assert manifest["seed"] == 42
        assert len(manifest["config_sha256"]) == 64
        assert {t["stage"] for t in manifest["stages"]} == {
            "simulate", "identify", "proxies", "bounds", "estimate", "duality"}

    def test_rerun_is_identical(self, demo_config, tmp_path):
        # Every content artifact; the manifest holds timings.
        cfg_path, out = demo_config
        m1 = run_pipeline(cfg_path)
        m2 = run_pipeline(cfg_path, out_dir=str(tmp_path / "other"))
        assert len(m1["artifacts"]) == 6
        for name, path in m1["artifacts"].items():
            with open(path, "rb") as f1, open(m2["artifacts"][name], "rb") as f2:
                assert f1.read() == f2.read(), name
        assert m1["config_sha256"] == m2["config_sha256"]

    def test_stage_order_validated_before_work(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[pipeline]\nstages = identify simulate\nseed = 1\n"
                       "[identify]\nnoise_width = 0.1\n")
        with pytest.raises(ValidationError):
            PipelineConfig.from_file(str(bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(DEMO_CONFIG.format(out=tmp_path / "o").replace(
            "[simulate]\n", "[simulate]\nbogus_knob = 3\n"))
        with pytest.raises(ValidationError, match="unknown keys: bogus_knob"):
            run_pipeline(str(bad))

    @pytest.mark.parametrize("edit, named", [
        (("[pipeline]\n", "[pipeline]\noutdir = elsewhere\n"),
         "[pipeline] unknown keys: outdir"),
        (("\n[duality]", "\n[report]\nformat = text\n\n[duality]"),
         "unknown config sections: report"),
        (("\n[duality]", "\n[simulate]\nmarkets = 10\n\n[duality]"),
         "section 'simulate' already exists"),
        (("p_c = 1.0 0.6\n", "p_c = 1.0 0.6%\n"), "'%' must be followed by"),
        # A stage's own keys, in sections whose stages come late in the run.
        (("b_true = ", "b_ture = "), "[duality] missing required key 'b_true'"),
        (("\n[estimate]\n", "\n[estimate]\ntua = 0.3\n"), "[estimate] unknown keys: tua"),
        (("p_c = 1.0 0.6\n", "p_c = 1.0 six\n"), "[bounds] p_c must be a list of numbers"),
        (("trim = 0\n", "trim = 0\nmode = eulr\n"), "[proxies] unknown mode 'eulr'"),
        (("b_true = 2.8 -0.3 ; -0.3 2.2", "b_true = 2.8 -0.3 0 ; -0.3 2.2 0"),
         "[duality] b_true must be square, got shape (2, 3)"),
        (("p_c = 1.0 0.6\n", "p_c = -1.0 0.6\n"), "[bounds] p_c must be nonnegative"),
        (("p_c = 1.0 0.6\n", "p_c = 0 0\n"), "[bounds] p_c must be nonnegative and nonzero"),
        (("p_c = 1.0 0.6\n", "p_c = nan 0.6\n"),
         "[bounds] p_c must be a list of numbers: 'nan' is not a finite number"),
        (("p_c = 1.0 0.6\n", "p_c = inf 1\n"),
         "[bounds] p_c must be a list of numbers: 'inf' is not a finite number"),
        (("b_true = 2.8 -0.3 ;", "b_true = 2.8 nan ;"),
         "[duality] b_true must be a matrix: 'nan' is not a finite number"),
        (("entry = all\n", "entry = threshold:0.2,x,0.5\n"),
         "[simulate] entry must be threshold:<weights>: could not convert"),
        (("entry = all\n", "entry = all\nrestricted_law = uniform:0.5\n"),
         "[simulate] restricted_law must be uniform:lo,hi"),
        (("entry = all\n", "entry = all\nrestricted_law = fixed:1 inf\n"),
         "[simulate] restricted_law must be fixed:<values>: 'inf' is not"),
        (("proxy_1 = square_plus:1.0:0.6,1.4:3", "proxy_1 = square_plus:1.0:0.6,nan:3"),
         "[simulate] proxy_1 must be form[:params]:lo,hi[:lattice]: 'nan' is not"),
        (("entry = all\n", "entry = threshold:0.2,-0.3,0.5\n"),
         "[simulate] entry must be threshold:<weights>: threshold entry weights must be"),
        (("entry = all\n", "entry = threshold:0,0,0\n"),
         "[simulate] entry must be threshold:<weights>: threshold entry weights must be"),
        (("max_types = 3\n", "max_types = 0\n"), "[identify] max_types must be at least 1"),
        (("min_anchor_count = 1\n", "min_anchor_count = 0\n"),
         "[identify] min_anchor_count must be at least 1"),
        (("min_cell_count = 1\n", "min_cell_count = 0\n"),
         "[identify] min_cell_count must be at least 1"),
        (("penalty_c = 0.2\n", "penalty_c = -0.2\n"), "[identify] penalty_c must be nonnegative"),
        (("penalty_c = 0.2\n", "penalty_c = 0.2\nfit_error_threshold = 0\n"),
         "[identify] fit_error_threshold must be positive"),
        (("noise_width = 0.0001\n", "noise_width = -0.5\n"),
         "[identify] noise_width must be nonnegative"),
        # 1-based indices: 0 would read the last entry.
        (("b_true = ", "type_e = 0\nb_true = "),
         "[duality] type_e must be an index from 1, got 0"),
        (("trim = 0\n", "trim = 0\nobserved_index = 0\n"),
         "[proxies] observed_index must be an index from 1, got 0"),
        (("trim = 0\n", "trim = 0\ntype_e = 0\n"),
         "[proxies] type_e must be an index from 1, got 0"),
        (("question = profit\np_c = 1.0 0.6\n",
          "question = fixed_quantity\ncoord = 0\nybar = 0.4\n"),
         "[bounds] coord must be an index from 1, got 0"),
        (("question = profit\np_c = 1.0 0.6\n",
          "question = fixed_quantity\ncoord = 1.5\nybar = 0.4\n"),
         "[bounds] coord must be an integer"),
        (("repair = project\n", "repair = project\ntypes = 1.5\n"),
         "[bounds] types must be indices from 1, got 1.5"),
        (("repair = project\n", "repair = project\ntypes = 0\n"),
         "[bounds] types must be indices from 1, got 0"),
        # Checked in MarketConfig, named here.
        (("markets = 200\n", "markets = 0\n"), "[simulate] markets must be positive, got 0"),
        (("noise_half_width = 0\n", "noise_half_width = -1\n"),
         "[simulate] noise_half_width must be nonnegative, got -1"),
        (("noise_half_width = 0\n", "noise_half_width = 0\nnoise_shape = bogus\n"),
         "[simulate] unknown noise_shape 'bogus'"),
        # Without proxies the box law draws the prices; a bad box once
        # failed mid-simulate, after the output directory was made.
        ((PROXY_KEYS, "box_lo = -1\n"), "[simulate] need 0 < box_lo <= box_hi, got (-1.0, 1.0)"),
        ((PROXY_KEYS, "box_lo = 0.5\nbox_hi = 0.4\n"),
         "[simulate] need 0 < box_lo <= box_hi, got (0.5, 0.4)"),
        (("question = profit\np_c = 1.0 0.6\n",
          "question = fixed_quantity\ncoord = 1\nybar = 0.4\ngrid = 0.5:0.5:2\n"),
         "[bounds] grid '0.5:0.5:2' rows 1 and 2 lie on one price ray"),
        (("b_true = ", "grid = 0.2:1.3\nb_true = "), "[duality] grid '0.2:1.3': not enough values"),
        (("b_true = ", "grid = 0.2:nan:9\nb_true = "), "[duality] grid '0.2:nan:9': 'nan' is not"),
        (("b_true = ", "grid = 0.2:1.7:9\nb_true = "),
         "[duality] grid '0.2:1.7:9': price rays must be strictly positive"),
        (("b_true = ", "grid = rays.csv\nb_true = "),
         "[duality] grid 'rays.csv': rays.csv not found"),
        ((PROXY_KEYS, "price_law = grid\n"), "[simulate] missing required key 'grid'"),
        ((PROXY_KEYS, "price_law = grid\ngrid = 0.2:1.3:0\n"),
         "[simulate] grid '0.2:1.3:0': need a nonempty (n, d) array of rays"),
        (("\n[estimate]\n", "\n[estimate]\nconvexity = maybe\n"),
         "[estimate] convexity must be a boolean"),
        # With proxies the proxies draw the prices: a law's keys would do nothing.
        (("entry = all\n", "entry = all\nprice_law = grid\ngrid = 0.2:1.3:5\n"),
         "[simulate] price_law does nothing when proxy_* keys are set"),
    ])
    def test_bad_config_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                capsys, edit, named):
        monkeypatch.chdir(tmp_path)          # where a default out_dir would go
        cfg = tmp_path / "c.ini"
        cfg.write_text(DEMO_CONFIG.format(out=tmp_path / "o").replace(*edit))
        assert main(["run", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.ini"]

    @pytest.mark.parametrize("edit, named", [
        (("b_true = ", "type_e = 4\nb_true = "),
         "[duality] type_e = 4, but the fit has 3 types"),
        (("trim = 0\n", "trim = 0\nobserved_index = 3\n"),
         "[proxies] observed_index = 3, but the lattice has 2 dimensions"),
        (("repair = project\n", "repair = project\ntypes = 4\n"),
         "[bounds] types = 4, but the table has 3 types"),
        (("trim = 0\n", "trim = 0\ntype_e = 4\n"),
         "[proxies] type_e = 4, but the table has 3 types"),
        (("p_c = 1.0 0.6\n", "p_c = 1.0 0.6 0.2\n"),
         "[bounds] p_c has 3 entries, but the price rays have 2"),
        (("question = profit\n", "question = quantity\nu = 1 0 0\n"),
         "[bounds] u has 3 entries, but the price rays have 2"),
        (("question = profit\np_c = 1.0 0.6\n",
          "question = fixed_quantity\ncoord = 3\nybar = 0.4\n"),
         "[bounds] coord = 3, but the price rays have 2"),
        (("b_true = 2.8 -0.3 ; -0.3 2.2", "b_true = 2.8 -0.3 0 ; -0.3 2.2 0 ; 0 0 1"),
         "[duality] b_true is 3 x 3, but the fit prices 2 goods"),
    ])
    def test_index_past_the_data_exits_2_naming_the_key(self, tmp_path, capsys,
                                                          edit, named):
        # The upper end depends on the data, so the stage checks it.
        cfg = tmp_path / "c.ini"
        cfg.write_text(DEMO_CONFIG.format(out=tmp_path / "o").replace(*edit))
        assert main(["run", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("p_c, unbounded", [((1.0, 0.6), False), ((1.0, 0.2), True)])
    def test_quantity_question_certifies_each_end(self, tmp_path, p_c, unbounded):
        # Inside the rays' cone the envelope's vertex at p_c is the only
        # bundle above L(p_c); below the flattest ray, y_1 grows without end
        # along that ray's face, which stays above L(p_c).
        cfg = tmp_path / "q.ini"
        cfg.write_text(DEMO_CONFIG.format(out=tmp_path / "q").replace(
            "question = profit\np_c = 1.0 0.6\n",
            "question = quantity\np_c = %g %g\nu = 1 0\n" % p_c))
        assert main(["run", "--config", str(cfg)]) == 0
        from prodenv.identify import ProfitTable
        from prodenv.proxies import ProxyModel
        table = ProfitTable.load(str(tmp_path / "q" / "profit_table.json"))
        model = ProxyModel.load(str(tmp_path / "q" / "proxy_model.json"))
        report = json.loads((tmp_path / "q" / "bounds_report.json").read_text())
        pc, u = np.array(p_c) / np.hypot(*p_c), np.array([1.0, 0.0])
        assert [r["type"] for r in report["per_type"]] == [1, 2, 3]
        for r in report["per_type"]:
            assert (r["upper"] == "+inf") == unbounded
            for end in ("lower", "upper")[:2 - unbounded]:
                assert isinstance(r[end], float)
                assert u @ r[end + "_certificate"]["y_c"] == pytest.approx(r[end], abs=1e-12)
            if unbounded:
                w = np.array(r["upper_certificate"]["ray"])
                rays = profit_data_from_table(table, r["type"], model).rays
                assert np.all(rays @ w <= 1e-12) and pc @ w >= 0 and u @ w > 0

    def test_fixed_quantity_question_certifies_each_end(self, tmp_path):
        # Each end is attained by a bundle with y_1 pinned at ybar, priced at
        # the grid ray that attains it.
        cfg = tmp_path / "f.ini"
        cfg.write_text(DEMO_CONFIG.format(out=tmp_path / "f").replace(
            "question = profit\np_c = 1.0 0.6\n",
            "question = fixed_quantity\ncoord = 1\nybar = 0.4\n"))
        assert main(["run", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "f" / "bounds_report.json").read_text())
        assert [r["type"] for r in report["per_type"]] == [1, 2, 3]
        for r in report["per_type"]:
            assert r["feasible"] and "repair_shift" in r
            for end in ("lower", "upper"):
                assert isinstance(r[end], float) and np.isfinite(r[end])
                cert = r[end + "_certificate"]
                y_c, p_c = np.array(cert["y_c"]), np.array(cert["p_c"])
                assert y_c[0] == 0.4
                assert p_c @ y_c == pytest.approx(r[end], rel=1e-12, abs=1e-12)

    def test_stage_inputs_from_explicit_paths(self, demo_config, tmp_path):
        # [<stage>] input names the file a stage reads in place of an
        # earlier stage's value; the results are those of the full run.  The
        # dataset file has no type_e column and the simulated dataset has
        # one, so identification does not read it.
        cfg_path, out = demo_config
        full = run_pipeline(cfg_path)["artifacts"]
        part = tmp_path / "part.ini"
        proxy_model = f"proxy_model = {full['proxy_model']}\n"
        part.write_text(
            DEMO_CONFIG.format(out=tmp_path / "part")
            .replace("stages = simulate ", "stages = ")
            .replace("[identify]\n", f"[identify]\ninput = {full['dataset']}\n")
            .replace("[proxies]\n", f"[proxies]\ninput = {full['profit_table']}\n")
            .replace("[bounds]\n", f"[bounds]\ninput = {full['profit_table']}\n"
                                   + proxy_model)
            .replace("[estimate]\n", f"[estimate]\ninput = {full['profit_table']}\n"
                                     + proxy_model)
            .replace("[duality]\n", f"[duality]\ninput = {full['diewert_fit']}\n"))
        manifest = run_pipeline(str(part))
        assert list(manifest["artifacts"]) == ["profit_table", "proxy_model",
                                               "bounds_report", "diewert_fit",
                                               "duality_report"]
        for name, path in manifest["artifacts"].items():
            assert pathlib.Path(path).read_bytes() == pathlib.Path(full[name]).read_bytes()

    def test_subcommand_chain_matches_run(self, demo_config, tmp_path):
        # Each subcommand reads the file the one before it wrote, where the
        # run hands the values on; every artifact has the same bytes.
        cfg_path, _ = demo_config
        full = run_pipeline(cfg_path)["artifacts"]
        mine = {name: str(tmp_path / os.path.basename(path)) for name, path in full.items()}
        cfg = tmp_path / "chain.ini"
        proxy_model = f"proxy_model = {mine['proxy_model']}\n"
        cfg.write_text(DEMO_CONFIG.format(out=tmp_path / "unused")
                       .replace("[bounds]\n", "[bounds]\n" + proxy_model)
                       .replace("[estimate]\n", "[estimate]\n" + proxy_model))
        profits = ["--profits", mine["profit_table"]]
        for command, args, made in (
                ("simulate", ["--config", str(cfg)], "dataset"),
                ("identify", ["--data", mine["dataset"], "--config", str(cfg)],
                 "profit_table"),
                ("proxies", profits + ["--config", str(cfg)], "proxy_model"),
                ("bounds", profits + ["--question", str(cfg)], "bounds_report"),
                ("estimate", profits + ["--config", str(cfg)], "diewert_fit"),
                ("duality", ["--fit", mine["diewert_fit"], "--truth", str(cfg)],
                 "duality_report")):
            assert main([command, *args, "--out", mine[made]]) == 0
            assert (pathlib.Path(mine[made]).read_bytes()
                    == pathlib.Path(full[made]).read_bytes()), made

    def test_stages_are_looked_up_by_name(self, demo_config, monkeypatch):
        # The benchmark times each stage by replacing prodenv.cli.stage_<name>;
        # run_pipeline must call whatever that name holds when it runs.
        import prodenv.cli
        called = []
        for name in ("simulate", "identify", "proxies", "bounds", "estimate",
                     "duality"):
            real = getattr(prodenv.cli, "stage_" + name)
            monkeypatch.setattr(prodenv.cli, "stage_" + name,
                                lambda *a, _n=name, _f=real: called.append(_n) or _f(*a))
        run_pipeline(demo_config[0])
        assert called == ["simulate", "identify", "proxies", "bounds", "estimate",
                          "duality"]

    def test_partial_artifact_left_on_failure(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"""
[pipeline]
stages = simulate identify
out_dir = {out}
seed = 1

[simulate]
technology = diewert
b_1 = 1.0 -0.2 ; -0.2 0.8
markets = 50
entry = all
noise_half_width = 0.4

[identify]
bucketing = unique
noise_width = 0.8
min_anchor_count = 100000
""")
        from prodenv.errors import ProdenvError
        with pytest.raises(ProdenvError) as exc_info:
            run_pipeline(str(cfg))
        assert "identify" in str(exc_info.value)
        assert os.path.exists(out / "dataset.csv")       # finished stage kept
        assert not os.path.exists(out / "profit_table.json")


class TestCommandLine:
    def test_exit_codes(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ini")
        assert main(["run", "--config", missing]) == 2

    def test_simulate_and_identify_commands(self, demo_config, tmp_path):
        cfg_path, _ = demo_config
        data = str(tmp_path / "d.csv")
        table = str(tmp_path / "t.json")
        assert main(["simulate", "--config", cfg_path, "--out", data]) == 0
        assert os.path.exists(data)
        assert main(["identify", "--data", data, "--config", cfg_path,
                     "--out", table]) == 0
        doc = json.loads(pathlib.Path(table).read_text())
        assert doc["schema"].startswith("prodenv.profit-table/")

    @pytest.mark.parametrize("technology, tech", [
        ("technology = power\npower_scales = 1 2 3\npower_exponents = 0.4 0.4 0.4",
         TechnologySpec(types=tuple(PowerTech(s, 0.4) for s in (1, 2, 3)))),
        ("technology = nonmonotone-triple", TechnologySpec.nonmonotone_supply_triple()),
    ], ids=["power", "nonmonotone-triple"])
    def test_single_output_simulate(self, tmp_path, technology, tech):
        # At noise 0 each recorded profit is the batch oracle's at its row.
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[pipeline]\nstages = simulate\nseed = 5\n\n[simulate]\n"
                       f"{technology}\nmarkets = 400\nbox_lo = 0.05\nentry = all\n"
                       "noise_half_width = 0\n")
        data = str(tmp_path / "d.csv")
        assert main(["simulate", "--config", str(cfg), "--out", data, "--debug"]) == 0
        back = Dataset.from_csv(data)
        assert len(back) == 400 * 3
        truth = profit_oracle_batch(tech, back.x)
        assert np.array_equal(back.noisy_profit,
                              truth[np.arange(len(back)), back.type_e - 1])

    @pytest.mark.parametrize("keys, law", [
        ("restricted_law = fixed:0.5 1.0\n",
         dict(restricted_quantity_law=("fixed", np.array([0.5, 1.0])))),
        ("price_law = endowment\nendowment_sigma = 0.8\nentry = nonneg_profit\n",
         dict(price_law=("endowment", 0.8), entry_rule=("nonneg_profit",))),
    ], ids=["restricted-fixed", "endowment-nonneg-profit"])
    def test_simulate_keys_reach_the_draw(self, tmp_path, keys, law):
        # The config's dataset is the library's for the same MarketConfig.
        b = np.array([[1.0, -0.8], [-0.8, 0.5]])        # negative where p2/p1 is near 1
        cfg = tmp_path / "c.ini"
        cfg.write_text("[pipeline]\nstages = simulate\nseed = 5\n\n[simulate]\n"
                       "technology = diewert\nb_1 = 1.0 -0.8 ; -0.8 0.5\nmarkets = 300\n"
                       + keys)
        data = str(tmp_path / "d.csv")
        assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
        back = Dataset.from_csv(data)
        want = generate_dataset(TechnologySpec.diewert_family([b]),
                                MarketConfig(num_markets=300, dimension=2, seed=5, **law))
        for column in ("x", "y_restricted", "noisy_profit"):
            assert np.array_equal(getattr(back, column), getattr(want, column))
        if "entry_rule" in law:
            assert np.all(back.noisy_profit >= 0) and 0 < len(back) < 300
        else:
            assert set(back.y_restricted[:, 0]) == {0.5, 1.0}

    def test_report_command(self, demo_config, capsys):
        cfg_path, out = demo_config
        manifest = run_pipeline(cfg_path)
        rc = main(["report", *(manifest["artifacts"][a] for a in (
            "profit_table", "bounds_report", "duality_report", "proxy_model",
            "diewert_fit")), os.path.join(out, "manifest.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert re.search(r"(?m)^run manifest: seed 42; prodenv [^,]+, numpy [^,]+, scipy \S+$",
                         text)
        assert len(re.findall(r"(?m)^  stage [a-z]+: \d+\.\d{3} s$", text)) == 6
        assert ("  artifacts: dataset, profit_table, proxy_model, bounds_report, "
                "diewert_fit, duality_report\n") in text
        assert "profit table" in text
        assert "bounds" in text
        assert "verdict" in text
        assert "proxy model:\n  good 1: recovered map" in text
        assert "good 2: observed price" in text
        assert "generalized-Leontief fit: 3 types" in text
        assert len(re.findall(r"(?m)^  type \d: \[ *-?[\d.]+ +-?[\d.]+; ", text)) == 3

    def test_report_without_artifacts_prints_the_golden_table(self, capsys):
        assert main(["report"]) == 0
        assert capsys.readouterr().out == golden_table() + "\n"

    def test_demo_command(self, capsys):
        assert main(["demo", "--m", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 5
        assert [r["m"] for r in doc["eta_vanishes"]] == [5, 50, 500]

    def test_identification_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        out = tmp_path / "r"
        cfg.write_text(f"""
[pipeline]
stages = simulate identify
out_dir = {out}
seed = 3

[simulate]
technology = diewert
b_1 = 1.0 -0.2 ; -0.2 0.8
b_2 = 1.05 -0.2 ; -0.2 0.84
markets = 4000
grid = 0.6:0.9:2
price_law = grid
entry = all
noise_half_width = 0.5

[identify]
bucketing = unique
noise_width = 1.0
min_anchor_count = 10
min_cell_count = 10
""")
        # Type gap ~0.1 << noise support 1.0: no separated cell anywhere.
        assert main(["run", "--config", str(cfg)]) == 3


class TestRendering:
    def test_golden_table_passes(self):
        text = golden_table()
        assert "NO" not in text.replace("NO\n", "NO\n")  # sanity: built below
        assert text.count("yes") >= 7
        assert "l*_1" in text and "orderings" in text

    def test_unbounded_bound_rendering(self):
        doc = {
            "schema": "prodenv.bounds-report/1",
            "question": "profit at p_c",
            "per_type": [{
                "type": 1, "feasible": True,
                "lower": "-inf", "upper": "+inf",
                "lower_certificate": None,
                "upper_certificate": {"ray": [-0.7, 0.7], "note": "unbounded"},
            }],
        }
        text = render_artifact(doc)
        assert "unbounded (certificate: ray" in text

    def test_unidentified_rendering(self):
        doc = {
            "schema": "prodenv.profit-table/1",
            "d_e": 2,
            "anchor": {"value": 1.0, "e_star_offset": 0},
            "cells": [{
                "x_center": [0.5, 0.5], "count": 10,
                "assignments": [{"e": 2, "value": 2.0, "stderr": 0.0}],
                "unidentified_below": 1,
            }],
        }
        text = render_artifact(doc)
        assert "unidentified (low type)" in text

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValidationError):
            render_artifact({"schema": "prodenv.widget/9"})

    @pytest.mark.parametrize("name, other, doc", [
        ("prodenv.bounds-report", "2", {"question": "profit at p_c", "per_type": []}),
        ("prodenv.duality-report", "7",
         {"eta": 0.1, "d_h": 0.2, "R": 1.0, "r": 0.5, "verdict": "consistent"}),
        ("prodenv.manifest", "2",
         {"seed": 3, "versions": {"prodenv": "0"}, "stages": [], "artifacts": {}}),
    ])
    def test_report_rejects_another_major_version(self, tmp_path, capsys, name, other, doc):
        # A minor version renders; another major version once rendered too.
        for version, rc in (("1.2", 0), (other, 2)):
            path = tmp_path / f"{version}.json"
            path.write_text(json.dumps(dict(doc, schema=f"{name}/{version}")))
            assert main(["report", str(path)]) == rc
        err = capsys.readouterr().err
        assert err == f"error: expected schema {name}/1, got '{name}/{other}'\n"


class TestAdapters:
    def test_profit_data_from_table(self, demo_config):
        cfg_path, out = demo_config
        manifest = run_pipeline(cfg_path)
        from prodenv.identify import ProfitTable
        from prodenv.proxies import ProxyModel
        table = ProfitTable.load(manifest["artifacts"]["profit_table"])
        model = ProxyModel.load(manifest["artifacts"]["proxy_model"])
        data = profit_data_from_table(table, 3, model)
        assert data.k == 12
        assert np.allclose(np.linalg.norm(data.rays, axis=1), 1.0)

    def test_table_evaluator_lattice(self, demo_config):
        cfg_path, out = demo_config
        manifest = run_pipeline(cfg_path)
        from prodenv.identify import ProfitTable
        table = ProfitTable.load(manifest["artifacts"]["profit_table"])
        f, axes = table_evaluator(table, 3)
        assert len(axes) == 2
        x = np.array([float(axes[0][1]), float(axes[1][2])])
        v = f(x)
        cell = [c for c in table.cells
                if np.allclose(c.x_center, x, atol=1e-9)][0]
        assert v == pytest.approx(cell.values[3])


class TestStandaloneCommands:
    def test_duality_with_pbar_flag(self, demo_config, tmp_path):
        cfg_path, out = demo_config
        manifest = run_pipeline(cfg_path)
        rep = str(tmp_path / "dual.json")
        rc = main(["duality", "--truth", cfg_path,
                   "--fit", manifest["artifacts"]["diewert_fit"],
                   "--pbar", "0.3:1.2:40", "--out", rep])
        assert rc == 0
        doc = json.loads(pathlib.Path(rep).read_text())
        assert doc["n_rays"] == 40
        assert doc["verdict"] == "equality"

    def test_bounds_build_only_the_types_named(self, demo_config, tmp_path, capsys):
        # A table whose low type is identified nowhere: bounding every type
        # fails on it, bounding the others does not touch it.
        table = json.loads(pathlib.Path(run_pipeline(demo_config[0])
                                        ["artifacts"]["profit_table"]).read_text())
        for cell in table["cells"]:
            cell["assignments"] = [a for a in cell["assignments"] if a["e"] != 1]
            cell["unidentified_below"] = 1
        path = tmp_path / "no_type_1.json"
        path.write_text(json.dumps(table))
        q = tmp_path / "q.ini"
        out = tmp_path / "b.json"
        for types, rc in (("", 2), ("types = 2 3\n", 0)):
            q.write_text("[bounds]\np_c = 1.0 0.6\nrepair = project\n" + types)
            assert main(["bounds", "--profits", str(path), "--question", str(q),
                         "--out", str(out)]) == rc
        assert "no cells identifying type 1" in capsys.readouterr().err
        assert [r["type"] for r in json.loads(out.read_text())["per_type"]] == [2, 3]

    def test_proxies_from_profile_csv(self, tmp_path):
        # Aggregate-mean profile on a 2-d lattice: x1 proxied, x2 observed.
        import numpy as np
        from prodenv.simulate import DiewertTech
        tech = DiewertTech(np.array([[1.1, -0.25], [-0.25, 0.9]]))
        g1 = np.linspace(0.6, 1.8, 25)
        g2 = np.linspace(0.8, 2.4, 33)
        rows = ["x_1,x_2,mean_profit"]
        for a in g1:
            for b in g2:
                v = tech.profit(np.array([a ** 2 + 1.0, b]))[0]
                rows.append(f"{float(a)!r},{float(b)!r},{float(v)!r}")
        csv_path = tmp_path / "profile.csv"
        csv_path.write_text("\n".join(rows))
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"""
[proxies]
profile_csv = {csv_path}
anchor_x = 1.0 1.2
anchor_p = 2.0 1.2
""")
        out = str(tmp_path / "proxy.json")
        rc = main(["proxies", "--profits", "unused.json", "--config", str(cfg),
                   "--out", out])
        assert rc == 0
        doc = json.loads(pathlib.Path(out).read_text())
        grid = np.array(doc["goods"][0]["grid"])
        gv = np.array(doc["goods"][0]["g_values"])
        rel = np.abs(gv - (grid ** 2 + 1)) / (grid ** 2 + 1)
        assert rel.max() <= 0.01

    def test_profile_with_a_hole_is_named(self, tmp_path, capsys):
        rows = [f"{a},{b},1.0" for a in (1.0, 2.0) for b in (1.0, 2.0, 3.0)]
        csv_path = tmp_path / "holey.csv"
        csv_path.write_text("\n".join(["x_1,x_2,mean_profit"] + rows[:-1]))
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[proxies]\nprofile_csv = {csv_path}\n"
                       "anchor_x = 1.0 1.0\nanchor_p = 1.0 1.0\n")
        assert main(["proxies", "--profits", "unused.json", "--config", str(cfg),
                     "--out", str(tmp_path / "proxy.json")]) == 2
        err = capsys.readouterr().err
        assert "holey.csv" in err and "1 of 6 nodes missing" in err

    def test_profile_with_a_repeated_node_is_named(self, tmp_path, capsys):
        rows = [f"{a},{b},1.0" for a in (1.0, 2.0) for b in (1.0, 2.0, 3.0)]
        csv_path = tmp_path / "twice.csv"
        csv_path.write_text("\n".join(["x_1,x_2,mean_profit"] + rows + ["1.0,1.0,50.0"]))
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[proxies]\nprofile_csv = {csv_path}\n"
                       "anchor_x = 1.0 1.0\nanchor_p = 1.0 1.0\n")
        assert main(["proxies", "--profits", "unused.json", "--config", str(cfg),
                     "--out", str(tmp_path / "proxy.json")]) == 2
        err = capsys.readouterr().err
        assert "twice.csv" in err and "1 given more than once" in err

    def test_housing_mode_recovers_the_price_map(self, tmp_path):
        # p_l = v^2/2 makes g'/g = p_l'/v = 1, so g(v) = 1.5 exp(v - 2) from
        # the anchor (2, 1.5).  np.gradient is exact on a quadratic inside
        # the grid and one-sided, so off, at its two end nodes.
        v = np.linspace(1.0, 3.0, 21)
        csv_path = tmp_path / "housing.csv"
        csv_path.write_text("vbar,p_l\n" + "".join(f"{a!r},{a * a / 2!r}\n" for a in v.tolist()))
        cfg = tmp_path / "h.ini"
        cfg.write_text(f"[proxies]\nmode = housing\nprofile_csv = {csv_path}\n"
                       "anchor_v = 2\nanchor_p = 1.5\n")
        out = tmp_path / "proxy.json"
        assert main(["proxies", "--profits", "unused.json", "--config", str(cfg),
                     "--out", str(out)]) == 0
        (good,) = json.loads(out.read_text())["goods"]
        assert good["grid"] == v.tolist() and not good["observed"]
        g, truth = np.array(good["g_values"]), 1.5 * np.exp(v - 2.0)
        assert np.all(np.abs(g - truth)[1:-1] <= 1e-12 * truth[1:-1])

    @pytest.mark.parametrize("rows", ["", "1.0,2.0\n"])
    def test_short_housing_profile_is_reported(self, tmp_path, capsys, rows):
        csv_path = tmp_path / "housing.csv"
        csv_path.write_text("vbar,p_l\n" + rows)
        cfg = tmp_path / "h.ini"
        cfg.write_text(f"[proxies]\nmode = housing\nprofile_csv = {csv_path}\n"
                       "anchor_v = 1.0\nanchor_p = 2.0\n")
        assert main(["proxies", "--profits", "unused.json", "--config", str(cfg),
                     "--out", str(tmp_path / "proxy.json")]) == 2
        expected = "at least 3 points" if rows else "housing.csv' has no data rows"
        assert expected in capsys.readouterr().err

    def test_header_only_aggregate_profile_is_reported(self, tmp_path, capsys):
        csv_path = tmp_path / "profile.csv"
        csv_path.write_text("x_1,x_2,mean_profit\n")
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[proxies]\nprofile_csv = {csv_path}\n"
                       "anchor_x = 1.0 1.0\nanchor_p = 1.0 1.0\n")
        assert main(["proxies", "--profits", "unused.json", "--config", str(cfg),
                     "--out", str(tmp_path / "proxy.json")]) == 2
        assert "profile.csv' has no data rows" in capsys.readouterr().err


class TestCsvProfitInput:
    def _write_pairs_csv(self, tmp_path):
        import numpy as np
        from prodenv.simulate import DiewertTech
        b1 = np.array([[1.2, -0.3], [-0.3, 0.9]])
        b2 = b1 + np.diag([0.8, 0.6])
        angles = np.linspace(0.3, 1.25, 8)
        rows = [",".join([f"ray_{i+1}" for i in range(2)] + ["value", "type_e"])]
        for e, b in ((1, b1), (2, b2)):
            tech = DiewertTech(b)
            for a in angles:
                p = 1.7 * np.array([np.cos(a), np.sin(a)])   # off-sphere prices
                v = tech.profit(p)[0]
                rows.append(f"{float(p[0])!r},{float(p[1])!r},{float(v)!r},{e}")
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(rows))
        return str(path), (b1, b2)

    def test_bounds_from_pairs_csv(self, tmp_path):
        csv_path, _ = self._write_pairs_csv(tmp_path)
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = profit\np_c = 1.0 1.0\n")
        out = str(tmp_path / "b.json")
        assert main(["bounds", "--profits", csv_path, "--question", str(q),
                     "--out", out]) == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert [r["type"] for r in doc["per_type"]] == [1, 2]
        for r in doc["per_type"]:
            assert np.isfinite(r["lower"]) and np.isfinite(r["upper"])

    def test_bounds_for_named_types_of_pairs_csv(self, tmp_path, capsys):
        csv_path, _ = self._write_pairs_csv(tmp_path)
        q = tmp_path / "q.ini"
        out = tmp_path / "b.json"
        for types, rc in (("2 3", 2), ("2", 0)):
            q.write_text(f"[bounds]\nquestion = profit\np_c = 1.0 1.0\ntypes = {types}\n")
            assert main(["bounds", "--profits", csv_path, "--question", str(q),
                         "--out", str(out)]) == rc
        assert "pairs.csv' has no pairs of type 3" in capsys.readouterr().err
        assert [r["type"] for r in json.loads(out.read_text())["per_type"]] == [2]

    def test_proxy_model_with_pairs_csv_is_reported(self, tmp_path, capsys):
        csv_path, _ = self._write_pairs_csv(tmp_path)
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\np_c = 1.0 1.0\nproxy_model = proxy.json\n")
        assert main(["bounds", "--profits", csv_path, "--question", str(q),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert "pairs.csv' holds prices" in capsys.readouterr().err

    def test_estimate_from_pairs_csv(self, tmp_path):
        csv_path, (b1, b2) = self._write_pairs_csv(tmp_path)
        out = str(tmp_path / "f.json")
        assert main(["estimate", "--profits", csv_path, "--out", out]) == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert np.allclose(np.asarray(doc["b"][0]), b1, atol=1e-7)
        assert np.allclose(np.asarray(doc["b"][1]), b2, atol=1e-7)

    @pytest.mark.parametrize("on, off", [("true", "false"), ("yes", "no"), ("1", "off")])
    def test_boolean_keys_reach_their_stages(self, tmp_path, on, off):
        # Convexity holds the cross term at or below 0, so only the fit
        # without it recovers a positive one.  The geometric oracle's
        # distance is in the duality report only when it is on.
        b = np.array([[1.0, 0.2], [0.2, 0.8]])
        rays = np.array([[np.cos(a), np.sin(a)] for a in np.linspace(0.3, 1.25, 8)])
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("ray_1,ray_2,value\n" + "".join(
            f"{r[0]!r},{r[1]!r},{v!r}\n"
            for r, v in zip(rays.tolist(), diewert_value(b, rays).tolist())))
        cfg, fit, rep = tmp_path / "c.ini", tmp_path / "f.json", tmp_path / "d.json"
        cross = {}
        for flag in (on, off):
            cfg.write_text(f"[estimate]\nconvexity = {flag}\nmonotone = {off}\n\n[duality]\n"
                           f"b_true = 1.0 0.2 ; 0.2 0.8\ngeometric_oracle = {flag}\n")
            assert main(["estimate", "--profits", str(pairs), "--config", str(cfg),
                         "--out", str(fit)]) == 0
            cross[flag] = json.loads(fit.read_text())["b"][0][0][1]
            assert main(["duality", "--truth", str(cfg), "--fit", str(fit),
                         "--out", str(rep)]) == 0
            assert (json.loads(rep.read_text())["oracle_d_h"] is None) == (flag == off)
        assert cross[on] <= 0 and cross[off] == pytest.approx(0.2, abs=1e-8)

    def test_pairs_csv_without_value_column_is_reported(self, tmp_path, capsys):
        path = tmp_path / "rays.csv"
        path.write_text("ray_1,ray_2\n1.0,0.5\n0.5,1.0\n")
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = profit\np_c = 1.0 1.0\n")
        assert main(["bounds", "--profits", str(path), "--question", str(q),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert "not a profit-pairs CSV" in capsys.readouterr().err

    def test_pairs_csv_with_an_unknown_column_is_reported(self, tmp_path, capsys):
        # The type is read from the column named type_e, not from the column
        # after value.
        path = tmp_path / "weighted.csv"
        path.write_text("ray_1,ray_2,value,weight,type_e\n1.0,0.5,1.0,7,1\n"
                        "0.5,1.0,1.0,7,1\n")
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = profit\np_c = 1.0 1.0\n")
        assert main(["bounds", "--profits", str(path), "--question", str(q),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert "weighted.csv' is not a profit-pairs CSV" in capsys.readouterr().err

    def test_header_only_pairs_csv_is_reported(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("ray_1,ray_2,value\n")
        assert main(["estimate", "--profits", str(path),
                     "--out", str(tmp_path / "f.json")]) == 2
        assert "empty.csv' has no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("1.0,0.0,1.0,7\n0.0,1.0,1.0,7\n0.6,0.8,1.4,7\n",
         "bad.csv' rows have 4 fields, the header 3"),
        ("1.0,0.0,1.0\n0.0,0.0,1.0\n", "bad.csv' data row 2 has a zero, negative or non-finite ray"),
        ("1.0,0.0,1.0\nnan,1.0,1.0\n", "bad.csv' data row 2 has a zero, negative or non-finite ray"),
        ("1.0,inf,1.0\n0.0,1.0,1.0\n", "bad.csv' data row 1 has a zero, negative or non-finite ray"),
        ("1.0,0.0,1.0\n0.0,1.0,inf\n", "bad.csv' data row 2 has a non-finite value"),
        ("0.5,1.0,1.0\n1,1,1.0\n2,2,2.0\n", "bad.csv' data rows 2 and 3 lie on one price ray"),
    ])
    def test_malformed_pairs_rows_are_named(self, tmp_path, capsys, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("ray_1,ray_2,value\n" + rows)
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = profit\np_c = 1.0 1.0\n")
        assert main(["bounds", "--profits", str(path), "--question", str(q),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    def test_negative_ray_is_named(self, tmp_path, capsys, command):
        path = tmp_path / "neg.csv"
        path.write_text("ray_1,ray_2,value\n-1.0,0.5,1.0\n0.5,1.0,1.0\n")
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = profit\np_c = 1.0 1.0\n")
        args = {"estimate": [], "bounds": ["--question", str(q)]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--profits", str(path), *args,
                         "--out", str(tmp_path / "out.json")]) == 2
        assert ("neg.csv' data row 1 has a zero, negative or non-finite ray"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("type_e", ["1.5", "nan"])
    def test_non_integer_type_is_named(self, tmp_path, capsys, type_e):
        path = tmp_path / "typed.csv"
        path.write_text(f"ray_1,ray_2,value,type_e\n1.0,0.0,1.0,1\n0.0,1.0,1.0,{type_e}\n")
        assert main(["estimate", "--profits", str(path),
                     "--out", str(tmp_path / "f.json")]) == 2
        assert ("typed.csv' data row 2 has a type_e that is not an integer"
                in capsys.readouterr().err)

    def _duality_on_pbar(self, tmp_path, rows):
        """The exit code of ``duality`` over a --pbar CSV of ``rows``, for a
        fit of the pairs CSV against its type 1, and the report's path."""
        csv_path, _ = self._write_pairs_csv(tmp_path)
        fit = str(tmp_path / "f.json")
        assert main(["estimate", "--profits", csv_path, "--out", fit]) == 0
        truth = tmp_path / "t.ini"
        truth.write_text("[duality]\nb_true = 1.2 -0.3 ; -0.3 0.9\n")
        pbar, out = tmp_path / "pbar.csv", tmp_path / "d.json"
        pbar.write_text(rows)
        return main(["duality", "--truth", str(truth), "--fit", fit, "--pbar", str(pbar),
                     "--out", str(out)]), out

    def test_empty_pbar_csv_is_reported(self, tmp_path, capsys):
        assert self._duality_on_pbar(tmp_path, "")[0] == 2
        assert "pbar.csv' has no data rows" in capsys.readouterr().err
        assert main(["duality", "--truth", str(tmp_path / "t.ini"), "--fit",
                     str(tmp_path / "f.json"), "--pbar", "0.2:1.3:0",
                     "--out", str(tmp_path / "d.json")]) == 2
        assert "need a nonempty (n, d) array of rays" in capsys.readouterr().err

    def test_pbar_csv_rows_are_normalized(self, tmp_path):
        rc, out = self._duality_on_pbar(tmp_path, "3.0,4.0\n0.2,1.3\n")
        rays = parse_grid(str(tmp_path / "pbar.csv"), "--pbar").rays
        assert np.allclose(rays[0], [0.6, 0.8], rtol=0, atol=1e-15)
        assert all(abs(np.linalg.norm(r) - 1.0) <= 1e-12 for r in rays)
        doc = json.loads(out.read_text())
        b = np.array([[1.2, -0.3], [-0.3, 0.9]])
        assert rc == 0 and doc["n_rays"] == 2
        assert doc["R"] == pytest.approx(max(diewert_value(b, np.array(rays))), rel=1e-12)

    @pytest.mark.parametrize("rows, row", [
        ("1,1\n0,0\n", 2), ("1,1\n1,0\n", 2), ("1,-1\n", 1), ("1,2\n1,nan\n", 2),
        ("inf,1\n", 1), ("1,1\n2,2\n1,2\n", (1, 2))])
    def test_bad_pbar_rows_are_named(self, tmp_path, capsys, rows, row):
        # A pair of rows is two rows on one ray.
        assert self._duality_on_pbar(tmp_path, rows)[0] == 2
        what = (f"rows {row[0]} and {row[1]} lie on one price ray" if isinstance(row, tuple)
                else f"row {row} has a zero, negative or non-finite entry")
        assert f"--pbar '{tmp_path / 'pbar.csv'}' {what}" in capsys.readouterr().err

    def _fixed_quantity_bounds(self, tmp_path, grid, ybar):
        """The exit code of ``bounds`` on the pairs CSV for y_1 = ``ybar``
        over the sweep grid ``grid``, and the report's path."""
        csv_path, _ = self._write_pairs_csv(tmp_path)
        q, out = tmp_path / "q.ini", tmp_path / "b.json"
        q.write_text(f"[bounds]\nquestion = fixed_quantity\ncoord = 1\nybar = {ybar}\n"
                     f"grid = {grid}\n")
        return main(["bounds", "--profits", csv_path, "--question", str(q),
                     "--out", str(out)]), out

    def test_bounds_grid_rows_on_one_ray_are_named(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("0.5,1\n1,1\n1,2\n")
        assert self._fixed_quantity_bounds(tmp_path, grid, 0.4)[0] == 2
        assert (f"[bounds] grid '{grid}' rows 1 and 3 lie on one price ray"
                in capsys.readouterr().err)

    def test_sweep_with_no_feasible_ray_reports_it(self, tmp_path, capsys):
        # Inside the rays' cone the bundles above L(p) lie near one vertex,
        # far from y_1 = 50, at every ray of the grid.
        rc, out = self._fixed_quantity_bounds(tmp_path, "0.5:1.0:5", 50)
        assert rc == 0
        report = json.loads(out.read_text())
        assert [r["feasible"] for r in report["per_type"]] == [False, False]
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  type 1: infeasible restriction set", "  type 2: infeasible restriction set"]

    def test_pbar_width_must_match_the_fit(self, tmp_path, capsys):
        assert self._duality_on_pbar(tmp_path, "1,1,1\n1,2,1\n")[0] == 2
        assert ("--pbar rays have 3 entries, but the fit prices 2 goods"
                in capsys.readouterr().err)

    def test_fixed_quantity_grid_must_match_the_goods(self, tmp_path, capsys):
        # The built-in sweep grid is the d = 2 angle grid; d = 3 data needs
        # a [bounds] grid of its own.
        path = tmp_path / "d3.csv"
        path.write_text("ray_1,ray_2,ray_3,value\n1,0,0,1\n0,1,0,1\n0,0,1,1\n")
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = fixed_quantity\ncoord = 1\nybar = 0.4\n")
        assert main(["bounds", "--profits", str(path), "--question", str(q),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert ("[bounds] grid has 2 entries, but the price rays have 3"
                in capsys.readouterr().err)

    def test_three_goods_bounds_estimate_and_duality(self, tmp_path):
        # Exact profits of three nested Diewert types on 30 rays in d = 3,
        # with a 3-column CSV grid for the sweep and the duality check.
        b1 = np.array([[1.1, -0.2, -0.1], [-0.2, 0.9, -0.1], [-0.1, -0.1, 1.0]])
        bs = [b1, b1 + np.diag([0.8, 0.7, 0.7]), b1 + np.diag([1.7, 1.3, 1.5])]
        rng = np.random.default_rng(0)
        rays = rng.uniform(0.25, 1, (30, 3))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        grid = rng.uniform(0.3, 1, (60, 3))
        rows = ["ray_1,ray_2,ray_3,value,type_e"]
        for e, b in enumerate(bs, start=1):
            rows += [",".join(map(repr, [*map(float, r), float(v), e]))
                     for r, v in zip(rays, diewert_value(b, rays))]
        pairs, grid_csv = tmp_path / "pairs.csv", tmp_path / "grid.csv"
        pairs.write_text("\n".join(rows))
        grid_csv.write_text("\n".join(",".join(map(repr, map(float, g))) for g in grid))
        p7 = grid[6] / np.linalg.norm(grid[6])

        q, out = tmp_path / "q.ini", tmp_path / "b.json"
        for e, b in enumerate(bs, start=1):
            ybar = float(diewert_supply(b, p7)[0])
            q.write_text(f"[bounds]\nquestion = fixed_quantity\ncoord = 1\nybar = {ybar!r}\n"
                         f"grid = {grid_csv}\ntypes = {e}\n")
            assert main(["bounds", "--profits", str(pairs), "--question", str(q),
                         "--out", str(out)]) == 0
            (r,) = json.loads(out.read_text())["per_type"]
            assert r["type"] == e and r["feasible"]
            assert r["lower"] <= diewert_value(b, p7[None])[0] <= r["upper"]
            for end in ("lower", "upper"):
                assert r[end + "_certificate"]["y_c"][0] == ybar

        fit = tmp_path / "f.json"
        assert main(["estimate", "--profits", str(pairs), "--out", str(fit)]) == 0
        for b, b_hat in zip(bs, json.loads(fit.read_text())["b"]):
            assert np.allclose(b_hat, b, rtol=0, atol=1e-6)
        truth = tmp_path / "t.ini"
        truth.write_text("[duality]\nb_true = " + " ; ".join(" ".join(map(str, r)) for r in bs[2])
                         + f"\ngrid = {grid_csv}\n")
        assert main(["duality", "--truth", str(truth), "--fit", str(fit),
                     "--out", str(tmp_path / "d.json")]) == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["n_rays"] == 60 and doc["verdict"] == "equality"
