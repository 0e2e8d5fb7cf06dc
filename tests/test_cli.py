import json
import os
import pathlib
import re

import numpy as np
import pytest

from prodenv.cli import (golden_table, main, profit_data_from_table,
                         render_artifact, run_pipeline, table_evaluator)
from prodenv.errors import ValidationError
from prodenv.config import PipelineConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# The README's pipeline config, so the printed example is the tested one.
DEMO_CONFIG = re.sub(
    r"(?m)^out_dir = .*$", "out_dir = {out}",
    re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1))


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
        (("b_true = 2.8 -0.3 ; -0.3 2.2", "b_true = 2.8 -0.3 0 ; -0.3 2.2 0 ; 0 0 1"),
         "[duality] b_true must be 2 x 2"),
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
    ])
    def test_bad_config_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                capsys, edit, named):
        monkeypatch.chdir(tmp_path)          # where a default out_dir would go
        cfg = tmp_path / "c.ini"
        cfg.write_text(DEMO_CONFIG.format(out=tmp_path / "o").replace(*edit))
        assert main(["run", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.ini"]

    def test_stage_inputs_from_explicit_paths(self, demo_config, tmp_path):
        # [<stage>] input names the file a stage reads in place of an
        # earlier stage's artifact; the results are those of the full run.
        cfg_path, out = demo_config
        full = run_pipeline(cfg_path)["artifacts"]
        part = tmp_path / "part.ini"
        part.write_text(
            DEMO_CONFIG.format(out=tmp_path / "part")
            .replace("stages = simulate identify proxies bounds estimate duality",
                     "stages = identify bounds")
            .replace("[identify]\n", f"[identify]\ninput = {full['dataset']}\n")
            .replace("[bounds]\n", f"[bounds]\ninput = {full['profit_table']}\n"
                                   f"proxy_model = {full['proxy_model']}\n"))
        manifest = run_pipeline(str(part))
        assert list(manifest["artifacts"]) == ["profit_table", "bounds_report"]
        for name, path in manifest["artifacts"].items():
            assert pathlib.Path(path).read_bytes() == pathlib.Path(full[name]).read_bytes()

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

    def test_report_command(self, demo_config, capsys):
        cfg_path, out = demo_config
        manifest = run_pipeline(cfg_path)
        rc = main(["report", manifest["artifacts"]["profit_table"],
                   manifest["artifacts"]["bounds_report"],
                   manifest["artifacts"]["duality_report"]])
        assert rc == 0
        text = capsys.readouterr().out
        assert "profit table" in text
        assert "bounds" in text
        assert "verdict" in text

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
grid_angles = 0.6 0.9
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

    def test_pairs_csv_without_value_column_is_reported(self, tmp_path, capsys):
        path = tmp_path / "rays.csv"
        path.write_text("ray_1,ray_2\n1.0,0.5\n0.5,1.0\n")
        q = tmp_path / "q.ini"
        q.write_text("[bounds]\nquestion = profit\np_c = 1.0 1.0\n")
        assert main(["bounds", "--profits", str(path), "--question", str(q),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert "not a profit-pairs CSV" in capsys.readouterr().err

    def test_header_only_pairs_csv_is_reported(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("ray_1,ray_2,value\n")
        assert main(["estimate", "--profits", str(path),
                     "--out", str(tmp_path / "f.json")]) == 2
        assert "empty.csv' has no data rows" in capsys.readouterr().err

    def test_empty_pbar_csv_is_reported(self, tmp_path, capsys):
        csv_path, _ = self._write_pairs_csv(tmp_path)
        fit = str(tmp_path / "f.json")
        assert main(["estimate", "--profits", csv_path, "--out", fit]) == 0
        truth = tmp_path / "t.ini"
        truth.write_text("[duality]\nb_true = 1.2 -0.3 ; -0.3 0.9\n")
        pbar = tmp_path / "pbar.csv"
        pbar.write_text("")
        assert main(["duality", "--truth", str(truth), "--fit", fit, "--pbar", str(pbar),
                     "--out", str(tmp_path / "d.json")]) == 2
        assert "pbar.csv' has no data rows" in capsys.readouterr().err
