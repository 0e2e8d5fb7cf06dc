import csv
import io
import warnings

import numpy as np
import pytest

from prodenv.errors import ValidationError
from prodenv.geometry import PriceRay
from prodenv.simulate import (Dataset, DemandGood, DiewertTech,
                              HicksNeutralTech, KinkedTech, MarketConfig,
                              PowerTech, ProxyGood, TechnologySpec,
                              gen_demand_proxy, generate_dataset,
                              invert_demand, nested_check, profit_oracle,
                              profit_oracle_batch)

from conftest import nested_diewert, unit_rays_2d

P_RATIO = np.array([0.12, 1.0])


class TestProfitOracle:
    def test_power_type_one_golden(self, triple):
        value, opt = profit_oracle(triple, 1, P_RATIO)
        assert -opt[1] == pytest.approx(0.048 ** (5 / 3), abs=1e-12)
        assert opt[0] == pytest.approx(0.048 ** (2 / 3), abs=1e-12)
        assert value == pytest.approx(0.12 * 0.048 ** (2 / 3) - 0.048 ** (5 / 3))

    def test_kinked_type_three_golden(self, triple):
        value, opt = profit_oracle(triple, 3, P_RATIO)
        assert -opt[1] == pytest.approx(0.024 ** (5 / 4), abs=1e-12)
        assert opt[0] == pytest.approx(0.024 ** (1 / 4), abs=1e-12)

    def test_homogeneity_degree_one(self, triple):
        for e in (1, 2, 3):
            v1, o1 = profit_oracle(triple, e, P_RATIO)
            v2, o2 = profit_oracle(triple, e, 3.5 * P_RATIO)
            assert v2 == pytest.approx(3.5 * v1, rel=1e-10)
            assert np.allclose(o1, o2, atol=1e-10)

    def test_diewert_closed_form(self, rng):
        b = np.array([[1.2, -0.3], [-0.3, 0.8]])
        tech = TechnologySpec.diewert_family([b])
        p = rng.uniform(0.3, 2.0, size=2)
        value, supply = profit_oracle(tech, 1, p)
        sq = np.sqrt(p)
        assert value == pytest.approx(float(sq @ b @ sq))
        assert float(p @ supply) == pytest.approx(value)     # Euler identity

    def test_hicks_neutral_grid_refinement(self):
        grid = np.linspace(0.0, 4.0, 200)
        tech = TechnologySpec(kind="hicks", types=(
            HicksNeutralTech(scale=1.0, grid_l=grid, grid_f=np.sqrt(grid)),
            HicksNeutralTech(scale=2.0, grid_l=grid, grid_f=np.sqrt(grid)),
        ))
        p = np.array([1.0, 1.0])
        v1, o1 = profit_oracle(tech, 1, p)
        # Against the smooth closed form: l* = 1/4, value = 1/4.
        assert v1 == pytest.approx(0.25, abs=2e-3)
        v2, _ = profit_oracle(tech, 2, p)
        assert v2 > v1

    def test_restricted_capacity_scaling(self):
        b = np.array([[1.0, -0.2], [-0.2, 0.9]])
        tech = TechnologySpec(kind="diewert",
                              types=(DiewertTech(b, restricted_scales=True),))
        p = np.array([1.0, 0.7])
        v1, s1 = profit_oracle(tech, 1, p, y_restricted=[1.0])
        v3, s3 = profit_oracle(tech, 1, p, y_restricted=[3.0])
        assert v3 == pytest.approx(3 * v1)
        assert np.allclose(s3, 3 * s1)

    def test_bad_inputs(self, triple):
        with pytest.raises(ValueError):
            profit_oracle(triple, 0, P_RATIO)
        with pytest.raises(ValueError):
            profit_oracle(triple, 1, np.array([-1.0, 1.0]))

    def test_sign_pattern_enforced(self):
        with pytest.raises(ValidationError):
            DiewertTech(np.array([[1.0, 0.3], [0.3, 1.0]]))
        with pytest.raises(ValidationError):
            DiewertTech(np.array([[1.0, -0.3], [-0.2, 1.0]]))


class TestNestedCheck:
    def test_triple_is_nested(self, triple):
        probes = [PriceRay.from_direction(P_RATIO), PriceRay.from_direction([1, 1])]
        assert nested_check(triple, probes)

    def test_identical_types_fail_strictness(self):
        tech = TechnologySpec(kind="power", types=(
            PowerTech(1.0, 0.4), PowerTech(1.0, 0.4)))
        assert not nested_check(tech, [PriceRay.from_direction([1, 2])])

    def test_diagonal_increment_nests(self, rng):
        tech = nested_diewert(rng)
        probes = [PriceRay.from_direction(rng.uniform(0.1, 1, 2)) for _ in range(8)]
        assert nested_check(tech, probes)

    def test_needs_probes(self, triple):
        with pytest.raises(ValueError):
            nested_check(triple, [])

    @pytest.mark.parametrize("probe", [[0.0, 1.0], [-0.5, 1.0]])
    def test_nonpositive_probe_rejected(self, triple, rng, probe):
        for tech in (triple, nested_diewert(rng)):
            with pytest.raises(ValueError):
                nested_check(tech, [np.array(probe)])


class TestNonmonotoneOrdering:
    def test_optimizer_ordering_from_construction(self, triple):
        ls, ys = [], []
        for e in (1, 2, 3):
            _, opt = profit_oracle(triple, e, P_RATIO)
            ys.append(opt[0])
            ls.append(-opt[1])
        assert ls[0] < ls[2] < ls[1]
        assert ys[0] < ys[2] < ys[1]


class TestGenerateDataset:
    def make_cfg(self, **kw):
        defaults = dict(num_markets=400, dimension=2,
                        price_law=("grid", unit_rays_2d(np.linspace(0.3, 1.2, 5))),
                        noise=(0.05, "uniform"), seed=9)
        defaults.update(kw)
        return MarketConfig(**defaults)

    def test_determinism(self, rng):
        tech = nested_diewert(rng)
        cfg = self.make_cfg()
        d1 = generate_dataset(tech, cfg)
        d2 = generate_dataset(tech, cfg)
        assert np.array_equal(d1.noisy_profit, d2.noisy_profit)
        assert np.array_equal(d1.market_id, d2.market_id)
        buf1, buf2 = io.StringIO(), io.StringIO()
        d1.to_csv(buf1)
        d2.to_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_noise_support_bound(self, rng):
        tech = nested_diewert(rng)
        data = generate_dataset(tech, self.make_cfg(noise=(0.1, "uniform")))
        truth = profit_oracle_batch(tech, data.x)
        taken = truth[np.arange(len(data)), data.type_e - 1]
        assert np.max(np.abs(data.noisy_profit - taken)) <= 0.1 + 1e-12

    def test_truncated_normal_noise(self, rng):
        tech = nested_diewert(rng)
        data = generate_dataset(tech, self.make_cfg(noise=(0.2, "truncated-normal")))
        truth = profit_oracle_batch(tech, data.x)
        taken = truth[np.arange(len(data)), data.type_e - 1]
        eta = data.noisy_profit - taken
        assert np.max(np.abs(eta)) <= 0.2 + 1e-12
        assert abs(eta.mean()) < 0.02

    def test_nonneg_entry_is_upper_interval(self):
        b1 = np.array([[0.75, -0.85], [-0.85, 0.65]])
        tech = TechnologySpec.diewert_family(
            [b1, b1 + np.diag([1.0, 0.8]), b1 + np.diag([2.2, 1.7])])
        cfg = self.make_cfg(entry_rule=("nonneg_profit",),
                            price_law=("grid", unit_rays_2d(np.linspace(0.15, 1.4, 8))))
        data = generate_dataset(tech, cfg)
        for m in np.unique(data.market_id)[:50]:
            types = np.sort(data.type_e[data.market_id == m])
            assert np.array_equal(types, np.arange(types[0], 4))

    def test_threshold_entry_monotone_presence(self, rng):
        tech = nested_diewert(rng)
        cfg = self.make_cfg(entry_rule=("threshold_by_type", [0.5, 0.3, 0.2]))
        data = generate_dataset(tech, cfg)
        for m in np.unique(data.market_id)[:50]:
            types = np.sort(data.type_e[data.market_id == m])
            assert np.array_equal(types, np.arange(types[0], 4))

    def test_wapm_on_generated_optima(self, rng):
        # Profit-maximizing supplies never look dominated at another ray.
        tech = nested_diewert(rng)
        rays = unit_rays_2d(np.linspace(0.3, 1.2, 6))
        for e in (1, 2, 3):
            opts = [profit_oracle(tech, e, r)[1] for r in rays]
            for i, ri in enumerate(rays):
                for yj in opts:
                    assert float(ri @ opts[i]) >= float(ri @ yj) - 1e-9

    def test_empty_dataset_error(self, rng):
        b = np.array([[0.05, -0.9], [-0.9, 0.05]])     # profits < 0 everywhere probed
        tech = TechnologySpec.diewert_family([b])
        cfg = self.make_cfg(entry_rule=("nonneg_profit",),
                            price_law=("grid", unit_rays_2d([0.7, 0.8])))
        with pytest.raises(ValidationError):
            generate_dataset(tech, cfg)

    def test_proxy_columns_and_flags(self, rng):
        tech = nested_diewert(rng)
        goods = (ProxyGood("square_plus", (1.0,), (0.5, 1.5)),
                 ProxyGood("identity", (), (0.8, 2.0)))
        cfg = self.make_cfg(proxy_goods=goods, price_law=("box", 0.2, 1.0))
        data = generate_dataset(tech, cfg)
        assert list(data.is_price) == [False, True]
        truth = profit_oracle_batch(
            tech, np.column_stack([data.x[:, 0] ** 2 + 1, data.x[:, 1]]))
        taken = truth[np.arange(len(data)), data.type_e - 1]
        assert np.max(np.abs(data.noisy_profit - taken)) <= 0.05 + 1e-12

    def test_endowment_law_runs(self, rng):
        tech = nested_diewert(rng)
        data = generate_dataset(tech, self.make_cfg(price_law=("endowment", 0.4)))
        assert len(data) == 400 * 3

    def test_csv_round_trip(self, rng, tmp_path):
        tech = nested_diewert(rng)
        data = generate_dataset(tech, self.make_cfg(
            num_markets=50, restricted_quantity_law=("uniform", 0.5, 2.0)))
        assert data.y_restricted.shape[1] == 1
        path = tmp_path / "data.csv"
        data.to_csv(str(path), debug=True)
        back = Dataset.from_csv(str(path), noise_width=data.noise_width)
        for name in ("market_id", "y_restricted", "x", "is_price",
                     "noisy_profit", "type_e"):
            assert np.array_equal(getattr(back, name), getattr(data, name)), name

    def test_debug_column_round_trip(self, rng, tmp_path):
        tech = nested_diewert(rng)
        data = generate_dataset(tech, self.make_cfg(num_markets=30))
        path = tmp_path / "debug.csv"
        data.to_csv(str(path), debug=True)
        back = Dataset.from_csv(str(path))
        assert np.array_equal(back.type_e, data.type_e)


def _reference_csv(data: Dataset, debug: bool) -> str:
    """The dataset text contract, one row at a time: csv.writer lines
    (CRLF-ended) with floats written as repr."""
    k, d = data.y_restricted.shape[1], data.x.shape[1]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["market_id"] + [f"y_restricted_{j+1}" for j in range(k)]
               + [f"x_{j+1}" for j in range(d)]
               + [f"is_price_{j+1}" for j in range(d)] + ["noisy_profit"]
               + (["type_e"] if debug else []))
    for i in range(len(data)):
        w.writerow([int(data.market_id[i])]
                   + [repr(float(v)) for v in data.y_restricted[i]]
                   + [repr(float(v)) for v in data.x[i]]
                   + [int(v) for v in data.is_price]
                   + [repr(float(data.noisy_profit[i]))]
                   + ([int(data.type_e[i])] if debug else []))
    return buf.getvalue()


class TestDatasetCsv:
    @pytest.fixture
    def data(self, rng):
        goods = (ProxyGood("square_plus", (1.0,), (0.5, 1.5)),
                 ProxyGood("identity", (), (0.8, 2.0)))
        cfg = MarketConfig(num_markets=60, dimension=2, proxy_goods=goods,
                           price_law=("box", 0.2, 1.0), noise=(0.05, "uniform"),
                           restricted_quantity_law=("uniform", 0.5, 2.0), seed=4)
        return generate_dataset(nested_diewert(rng), cfg)

    @pytest.mark.parametrize("debug", [False, True])
    def test_text_matches_row_writer(self, data, tmp_path, debug):
        buf = io.StringIO()
        data.to_csv(buf, debug=debug)
        assert buf.getvalue() == _reference_csv(data, debug)
        path = tmp_path / "data.csv"
        data.to_csv(str(path), debug=debug)
        assert path.read_bytes() == _reference_csv(data, debug).encode()

    @pytest.mark.parametrize("text, message", [
        ("", "empty dataset file"),
        ("market_id,x_1,x_2,is_price_1,is_price_2,noisy_profit\r\n",
         "'dataset' has no data rows"),
        ("a,b\r\n1,2\r\n", "not a prodenv dataset CSV"),
        ("market_id,x_1,is_price_1,noisy_profit\r\n0,0.5,1\r\n",
         "rows have 3 fields, the header 4"),
    ])
    def test_bad_files_raise_without_warning(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                Dataset.from_csv(io.StringIO(text))

    def test_lf_and_quoted_input_load(self, data):
        buf = io.StringIO()
        data.to_csv(buf)
        lines = buf.getvalue().split("\r\n")[:-1]
        quoted = ['"' + line.replace(",", '","') + '"' for line in lines]
        for text in ("\n".join(lines) + "\n", "\n".join(quoted)):
            back = Dataset.from_csv(io.StringIO(text))
            assert np.array_equal(back.x, data.x)
            assert np.array_equal(back.y_restricted, data.y_restricted)
            assert np.array_equal(back.noisy_profit, data.noisy_profit)
            assert np.array_equal(back.is_price, data.is_price)


class TestDemandProxies:
    def make_cfg(self, demand):
        return MarketConfig(num_markets=10, dimension=len(demand),
                            demand_side=demand, seed=0)

    def test_direct_evaluation(self):
        cfg = self.make_cfg((DemandGood("isoelastic", (1.0, 1.0)),))
        assert gen_demand_proxy(cfg, [2.0])[0] == pytest.approx(0.5)

    def test_same_prices_same_quantities(self):
        cfg = self.make_cfg((DemandGood("isoelastic", (2.0, 1.5)),
                             DemandGood("linear", (10.0, 2.0))))
        p = np.array([1.3, 2.1])
        assert np.allclose(gen_demand_proxy(cfg, p), gen_demand_proxy(cfg, p))

    def test_round_trip_inversion(self):
        good = DemandGood("isoelastic", (1.5, 2.0))
        for p in (0.4, 1.0, 3.7):
            x = good.quantity(p)
            assert invert_demand(good, x) == pytest.approx(p, abs=1e-10)

    def test_nonmonotone_rejected(self):
        with pytest.raises(ValidationError):
            DemandGood("linear", (10.0, -1.0))

    def test_no_demand_configured(self):
        cfg = MarketConfig(num_markets=5, dimension=2, seed=0)
        with pytest.raises(ValidationError):
            gen_demand_proxy(cfg, [1.0, 1.0])


class TestKinkedFrontier:
    def test_continuity_at_kinks(self, triple):
        k = triple.types[2]
        assert isinstance(k, KinkedTech)
        for point in (k.l1, k.l2):
            below = k.frontier(point - 1e-12)
            above = k.frontier(point + 1e-12)
            assert above == pytest.approx(below, abs=1e-9)

    def test_dominates_power_types(self, triple):
        k = triple.types[2]
        f2 = triple.types[1]
        ls = np.geomspace(1e-4, 1.0, 200)
        assert np.all(k.frontier(ls) > f2.scale * ls ** f2.exponent)
