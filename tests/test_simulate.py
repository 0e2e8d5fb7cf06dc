import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from prodenv.errors import ValidationError
from prodenv.simulate import _CSV_BLOCK_ROWS as B
from prodenv.simulate import (Dataset, DiewertTech, KinkedTech, MarketConfig,
                              PowerTech, ProxyGood, TechnologySpec, generate_dataset,
                              nested_check, profit_oracle, profit_oracle_batch)

from conftest import nested_diewert, unit, unit_rays_2d

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

    def test_restricted_capacity_scaling(self):
        b = np.array([[1.0, -0.2], [-0.2, 0.9]])
        tech = TechnologySpec(types=(DiewertTech(b, restricted_scales=True),))
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


TECHNOLOGIES = {
    "power": lambda rng: TechnologySpec(types=(
        PowerTech(1.0, 0.4), PowerTech(2.0, 0.4), PowerTech(3.5, 0.45))),
    "triple": lambda rng: TechnologySpec.nonmonotone_supply_triple(),
    "diewert": lambda rng: nested_diewert(rng, d=3),
    "diewert-restricted": lambda rng: TechnologySpec.diewert_family(
        [t.b for t in nested_diewert(rng, d=3).types], restricted_scales=True),
}


class TestOneProfitFormula:
    @pytest.mark.parametrize("name", list(TECHNOLOGIES))
    def test_oracle_is_a_row_of_the_batch(self, name):
        rng = np.random.default_rng(7)
        tech = TECHNOLOGIES[name](rng)
        n = 500
        P = rng.uniform(0.05, 2.0, size=(n, tech.dimension))
        R = rng.uniform(0.5, 2.0, size=(n, 1)) if name.endswith("restricted") else None
        batch = profit_oracle_batch(tech, P, R)
        unequal, off_euler = 0, 0
        for e in range(1, tech.num_types + 1):
            for i in range(n):
                value, netput = profit_oracle(tech, e, P[i], None if R is None else R[i])
                unequal += value != batch[i, e - 1]
                off_euler += abs(P[i] @ netput - value) > 1e-12 * abs(value)
        assert unequal == 0, f"{unequal} of {batch.size} oracle values differ from the batch"
        assert off_euler == 0, f"{off_euler} netputs do not price to their value"
        if name.startswith("diewert"):
            value, supply = tech.types[0].profit(P[0])
            assert np.isscalar(value) and supply.shape == (3,)
            assert value == tech.types[0].value(P[:1])[0]


class TestNestedCheck:
    def test_triple_is_nested(self, triple):
        probes = [unit(P_RATIO), unit([1, 1])]
        assert nested_check(triple, probes)

    def test_identical_types_fail_strictness(self):
        tech = TechnologySpec(types=(
            PowerTech(1.0, 0.4), PowerTech(1.0, 0.4)))
        assert not nested_check(tech, [unit([1, 2])])

    def test_diagonal_increment_nests(self, rng):
        tech = nested_diewert(rng)
        probes = [unit(rng.uniform(0.1, 1, 2)) for _ in range(8)]
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

    @pytest.mark.parametrize("law", [
        ("box", 0.5),
        ("grid", unit_rays_2d([0.4, 0.8]), [0.5, 0.5]),
        ("endowment",),
        ("lattice", 0.2, 1.0),
        (),
        "box",
    ])
    def test_malformed_price_law_names_the_field(self, law):
        # The config is refused where it is made, not deep in the draw.
        with pytest.raises(ValidationError, match=r"^price_law must be \('grid', rays\)"):
            self.make_cfg(price_law=law)

    def test_csv_round_trip(self, rng, tmp_path):
        tech = nested_diewert(rng)
        data = generate_dataset(tech, self.make_cfg(
            num_markets=50, restricted_quantity_law=("uniform", 0.5, 2.0)))
        assert data.y_restricted.shape[1] == 1
        path = tmp_path / "data.csv"
        data.to_csv(str(path), debug=True)
        back = Dataset.from_csv(str(path))
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

    @pytest.mark.parametrize("debug", [False, True])
    def test_lattice_text_matches_row_writer(self, debug):
        # Columns at most half distinct are formatted once per distinct bit
        # pattern: -0.0 and 0.0 must keep their own text.  x_2 sits at the
        # threshold (20 distinct of 40) and y_restricted_1 just over it (21).
        n, rng = 40, np.random.default_rng(7)
        special = [-0.0, 0.0, 5e-324, 1e16]
        x = np.column_stack([np.tile(special + [0.1], 8),
                             np.repeat(special + list(np.linspace(0.3, 2.0, 16)), 2)])
        over = special + list(np.linspace(0.5, 1.5, 17))
        y = np.column_stack([over + over[:n - 21], np.tile([-0.0, 0.0, 1e16, 0.75], 10)])
        perm = rng.permutation(n)
        data = Dataset(market_id=np.arange(n)[perm] // 2, y_restricted=y[perm], x=x[perm],
                       is_price=np.array([True, False]),
                       noisy_profit=rng.uniform(-1.0, 1.0, n), type_e=np.tile([1, 2], n // 2),
                       noise_width=0.0)
        assert [np.unique(c.view(np.int64)).size for c in (*x.T, y[:, 0])] == [5, 20, 21]
        buf = io.StringIO()
        data.to_csv(buf, debug=debug)
        assert buf.getvalue() == _reference_csv(data, debug)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_block_boundaries_are_invisible(self, tmp_path, n, k):
        # x_1 is a lattice with -0.0 and 0.0 in the first block (at most half
        # distinct there) and distinct values after it (over half).
        rng = np.random.default_rng(n + k)
        lattice = np.array([-0.0, 0.0, 5e-324, 1e16, 0.25, 0.5, 0.75, 1.0, 1.25])
        first = np.arange(n) < B
        x = np.column_stack([np.where(first, rng.choice(lattice, n), rng.uniform(0.5, 1.5, n)),
                             rng.uniform(0.5, 1.5, n)])
        data = Dataset(market_id=np.arange(n) // 3, y_restricted=rng.uniform(0.5, 2.0, (n, k)),
                       x=x, is_price=np.array([False, True]),
                       noisy_profit=rng.uniform(-1.0, 1.0, n), type_e=np.arange(n) % 3 + 1,
                       noise_width=0.0)
        if n > B:
            for block, at_most_half in ((x[:B, 0], True), (x[B:2 * B, 0], False)):
                assert (2 * np.unique(block.view(np.int64)).size <= block.size) == at_most_half
        for debug in (False, True):
            ref = _reference_csv(data, debug)
            assert ref.count("\r\n") == n + 1
            buf = io.StringIO()
            data.to_csv(buf, debug=debug)
            assert buf.getvalue() == ref
            path = tmp_path / f"data{debug}.csv"
            data.to_csv(path, debug=debug)
            assert path.read_bytes() == ref.encode()

    def test_memory_does_not_grow_with_rows(self):
        # The text is built a block of rows at a time, so writing 4n rows
        # peaks no higher than writing n (building all n rows' text first
        # gives a peak about 4 times higher).
        class Discard:
            def write(self, text):
                pass

        def peak(n):
            rng = np.random.default_rng(n)
            data = Dataset(market_id=np.arange(n) // 3, y_restricted=np.zeros((n, 0)),
                           x=rng.choice(np.linspace(0.6, 1.4, 9), (n, 2)),
                           is_price=np.array([False, True]),
                           noisy_profit=rng.uniform(-1.0, 1.0, n), type_e=np.ones(n, int),
                           noise_width=0.0)
            tracemalloc.start()
            try:
                data.to_csv(Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 24_000
        assert peak(4 * n) < 1.5 * peak(n)

    def test_path_like(self, data, tmp_path):
        path = tmp_path / "data.csv"
        data.to_csv(path, debug=True)
        assert path.read_bytes() == _reference_csv(data, True).encode()
        back = Dataset.from_csv(path)
        for name in ("x", "y_restricted", "noisy_profit", "type_e"):
            assert np.array_equal(getattr(back, name), getattr(data, name)), name

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

    def test_round_trip_keeps_every_bit(self, data):
        # A stage that reads the dataset file and one handed the simulated
        # arrays give the same bytes only if reading back is exact.
        special = np.array([-0.0, 0.0, 5e-324, 1e16, 1e16, 0.1, 0.1])
        data.noisy_profit[:special.size] = special
        data.x[:special.size, 0] = special[::-1]
        buf = io.StringIO()
        data.to_csv(buf)
        back = Dataset.from_csv(io.StringIO(buf.getvalue()))
        for name in ("x", "y_restricted", "noisy_profit"):
            a, b = getattr(data, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.signbit(back.noisy_profit[0]) and not np.signbit(back.noisy_profit[1])

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
