import numpy as np
import pytest

from prodenv.errors import IntegrationError, RankConditionError
from prodenv.proxies import (ProxyGoodModel, ProxyModel, euler_system_residual,
                             integrate_g, quantile_anchors, rank_matrix,
                             recover_g_housing, recover_proxy_model, solve_t)
from prodenv.simulate import DiewertTech

B3 = np.array([[1.0, -0.2, -0.3],
               [-0.2, 0.9, -0.15],
               [-0.3, -0.15, 1.1]])
ANCHORS3 = np.array([0.9, 1.5, 2.2])


def g_true(x):
    x = np.asarray(x, dtype=float)
    return np.array([x[0] ** 2 + 1.0, np.exp(x[1]), x[2]])


def pi_tilde_exact(x):
    return DiewertTech(B3).profit(g_true(x))[0]


def cobb_douglas_pi(p, alpha=0.3, beta=0.4):
    expo = alpha + beta - 1.0
    return ((1 - alpha - beta) * (p[1] / alpha) ** (alpha / expo)
            * (p[2] / beta) ** (beta / expo) * p[0] ** (-1.0 / expo))


class TestRankMatrix:
    def test_diewert_nonsingular(self):
        diag = rank_matrix(pi_tilde_exact, np.array([1.1, 0.7]), ANCHORS3)
        assert diag.nonsingular
        assert diag.cond < 1e8

    def test_cobb_douglas_singular_everywhere(self):
        # One observed price cannot move the supply ratios of the other goods.
        def pi_cd(x):
            return cobb_douglas_pi(np.array([x[2], x[0] ** 2 + 1, np.exp(x[1])]))

        for anchors in ([0.9, 1.4], [0.7, 1.9], [1.0, 2.0, 3.0]):
            diag = rank_matrix(pi_cd, np.array([1.1, 0.8]), np.array(anchors))
            assert not diag.nonsingular
            assert diag.cond > 1e8

    def test_two_goods_scalar_condition(self):
        def pi2(x):
            return DiewertTech(np.array([[1.0, -0.2], [-0.2, 0.8]])).profit(
                np.array([x[0] ** 2 + 1.0, x[1]]))[0]

        diag = rank_matrix(pi2, np.array([1.0]), np.array([1.3]))
        assert diag.matrix.shape == (1, 1)
        assert diag.nonsingular

    def test_anchor_outside_domain(self):
        def fragile(x):
            if x[2] > 3.0:
                return float("nan")
            return pi_tilde_exact(x)

        with pytest.raises(ValueError):
            rank_matrix(fragile, np.array([1.1, 0.7]), np.array([0.9, 1.5, 5.0]))


class TestSolveT:
    def test_identity_good_gives_x(self):
        def pia(x):
            return DiewertTech(B3).profit(np.array([x[0], np.exp(x[1]), x[2]]))[0]

        t = solve_t(pia, np.array([1.3, 0.7, 1.4]), ANCHORS3)
        assert t[0] == pytest.approx(1.3, rel=1e-4)

    def test_exponential_good_gives_one(self):
        def pia(x):
            return DiewertTech(B3).profit(np.array([x[0], np.exp(x[1]), x[2]]))[0]

        t = solve_t(pia, np.array([1.3, 0.7, 1.4]), ANCHORS3)
        assert t[1] == pytest.approx(1.0, rel=1e-4)

    def test_quadratic_good_closed_form(self):
        t = solve_t(pi_tilde_exact, np.array([1.2, 0.7, 1.4]), ANCHORS3)
        assert t[0] == pytest.approx((1.2 ** 2 + 1) / (2 * 1.2), rel=1e-3)

    def test_scale_invariance_of_t(self):
        # t = g/g' is unchanged when g is rescaled by a constant.
        def pi_scaled(x):
            p = g_true(x)
            return DiewertTech(B3).profit(np.array([3.0 * p[0], p[1], p[2]]))[0]

        t1 = solve_t(pi_tilde_exact, np.array([1.2, 0.7, 1.4]), ANCHORS3)
        t2 = solve_t(pi_scaled, np.array([1.2, 0.7, 1.4]), ANCHORS3)
        assert t2[0] == pytest.approx(t1[0], rel=1e-3)

    def test_singular_system_raises(self):
        def pi_cd(x):
            return cobb_douglas_pi(np.array([x[2], x[0] ** 2 + 1, np.exp(x[1])]))

        with pytest.raises(RankConditionError):
            solve_t(pi_cd, np.array([1.1, 0.8, 1.5]), np.array([0.9, 1.4]))


class TestIntegrateG:
    def test_constant_t_gives_exponential(self):
        grid = np.arange(-1.0, 1.0001, 1e-3)
        model = integrate_g([np.ones_like(grid)], [grid], (np.array([0.0]),
                                                           np.array([1.0])))
        truth = np.exp(grid)
        rel = np.abs(model.goods[0].g_values - truth) / truth
        assert rel.max() <= 1e-4

    def test_linear_t_gives_identity(self):
        grid = np.arange(0.5, 2.0001, 1e-3)
        model = integrate_g([grid.copy()], [grid], (np.array([1.0]),
                                                    np.array([1.0])))
        assert np.allclose(model.goods[0].g_values, grid, rtol=1e-6)

    def test_anchor_exactness(self):
        grid = np.arange(0.5, 2.0001, 0.01)
        model = integrate_g([grid ** 2], [grid], (np.array([1.0]),
                                                  np.array([2.5])))
        assert float(model.goods[0].g(1.0)) == pytest.approx(2.5, abs=1e-12)

    def test_sign_change_rejected(self):
        grid = np.linspace(-1, 1, 101)
        with pytest.raises(IntegrationError):
            integrate_g([grid.copy()], [grid], (np.array([0.5]), np.array([1.0])))

    def test_blowup_points_bridged(self):
        grid = np.arange(0.5, 2.0001, 0.01)
        t = grid.copy()
        t[70] = 1e13          # vanishing-derivative point gets interpolated across
        model = integrate_g([t], [grid], (np.array([1.0]), np.array([1.0])))
        assert model.gaps[0]
        assert np.allclose(model.goods[0].g_values, grid, rtol=1e-3)

    def test_gaps_survive_save_and_load(self, tmp_path):
        grid = np.arange(0.5, 2.0001, 0.01)
        t = grid.copy()
        t[70:73] = 1e13
        t[100] = 1e13
        model = integrate_g([t], [grid], (np.array([1.0]), np.array([1.0])))
        path = str(tmp_path / "proxy.json")
        model.save(path)
        loaded = ProxyModel.load(path)
        assert len(model.gaps[0]) == 2
        assert loaded.gaps == model.gaps

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch):
        # A document JSON cannot encode fails mid-write; the target path
        # stays absent instead of holding a truncated artifact.
        grid = np.arange(0.5, 2.0001, 0.01)
        model = integrate_g([grid.copy()], [grid], (np.array([1.0]), np.array([1.0])))
        doc = dict(model.to_json_dict(), gaps=[object()])
        monkeypatch.setattr(ProxyModel, "to_json_dict", lambda self: doc)
        path = tmp_path / "proxy.json"
        with pytest.raises(TypeError):
            model.save(str(path))
        assert not path.exists()

    def test_observed_good_passthrough(self):
        grid = np.linspace(0.5, 2.0, 51)
        model = integrate_g([np.array([])], [grid], (np.array([1.0]),
                                                     np.array([1.0])),
                            observed_flags=[True])
        assert model.goods[0].observed
        assert np.allclose(model.goods[0].g_values, grid)


class TestRecoverProxyModel:
    def test_exact_evaluator_round_trip(self):
        grids = [np.arange(0.5, 2.0001, 0.01), np.arange(0.2, 1.5001, 0.01),
                 np.arange(0.8, 2.5001, 0.01)]
        x0 = np.array([1.0, 1.0, 1.0])
        model = recover_proxy_model(pi_tilde_exact, grids,
                                    x_ref=np.array([1.1, 0.7, 1.4]),
                                    anchors=ANCHORS3, anchor=(x0, g_true(x0)))
        for j in (0, 1):
            g = model.goods[j]
            truth = g.grid ** 2 + 1 if j == 0 else np.exp(g.grid)
            rel = np.abs(g.g_values - truth) / truth
            assert rel.max() <= 1e-3
        assert model.goods[2].observed
        assert all(d.nonsingular for d in model.diagnostics)

    def test_diagnostics_survive_save_and_load(self, tmp_path):
        grids = [np.arange(0.5, 2.0001, 0.05), np.arange(0.2, 1.5001, 0.05),
                 np.arange(0.8, 2.5001, 0.05)]
        x0 = np.array([1.0, 1.0, 1.0])
        model = recover_proxy_model(pi_tilde_exact, grids,
                                    x_ref=np.array([1.1, 0.7, 1.4]),
                                    anchors=ANCHORS3, anchor=(x0, g_true(x0)))
        path = str(tmp_path / "proxy.json")
        model.save(path)
        loaded = ProxyModel.load(path)
        assert len(model.diagnostics) == 2
        assert loaded.to_json_dict() == model.to_json_dict()
        assert all(d.matrix is None for d in loaded.diagnostics)

    def test_euler_residual_consistent_pair(self):
        grids = [np.arange(0.5, 2.0001, 0.01), np.arange(0.2, 1.5001, 0.01),
                 np.arange(0.8, 2.5001, 0.01)]
        x0 = np.array([1.0, 1.0, 1.0])
        model = recover_proxy_model(pi_tilde_exact, grids,
                                    x_ref=np.array([1.1, 0.7, 1.4]),
                                    anchors=ANCHORS3, anchor=(x0, g_true(x0)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = np.array([rng.uniform(0.7, 1.8), rng.uniform(0.4, 1.3),
                          rng.uniform(1.0, 2.3)])
            res = euler_system_residual(pi_tilde_exact, model, x)
            assert abs(res) <= 1e-3 * abs(pi_tilde_exact(x))

    def test_wrong_map_leaves_residual(self):
        grids = [np.arange(0.5, 2.0001, 0.01), np.arange(0.2, 1.5001, 0.01),
                 np.arange(0.8, 2.5001, 0.01)]
        goods = (ProxyGoodModel(grids[0], 2.0 * grids[0] ** 2 + 1.0, False),
                 ProxyGoodModel(grids[1], np.exp(grids[1]), False),
                 ProxyGoodModel(grids[2], grids[2].copy(), True))
        bad = ProxyModel(goods=goods,
                         anchor_x=np.array([1.0, 1.0, 1.0]),
                         anchor_p=np.array([3.0, np.e, 1.0]))
        rng = np.random.default_rng(4)
        big = 0
        for _ in range(20):
            x = np.array([rng.uniform(0.7, 1.8), rng.uniform(0.4, 1.3),
                          rng.uniform(1.0, 2.3)])
            res = euler_system_residual(pi_tilde_exact, bad, x)
            big += abs(res) > 1e-2 * abs(pi_tilde_exact(x))
        assert big >= 15

    def test_degree_zero_function(self):
        grid = np.arange(0.5, 1.5001, 0.01)
        goods = (ProxyGoodModel(grid, grid.copy(), True),)
        model = ProxyModel(goods=goods, anchor_x=np.array([1.0]),
                           anchor_p=np.array([1.0]))
        res = euler_system_residual(lambda x: 5.0, model, np.array([0.9]),
                                    alpha=0.0)
        assert res == pytest.approx(0.0, abs=1e-9)


class TestHousing:
    def test_linear_profile_closed_form(self):
        grid = np.linspace(0.5, 3.0, 2001)
        c, v0, p0 = 0.7, 1.0, 2.0
        good = recover_g_housing(grid, c * grid, (v0, p0))
        truth = p0 * (grid / v0) ** c
        assert np.max(np.abs(good.g_values - truth) / truth) <= 1e-4

    def test_constant_profile_constant_g(self):
        grid = np.linspace(0.5, 3.0, 501)
        good = recover_g_housing(grid, np.full_like(grid, 2.2), (1.0, 1.5))
        assert np.allclose(good.g_values, 1.5, rtol=1e-10)

    def test_positive_grid_required(self):
        grid = np.linspace(-0.5, 3.0, 101)
        with pytest.raises(ValueError):
            recover_g_housing(grid, grid.copy(), (1.0, 1.0))

    def test_synthetic_zero_profit_economy(self):
        # Per-type housing output A(e) m^gamma, materials price one, land
        # price set by zero average profits; the average housing value is the
        # proxy for the housing price.
        A = np.array([1.0, 1.4, 1.9])
        q = np.array([0.3, 0.4, 0.3])
        gamma = 0.5
        p_o = np.linspace(0.8, 2.4, 1201)

        m_star = (p_o[None, :] * A[:, None] * gamma) ** (1 / (1 - gamma))
        y_star = A[:, None] * m_star ** gamma
        v_bar = (q @ (p_o[None, :] * y_star))
        m_bar = q @ m_star
        p_l = p_o * (q @ y_star) - m_bar          # zero average profit

        order = np.argsort(v_bar)
        v_grid, pl_vals, po_truth = v_bar[order], p_l[order], p_o[order]
        k0 = v_grid.size // 2
        good = recover_g_housing(v_grid, pl_vals, (v_grid[k0], po_truth[k0]))
        rel = np.abs(good.g_values - po_truth) / po_truth
        assert rel.max() <= 0.01


class TestAnchors:
    def test_quantile_anchors_spread(self, rng):
        values = rng.uniform(1.0, 3.0, size=500)
        anchors = quantile_anchors(values, 4)
        assert anchors.size == 4
        assert np.all(np.diff(anchors) > 0)
        assert anchors[0] >= 1.0 and anchors[-1] <= 3.0


class TestFixedUnobservedPriceExtension:
    def test_partial_euler_residual_vanishes(self):
        # One price fixed across markets and unobserved, one observed price
        # that is not excluded, two proxied goods: the partial-sum identity
        # sum_{j in proxied} d pi~/d x_j * t_j = pi~ - (contribution of the
        # first two goods) holds with the contribution taken from the oracle.
        b4 = np.array([
            [1.0, -0.1, -0.2, -0.15],
            [-0.1, 0.9, -0.1, -0.2],
            [-0.2, -0.1, 1.1, -0.1],
            [-0.15, -0.2, -0.1, 0.8],
        ])
        tech = DiewertTech(b4)
        p1_fixed = 1.3

        def price_vec(x):
            # x = (p2 observed, x3, x4 proxies)
            return np.array([p1_fixed, x[0], x[1] ** 2 + 1.0, np.exp(x[2])])

        def pi_tilde(x):
            return tech.profit(price_vec(x))[0]

        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(10):
            x = np.array([rng.uniform(0.9, 1.8), rng.uniform(0.7, 1.6),
                          rng.uniform(0.3, 1.2)])
            p = price_vec(x)
            _, supply = tech.profit(p)
            contribution = p[0] * supply[0] + p[1] * supply[1]
            t3 = (x[1] ** 2 + 1.0) / (2.0 * x[1])
            t4 = 1.0
            total = 0.0
            for j, t_j in ((1, t3), (2, t4)):
                hi, lo = x.copy(), x.copy()
                step = h * x[j]
                hi[j] += step
                lo[j] -= step
                total += (pi_tilde(hi) - pi_tilde(lo)) / (2 * step) * t_j
            residual = total - (pi_tilde(x) - contribution)
            assert abs(residual) <= 1e-6 * abs(pi_tilde(x))


class TestNoisyRoundTrip:
    def test_dataset_to_price_map_within_one_percent(self):
        # Full chain: draw proxies on a lattice, generate noisy profits,
        # identify per-type profits, interpolate the top type's table,
        # solve for t and integrate: the recovered map must match the
        # simulator's truth within 1% on the interior 80% of the grid.
        from prodenv.identify import (BucketingConfig, IdentifyConfig,
                                      identify_profits)
        from prodenv.simulate import MarketConfig, ProxyGood, TechnologySpec, \
            generate_dataset
        from scipy.interpolate import RegularGridInterpolator

        b1 = np.array([[1.1, -0.25], [-0.25, 0.9]])
        tech = TechnologySpec.diewert_family([b1, b1 + np.diag([0.8, 0.7])])
        goods = (ProxyGood("square_plus", (1.0,), (0.6, 1.8), lattice=25),
                 ProxyGood("identity", (), (0.8, 2.4), lattice=33))
        cfg = MarketConfig(num_markets=700_000, dimension=2, proxy_goods=goods,
                           entry_rule=("all",), noise=(0.05, "uniform"), seed=3)
        data = generate_dataset(tech, cfg)
        table = identify_profits(data, IdentifyConfig(
            bucketing=BucketingConfig(mode="unique"), max_types=2))

        grids = [np.linspace(*g.x_range, g.lattice) for g in goods]
        vals = np.full((25, 33), np.nan)
        for c in table.cells:
            i = int(round((c.x_center[0] - 0.6) / (1.2 / 24)))
            k = int(round((c.x_center[1] - 0.8) / (1.6 / 32)))
            vals[i, k] = c.values[2]
        assert not np.isnan(vals).any()
        interp = RegularGridInterpolator(grids, vals, bounds_error=False,
                                         fill_value=None)
        pi2 = lambda x: float(interp(np.asarray(x, float)[None, :])[0])

        sub = [grids[0][1:-1], grids[1][1:-1]]
        anchors = grids[1][[4, 10, 16, 22, 28]]
        model = recover_proxy_model(pi2, sub, x_ref=np.array([1.0, 1.3]),
                                    anchors=anchors,
                                    anchor=(np.array([1.0, 1.2]),
                                            np.array([2.0, 1.2])))
        g = model.goods[0]
        truth = g.grid ** 2 + 1.0
        n = g.grid.size
        lo, hi = int(0.1 * n), int(np.ceil(0.9 * n))
        rel = np.abs(g.g_values - truth) / truth
        assert rel[lo:hi].max() <= 0.01


class TestDecreasingProxyMap:
    def test_inverse_demand_style_map_recovered(self):
        # Aggregate quantities fall in the price, so the proxy map is
        # decreasing; t = g/g' is then uniformly negative and integration
        # still recovers the map (here g(x) = 2/x, an isoelastic inverse
        # demand).
        b = np.array([[1.1, -0.25], [-0.25, 0.9]])
        tech = DiewertTech(b)

        def pi_tilde(x):
            return tech.profit(np.array([2.0 / x[0], x[1]]))[0]

        grid = np.arange(0.5, 2.0001, 0.005)
        anchors = np.array([0.9, 1.4, 1.9])
        model = recover_proxy_model(pi_tilde, [grid, np.arange(0.8, 2.4001, 0.01)],
                                    x_ref=np.array([1.0, 1.3]), anchors=anchors,
                                    anchor=(np.array([1.0, 1.0]),
                                            np.array([2.0, 1.0])))
        g = model.goods[0]
        truth = 2.0 / g.grid
        rel = np.abs(g.g_values - truth) / truth
        assert rel.max() <= 1e-3
