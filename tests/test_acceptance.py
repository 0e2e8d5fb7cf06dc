"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from prodenv.bounds import ProfitData, profit_bounds
from prodenv.estimation import (diewert_supply, diewert_value, duality_check,
                                fit_diewert, infinite_hausdorff_demo,
                                plugin_set)
from prodenv.geometry import RestrictedPriceSet, support_value
from prodenv.identify import BucketingConfig, IdentifyConfig, identify_profits
from prodenv.proxies import rank_matrix, recover_g_housing, recover_proxy_model
from prodenv.simulate import (DiewertTech, MarketConfig, ProxyGood,
                              TechnologySpec, generate_dataset, profit_oracle)

from oracles import brute_force_bounds


def _report(criterion: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s over budget"


class TestCriterion1GoldenNumbers:
    def test_kinked_triple_optima(self):
        t0 = time.perf_counter()
        tech = TechnologySpec.nonmonotone_supply_triple()
        p = np.array([0.12, 1.0])
        closed = {
            1: (0.048 ** (5 / 3), 0.048 ** (2 / 3)),
            2: (0.096 ** (5 / 3), 2 * 0.096 ** (2 / 3)),
            3: (0.024 ** (5 / 4), 0.024 ** (1 / 4)),
        }
        brackets = {
            1: ((0.006, 0.007), (0.1, 0.2)),
            2: ((0.02, 0.03), (0.41, 0.5)),
            3: ((0.009, 0.01), (0.39, 0.40)),
        }
        ls, ys, ok = {}, {}, True
        for e in (1, 2, 3):
            _, opt = profit_oracle(tech, e, p)
            ls[e], ys[e] = -opt[1], opt[0]
            l_c, y_c = closed[e]
            (l_lo, l_hi), (y_lo, y_hi) = brackets[e]
            ok &= abs(ls[e] - l_c) <= 1e-8 and abs(ys[e] - y_c) <= 1e-8
            ok &= l_lo < ls[e] < l_hi and y_lo < ys[e] < y_hi
        ok &= ls[1] < ls[3] < ls[2] and ys[1] < ys[3] < ys[2]
        _report("criterion 1 (golden optima)", ok,
                "six optimizer values in brackets, orderings hold",
                time.perf_counter() - t0, 1.0)


class TestCriterion2ProfitRecovery:
    def test_three_type_recovery_under_selection(self):
        t0 = time.perf_counter()
        b1 = np.array([[0.75, -0.85], [-0.85, 0.65]])
        tech = TechnologySpec.diewert_family(
            [b1, b1 + np.diag([1.0, 0.8]), b1 + np.diag([2.2, 1.7])])
        # Ten rays chosen away from the low type's profit sign changes.
        thetas = np.array([0.1212, 0.4023, 0.5147, 0.6271, 0.7395,
                           0.8512, 0.9636, 1.0760, 1.1884, 1.4495])
        rays = [np.array([np.cos(a), np.sin(a)]) for a in thetas]
        truth = np.array([[profit_oracle(tech, e, r)[0] for e in (1, 2, 3)]
                          for r in rays])
        assert np.min(np.diff(truth, axis=1)) >= 0.5        # design requirement
        cfg = MarketConfig(num_markets=500_000, dimension=2,
                           price_law=("grid", rays),
                           entry_rule=("nonneg_profit",),
                           noise=(0.1, "uniform"), seed=20_240_501)
        data = generate_dataset(tech, cfg)
        table = identify_profits(
            data, IdentifyConfig(bucketing=BucketingConfig(mode="unique")))

        ok = table.d_e == 3
        worst = 0.0
        flags_ok = True
        assignment_ok = True
        n_flagged = 0
        for cell in table.cells:
            p = cell.x_center
            present = [e for e in (1, 2, 3) if profit_oracle(tech, e, p)[0] >= 0]
            assignment_ok &= set(cell.values) == set(present)
            flags_ok &= cell.unidentified_below == 3 - len(present)
            n_flagged += cell.unidentified_below > 0
            for e, v in cell.values.items():
                t = profit_oracle(tech, e, p)[0]
                worst = max(worst, abs(v - t) / abs(t))
        ok &= assignment_ok and flags_ok and worst <= 0.01 and n_flagged >= 1
        ok &= len(table.cells) == 10
        _report("criterion 2 (profit recovery)", ok,
                f"worst rel err {worst:.4f}, assignment exact, "
                f"{n_flagged} cells flag an absent low type",
                time.perf_counter() - t0, 60.0)


class TestCriterion3ProxyRecovery:
    def test_diewert_proxies_and_cobb_douglas_rank(self):
        t0 = time.perf_counter()
        b1 = np.array([[1.0, -0.2, -0.3], [-0.2, 0.9, -0.15], [-0.3, -0.15, 1.1]])
        tech = TechnologySpec.diewert_family(
            [b1, b1 + np.diag([0.6, 0.5, 0.4]), b1 + np.diag([0.7, 0.5, 0.6])])
        goods = (ProxyGood("square_plus", (1.0,), (0.5, 2.0), lattice=31),
                 ProxyGood("exp", (), (0.2, 1.5), lattice=27),
                 ProxyGood("identity", (), (0.8, 2.5), lattice=35))
        cfg = MarketConfig(num_markets=600_000, dimension=3, proxy_goods=goods,
                           entry_rule=("all",), noise=(0.0, "uniform"), seed=11)
        data = generate_dataset(tech, cfg)

        # Aggregate path: the lattice-cell mean of measured profits is a
        # degree-1 homogeneous function of the underlying prices because the
        # type mix is price-independent here.
        grids = [np.linspace(*g.x_range, g.lattice) for g in goods]
        steps = [(g.x_range[1] - g.x_range[0]) / (g.lattice - 1) for g in goods]
        idx = np.column_stack([
            np.round((data.x[:, j] - goods[j].x_range[0]) / steps[j]).astype(int)
            for j in range(3)])
        shape = tuple(g.lattice for g in goods)
        flat = np.ravel_multi_index(idx.T, shape)
        sums = np.bincount(flat, weights=data.noisy_profit,
                           minlength=int(np.prod(shape)))
        cnts = np.bincount(flat, minlength=int(np.prod(shape)))
        mean_profit = (sums / np.maximum(cnts, 1)).reshape(shape)
        interp = RegularGridInterpolator(grids, mean_profit, bounds_error=False,
                                         fill_value=None)
        pi_bar = lambda x: float(interp(np.asarray(x, float)[None, :])[0])

        sub = [g[1:-1] for g in grids]
        x0 = np.array([1.0, 1.0, 1.4])
        p0 = np.array([2.0, np.exp(1.0), 1.4])
        anchors = grids[2][[4, 12, 20, 28]]
        model = recover_proxy_model(pi_bar, sub, x_ref=np.array([1.1, 0.8, 1.5]),
                                    anchors=anchors, anchor=(x0, p0))
        errs = []
        for j, g_fn in ((0, lambda x: x ** 2 + 1.0), (1, np.exp)):
            good = model.goods[j]
            n = good.grid.size
            lo, hi = int(0.1 * n), int(np.ceil(0.9 * n))
            rel = np.abs(good.g_values - g_fn(good.grid)) / g_fn(good.grid)
            errs.append(float(rel[lo:hi].max()))
        ok = max(errs) <= 0.01

        # Cobb-Douglas: the rank condition fails at every anchor set.
        alpha, beta = 0.3, 0.4
        expo = alpha + beta - 1.0

        def pi_cd(x):
            p = np.array([x[2], x[0] ** 2 + 1.0, np.exp(x[1])])
            return ((1 - alpha - beta) * (p[1] / alpha) ** (alpha / expo)
                    * (p[2] / beta) ** (beta / expo) * p[0] ** (-1.0 / expo))

        singular = True
        rng = np.random.default_rng(5)
        for _ in range(8):
            anchors_cd = np.sort(rng.uniform(0.8, 2.4, size=2))
            x_minus = rng.uniform([0.7, 0.4], [1.6, 1.2])
            diag = rank_matrix(pi_cd, x_minus, anchors_cd)
            singular &= (not diag.nonsingular) and diag.cond > 1e8
        ok &= singular
        _report("criterion 3 (proxy recovery)", ok,
                f"sup rel errors {errs[0]:.4f}/{errs[1]:.4f} on interior 80%, "
                "Cobb-Douglas singular at 8/8 anchor sets",
                time.perf_counter() - t0, 30.0)


class TestCriterion4Housing:
    def test_zero_profit_housing_recovery(self):
        t0 = time.perf_counter()
        # Closed-form case: a linear land-price profile in the average value.
        grid = np.linspace(0.5, 3.0, 2001)
        c, v0, p0 = 0.7, 1.0, 2.0
        good = recover_g_housing(grid, c * grid, (v0, p0))
        truth = p0 * (grid / v0) ** c
        err_closed = float(np.max(np.abs(good.g_values - truth) / truth))

        # Synthetic heterogeneous economy with zero average profits.
        A = np.array([1.0, 1.4, 1.9])
        q = np.array([0.3, 0.4, 0.3])
        gamma = 0.5
        p_o = np.linspace(0.8, 2.4, 1201)
        m_star = (p_o[None, :] * A[:, None] * gamma) ** (1 / (1 - gamma))
        y_star = A[:, None] * m_star ** gamma
        v_bar = q @ (p_o[None, :] * y_star)
        p_l = p_o * (q @ y_star) - q @ m_star
        order = np.argsort(v_bar)
        v_grid, pl_vals, po_truth = v_bar[order], p_l[order], p_o[order]
        k0 = v_grid.size // 2
        rec = recover_g_housing(v_grid, pl_vals, (v_grid[k0], po_truth[k0]))
        err_dgp = float(np.max(np.abs(rec.g_values - po_truth) / po_truth))

        ok = err_closed <= 1e-4 and err_dgp <= 0.01
        _report("criterion 4 (housing proxy)", ok,
                f"closed-form err {err_closed:.2e}, synthetic DGP err {err_dgp:.4f}",
                time.perf_counter() - t0, 5.0)


class TestCriterion5Bounds:
    def test_hundred_random_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        resolution = 50
        covered = matched = 0
        n_inst = 100
        for i in range(n_inst):
            k = [2, 3, 4][i % 3]
            b = -rng.uniform(0.05, 0.45, size=(2, 2))
            b = (b + b.T) / 2
            b[np.diag_indices(2)] = rng.uniform(0.8, 1.6, size=2)
            tech = DiewertTech(b)
            angles = np.sort(rng.uniform(0.2, 1.37, size=k))
            while np.any(np.diff(angles) < 0.06):
                angles = np.sort(rng.uniform(0.2, 1.37, size=k))
            rays = np.column_stack([np.cos(angles), np.sin(angles)])
            vals = np.array([tech.profit(r)[0] for r in rays])
            data = ProfitData(1, rays, vals)
            theta = rng.uniform(angles[0] + 0.02, angles[-1] - 0.02)
            pc = np.array([np.cos(theta), np.sin(theta)])

            res = profit_bounds(data, pc)
            covered += res.contains(tech.profit(pc)[0])
            bf = brute_force_bounds(data, pc, resolution=resolution)
            tol = 2.0 / resolution
            same_lower = ((np.isneginf(res.lower) and np.isneginf(bf.lower))
                          or abs(res.lower - bf.lower) <= tol)
            same_upper = ((np.isposinf(res.upper) and np.isposinf(bf.upper))
                          or abs(res.upper - bf.upper) <= tol)
            matched += same_lower and same_upper

        # Collapse at an observed ray.
        b = np.array([[1.2, -0.3], [-0.3, 0.9]])
        tech = DiewertTech(b)
        angles = np.array([0.35, 0.8, 1.25])
        rays = np.column_stack([np.cos(angles), np.sin(angles)])
        vals = np.array([tech.profit(r)[0] for r in rays])
        data = ProfitData(1, rays, vals)
        res = profit_bounds(data, rays[1])
        collapse = (abs(res.lower - vals[1]) <= 1e-9
                    and abs(res.upper - vals[1]) <= 1e-9)

        # Single halfspace: doubly unbounded with certificates.
        single = ProfitData(1, np.array([[1, 1]]) / np.sqrt(2), np.array([0.0]))
        res1 = profit_bounds(single, np.array([1, 2]) / np.sqrt(5))
        unbounded = (np.isneginf(res1.lower) and np.isposinf(res1.upper)
                     and res1.upper_certificate is not None
                     and "ray" in res1.upper_certificate
                     and res1.lower_certificate is not None
                     and "ray" in res1.lower_certificate)

        ok = covered == n_inst and matched == n_inst and collapse and unbounded
        _report("criterion 5 (bound coverage/sharpness)", ok,
                f"coverage {covered}/100, oracle match {matched}/100, "
                "collapse at observed ray, single-halfspace doubly unbounded",
                time.perf_counter() - t0, 120.0)


class TestCriterion6DualityEquality:
    @staticmethod
    def _ray_grid(rng, d, n):
        if d == 2:
            angles = np.linspace(0.2, 1.37, n)
            return np.column_stack([np.cos(angles), np.sin(angles)])
        rays = rng.uniform(0.25, 1.0, size=(n, 3))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        return np.unique(np.round(rays, 12), axis=0)

    @staticmethod
    def _random_convex_pair(rng, d):
        b = -rng.uniform(0.05, 0.35, size=(d, d))
        b = (b + b.T) / 2
        b[np.diag_indices(d)] = rng.uniform(0.9, 1.8, size=d)
        pts = rng.normal(size=(4, d))

        def pi(p):
            return float(diewert_value(b, np.asarray(p)[None, :])[0])

        eps = rng.uniform(0.002, 0.03)
        delta = rng.uniform(0.0, 0.05)

        def pi_hat(p):
            return (1 + eps) * pi(p) + delta * float(np.max(pts @ np.asarray(p)))

        return pi, pi_hat

    def test_equality_and_nonconvex_bound(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)

        equal_ok = oracle_ok = 0
        for i in range(50):
            d = 2 if i % 2 == 0 else 3
            rays = self._ray_grid(rng, d, 40 if d == 2 else 60)
            ps = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)
            pi, pi_hat = self._random_convex_pair(rng, d)
            rep = duality_check(pi, pi_hat, ps, convex_flag=True,
                                geometric_oracle=(d == 2), n_boundary=10_000)
            equal_ok += abs(rep.d_h - rep.eta) <= 1e-6
            if d == 2:
                oracle_ok += abs(rep.oracle_d_h - rep.eta) <= 2e-3

        bound_ok = 0
        for i in range(50):
            d = 2 if i % 2 == 0 else 3
            rays = self._ray_grid(rng, d, 40 if d == 2 else 60)
            ps = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)
            b = -rng.uniform(0.05, 0.3, size=(d, d))
            b = (b + b.T) / 2
            b[np.diag_indices(d)] = rng.uniform(1.0, 1.8, size=d)

            def pi(p):
                return float(diewert_value(b, np.asarray(p)[None, :])[0])

            r_val = min(pi(r) for r in rays)
            amp = 0.01 * r_val
            freq = rng.integers(5, 11)

            def pi_hat(p):
                p = np.asarray(p, float)
                u = p / np.linalg.norm(p)
                ripple = np.sin(freq * u[0] + 2.0 * u[-1])
                return pi(p) + amp * ripple * float(np.linalg.norm(p))

            rep = duality_check(pi, pi_hat, ps, convex_flag=False,
                                geometric_oracle=(d == 2), n_boundary=4000)
            bound_ok += (rep.verdict == "bound-holds"
                         and rep.eta < rep.small_r)

        ok = equal_ok == 50 and oracle_ok == 25 and bound_ok == 50
        _report("criterion 6 (distance duality)", ok,
                f"equality {equal_ok}/50, 2-d oracle agreement {oracle_ok}/25, "
                f"nonconvex bound {bound_ok}/50",
                time.perf_counter() - t0, 60.0)


class TestCriterion7Divergence:
    def test_unbounded_truncated_distance_finite_extended(self):
        t0 = time.perf_counter()
        rep = infinite_hausdorff_demo(m=10)
        table = rep["truncated_window_table"]
        growth_ok = all(late["directed_distance"] >= 10.0 * early["directed_distance"]
                        for early, late in zip(table, table[1:]))
        ext = rep["extended_duality"]
        ext_ok = (ext["verdict"] == "equality"
                  and abs(ext["d_h"] - ext["eta"]) <= 1e-6
                  and np.isfinite(ext["d_h"]))
        ok = growth_ok and ext_ok
        _report("criterion 7 (divergence demo)", ok,
                "directed distance grows >= 10x per decade; extended distance "
                f"= eta = {ext['eta']:.6f}",
                time.perf_counter() - t0, 60.0)


class TestCriterion8DiewertFit:
    def test_recovery_nesting_overidentification(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(13)
        b = -rng.uniform(0.05, 0.4, size=(3, 3))
        b = (b + b.T) / 2
        b[np.diag_indices(3)] = rng.uniform(0.8, 1.5, size=3)
        truth = np.stack([b, b + np.diag([0.5, 0.4, 0.6]),
                          b + np.diag([0.9, 0.7, 0.8])])
        rays = rng.uniform(0.1, 1.0, size=(12, 3))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)

        per_type = [(rays, diewert_value(bb, rays)) for bb in truth]
        fit = fit_diewert(per_type, d_y=3)
        coef_err = float(np.max(np.abs(fit.b_stack - truth)))
        exact_ok = coef_err <= 1e-8

        ps = RestrictedPriceSet(rays, convex_flag=True)
        envs = [plugin_set(fit.evaluator(e), ps) for e in (1, 2, 3)]
        nested_ok = True
        for ray in ps.rays:
            v = [support_value(env, ray).value for env in envs]
            nested_ok &= v[0] <= v[1] + 1e-9 <= v[2] + 2e-9

        half = 0.05
        noisy = [(rays, diewert_value(bb, rays)
                  + rng.uniform(-half, half, size=12)) for bb in truth]
        fit_n = fit_diewert(noisy, d_y=3)
        supply_ok = True
        for e, bb in enumerate(truth, start=1):
            for p in rays:
                y_fit = fit_n.supply(e, p)
                y_true = diewert_supply(bb, p)
                supply_ok &= bool(np.max(np.abs(y_fit - y_true)) <= 20 * half)

        ok = exact_ok and nested_ok and supply_ok
        _report("criterion 8 (generalized-Leontief fit)", ok,
                f"coefficient error {coef_err:.2e}, envelopes nested, "
                "supply overidentification within noise scale",
                time.perf_counter() - t0, 60.0)
