import re

import numpy as np
import pytest

from prodenv.errors import NumericFailure, ValidationError
from prodenv.estimation import (DiewertFit, diewert_supply, diewert_value,
                                duality_check, fit_diewert,
                                infinite_hausdorff_demo, plugin_set)
from prodenv.geometry import RestrictedPriceSet, support_value

from conftest import random_admissible_b, unit, unit_rays_2d
from oracles import euler_residual


def random_rays(rng, n, d):
    rays = rng.uniform(0.1, 1.0, size=(n, d))
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def nested_b_stack(rng, d=3, d_e=3):
    b = random_admissible_b(rng, d)
    mats = [b]
    for _ in range(d_e - 1):
        mats.append(mats[-1] + np.diag(rng.uniform(0.3, 0.8, size=d)))
    return np.stack(mats)


class TestFitDiewert:
    def test_noiseless_exact_recovery(self, rng):
        truth = nested_b_stack(rng)
        rays = random_rays(rng, 12, 3)
        per_type = [(rays, diewert_value(b, rays)) for b in truth]
        fit = fit_diewert(per_type, d_y=3)
        assert np.max(np.abs(fit.b_stack - truth)) <= 1e-8
        assert fit.residual == pytest.approx(0.0, abs=1e-7)

    def test_diagonal_only_truth(self, rng):
        b = np.diag([1.2, 0.7])
        rays = random_rays(rng, 8, 2)
        fit = fit_diewert([(rays, diewert_value(b, rays))], d_y=2,
                          monotone=False)
        assert np.allclose(np.diag(fit.b_stack[0]), [1.2, 0.7], atol=1e-8)
        assert abs(fit.b_stack[0][0, 1]) <= 1e-8

    def test_convexity_off_fits_a_positive_cross_term(self, rng):
        # Convexity bounds the off-diagonal at 0, so only the fit without it
        # can recover a positive cross term.
        b = np.array([[1.0, 0.2], [0.2, 0.8]])
        rays = random_rays(rng, 12, 2)
        per_type = [(rays, diewert_value(b, rays))]
        free = fit_diewert(per_type, d_y=2, convexity=False)
        assert np.max(np.abs(free.b_stack[0] - b)) <= 1e-8
        assert free.residual == pytest.approx(0.0, abs=1e-7)
        convex = fit_diewert(per_type, d_y=2)
        assert convex.b_stack[0][0, 1] <= 1e-12 and convex.residual > 1e-3

    def test_lad_residual_bounded_by_noise(self, rng):
        truth = nested_b_stack(rng, d=2, d_e=2)
        rays = random_rays(rng, 200, 2)
        half = 0.05
        per_type = [(rays, diewert_value(b, rays)
                     + rng.uniform(-half, half, size=200)) for b in truth]
        fit = fit_diewert(per_type, d_y=2)
        for e, b in enumerate(truth):
            pred = diewert_value(fit.b_stack[e], rays)
            obs = per_type[e][1]
            assert np.median(np.abs(pred - obs)) <= half + 0.01
        # Coefficients close to the truth at this sample size.
        assert np.max(np.abs(fit.b_stack - truth)) <= 0.08

    def test_scale_equivariance(self, rng):
        truth = nested_b_stack(rng, d=2, d_e=2)
        rays = random_rays(rng, 10, 2)
        per = [(rays, diewert_value(b, rays)) for b in truth]
        per_scaled = [(r, 3.0 * v) for r, v in per]
        f1 = fit_diewert(per, d_y=2)
        f2 = fit_diewert(per_scaled, d_y=2)
        assert np.allclose(f2.b_stack, 3.0 * f1.b_stack, atol=1e-7)

    def test_insufficient_rays_rejected(self, rng):
        rays = random_rays(rng, 4, 3)      # need 6 coefficients in d=3
        with pytest.raises(ValidationError):
            fit_diewert([(rays, np.ones(4))], d_y=3)

    def test_constraint_conflict_detected(self, rng):
        # Strongly decreasing profits across types cannot satisfy
        # coefficient monotonicity.
        rays = random_rays(rng, 10, 2)
        b_hi = np.array([[2.0, -0.1], [-0.1, 1.5]])
        b_lo = np.array([[0.3, -0.1], [-0.1, 0.2]])
        per = [(rays, diewert_value(b_hi, rays)),
               (rays, diewert_value(b_lo, rays))]
        fit = fit_diewert(per, d_y=2)      # feasible, but residuals are forced
        assert fit.residual > 0.1

    def test_supply_overidentification(self, rng):
        truth = nested_b_stack(rng, d=2, d_e=2)
        rays = random_rays(rng, 30, 2)
        half = 0.02
        per = [(rays, diewert_value(b, rays)
                + rng.uniform(-half, half, size=30)) for b in truth]
        fit = fit_diewert(per, d_y=2)
        for e, b in enumerate(truth, start=1):
            for p in rays[:10]:
                y_fit = fit.supply(e, p)
                y_true = diewert_supply(b, p)
                assert np.max(np.abs(y_fit - y_true)) <= 0.25

    @pytest.mark.parametrize("e", [0, -1, 4])
    def test_type_out_of_range_rejected(self, rng, e):
        # Type 0 would read b_stack[-1], type d_e's matrix.
        fit = DiewertFit(b_stack=nested_b_stack(rng, d=2, d_e=3), residual=0.0)
        p = np.array([0.6, 0.8])
        with pytest.raises(ValueError, match="not in 1..3"):
            fit.evaluator(e)
        with pytest.raises(ValueError, match="not in 1..3"):
            fit.supply(e, p)

    def test_json_round_trip(self, rng):
        truth = nested_b_stack(rng)
        rays = random_rays(rng, 12, 3)
        fit = fit_diewert([(rays, diewert_value(b, rays)) for b in truth], d_y=3)
        back = DiewertFit.from_json_dict(fit.to_json_dict())
        assert np.allclose(back.b_stack, fit.b_stack)


class TestPluginSet:
    def price_set(self, rng, n=20):
        return RestrictedPriceSet(random_rays(rng, n, 2), convex_flag=True)

    def test_exact_profit_gives_tight_envelope(self, rng):
        b = random_admissible_b(rng)
        ps = self.price_set(rng)
        env = plugin_set(lambda p: float(diewert_value(b, p[None, :])[0]), ps)
        for ray in ps.rays:
            sv = support_value(env, ray)
            truth = float(diewert_value(b, ray[None, :])[0])
            assert sv.value == pytest.approx(truth, abs=1e-8)

    def test_single_ray_single_halfspace(self, rng):
        ps = RestrictedPriceSet([unit([1, 1])])
        env = plugin_set(lambda p: 0.0, ps)
        assert env.num_constraints == 1
        assert not support_value(env, unit([1, 2])).finite

    def test_nonfinite_rejected(self, rng):
        ps = self.price_set(rng, 4)
        with pytest.raises(NumericFailure, match="non-finite value at ray "
                           + re.escape(str(ps.rays[0].tolist()))):
            plugin_set(lambda p: float("inf"), ps)

    def test_monotone_fits_nest(self, rng):
        truth = nested_b_stack(rng, d=2, d_e=3)
        rays = random_rays(rng, 12, 2)
        fit = fit_diewert([(rays, diewert_value(b, rays)) for b in truth], d_y=2)
        ps = self.price_set(rng, 15)
        envs = [plugin_set(fit.evaluator(e), ps) for e in (1, 2, 3)]
        for ray in ps.rays:
            vals = [support_value(env, ray).value for env in envs]
            assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


class TestDualityCheck:
    def price_set_2d(self, n=60):
        angles = np.linspace(0.2, 1.37, n)
        return RestrictedPriceSet(unit_rays_2d(angles), convex_flag=True)

    def test_exact_estimator_zero_distance(self, rng):
        b = random_admissible_b(rng)
        f = lambda p: float(diewert_value(b, p[None, :])[0])
        rep = duality_check(f, f, self.price_set_2d(), convex_flag=True)
        assert rep.eta == 0.0 and rep.d_h == 0.0
        assert rep.verdict == "equality"

    def test_inflated_estimator_equality(self, rng):
        b = random_admissible_b(rng)
        f = lambda p: float(diewert_value(b, p[None, :])[0])
        g = lambda p: 1.01 * f(p)
        ps = self.price_set_2d()
        rep = duality_check(f, g, ps, convex_flag=True, geometric_oracle=True)
        expected_eta = 0.01 * max(f(r) for r in ps.rays)
        assert rep.eta == pytest.approx(expected_eta, rel=1e-9)
        assert abs(rep.d_h - rep.eta) <= 1e-6
        assert rep.oracle_d_h == pytest.approx(rep.eta, abs=2e-3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_convex_verdict_can_fail(self, rng, d):
        # A bump on one grid ray is not convex on the grid: the plug-in
        # set's support there stays near the truth, so d_H falls short of
        # eta = the bump.  Passed as convex, the verdict says so.
        b = random_admissible_b(rng, d=d)
        if d == 2:
            rays = self.price_set_2d().rays
        else:
            rays = rng.uniform(0.25, 1.0, size=(40, 3))
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        f = lambda p: float(diewert_value(b, np.asarray(p)[None, :])[0])
        bumped = rays[len(rays) // 2]
        g = lambda p: f(p) + (0.05 if np.array_equal(p, bumped) else 0.0)
        ps = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)
        rep = duality_check(f, g, ps, convex_flag=True)
        assert rep.eta == pytest.approx(0.05, rel=1e-12)
        assert rep.d_h < 0.05 - 1e-3
        assert rep.verdict == "equality-violated"

    def test_nonconvex_ripple_bound(self, rng):
        b = random_admissible_b(rng)
        f = lambda p: float(diewert_value(b, p[None, :])[0])
        ps = self.price_set_2d()
        r_val = min(f(r) for r in ps.rays)
        amp = 0.01 * r_val

        def g(p):
            theta = np.arctan2(p[1], p[0])
            return f(p) + amp * np.sin(9 * theta) * float(np.linalg.norm(p))

        rep = duality_check(f, g, ps, convex_flag=False, geometric_oracle=True)
        assert rep.verdict == "bound-holds"
        assert rep.d_h <= rep.bound + 1e-9
        assert rep.eta < rep.small_r

    def test_bound_inapplicable_when_eta_large(self, rng):
        b = random_admissible_b(rng)
        f = lambda p: float(diewert_value(b, p[None, :])[0])
        ps = self.price_set_2d(20)
        g = lambda p: f(p) + 10.0     # homogeneity broken, but only eta matters here
        rep = duality_check(f, g, ps, convex_flag=False)
        assert rep.verdict == "bound-inapplicable"

    @pytest.mark.parametrize("convex_flag", [True, False])
    @pytest.mark.parametrize("bad", ["pi_true", "pi_hat"])
    def test_nonfinite_profit_rejected(self, rng, bad, convex_flag):
        b = random_admissible_b(rng)
        f = lambda p: float(diewert_value(b, p[None, :])[0])
        g = lambda p: np.nan if p[0] < 0.5 else f(p)     # NaN on part of the grid
        pi_true, pi_hat = (g, f) if bad == "pi_true" else (f, g)
        with pytest.raises(NumericFailure):
            duality_check(pi_true, pi_hat, self.price_set_2d(), convex_flag=convex_flag)

    def test_negative_r_rejected(self):
        ps = self.price_set_2d(10)
        f = lambda p: -1.0
        with pytest.raises(ValidationError):
            duality_check(f, f, ps, convex_flag=False)


class TestInfiniteDistanceDemo:
    def test_divergence_and_extended_equality(self):
        rep = infinite_hausdorff_demo(m=10)
        table = rep["truncated_window_table"]
        assert len(table) == 3
        for early, late in zip(table, table[1:]):
            assert late["directed_distance"] >= 10.0 * early["directed_distance"]
        ext = rep["extended_duality"]
        assert ext["verdict"] == "equality"
        assert abs(ext["d_h"] - ext["eta"]) <= 1e-6
        etas = [row["eta"] for row in rep["eta_vanishes"]]
        assert etas[0] > etas[1] > etas[2]
        # eta ~ 2/m vanishes as the contraction disappears
        assert etas[2] <= etas[0] / 50.0


class TestFitHomogeneity:
    def test_euler_residual_of_fitted_profit(self, rng):
        # The fitted family is degree-1 homogeneous by construction; the
        # homogeneity diagnostic sees only finite-difference noise.
        truth = nested_b_stack(rng, d=2, d_e=2)
        rays = random_rays(rng, 10, 2)
        fit = fit_diewert([(rays, diewert_value(b, rays)) for b in truth], d_y=2)
        f = fit.evaluator(2)
        for _ in range(100):
            p = rng.uniform(0.2, 2.0, size=2)
            assert abs(euler_residual(f, p)) <= 1e-6 * abs(f(p))


class TestEnvelopeInclusion:
    def test_fit_envelope_within_lad_residual(self, rng):
        # Distance between the observation envelope and the fitted envelope
        # is capped by the largest absolute fit residual (duality equality
        # for convex homogeneous fits).
        from prodenv.geometry import RestrictedPriceSet, hausdorff_extended
        truth = nested_b_stack(rng, d=2, d_e=1)[0]
        rays = random_rays(rng, 40, 2)
        obs = diewert_value(truth, rays) + rng.uniform(-0.05, 0.05, size=40)
        fit = fit_diewert([(rays, obs)], d_y=2, monotone=False)
        fitted = diewert_value(fit.b_stack[0], rays)
        delta = float(np.max(np.abs(fitted - obs)))
        ps = RestrictedPriceSet(tuple(map(tuple, rays)))
        d_h = hausdorff_extended(obs, fitted, ps)
        assert d_h <= delta + 1e-12
