import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import prodenv.geometry
from prodenv.bounds import (ProfitData, brute_force_bounds,
                            profit_bounds, profit_bounds_fixed_quantity,
                            project_rationalizable, quantity_bounds,
                            rationalizing_hull, sharpness_check, wapm_feasible)
from prodenv.bounds import (_descent_certificate, _face_minima,
                            _face_minima_lp, _sweep_2d, _sweep_lp, _wapm_lp)
from prodenv.errors import ValidationError
from prodenv.estimation import diewert_value, duality_check
from prodenv.geometry import RestrictedPriceSet, support_value
from prodenv.simulate import DiewertTech

from conftest import random_admissible_b, unit_rays_2d

RT2 = np.sqrt(2.0)


def diewert_data(b, angles, e=1):
    tech = DiewertTech(np.asarray(b, float))
    rays = np.column_stack([np.cos(angles), np.sin(angles)])
    vals = np.array([tech.profit(r)[0] for r in rays])
    return ProfitData(e=e, rays=rays, values=vals), tech


class TestWapmFeasible:
    def test_oracle_data_feasible(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.3, 4))
        ok, cert = wapm_feasible(data)
        assert ok
        for i in range(data.k):
            assert float(data.rays[i] @ cert[i]) == pytest.approx(
                data.values[i], abs=1e-7)
            for j in range(data.k):
                assert float(data.rays[i] @ cert[j]) <= data.values[i] + 1e-7

    def test_single_pair_always_feasible(self):
        data = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([-3.0]))
        ok, _ = wapm_feasible(data)
        assert ok

    def test_dominated_triple_infeasible(self):
        # First two pairs cap profit at 0.6*1 + 0.8*1 = 1.4 < 2 at the third ray.
        data = ProfitData.from_pairs(1, [
            (np.array([1.0, 0.0]), 1.0),
            (np.array([0.0, 1.0]), 1.0),
            (np.array([0.6, 0.8]), 2.0),
        ])
        ok, cert = wapm_feasible(data)
        assert not ok and cert is None

    def test_certificate_hull_rationalizes(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.4, 1.2, 3))
        ok, cert = wapm_feasible(data)
        env = rationalizing_hull(cert)
        for i in range(data.k):
            assert support_value(env, data.rays[i]).value == pytest.approx(
                data.values[i], abs=1e-6)


class TestProfitBounds:
    def test_collapse_at_observed_ray(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.3, 4))
        res = profit_bounds(data, data.rays[2])
        assert res.lower == pytest.approx(data.values[2], abs=1e-9)
        assert res.upper == pytest.approx(data.values[2], abs=1e-9)

    def test_single_halfspace_unbounded_both_sides(self):
        data = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([0.0]))
        res = profit_bounds(data, np.array([1, 2]) / np.sqrt(5))
        assert np.isneginf(res.lower) and np.isposinf(res.upper)
        assert res.upper_certificate is not None
        assert "ray" in res.upper_certificate

    def test_true_value_covered_and_brute_force_match(self, rng):
        b = random_admissible_b(rng)
        angles = np.sort(rng.uniform(0.25, 1.35, size=3))
        data, tech = diewert_data(b, angles)
        theta = rng.uniform(angles[0], angles[-1])
        pc = np.array([np.cos(theta), np.sin(theta)])
        res = profit_bounds(data, pc)
        truth = tech.profit(pc)[0]
        assert res.contains(truth)
        bf = brute_force_bounds(data, pc, resolution=100)
        for a, b_ in ((res.lower, bf.lower), (res.upper, bf.upper)):
            if np.isfinite(a) or np.isfinite(b_):
                assert b_ == pytest.approx(a, abs=2 / 100)

    def test_monotone_in_information(self, rng):
        b = random_admissible_b(rng)
        data, tech = diewert_data(b, np.array([0.4, 1.2]))
        pc = np.array([np.cos(0.8), np.sin(0.8)])
        before = profit_bounds(data, pc)
        more = data.with_pair(np.array([np.cos(0.9), np.sin(0.9)]),
                              tech.profit(np.array([np.cos(0.9), np.sin(0.9)]))[0])
        after = profit_bounds(more, pc)
        assert after.lower >= before.lower - 1e-9
        assert after.upper <= before.upper + 1e-9

    def test_sharpness_of_upper(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.35, 1.25, 3))
        pc = np.array([np.cos(0.7), np.sin(0.7)])
        res = profit_bounds(data, pc)
        assert sharpness_check(data, pc, res.upper)

    def test_sharpness_at_observed_ray(self, rng):
        # Appending an observed ray again is not possible, so the check must
        # answer from the observed value itself.
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.35, 1.25, 3))
        res = profit_bounds(data, data.rays[1])
        assert sharpness_check(data, data.rays[1], res.upper)
        assert sharpness_check(data, data.rays[1], data.values[1])
        assert not sharpness_check(data, data.rays[1], data.values[1] + 0.1)

    def test_sharpness_off_sphere_price(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.35, 1.25, 3))
        pc = np.array([np.cos(0.7), np.sin(0.7)])
        upper = profit_bounds(data, pc).upper
        assert sharpness_check(data, 3.0 * pc, 3.0 * upper)
        assert not sharpness_check(data, 3.0 * pc, 3.0 * upper + 0.3)
        assert sharpness_check(data, 2.0 * data.rays[0], 2.0 * data.values[0])

    def test_lower_bound_ties_reported(self):
        # Symmetric four-ray data: the two middle faces are bounded segments
        # attaining the same lower value at the symmetric counterfactual ray.
        angles = np.pi / 4 + np.array([-0.45, -0.15, 0.15, 0.45])
        data, _ = diewert_data(np.array([[1.0, -0.2], [-0.2, 1.0]]), angles)
        res = profit_bounds(data, np.array([1, 1]) / RT2)
        assert np.isfinite(res.lower)
        assert len(res.argmax_rays) == 2

    def test_infeasible_data_rejected(self):
        data = ProfitData.from_pairs(1, [
            (np.array([1.0, 0.0]), 1.0),
            (np.array([0.0, 1.0]), 1.0),
            (np.array([0.6, 0.8]), 2.0),
        ])
        with pytest.raises(ValidationError):
            profit_bounds(data, np.array([1, 1]) / RT2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_coverage_property(self, seed):
        rng = np.random.default_rng(seed)
        b = random_admissible_b(rng)
        k = int(rng.integers(2, 5))
        angles = np.sort(rng.uniform(0.2, 1.37, size=k))
        while np.any(np.diff(angles) < 0.05):
            angles = np.sort(rng.uniform(0.2, 1.37, size=k))
        data, tech = diewert_data(b, angles)
        theta = rng.uniform(angles[0] + 0.01, angles[-1] - 0.01)
        pc = np.array([np.cos(theta), np.sin(theta)])
        res = profit_bounds(data, pc)
        assert res.contains(tech.profit(pc)[0])


class TestQuantityBounds:
    def test_u_equals_pc_reproduces_profit_bounds(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.2, 3))
        pc = np.array([np.cos(0.75), np.sin(0.75)])
        qb = quantity_bounds(data, pc, pc)
        pb = profit_bounds(data, pc)
        assert qb.lower == pytest.approx(pb.lower, abs=1e-7)
        assert qb.upper == pytest.approx(pb.upper, abs=1e-7)

    def test_single_pair_coordinate_unbounded(self):
        data = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([1.0]))
        res = quantity_bounds(data, data.rays[0], np.array([1.0, 0.0]))
        assert np.isposinf(res.upper) and np.isneginf(res.lower)

    def test_true_optimizer_covered(self, rng):
        b = random_admissible_b(rng)
        angles = np.linspace(0.3, 1.3, 5)
        data, tech = diewert_data(b, angles)
        theta = 0.82
        pc = np.array([np.cos(theta), np.sin(theta)])
        y_true = tech.profit(pc)[1]
        for u in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            res = quantity_bounds(data, pc, u)
            assert res.lower - 1e-7 <= float(u @ y_true) <= res.upper + 1e-7


class TestFixedQuantityBounds:
    def grid(self, n=90):
        return unit_rays_2d(np.linspace(0.05, np.pi / 2 - 0.05, n))

    def test_observed_point_feasible(self, rng):
        b = random_admissible_b(rng)
        data, tech = diewert_data(b, np.linspace(0.35, 1.2, 3))
        y_obs = tech.profit(data.rays[1])[1]
        res = profit_bounds_fixed_quantity(data, 0, float(y_obs[0]),
                                           self.grid())
        assert res.feasible
        assert res.upper >= data.values[1] - 1e-9

    def test_definitive_no_when_upper_negative(self):
        # Producing two units of good 1 forces a heavy net input of good 2
        # (the steep first constraint), so profits are negative at every
        # candidate price: a definitive no for the regulated quantity.
        a = 0.02
        data = ProfitData.from_pairs(1, [
            (np.array([np.cos(a), np.sin(a)]), 0.05),
            (np.array([np.sin(a), np.cos(a)]), -1.0),
        ])
        res = profit_bounds_fixed_quantity(data, 0, 2.0, self.grid())
        assert res.feasible
        assert res.upper < 0

    def test_grid_refinement_tightens_monotonically(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.25, 3))
        coarse_rays = self.grid(10)
        fine_rays = coarse_rays + self.grid(100)
        coarse = profit_bounds_fixed_quantity(data, 0, 0.4, coarse_rays)
        fine = profit_bounds_fixed_quantity(data, 0, 0.4, fine_rays)
        assert fine.upper >= coarse.upper - 1e-9       # sup over a larger grid
        assert fine.lower <= coarse.lower + 1e-9
        stable = profit_bounds_fixed_quantity(data, 0, 0.4,
                                              self.grid(200))
        assert stable.upper == pytest.approx(fine.upper, abs=2e-3)


class TestBruteForce:
    def test_collapse_at_observed_ray(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.2, 3))
        res = brute_force_bounds(data, data.rays[0], resolution=80)
        assert res.lower == pytest.approx(data.values[0], abs=2 / 80)
        assert res.upper == pytest.approx(data.values[0], abs=2 / 80)

    def test_infeasible_detected(self):
        data = ProfitData.from_pairs(1, [
            (np.array([1.0, 0.0]), 1.0),
            (np.array([0.0, 1.0]), 1.0),
            (np.array([0.6, 0.8]), 2.0),
        ])
        res = brute_force_bounds(data, np.array([1, 1]) / RT2, resolution=40)
        assert not res.feasible

    def test_dimension_and_size_guards(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.2, 5))
        with pytest.raises(ValueError):
            brute_force_bounds(data, np.array([1, 1]) / RT2)
        data3 = ProfitData(1, np.eye(3), np.ones(3))
        with pytest.raises(ValueError):
            brute_force_bounds(data3, np.ones(3) / np.sqrt(3))


class TestProjection:
    def test_projection_restores_feasibility(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.3, 4))
        bumped = ProfitData(1, data.rays,
                            data.values + rng.uniform(0, 0.02, size=data.k))
        repaired, shift = project_rationalizable(bumped)
        assert wapm_feasible(repaired)[0]
        assert shift <= 0.05
        # One pass is a fixpoint: a second one moves nothing.
        assert project_rationalizable(repaired)[1] <= 1e-12

    def test_consistent_data_unchanged(self, rng):
        b = random_admissible_b(rng)
        data, _ = diewert_data(b, np.linspace(0.3, 1.3, 4))
        repaired, shift = project_rationalizable(data)
        assert shift <= 1e-9
        assert np.allclose(repaired.values, data.values, atol=1e-9)


class TestTripleQuantityCoverage:
    def test_kinked_triple_output_bounds_cover_truth(self):
        # The nonmonotone triple exposed through five profit pairs: the true
        # optimal output at a new price stays inside the quantity bounds for
        # every type.
        from prodenv.simulate import TechnologySpec, profit_oracle
        tech = TechnologySpec.nonmonotone_supply_triple()
        angles = np.array([0.08, 0.10, 0.122, 0.14, 0.17])
        rays = np.column_stack([np.cos(angles), np.sin(angles)])
        theta_c = 0.13
        pc = np.array([np.cos(theta_c), np.sin(theta_c)])
        u = np.array([1.0, 0.0])
        for e in (1, 2, 3):
            vals = np.array([profit_oracle(tech, e, r)[0] for r in rays])
            data = ProfitData(e, rays, vals)
            y_true = profit_oracle(tech, e, pc)[1]
            res = quantity_bounds(data, pc, u)
            assert res.lower - 1e-7 <= float(u @ y_true) <= res.upper + 1e-7


# ---------------------------------------------------------------------------
# The d = 2 closed form against the general-d LP path
# ---------------------------------------------------------------------------

CASES = ("plain", "near_parallel", "huge", "single", "out_of_cone",
         "violating", "projected")


def _case_2d(case, rng):
    """Random d = 2 data, counterfactual ray and fixed quantity for a case."""
    b = random_admissible_b(rng)
    k = 1 if case == "single" else int(rng.integers(3, 7))
    angles = np.sort(rng.uniform(0.2, 1.37, size=k))
    if case == "near_parallel":
        angles = np.sort(np.append(angles, angles[k // 2] + 1e-6))
    data, tech = diewert_data(b, angles)
    scale = 1e6 if case == "huge" else 1.0
    values = data.values * scale
    if case == "violating":
        # The middle value beats what its neighbours' envelope allows.
        values[len(values) // 2] += 2.0 * (1.0 + np.max(np.abs(values)))
    data = ProfitData(1, data.rays, values)
    if case == "projected":
        bumped = ProfitData(1, data.rays, values + rng.uniform(0, 0.05, len(values)))
        data = project_rationalizable(bumped)[0]
    theta = (rng.choice([0.03, 1.54]) if case == "out_of_cone"
             else rng.uniform(angles[0], angles[-1]))
    pc = np.array([np.cos(theta), np.sin(theta)])
    ybar = scale * float(tech.profit(pc)[1][0]) + rng.normal(0.0, 0.3 * scale)
    return data, pc, ybar


def _check_face_point(data, y, i, pc, low):
    tol = 1e-7 * max(1.0, float(np.max(np.abs(data.values))))
    assert data.rays[i] @ y == pytest.approx(data.values[i], abs=tol)
    assert np.all(data.rays @ y <= data.values + tol)
    assert pc @ y == pytest.approx(low, abs=tol)


def _same_bound(a, b):
    if np.isinf(a) or np.isinf(b):
        assert a == b
    else:
        assert a == pytest.approx(b, rel=0, abs=1e-7 * max(1.0, abs(b)))


class TestClosedFormMatchesLp:
    @given(st.sampled_from(CASES), st.integers(0, 10_000))
    @settings(max_examples=70, deadline=None)
    def test_faces_wapm_and_sweep(self, case, seed):
        data, pc, ybar = _case_2d(case, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            # The reference LPs run at HiGHS's tightest feasibility tolerance,
            # relative to the values: a constraint 1e-6 rad from a face may be
            # violated by tol along it, which lets the LP slide tol / 1e-6
            # along the face (about 0.05 at the default 1e-7).  Presolve at
            # that tolerance once called a face of exact data empty.
            tol = 1e-10 * max(1.0, float(np.max(np.abs(data.values))))

            def reference_linprog(*args, **kwargs):
                kwargs["options"] = {"primal_feasibility_tolerance": tol,
                                     "presolve": False}
                return linprog(*args, **kwargs)

            mp.setattr(prodenv.geometry, "linprog", reference_linprog)
            self._check(case, data, pc, ybar)

    def test_face_lp_tolerance_near_parallel(self):
        # At HiGHS's default 1e-7 feasibility tolerance the face LP slid along
        # a face past a constraint 1e-6 rad away (seed 1 came out 7.5e-3 low).
        for seed in range(50):
            data, pc, _ = _case_2d("near_parallel", np.random.default_rng(seed))
            scale = max(1.0, float(np.max(np.abs(data.values))))
            lows, lows_lp = _face_minima(data, pc)[0], _face_minima_lp(data, pc)[0]
            np.testing.assert_array_equal(np.isneginf(lows), np.isneginf(lows_lp))
            finite = np.isfinite(lows)
            err = float(np.max(np.abs(lows[finite] - lows_lp[finite]), initial=0.0))
            assert err <= (1e-7 if seed == 1 else 1e-3) * scale, (seed, err)

    @staticmethod
    def _check(case, data, pc, ybar):
        ok, cert = wapm_feasible(data)
        ok_lp, cert_lp = _wapm_lp(data)
        assert ok == ok_lp
        if case == "violating":
            assert not ok
            for minima in (_face_minima, _face_minima_lp):
                with pytest.raises(ValidationError):
                    minima(data, pc)
            return
        assert ok
        for assignment in (cert, cert_lp):
            for i, y in assignment.items():
                _check_face_point(data, np.asarray(y), i, data.rays[i],
                                  data.values[i])

        lows, ys = _face_minima(data, pc)
        lows_lp, ys_lp = _face_minima_lp(data, pc)
        env = data.envelope()
        scale = max(1.0, float(np.max(np.abs(data.values))))
        exact = True
        for i in range(data.k):
            assert np.isneginf(lows[i]) == np.isneginf(lows_lp[i])
            if np.isfinite(lows[i]):
                _check_face_point(data, ys[i], i, pc, lows[i])
                _check_face_point(data, ys_lp[i], i, pc, lows_lp[i])
                if np.max(data.rays @ ys_lp[i] - data.values) <= 1e-12 * scale:
                    _same_bound(lows[i], lows_lp[i])
                else:
                    # The LP stopped inside its tolerance band past a
                    # constraint 1e-6 rad from the face, so it solved a
                    # relaxation: its minimum can only be lower.
                    assert lows_lp[i] <= lows[i] + 1e-7 * scale
                    exact = False
            else:
                w = _descent_certificate(env, data.rays[i], pc)
                assert pc @ w < 0
                assert np.all(data.rays @ w <= 1e-12)
                assert abs(data.rays[i] @ w) <= 1e-12
        if not exact:
            return          # the sweep's floors L(p_c) would differ the same way

        grid = np.array(unit_rays_2d(np.linspace(0.05, np.pi / 2 - 0.05, 9)))
        ok2, lo2, hi2, y_lo2, y_hi2 = _sweep_2d(data, 0, ybar, grid)
        ok_lp, lo_lp, hi_lp, _, _ = _sweep_lp(data, 0, ybar, grid)
        np.testing.assert_array_equal(ok2, ok_lp)
        for m in np.nonzero(ok2)[0]:
            _same_bound(lo2[m], lo_lp[m])
            _same_bound(hi2[m], hi_lp[m])
            for value, y in ((lo2[m], y_lo2[m]), (hi2[m], y_hi2[m])):
                if np.isfinite(value):
                    assert y[0] == ybar
                    assert np.all(data.rays @ y <= data.values + 1e-9 * scale)
                    assert grid[m] @ y == pytest.approx(value, abs=1e-9 * scale)


# ---------------------------------------------------------------------------
# d = 3: the face-LP path
# ---------------------------------------------------------------------------


def diewert_data_3d(rng, k=12):
    b = random_admissible_b(rng, d=3)
    tech = DiewertTech(b)
    rays = rng.uniform(0.25, 1.0, size=(k, 3))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    vals = np.array([tech.profit(r)[0] for r in rays])
    return ProfitData(1, rays, vals), tech


class TestThreeGoods:
    def test_bounds_contain_truth(self, rng):
        data, tech = diewert_data_3d(rng)
        pc = data.rays.mean(axis=0)
        pc /= np.linalg.norm(pc)
        truth, y_true = tech.profit(pc)
        assert wapm_feasible(data)[0]
        res = profit_bounds(data, pc)
        assert np.isfinite(res.lower) and np.isfinite(res.upper)
        assert res.contains(truth)
        y = res.lower_certificate["y"]
        assert np.all(data.rays @ y <= data.values + 1e-7)
        for u in np.eye(3):
            qb = quantity_bounds(data, pc, u)
            assert qb.lower - 1e-7 <= float(u @ y_true) <= qb.upper + 1e-7

    def test_wapm_violation_raises(self, rng):
        data, _ = diewert_data_3d(rng)
        mid = data.rays.mean(axis=0)
        mid /= np.linalg.norm(mid)
        # A ray inside the cone of the others, with a value far above what
        # their envelope allows there.
        bad = data.with_pair(mid, 2.0 * (1.0 + np.max(np.abs(data.values))))
        pc = np.array([1.0, 2.0, 2.0]) / 3.0
        assert not wapm_feasible(bad)[0]
        with pytest.raises(ValidationError):
            profit_bounds(bad, pc)
        with pytest.raises(ValidationError):
            quantity_bounds(bad, pc, np.eye(3)[0])

    def test_unbounded_lower_has_descent_certificate(self, rng):
        # Two rays leave every face unbounded below at a p_c outside their
        # span; the certificate is a recession direction within the face.
        data, _ = diewert_data_3d(rng, k=2)
        pc = np.array([1.0, 2.0, 2.0]) / 3.0
        res = profit_bounds(data, pc)
        assert np.isneginf(res.lower) and np.isposinf(res.upper)
        w, face = res.lower_certificate["ray"], data.rays[0]
        assert pc @ w < 0
        assert np.all(data.rays @ w <= 1e-9)
        assert abs(face @ w) <= 1e-9
        assert np.linalg.norm(w) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# LP budget: the d = 2 questions stay (nearly) LP-free
# ---------------------------------------------------------------------------


class TestLpBudget:
    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def counted(*args, _real=prodenv.geometry.linprog, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(prodenv.geometry, "linprog", counted)
        return calls

    def test_two_goods_budget(self, rng, lp_calls):
        b = random_admissible_b(rng)
        data, tech = diewert_data(b, np.linspace(0.2, 1.37, 40))
        cut = ProfitData(1, data.rays, np.where(np.arange(40) % 7 == 0,
                                                0.9 * data.values, data.values))
        assert wapm_feasible(data)[0] and not wapm_feasible(cut)[0]
        assert len(lp_calls) == 0

        for pc in (np.array([np.cos(0.8), np.sin(0.8)]),
                   np.array([np.cos(0.05), np.sin(0.05)])):   # out of cone: +inf
            del lp_calls[:]
            profit_bounds(data, pc)
            assert len(lp_calls) <= 2
        del lp_calls[:]
        single = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([0.0]))
        res = profit_bounds(single, np.array([1, 2]) / np.sqrt(5))
        assert np.isneginf(res.lower) and np.isposinf(res.upper)
        assert len(lp_calls) <= 2

        del lp_calls[:]
        quantity_bounds(data, np.array([np.cos(0.8), np.sin(0.8)]), [1.0, 0.0])
        assert len(lp_calls) <= 4

        del lp_calls[:]
        star = np.array([np.cos(0.8), np.sin(0.8)])
        grid = unit_rays_2d(np.linspace(0.01, np.pi / 2 - 0.01, 720))
        res = profit_bounds_fixed_quantity(data, 0, float(tech.profit(star)[1][0]),
                                           grid)
        assert res.feasible
        assert len(lp_calls) == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_projection_and_convexification(self, d, lp_calls):
        # Support values are closed form in d = 2 and LPs in d >= 3.
        rng = np.random.default_rng(d)
        b = random_admissible_b(rng, d=d)
        rays = rng.uniform(0.25, 1.0, size=(12, d))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        f = lambda p: float(diewert_value(b, np.asarray(p)[None, :])[0])
        g = lambda p: f(p) * (1.0 + 0.01 * np.sin(9.0 * p[0]))

        project_rationalizable(ProfitData(1, rays, [g(r) for r in rays]))
        duality_check(f, g, RestrictedPriceSet(tuple(map(tuple, rays))),
                      convex_flag=False, geometric_oracle=True)
        assert (len(lp_calls) == 0) == (d == 2)
