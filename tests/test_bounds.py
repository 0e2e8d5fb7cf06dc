import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import prodenv.geometry
from prodenv.bounds import (ProfitData, profit_bounds, profit_bounds_fixed_quantity,
                            project_rationalizable, quantity_bounds, wapm_feasible)
from prodenv.bounds import _face_minima, _face_minima_lp, _faces, _sweep, _yc_range
from prodenv.errors import NumericFailure, ValidationError
from prodenv.estimation import diewert_supply, diewert_value, duality_check
from prodenv.geometry import (HalfspaceEnvelope, RestrictedPriceSet, free_disposal_hull,
                              solve_lp, support_value, support_values)
from prodenv.simulate import DiewertTech

from conftest import _unit, random_admissible_b, unit_rays_2d
from oracles import brute_force_bounds, exact_support, sharpness_check, sweep_lp, with_pair

RT2 = np.sqrt(2.0)


def diewert_data(b, angles, e=1):
    tech = DiewertTech(np.asarray(b, float))
    rays = np.column_stack([np.cos(angles), np.sin(angles)])
    vals = np.array([tech.profit(r)[0] for r in rays])
    return ProfitData(e=e, rays=rays, values=vals), tech


class TestProfitData:
    @pytest.mark.parametrize("rays, values, message", [
        # abs(nan - 1) > tol is False, so a NaN ray must fail some other way.
        ([[np.nan, np.nan], [0.0, 1.0]], [1.0, 1.0], "must be finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, np.inf], "must be finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0], "must be finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0], "must be finite"),
        ([[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0], "unit vectors"),
        ([[-0.6, 0.8], [0.6, 0.8]], [1.0, 1.0], "componentwise nonnegative"),
    ])
    def test_rejects_non_finite_and_off_sphere_pairs(self, rays, values, message):
        with pytest.raises(ValueError, match=message):
            ProfitData(1, rays, values)


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
        env = free_disposal_hull(np.vstack(list(cert.values())))
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
        more = with_pair(data, np.array([np.cos(0.9), np.sin(0.9)]),
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

    def test_negative_price_rejected(self):
        # A halfplane's support at -normal is +inf, which no face shows.
        data = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([0.0]))
        pc = np.array([-1.0, 0.6]) / np.hypot(1.0, 0.6)
        with pytest.raises(ValueError):
            profit_bounds(data, pc)
        with pytest.raises(ValueError):
            quantity_bounds(data, pc, [1.0, 0.0])

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

    def test_single_pair_half_plane(self):
        # Off its ray one pair leaves L = -inf, so y_c ranges over the
        # half-plane p . y <= pi(p), which runs off along -p, where no face
        # runs.
        data = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([0.7]))
        pc = np.array([1.0, 2.0]) / np.sqrt(5)
        res = quantity_bounds(data, pc, -2.0 * data.rays[0])
        assert res.lower == pytest.approx(-1.4, abs=1e-12) and res.upper == np.inf
        np.testing.assert_allclose(res.upper_certificate["ray"], -data.rays[0], atol=1e-15)
        res = quantity_bounds(data, pc, [1.0, 0.0])
        assert res.lower == -np.inf and res.upper == np.inf
        for sign, cert in ((-1, res.lower_certificate), (1, res.upper_certificate)):
            _check_ray(data, pc, -np.inf, np.array([1.0, 0.0]), sign, cert["ray"])
        # At p_c = 0 the floor L = 0 cuts nothing either.
        res = quantity_bounds(data, [0.0, 0.0], -data.rays[0])
        assert res.lower == pytest.approx(-0.7, abs=1e-12) and res.upper == np.inf

    @pytest.mark.parametrize("p_c, u, name", [
        ([np.nan, 0.6], [1.0, 0.0], "p_c"),
        ([1.0, 0.6, 0.2], [1.0, 0.0], "p_c"),
        ([1.0], [1.0, 0.0], "p_c"),
        ([1.0, 0.6], [np.nan, 0.0], "u"),
        ([1.0, 0.6], [-np.inf, 1.0], "u"),
        ([1.0, 0.6], [1.0, 0.0, 0.0], "u"),
    ])
    def test_vector_not_finite_or_of_wrong_length(self, rng, p_c, u, name):
        data, _ = diewert_data(random_admissible_b(rng), np.linspace(0.3, 1.2, 4))
        with pytest.raises(ValueError, match=f"^{name} must be 2 finite numbers"):
            quantity_bounds(data, p_c, u)
        if name == "p_c":
            with pytest.raises(ValueError, match="^p_c must be 2 finite numbers"):
                profit_bounds(data, p_c)

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

    @pytest.mark.parametrize("coord", [-1, 2])
    def test_coord_out_of_range_rejected(self, rng, coord):
        # -1 would pin the last coordinate, as coord = 1 does.
        data, _ = diewert_data(random_admissible_b(rng), np.linspace(0.35, 1.2, 3))
        with pytest.raises(ValueError, match="coord"):
            profit_bounds_fixed_quantity(data, coord, 0.4, self.grid())

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_ray_along_the_pinned_coordinate(self, d):
        # The one constraint y_0 <= 0.5 has no free part, so the slice is
        # every free coordinate: both ends of every grid ray are infinite,
        # and a pin above 0.5 is infeasible.
        data = ProfitData(1, np.eye(d)[:1], [0.5])
        grid = _unit(1.0 + np.eye(d)[:2])
        res = profit_bounds_fixed_quantity(data, 0, 0.25, grid)
        assert res.feasible and res.lower == -np.inf and res.upper == np.inf
        assert not profit_bounds_fixed_quantity(data, 0, 0.75, grid).feasible

    @pytest.mark.parametrize("coord, rays, grid", [
        (0, [[1.0, -5e-10], [0.6, 0.8]], [[0.6, 0.8], [0.8, 0.6]]),
        (1, [[0.1, 0.995, -5e-10], [0.5, 0.6, 0.6], [0.3, 0.3, 0.9], [0.6, 0.2, 0.7]],
         [[0.5, 0.01, 0.6], [0.3, 0.5, 0.5]]),
    ])
    def test_normal_rounded_below_zero_reads_as_zero(self, coord, rays, grid):
        # The envelope takes components down to -1e-9 as rounding of 0.  As
        # a slice row, -5e-10 put the d = 2 upper end at -6e8 instead of 1,
        # and in d = 3 its normalised row failed the envelope's sign check.
        # (The lower ends are the data's own faces, which keep the -5e-10.)
        res, zeroed = (profit_bounds_fixed_quantity(ProfitData(1, r, np.ones(len(r))),
                                                    coord, 0.5, grid)
                       for r in (_unit(np.array(rays)), _unit(np.maximum(rays, 0.0))))
        assert res.feasible and res.upper == pytest.approx(zeroed.upper, rel=1e-9)

    @pytest.mark.parametrize("grid, message", [
        # A negative row once gave a feasible bound, although profit_bounds
        # rejects the same p_c; a NaN row read as infeasible; a 1-D list
        # raised numpy's AxisError.
        ([[-0.6, 0.8], [0.6, 0.8]], "ray_grid must be componentwise nonnegative"),
        ([[np.nan, 1.0], [0.6, 0.8]], "ray_grid must be a nonempty \\(n, 2\\) finite array"),
        ([[0.6, np.inf]], "ray_grid must be a nonempty \\(n, 2\\) finite array"),
        ([0.6, 0.8], "ray_grid must be a nonempty \\(n, 2\\) finite array"),
        ([[0.6, 0.8, 0.1]], "ray_grid must be a nonempty \\(n, 2\\) finite array"),
        (np.zeros((0, 2)), "ray_grid must be a nonempty \\(n, 2\\) finite array"),
    ])
    def test_grid_rows_are_finite_nonnegative_prices(self, grid, message):
        data, _ = diewert_data([[1.2, -0.2], [-0.2, 1.0]], np.linspace(0.35, 1.2, 3))
        with pytest.raises(ValueError, match=f"^{message}"):
            profit_bounds_fixed_quantity(data, 0, 0.3, grid)

    @pytest.mark.parametrize("coord, ybar, message", [
        # A NaN pin read as infeasible, an infinite one raised numpy's
        # "invalid value" warning, and a coord that is no integer raised
        # numpy's IndexError or a TypeError.
        (0, np.nan, "ybar must be finite"),
        (0, np.inf, "ybar must be finite"),
        (0, -np.inf, "ybar must be finite"),
        (0.5, 0.3, "coord must be an integer"),
        (1.0, 0.3, "coord must be an integer"),
        ("0", 0.3, "coord must be an integer"),
    ])
    def test_pin_is_finite_at_an_integer_coord(self, coord, ybar, message):
        data, _ = diewert_data([[1.2, -0.2], [-0.2, 1.0]], np.linspace(0.35, 1.2, 3))
        with pytest.raises(ValueError, match=f"^{message}"):
            profit_bounds_fixed_quantity(data, coord, ybar, [[0.6, 0.8]])


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


def _wapm_lp(data):
    """Reference WAPM test, one stacked sparse LP in the y_p of every ray:
    p_i . y_i = pi_i, and p_i . y_j <= pi_i for every i, j (the i = j rows
    repeat the equalities).  Returns the verdict and {ray index: y_p}."""
    k, d = data.k, data.dimension
    A_eq = sparse.csr_matrix((data.rays.ravel(), np.arange(k * d),
                              np.arange(0, k * d + 1, d)), shape=(k, k * d))
    A_ub = sparse.kron(sparse.identity(k, format="csr"),
                       sparse.csr_matrix(data.rays), format="csr")
    state, y, _ = solve_lp(np.zeros(k * d), A_ub, np.tile(data.values, k), A_eq, data.values)
    if state == "infeasible":
        return False, None
    return True, dict(enumerate(y.reshape(k, -1)))     # zero objective: never unbounded


def _reference_lp_tolerance(mp, data):
    """Run the LPs at HiGHS's tightest feasibility tolerance, relative to
    the values: a constraint 1e-6 rad from a face may be violated by tol
    along it, which lets the LP slide tol / 1e-6 along the face (about 0.05
    at the default 1e-7).  Presolve at that tolerance once called a face of
    exact data empty."""
    tol = 1e-10 * max(1.0, float(np.max(np.abs(data.values))))

    def reference_linprog(*args, **kwargs):
        kwargs["options"] = {"primal_feasibility_tolerance": tol, "presolve": False}
        return linprog(*args, **kwargs)

    mp.setattr(prodenv.geometry, "linprog", reference_linprog)


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


def _check_ray(data, pc, floor, u, sign, w):
    """w certifies that u . y_c runs off to sign * inf: it stays in the
    envelope and, when there is a floor, above it, and u . w has the sign."""
    assert np.all(data.rays @ w <= 1e-12)
    assert pc @ w >= -1e-12 or np.isneginf(floor)
    assert sign * (u @ w) > 0


class TestClosedFormMatchesLp:
    @given(st.sampled_from(CASES), st.integers(0, 10_000))
    @settings(max_examples=70, deadline=None)
    def test_faces_wapm_and_sweep(self, case, seed):
        data, pc, ybar = _case_2d(case, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            _reference_lp_tolerance(mp, data)
            self._check(case, data, pc, ybar)

    def test_face_lp_tolerance_near_parallel(self):
        # At HiGHS's default 1e-7 feasibility tolerance the face LP slid along
        # a face past a constraint 1e-6 rad away (seed 1 came out 7.5e-3 low).
        for seed in range(50):
            data, pc, _ = _case_2d("near_parallel", np.random.default_rng(seed))
            scale = max(1.0, float(np.max(np.abs(data.values))))
            lows, lows_lp = (m(data, pc[None])[0][0] for m in (_face_minima, _face_minima_lp))
            np.testing.assert_array_equal(np.isneginf(lows), np.isneginf(lows_lp))
            finite = np.isfinite(lows)
            err = float(np.max(np.abs(lows[finite] - lows_lp[finite]), initial=0.0))
            assert err <= (1e-7 if seed == 1 else 1e-3) * scale, (seed, err)

    @given(st.sampled_from(CASES), st.booleans(), st.integers(0, 10_000))
    # At p_c's own face, where a constraint 1e-6 rad away meets it: in double
    # precision its vertex came out up to 2.7e-10 off the exact one.
    @example("near_parallel", True, 607)
    @example("near_parallel", True, 673)
    @example("near_parallel", True, 724)
    @example("near_parallel", True, 1223)
    @example("near_parallel", True, 1239)
    @example("near_parallel", True, 1554)
    @example("near_parallel", True, 1706)
    @example("near_parallel", True, 1876)
    @example("near_parallel", True, 7378)
    @settings(max_examples=70, deadline=None)
    def test_quantity_bounds(self, case, at_ray, seed):
        # The y_c polygon's segments against its two LPs, at p_c between the
        # observed rays or outside their cone, or at one of them, where the
        # cut collapses to that ray's face.
        rng = np.random.default_rng(seed)
        data, pc, _ = _case_2d(case, rng)
        i = int(rng.integers(data.k))
        if at_ray:
            pc = data.rays[i]
        if case == "violating":
            with pytest.raises(ValidationError):
                quantity_bounds(data, pc, pc)
            return
        floor = float(np.max(_face_minima(data, pc[None])[0]))
        scale = max(1.0, float(np.max(np.abs(data.values))))
        for u in (np.eye(2)[0], np.eye(2)[1], pc, np.array([0.3, -1.0])):
            res = quantity_bounds(data, pc, u)
            with pytest.MonkeyPatch.context() as mp:
                _reference_lp_tolerance(mp, data)
                ends_lp = _yc_range(data, pc, u, floor)
            refs = [value for value, _, _ in ends_lp]
            if at_ray and case == "near_parallel":
                # The y_c set is p_c's face, and the LP slides along it past
                # a constraint 1e-6 rad away (up to 1.2e-4 off over 1000
                # seeds): the face's exact vertices are the reference.
                (neg, top), _ = exact_support(np.vstack([data.rays, -pc]),
                                              np.append(data.values, -data.values[i]),
                                              np.vstack([-u, u]))
                refs[:] = -neg, top
            for sign, value, cert, ref in ((-1, res.lower, res.lower_certificate, refs[0]),
                                           (1, res.upper, res.upper_certificate, refs[1])):
                if np.isinf(value) or np.isinf(ref):
                    assert value == ref == sign * np.inf
                    _check_ray(data, pc, floor, u, sign, cert["ray"])
                    continue
                y = cert["y_c"]
                assert np.all(data.rays @ y <= data.values + 1e-9 * scale)
                assert pc @ y >= floor - 1e-9 * scale
                assert u @ y == pytest.approx(value, rel=0, abs=1e-12 * scale)
                assert value == pytest.approx(ref, rel=1e-9, abs=1e-12)

    @staticmethod
    def _check(case, data, pc, ybar):
        ok, cert = wapm_feasible(data)
        ok_lp, cert_lp = _wapm_lp(data)
        assert ok == ok_lp
        if case == "violating":
            assert not ok
            for minima in (_face_minima, _face_minima_lp):
                with pytest.raises(ValidationError):
                    minima(data, pc[None])
            return
        assert ok
        for assignment in (cert, cert_lp):
            for i, y in assignment.items():
                _check_face_point(data, np.asarray(y), i, data.rays[i],
                                  data.values[i])

        lows, ys = (m[0] for m in _face_minima(data, pc[None]))
        lows_lp, ys_lp = (m[0] for m in _face_minima_lp(data, pc[None]))
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
                w = _faces(data).descent(pc, i)
                assert pc @ w < 0
                assert np.all(data.rays @ w <= 1e-12)
                assert abs(data.rays[i] @ w) <= 1e-12
        if not exact:
            return          # the sweep's floors L(p_c) would differ the same way

        grid = np.array(unit_rays_2d(np.linspace(0.05, np.pi / 2 - 0.05, 9)))
        floors = np.max(_face_minima(data, grid)[0], axis=1)
        ok2, lo2, hi2, y_lo2, y_hi2 = _sweep(data, 0, ybar, grid, floors)
        floors_lp = np.max(_face_minima_lp(data, grid)[0], axis=1)
        ok_lp, lo_lp, hi_lp = sweep_lp(data, 0, ybar, grid, floors_lp)
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
# d >= 3: the hull's vertices against the face LPs and rational arithmetic
# ---------------------------------------------------------------------------

HULL_CASES = ("plain", "near_parallel", "linear", "free_disposal", "violating",
              "rank_deficient", "rank_deficient_oblique")


def _dyadic(a, bits):
    return np.round(np.asarray(a) * 2.0 ** bits) / 2.0 ** bits


def _case_nd(case, rng, d):
    """Data in d >= 3 whose values are the profits max_p n . p of a few
    points p, exactly: normals carry 32 fractional bits and points 10, so
    each n . p is exact in a double and every face holds a point (WAPM
    holds in rational arithmetic).  Partners 1e-6 away from half the rays;
    a linear profit (one point: coplanar lifted points); a free-disposal
    hull (normals on the orthant boundary, coplanar facets); one more ray
    whose value its envelope cannot reach (a WAPM violation); normals with
    a zero last coordinate (rank d - 1: no hull); or normals (a, b, a[, b])
    (rank 2, in a span off the coordinate axes: no hull)."""
    pts = _dyadic(rng.uniform(-2.0, 2.0, (1 if case == "linear" else 5, d)), 10)
    if case == "free_disposal":
        pts = pts[:int(rng.integers(2, 4))]
        rays = free_disposal_hull(pts).normals[:10]
    else:
        k = int(rng.integers(d + 1, 8))
        rays = _unit(rng.uniform(0.1, 1.0, (k, d)))
        if case == "near_parallel":
            rays = np.vstack([rays, _unit(rays[:k // 2] + 1e-6 * rng.normal(size=(k // 2, d)))])
        if case == "rank_deficient":
            rays[:, -1] = 0.0
            rays = _unit(rays)
        if case == "rank_deficient_oblique":
            rays = _unit(np.tile(rays[:, :2], d)[:, :d])
    rays = _dyadic(rays, 32)      # equal coordinates round alike: the span holds
    data = ProfitData(1, rays, np.max(rays @ pts.T, axis=1))
    if case == "violating":
        mid = _dyadic(_unit(rays.mean(axis=0)), 32)
        data = with_pair(data, mid, float(np.max(mid @ pts.T)) + 0.5)
    return data


def _exact_face_minima(data, pc):
    """Least p_c . y on each face in rational arithmetic: face i is the
    envelope with -n_i . y <= -pi_i added, and its minimum is minus its
    support at -p_c.  Also returns the rounding scale |p_c| |y*|."""
    out = [exact_support(np.vstack([data.rays, -data.rays[i]]),
                         np.append(data.values, -data.values[i]), -pc[None, :])
           for i in range(data.k)]
    return -np.array([e[0] for e, _ in out]), np.array([r[0] for _, r in out])


class TestHullFacesMatchLp:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("case", HULL_CASES)
    def test_kernel_matches_face_lps_and_exact(self, case, d):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            data = _case_nd(case, rng, d)
            for pc in (_unit(data.rays.mean(axis=0)), _unit(rng.uniform(0.1, 1.0, d)),
                       _unit(np.eye(d)[0] + 0.05)):
                with pytest.MonkeyPatch.context() as mp:
                    _reference_lp_tolerance(mp, data)
                    self._check(case, data, pc)

    @staticmethod
    def _check(case, data, pc):
        ok, cert = wapm_feasible(data)
        assert ok == _wapm_lp(data)[0] == (case != "violating")
        if case == "violating":
            for minima in (_face_minima, _face_minima_lp):
                with pytest.raises(ValidationError):
                    minima(data, pc[None])
            return
        faces = _faces(data)
        assert (faces is None) == case.startswith("rank_deficient")
        for i, y in cert.items():
            _check_face_point(data, y, i, data.rays[i], data.values[i])

        lows, ys = (m[0] for m in _face_minima(data, pc[None]))
        try:
            lows_lp, ys_lp = (m[0] for m in _face_minima_lp(data, pc[None]))
        except (ValidationError, NumericFailure):
            # At the reference tolerance HiGHS called a face of these
            # rationalizable data empty (partners 1e-6 away, d = 4, seed 0)
            # or ended "model_status is Unknown" (free-disposal hulls, d = 3,
            # seeds 1 and 2); at FEAS_TOL it solves them.  Rational
            # arithmetic alone judges these.
            lows_lp = ys_lp = None
        exact, reach = _exact_face_minima(data, pc)
        scale = max(1.0, float(np.max(np.abs(data.values))))
        at = None if faces is None else faces.minima(pc[None])[1][0]
        tols = np.zeros(data.k)
        for i in range(data.k):
            assert np.isneginf(lows[i]) == np.isneginf(exact[i])
            assert lows_lp is None or np.isneginf(lows_lp[i]) == np.isneginf(lows[i])
            if np.isneginf(lows[i]):
                if faces is not None:
                    w = faces.descent(pc, i)
                    assert pc @ w < 0 and abs(data.rays[i] @ w) <= 1e-12
                    assert np.all(data.rays @ w <= 1e-12)
                continue
            _check_face_point(data, ys[i], i, pc, lows[i])
            assert np.all(data.rays @ ys[i] <= data.values + 1e-12 * scale)
            # A vertex solved from its d rays in floats moves by up to
            # d eps cond |y| (partners 1e-6 away: cond ~ 1e7).
            cond = 1.0 if faces is None else np.linalg.cond(faces.weights[at[i]])
            tols[i] = (1e-12 * max(1.0, abs(exact[i]))
                       + data.dimension * np.finfo(float).eps * cond * reach[i])
            assert abs(lows[i] - exact[i]) <= tols[i]
            if lows_lp is None:
                continue
            if np.max(data.rays @ ys_lp[i] - data.values) <= 1e-12 * scale:
                _same_bound(lows[i], lows_lp[i])
            else:
                assert lows_lp[i] <= lows[i] + 1e-7 * scale
        lower = profit_bounds(data, pc).lower
        assert lower == np.max(lows)
        if np.isfinite(lower):
            assert abs(lower - np.max(exact)) <= np.max(tols)


# ---------------------------------------------------------------------------
# d >= 3: the sweep's slice against the pinned LP and rational arithmetic
# ---------------------------------------------------------------------------


def _sweep_case(case, rng, d, n):
    """``_case_nd`` data, a pinned coordinate, a dyadic ybar (so the slice
    offsets v - P[:, coord] ybar are exact) and n grid rays, some outside
    the slice's normal cone."""
    data = _case_nd(case, rng, d)
    coord = int(rng.integers(d))
    ybar = float(_dyadic(rng.uniform(-2.0, 2.0), 10))
    grid = _dyadic(_unit(rng.uniform(0.05, 1.0, (n, d))), 32)
    return data, coord, ybar, grid


def _exact_slice_tops(data, coord, ybar, grid):
    """p[coord] ybar plus the exact support of the slice at p[free], and the
    rounding scale |p[free]| |z*|."""
    free = np.arange(data.dimension) != coord
    h, reach = exact_support(data.rays[:, free], data.values - data.rays[:, coord] * ybar,
                             grid[:, free])
    return grid[:, coord] * ybar + h, reach


def _check_sweep_points(data, coord, ybar, grid, ok, ends, points):
    scale = max(1.0, float(np.max(np.abs(data.values))))
    for m in np.flatnonzero(ok):
        for value, y in zip(ends[:, m], points[:, m]):
            if np.isfinite(value):
                assert y[coord] == ybar
                assert np.all(data.rays @ y <= data.values + 1e-9 * scale)
                assert grid[m] @ y == pytest.approx(value, rel=0, abs=1e-9 * scale)


class TestSliceSweepMatchesLp:
    @given(st.sampled_from(("plain", "near_parallel", "linear", "free_disposal",
                            "rank_deficient")),
           st.sampled_from([3, 4]), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_slice_matches_pinned_lp(self, case, d, seed):
        data, coord, ybar, grid = _sweep_case(case, np.random.default_rng(seed), d, 12)
        floors = np.max(_face_minima(data, grid)[0], axis=1)
        ok, lo, hi, y_lo, y_hi = _sweep(data, coord, ybar, grid, floors)
        # The upper ends against rational arithmetic: at its 1e-10 tolerance
        # the LP was 4e-9 relative off a small end (free_disposal, d = 4,
        # seeds 38 and 237), and it slides along near-parallel faces
        # (CHANGES.md FOUND 45).
        refs = [(hi, _exact_slice_tops(data, coord, ybar, grid)[0])]
        try:
            with pytest.MonkeyPatch.context() as mp:
                _reference_lp_tolerance(mp, data)
                ok_lp, lo_lp, hi_lp = sweep_lp(data, coord, ybar, grid, floors)
        except NumericFailure:
            # At the reference tolerance HiGHS ended "model_status is
            # Unknown" on a few draws (plain and near_parallel, d = 3, seed
            # 18; linear, d = 4, seed 0): rational arithmetic alone judges
            # these.
            pass
        else:
            np.testing.assert_array_equal(ok, ok_lp)
            np.testing.assert_array_equal(np.isinf(hi[ok]), np.isinf(hi_lp[ok]))
            refs.append((lo, lo_lp))
        for m in np.flatnonzero(ok):
            for ends, ref in refs:
                if np.isinf(ends[m]) or np.isinf(ref[m]):
                    assert ends[m] == ref[m]
                else:
                    assert ends[m] == pytest.approx(ref[m], rel=1e-9, abs=1e-12)
        _check_sweep_points(data, coord, ybar, grid, ok, np.array([lo, hi]),
                            np.array([y_lo, y_hi]))

    @pytest.mark.parametrize("seed", [0, 33, 81, 104, 137])
    def test_near_parallel_slices(self, seed):
        # FOUND 45's data: with p_c at an observed ray, the quantity bound's
        # LPs raised on seed 33 and were 3.3e-2 off on seed 81.  The sweep
        # at the observed rays and at random ones raises nothing, and the
        # slice lies within the hull's rounding radius d eps cond |z*| of
        # its exact support.
        data, coord, ybar, grid = _sweep_case("near_parallel", np.random.default_rng(seed), 3, 30)
        grid = np.vstack([data.rays, grid[:30 - data.k]])
        res = profit_bounds_fixed_quantity(data, coord, ybar, grid)
        floors = np.max(_face_minima(data, grid)[0], axis=1)
        ok, lo, hi, y_lo, y_hi = _sweep(data, coord, ybar, grid, floors)
        assert res.feasible == ok.any()
        exact, reach = _exact_slice_tops(data, coord, ybar, grid)
        rel = float(np.max(_faces(data).rel(slice(None))))
        np.testing.assert_array_equal(np.isinf(hi), np.isinf(exact))
        top, exact, reach = (a[np.isfinite(hi)] for a in (hi, exact, reach))
        assert np.all(np.abs(top - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)) + rel * reach)
        _check_sweep_points(data, coord, ybar, grid, ok, np.array([lo, hi]),
                            np.array([y_lo, y_hi]))


# ---------------------------------------------------------------------------
# d >= 3: the quantity bound's dual against its LPs and rational arithmetic
# ---------------------------------------------------------------------------


def _quantity_case(case, rng, d, where):
    """``_case_nd`` data, a p_c inside the rays' cone, outside it or at an
    observed ray, and directions u of every sign."""
    data = _case_nd(case, rng, d)
    pc = {"inside": lambda: _unit(rng.dirichlet(np.ones(data.k)) @ data.rays),
          "outside": lambda: _unit(np.eye(d)[int(rng.integers(d))] + 0.05),
          "at_ray": lambda: data.rays[int(rng.integers(data.k))]}[where]()
    mixed = np.zeros(d)
    mixed[:2] = 0.3, -1.0
    return data, pc, (np.eye(d)[int(rng.integers(d))], -pc, mixed, rng.normal(size=d))


class TestQuantityDualMatchesLp:
    @given(st.sampled_from(HULL_CASES), st.sampled_from([3, 4]),
           st.sampled_from(("inside", "outside", "at_ray")), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dual_matches_lp_and_exact(self, case, d, where, seed):
        data, pc, us = _quantity_case(case, np.random.default_rng(seed), d, where)
        if case == "violating":
            with pytest.raises(ValidationError):
                quantity_bounds(data, pc, us[0])
            return
        for u in us:
            self._check(case, data, pc, u)

    @staticmethod
    def _check(case, data, pc, u):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            real = prodenv.geometry.linprog
            mp.setattr(prodenv.geometry, "linprog",
                       lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
            res = quantity_bounds(data, pc, u)
        # Without a hull one LP per face finds the floor and two LPs answer.
        assert (_faces(data) is None) == case.startswith("rank_deficient")
        if case.startswith("rank_deficient"):
            assert len(calls) == data.k + 2
        floor = float(np.max(_face_minima(data, pc[None])[0]))
        rows, offsets = data.rays, data.values
        if np.isfinite(floor):
            rows, offsets = np.vstack([rows, -pc]), np.append(offsets, -floor)
        (neg, top), _ = exact_support(rows, offsets, np.vstack([-u, u]))
        try:
            with pytest.MonkeyPatch.context() as mp:
                _reference_lp_tolerance(mp, data)
                lp = _yc_range(data, pc, u, floor) or [None, None]
        except NumericFailure:
            # HiGHS at the reference tolerance can end "model_status is
            # Unknown" (CHANGES.md FOUND 58): rational arithmetic judges.
            lp = [None, None]
        scale = max(1.0, float(np.max(np.abs(data.values))))
        for sign, value, cert, exact, ref in ((-1, res.lower, res.lower_certificate, -neg, lp[0]),
                                              (1, res.upper, res.upper_certificate, top, lp[1])):
            if np.isinf(value) or np.isinf(exact):
                assert value == exact == sign * np.inf
                assert ref is None or ref[0] == value
                # Only an end the LPs answer carries no ray.
                assert cert is not None or calls
                if cert is not None:
                    _check_ray(data, pc, floor, u, sign, cert["ray"])
                continue
            y = cert["y_c"]
            assert u @ y == pytest.approx(value, rel=0, abs=1e-12 * scale)
            # Among rays 1e-6 apart the hull and the LPs both slide along a
            # face (CHANGES.md FOUND 45), and an LP stops up to 2e-9 |v|
            # outside it: there only the dual's own points are checked.
            if case == "near_parallel" and "mu" not in cert:
                continue
            assert np.all(data.rays @ y <= data.values + 1e-9 * scale)
            assert pc @ y >= floor - 1e-9 * scale
            if case == "near_parallel":
                continue
            assert value == pytest.approx(exact, rel=1e-9, abs=1e-12)
            # At 1e-10 the LP stops up to 1.6e-9 relative off a small end
            # (free_disposal, d = 4, seed 175) when its point leaves the
            # envelope: then it solved a relaxation.
            if ref is not None and np.max(data.rays @ ref[1] - data.values) <= 1e-12 * scale:
                assert value == pytest.approx(ref[0], rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# d = 3 bounds
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
        bad = with_pair(data, mid, 2.0 * (1.0 + np.max(np.abs(data.values))))
        pc = np.array([1.0, 2.0, 2.0]) / 3.0
        assert not wapm_feasible(bad)[0]
        with pytest.raises(ValidationError):
            profit_bounds(bad, pc)
        with pytest.raises(ValidationError):
            quantity_bounds(bad, pc, np.eye(3)[0])

    def test_near_parallel_bounds_do_not_cross(self):
        # The envelope of test_near_parallel_rays_beat_the_lp, projected: the
        # per-face LPs put the lower bound 6.4e-11 above the upper one, their
        # certificate 1.5e-10 outside a constraint.
        rng = np.random.default_rng(126)
        base = _unit(rng.uniform(0.1, 1.0, (10, 3)))
        rays = np.vstack([base, _unit(base + 1e-6 * rng.normal(size=(10, 3)))])
        data = project_rationalizable(ProfitData(1, rays, rng.uniform(-1.0, 1.0, 20)))[0]
        res = profit_bounds(data, _unit(np.array([0.5, 0.6, 0.7])))
        assert res.lower <= res.upper
        scale = max(1.0, float(np.max(np.abs(data.values))))
        for cert in (res.lower_certificate, res.upper_certificate):
            assert np.all(data.rays @ cert["y"] <= data.values + 1e-12 * scale)

    def test_sweep_lower_point_where_the_upper_end_is_infinite(self):
        # p[free] = (0.96, 0.02) leaves the cone of the slice's normals, so
        # its upper end is +inf and has no maximizer: the lower point starts
        # from a finite slice point, and this row is the lower argmin.
        data, tech = diewert_data_3d(np.random.default_rng(1))
        ybar = float(tech.profit(data.rays[4])[1][0])
        grid = _unit(np.array([[0.3, 1.0, 0.02], [0.5, 0.6, 0.6], [0.6, 0.5, 0.6]]))
        res = profit_bounds_fixed_quantity(data, 0, ybar, grid)
        assert res.upper == np.inf and np.isfinite(res.lower)
        np.testing.assert_array_equal(res.lower_certificate["p_c"], grid[0])
        y = res.lower_certificate["y_c"]
        assert y[0] == ybar
        assert np.all(data.rays @ y <= data.values + 1e-9)
        assert grid[0] @ y == pytest.approx(res.lower, rel=0, abs=1e-12)

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
# One face kernel per envelope
# ---------------------------------------------------------------------------


class TestSharedKernel:
    """An envelope builds its face kernel once, and no answer changes the
    next one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # In every prodenv module that binds _kernel by name.
        calls, real = [], prodenv.geometry._kernel
        for mod in [m for name, m in sys.modules.items() if name.startswith("prodenv")]:
            if getattr(mod, "_kernel", None) is real:
                monkeypatch.setattr(mod, "_kernel", lambda env: calls.append(env) or real(env))
        return calls

    @staticmethod
    def data(d, seed=0, k=12):
        rng = np.random.default_rng(seed + d)
        b = random_admissible_b(rng, d=d)
        rays = _unit(rng.uniform(0.25, 1.0, size=(k, d)))
        return ProfitData(1, rays, diewert_value(b, rays)), b, rng

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_question_reads_one_kernel(self, d, builds):
        data, b, rng = self.data(d)
        pc = _unit(data.rays.mean(axis=0))
        assert wapm_feasible(data)[0]
        profit_bounds(data, pc)
        profit_bounds(data, _unit(np.eye(d)[0] + 0.05))
        quantity_bounds(data, pc, np.eye(d)[0])
        project_rationalizable(data)
        grid = list(_unit(rng.uniform(0.25, 1.0, size=(10, d))))
        for ybar in diewert_supply(b, grid[3])[0], diewert_supply(b, grid[5])[0]:
            profit_bounds_fixed_quantity(data, 0, float(ybar), grid)
        # Each sweep in d >= 3 builds the kernel of its slice once, not once
        # per grid ray; the d = 2 slice, a half-line, needs none.
        assert builds[0] is data.envelope()
        assert sum(env is data.envelope() for env in builds) == 1
        assert len(builds) - 1 == (2 if d == 3 else 0)

    @pytest.mark.parametrize("convex", [True, False])
    def test_duality_oracle_reads_each_envelopes_kernel(self, convex, builds, monkeypatch):
        cuts = []
        real_cut = prodenv.geometry._Segments.cut
        monkeypatch.setattr(prodenv.geometry._Segments, "cut", classmethod(
            lambda cls, *args: cuts.append(args) or real_cut(*args)))
        b = random_admissible_b(np.random.default_rng(5))
        f = lambda p: float(diewert_value(b, np.asarray(p)[None, :])[0])
        g = lambda p: f(p) * (1.01 + 0.005 * np.sin(9.0 * p[0]))
        rays = unit_rays_2d(np.linspace(0.2, 1.3, 30))
        rep = duality_check(f, g, RestrictedPriceSet(tuple(map(tuple, rays))),
                            convex_flag=convex, geometric_oracle=True)
        assert rep.oracle_d_h is not None
        assert len(builds) == 2 and len(cuts) == 2

    @pytest.mark.parametrize("d, k", [(2, 3), (2, 12), (3, 3), (3, 12)])
    def test_no_state_between_calls(self, d, k):
        # Three rays leave a face unbounded below at the mean ray in d = 3.
        data, _, _ = self.data(d, seed=10, k=k)
        # In and out of the rays' cone: finite and +inf certificates.
        pcs = (_unit(data.rays.mean(axis=0)), _unit(np.eye(d)[0] + 0.05))

        def answers(data):
            return ([profit_bounds(data, pc) for pc in pcs]
                    + [quantity_bounds(data, pcs[0], np.eye(d)[0])])

        # A caller that writes into what it was given.
        for res in answers(data):
            for cert in (res.lower_certificate, res.upper_certificate):
                for v in (cert or {}).values():
                    if isinstance(v, np.ndarray) and v.flags.writeable:
                        v += 1.0
        fresh = ProfitData(1, np.array(data.rays), np.array(data.values))
        assert ([r.to_json_dict() for r in answers(data)]
                == [r.to_json_dict() for r in answers(fresh)])


# ---------------------------------------------------------------------------
# LP budget: the bounds questions stay (nearly) LP-free
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

        # Closed form at a finite p_c; out of the cone, a face's end ray
        # certifies +inf.
        for pc, finite in ((np.array([np.cos(0.8), np.sin(0.8)]), True),
                           (np.array([np.cos(0.05), np.sin(0.05)]), False)):
            res = profit_bounds(data, pc)
            assert np.isfinite(res.upper) == finite
            assert len(lp_calls) == 0
        single = ProfitData(1, np.array([[1 / RT2, 1 / RT2]]), np.array([0.0]))
        res = profit_bounds(single, np.array([1, 2]) / np.sqrt(5))
        assert np.isneginf(res.lower) and np.isposinf(res.upper)
        assert not support_value(data.envelope(), np.array([np.cos(0.05), np.sin(0.05)])).finite
        assert len(lp_calls) == 0

        del lp_calls[:]
        quantity_bounds(data, np.array([np.cos(0.8), np.sin(0.8)]), [1.0, 0.0])
        assert len(lp_calls) == 0

        del lp_calls[:]
        star = np.array([np.cos(0.8), np.sin(0.8)])
        grid = unit_rays_2d(np.linspace(0.01, np.pi / 2 - 0.01, 720))
        res = profit_bounds_fixed_quantity(data, 0, float(tech.profit(star)[1][0]),
                                           grid)
        assert res.feasible
        assert len(lp_calls) == 0

    def test_three_goods_budget(self, lp_calls):
        # The hull's vertices answer WAPM, L(p_c) and the quantity bound's
        # dual, and the kernel of one slice the sweep: no question solves an LP.
        rng = np.random.default_rng(60)
        b = random_admissible_b(rng, d=3)
        rays = _unit(rng.uniform(0.25, 1.0, size=(60, 3)))
        data = ProfitData(1, rays, diewert_value(b, rays))
        cut = ProfitData(1, rays, np.where(np.arange(60) % 7 == 0,
                                           0.9 * data.values, data.values))
        assert wapm_feasible(data)[0] and not wapm_feasible(cut)[0]
        assert len(lp_calls) == 0

        pc = _unit(rays.mean(axis=0))
        res = profit_bounds(data, pc)
        assert np.isfinite(res.lower) and np.isfinite(res.upper)
        assert len(lp_calls) == 0

        # Out of the rays' cone a recession generator certifies +inf.
        out = _unit(np.array([1.0, 0.05, 0.05]))
        unbounded = profit_bounds(data, out)
        w = unbounded.upper_certificate["ray"]
        assert unbounded.upper == np.inf
        assert np.all(rays @ w <= 1e-12) and out @ w > 0
        assert len(lp_calls) == 0

        qb = quantity_bounds(data, pc, np.eye(3)[0])
        assert np.isfinite(qb.lower) and np.isfinite(qb.upper)
        assert len(lp_calls) == 0

        grid = _unit(rng.uniform(0.25, 1.0, size=(20, 3)))
        sweep = profit_bounds_fixed_quantity(data, 0, float(diewert_supply(b, grid[7])[0]),
                                             list(grid))
        assert sweep.feasible
        assert len(lp_calls) == 0

        assert sharpness_check(data, pc, res.upper)
        assert not sharpness_check(data, pc, res.upper + 0.1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_projection_and_convexification(self, d, lp_calls):
        # Support values are closed form in d = 2 and one convex hull in d >= 3.
        rng = np.random.default_rng(d)
        b = random_admissible_b(rng, d=d)
        rays = rng.uniform(0.25, 1.0, size=(12, d))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        f = lambda p: float(diewert_value(b, np.asarray(p)[None, :])[0])
        g = lambda p: f(p) * (1.0 + 0.01 * np.sin(9.0 * p[0]))

        project_rationalizable(ProfitData(1, rays, [g(r) for r in rays]))
        duality_check(f, g, RestrictedPriceSet(tuple(map(tuple, rays))),
                      convex_flag=False, geometric_oracle=True)
        assert len(lp_calls) == 0

    def test_three_goods_support_values_at_own_rays(self, lp_calls):
        rng = np.random.default_rng(60)
        rays = rng.uniform(0.25, 1.0, size=(60, 3))
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        env = HalfspaceEnvelope(rays, diewert_value(random_admissible_b(rng, d=3), rays)
                                + rng.uniform(0.0, 0.05, 60))
        values = support_values(env, rays)
        assert len(lp_calls) == 0
        assert np.all(values <= env.offsets + 1e-12) and np.any(values < env.offsets - 1e-6)
