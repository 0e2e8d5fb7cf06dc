import ast
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodenv.geometry
from prodenv.errors import NumericFailure, ValidationError
from prodenv.geometry import (HalfspaceEnvelope, PriceRay, RestrictedPriceSet,
                              euler_residual, free_disposal_hull,
                              hausdorff_extended, hausdorff_oracle_2d,
                              recession_ok, solve_lp, support_value)

RT2 = np.sqrt(2.0)


def diag_env(value=0.0):
    return HalfspaceEnvelope.from_constraints([(np.array([1, 1]) / RT2, value)])


class TestPriceRay:
    def test_normalization_and_invariants(self):
        r = PriceRay.from_direction([3.0, 4.0])
        assert np.allclose(r.components, [0.6, 0.8])
        assert abs(np.linalg.norm(r.components) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -1.0], [0.0, 0.0]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            PriceRay.from_direction(bad)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PriceRay(np.array([1.0, 1.0]))


class TestSupportValue:
    def test_single_halfspace_on_ray(self):
        # One observed ray with zero profit: support on that ray is zero.
        res = support_value(diag_env(), PriceRay.from_direction([1, 1]))
        assert res.finite
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.maximizer is not None

    def test_single_halfspace_off_ray_unbounded(self):
        # Any other positive direction escapes to infinite profit.
        res = support_value(diag_env(), PriceRay.from_direction([1, 2]))
        assert not res.finite
        w = res.direction
        assert np.array([1, 1]) / RT2 @ w <= 1e-9          # feasible direction
        assert np.array([1, 2]) / np.sqrt(5) @ w > 1e-9    # improves the objective

    def test_tight_constraint_is_attained(self, rng):
        angles = rng.uniform(0.2, 1.3, size=6)
        rays = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        vals = [1.0 + 0.3 * np.sin(3 * a) for a in angles]  # convex? not needed
        env = HalfspaceEnvelope.from_constraints(list(zip(rays, vals)))
        for ray, val in zip(rays, vals):
            res = support_value(env, ray)
            assert res.value <= val + 1e-9
            assert np.all(env.normals @ res.maximizer <= env.offsets + 1e-9)
            assert res.value == pytest.approx(float(ray @ res.maximizer), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            support_value(diag_env(), np.array([1.0, 1.0, 1.0]) / np.sqrt(3))

    def test_monotone_in_constraints(self, rng):
        # Adding a constraint never raises the support value.
        angles = np.linspace(0.3, 1.2, 5)
        rays = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        env = HalfspaceEnvelope.from_constraints([(rays[0], 1.0), (rays[-1], 1.0)])
        q = PriceRay.from_direction([1.0, 1.1])
        before = support_value(env, q).value
        env2 = env.with_constraint(rays[2], 0.8)
        assert support_value(env2, q).value <= before + 1e-9

    def test_homogeneity_in_direction(self):
        env = HalfspaceEnvelope.from_constraints(
            [(np.array([np.cos(a), np.sin(a)]), 1.0) for a in (0.4, 0.8, 1.2)])
        u = np.array([0.5, 0.7])
        v1 = support_value(env, u / np.linalg.norm(u)).value
        from scipy.optimize import linprog
        res = linprog(-(3.7 * u / np.linalg.norm(u)), A_ub=env.normals,
                      b_ub=env.offsets, bounds=[(None, None)] * 2, method="highs")
        assert -res.fun == pytest.approx(3.7 * v1, rel=1e-9)


def lp_entry_violations(src_dir) -> list:
    """Places in a source tree that bind or call ``linprog``, or read a
    solver result's ``.status``, outside ``geometry.solve_lp``."""
    found = []
    for path in sorted(pathlib.Path(src_dir).glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        if path.name == "geometry.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "solve_lp":
                    inside = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and "linprog" in (node.name, node.asname):
                ok = path.name == "geometry.py"       # the one binding
            elif isinstance(node, ast.Name) and node.id == "linprog":
                ok = id(node) in inside
            elif isinstance(node, ast.Attribute) and node.attr in ("linprog", "status"):
                ok = id(node) in inside
            else:
                continue
            if not ok:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


class TestSolveLp:
    def test_states(self):
        state, x, value = solve_lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -2.0])
        assert state == "optimal" and value == pytest.approx(3.0)
        assert np.allclose(x, [1.0, 2.0])
        assert solve_lp([1.0], [[1.0]], [0.0]) == ("unbounded", None, None)
        assert solve_lp([0.0], [[1.0], [-1.0]], [-1.0, 0.0]) == ("infeasible", None, None)
        state, x, _ = solve_lp([1.0], None, None, [[1.0]], [4.0], bounds=[(0.0, 5.0)])
        assert state == "optimal" and x[0] == pytest.approx(4.0)

    def test_other_solver_outcomes_raise(self, monkeypatch):
        monkeypatch.setattr(prodenv.geometry, "linprog", lambda *a, **k: SimpleNamespace(
            status=4, message="numerical difficulties"))
        with pytest.raises(NumericFailure, match="numerical difficulties"):
            solve_lp([1.0], [[1.0]], [0.0])

    def test_linprog_only_behind_solve_lp(self):
        # One entry point maps solver statuses to states; a second status
        # ladder anywhere in the package fails here.
        assert lp_entry_violations(pathlib.Path(prodenv.__file__).parent) == []


class TestRecession:
    def test_violating_envelope(self):
        assert not recession_ok(diag_env(), [PriceRay.from_direction([1, 2])])

    def test_free_disposal_hull_passes(self, rng):
        pts = rng.normal(size=(6, 2))
        env = free_disposal_hull(pts)
        probes = [PriceRay.from_direction(rng.uniform(0.05, 1, 2)) for _ in range(25)]
        assert recession_ok(env, probes)

    def test_spanning_constraints(self):
        env = HalfspaceEnvelope.from_constraints(
            [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 1.0)])
        assert recession_ok(env, [PriceRay.from_direction([1, 1]),
                                  PriceRay.from_direction([2, 1])])


class TestHausdorffExtended:
    def test_identical_sets(self):
        P = RestrictedPriceSet(tuple(
            PriceRay.from_direction([1, t]) for t in (0.5, 1.0, 2.0)))
        a = np.array([1.0, 2.0, 3.0])
        assert hausdorff_extended(a, a, P) == 0.0

    def test_ball_addition(self):
        # Adding c to a support function on the sphere = Minkowski ball of radius c.
        P = RestrictedPriceSet(tuple(
            PriceRay.from_direction([1, t]) for t in (0.5, 1.0, 2.0)))
        a = np.array([1.0, 2.0, 3.0])
        assert hausdorff_extended(a, a + 0.37, P) == pytest.approx(0.37)

    def test_length_mismatch(self):
        P = RestrictedPriceSet((PriceRay.from_direction([1, 1]),))
        with pytest.raises(ValueError):
            hausdorff_extended([1.0, 2.0], [1.0], P)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, a, b, c):
        P = RestrictedPriceSet(tuple(
            PriceRay.from_direction([1, t]) for t in (0.4, 0.8, 1.4, 2.5)))
        a, b, c = map(np.array, (a, b, c))
        dab = hausdorff_extended(a, b, P)
        assert dab == pytest.approx(hausdorff_extended(b, a, P))
        assert dab >= 0
        assert dab <= hausdorff_extended(a, c, P) + hausdorff_extended(c, b, P) + 1e-12


class TestHausdorffOracle2D:
    def test_identical(self):
        env = diag_env()
        assert hausdorff_oracle_2d(env, env, 500) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_halfspaces(self):
        p = np.array([1, 1]) / RT2
        e0 = HalfspaceEnvelope.from_constraints([(p, 0.0)])
        e1 = HalfspaceEnvelope.from_constraints([(p, 1.0)])
        assert hausdorff_oracle_2d(e0, e1, 2000) == pytest.approx(1.0, rel=1e-6)

    def test_agrees_with_formula_on_convex_perturbation(self, rng):
        from prodenv.estimation import diewert_value
        b = np.array([[1.3, -0.35], [-0.35, 0.9]])
        angles = np.linspace(0.15, np.pi / 2 - 0.15, 50)
        rays = np.column_stack([np.cos(angles), np.sin(angles)])
        vals = diewert_value(b, rays)
        scale = 1.0 + rng.uniform(0.005, 0.03)
        env_a = HalfspaceEnvelope(rays, vals)
        env_b = HalfspaceEnvelope(rays, scale * vals)
        P = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)
        formula = hausdorff_extended(vals, scale * vals, P)
        geometric = hausdorff_oracle_2d(env_a, env_b, 10_000)
        assert geometric == pytest.approx(formula, abs=2e-3)

    def test_rejects_other_dimensions(self):
        env = free_disposal_hull(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            hausdorff_oracle_2d(env, env, 100)


class TestFreeDisposalHull:
    def test_single_origin_point(self):
        env = free_disposal_hull([[0.0, 0.0]])
        res = support_value(env, PriceRay.from_direction([1, 1]))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        # The set is exactly the negative orthant.
        assert env.contains([-1.0, -0.5])
        assert not env.contains([0.1, -5.0])

    def test_two_points_cross_ray(self):
        env = free_disposal_hull([[1.0, 0.0], [0.0, 1.0]])
        res = support_value(env, PriceRay.from_direction([1, 1]))
        assert res.value == pytest.approx(1 / RT2, abs=1e-12)

    def test_matches_enumeration_random_d3(self, rng):
        pts = rng.normal(size=(5, 3))
        env = free_disposal_hull(pts)
        for _ in range(20):
            u = rng.uniform(0.05, 1.0, size=3)
            u /= np.linalg.norm(u)
            sv = support_value(env, u)
            assert sv.value == pytest.approx(float(np.max(pts @ u)), abs=1e-8)

    def test_free_disposal_property(self, rng):
        pts = rng.normal(size=(4, 2))
        env = free_disposal_hull(pts)
        for _ in range(50):
            y = pts[rng.integers(len(pts))]
            below = y - rng.uniform(0, 3, size=2)
            assert env.contains(below)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            free_disposal_hull([])


class TestEulerResidual:
    def test_homogeneous_degree_one(self):
        b = np.array([[1.0, -0.2], [-0.2, 0.7]])

        def f(p):
            sq = np.sqrt(p)
            return float(sq @ b @ sq)

        p = np.array([0.8, 1.7])
        assert abs(euler_residual(f, p)) <= 1e-6 * abs(f(p))

    def test_degree_two(self):
        assert euler_residual(lambda p: p[0] ** 2, np.array([1.0, 1.0])) == (
            pytest.approx(1.0, abs=1e-6))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            euler_residual(lambda p: p[0], np.array([1.0]), h=0.0)


class TestSerialization:
    def test_envelope_round_trip(self):
        env = HalfspaceEnvelope.from_constraints(
            [(np.array([np.cos(a), np.sin(a)]), float(a)) for a in (0.3, 0.9)])
        doc = json.loads(json.dumps(env.to_json_dict()))
        back = HalfspaceEnvelope.from_json_dict(doc)
        assert np.allclose(back.normals, env.normals)
        assert np.allclose(back.offsets, env.offsets)

    def test_unknown_version_rejected(self):
        env = diag_env()
        doc = env.to_json_dict()
        doc["schema"] = "prodenv.envelope/2"
        with pytest.raises(ValidationError):
            HalfspaceEnvelope.from_json_dict(doc)

    def test_distinct_rays_required(self):
        r = PriceRay.from_direction([1, 1])
        with pytest.raises(ValueError):
            RestrictedPriceSet((r, PriceRay.from_direction([2, 2])))
