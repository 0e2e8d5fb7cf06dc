import ast
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodenv.geometry
from prodenv.bounds import ProfitData, profit_bounds
from prodenv.errors import NumericFailure, ValidationError
from prodenv.estimation import diewert_value
from prodenv.geometry import (HalfspaceEnvelope, PriceRay, RestrictedPriceSet,
                              euler_residual, free_disposal_hull,
                              hausdorff_extended, hausdorff_oracle_2d,
                              recession_ok, solve_lp, support_value,
                              support_values)

from conftest import random_admissible_b, unit_rays_2d

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


SUPPORT_CASES = ("plain", "single", "near_parallel", "large", "slack")


def _envelope_2d(case, rng):
    """Random d = 2 envelope: Diewert profits on k rays; one ray, a pair of
    rays 1e-6 rad apart, values x1e3, or slack added to some rows (a table
    that is not rationalizable, whose slack rows have empty faces)."""
    k = 1 if case == "single" else int(rng.integers(3, 12))
    angles = np.sort(rng.uniform(0.2, 1.37, size=k))
    if case == "near_parallel":
        angles = np.sort(np.append(angles, angles[k // 2] + 1e-6))
    rays = np.vstack(unit_rays_2d(angles))
    values = diewert_value(random_admissible_b(rng), rays)
    if case == "large":
        values = 1e3 * values
    if case == "slack":
        values = values + rng.uniform(0.0, 0.2, values.size) * (rng.random(values.size) < 0.5)
    return HalfspaceEnvelope(rays, values)


class TestSupportValues:
    @given(st.sampled_from(SUPPORT_CASES), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_support_lp(self, case, seed):
        rng = np.random.default_rng(seed)
        env = _envelope_2d(case, rng)
        # Its own rays, then positive rays that may leave the normals' cone.
        U = np.vstack([env.normals] + unit_rays_2d(rng.uniform(0.01, 1.56, 8))
                      + unit_rays_2d([0.05, 1.52]))
        got = support_values(env, U)
        for u, v in zip(U, got):
            ref = support_value(env, u)
            if not (ref.finite and np.isfinite(v)):
                assert v == ref.value
                continue
            tol = 1e-12 * max(1.0, abs(ref.value))
            slack = float(np.max(env.normals @ ref.maximizer - env.offsets))
            if slack <= 1e-12 * max(1.0, float(np.max(np.abs(env.offsets)))):
                assert abs(v - ref.value) <= tol
            else:
                # HiGHS stopped inside its FEAS_TOL band (near-parallel rays):
                # it maximized over the envelope relaxed by its own violation.
                relaxed = HalfspaceEnvelope(env.normals, env.offsets + slack)
                assert v <= ref.value + tol
                assert ref.value <= support_values(relaxed, u[None])[0] + tol

    def test_profit_upper_bound_is_the_face_support(self):
        # Near-parallel rays, where the support LP stopped inside its
        # FEAS_TOL band (seed 20: 1.5e-10 high); the bound and its
        # maximizer now come from the faces.
        finite = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            env = _envelope_2d("near_parallel", rng)
            data = ProfitData(1, env.normals, env.offsets)
            for pc in unit_rays_2d(rng.uniform(0.01, 1.56, 4)):
                res, ref = profit_bounds(data, pc), support_values(env, pc[None])[0]
                if not np.isfinite(ref):
                    assert res.upper == ref
                    continue
                finite += 1
                tol = 1e-12 * max(1.0, abs(ref))
                assert abs(res.upper - ref) <= tol
                y = res.upper_certificate["y"]
                assert abs(pc @ y - ref) <= 1e-9 * max(1.0, abs(ref))
                assert np.all(env.normals @ y <= env.offsets + 1e-9)
        assert finite > 50

    def test_three_goods_use_the_lp(self, rng):
        env = free_disposal_hull(rng.normal(size=(5, 3)))
        U = rng.uniform(0.05, 1.0, size=(4, 3))
        assert np.array_equal(support_values(env, U),
                              [support_value(env, u).value for u in U])

    def test_rejects_negative_or_misshapen_directions(self):
        # A halfplane's support at -normal is +inf, which no face shows.
        with pytest.raises(ValueError):
            support_values(diag_env(), [[-1.0, -1.0]])
        with pytest.raises(ValueError):
            support_values(diag_env(), [1.0, 1.0])


def sampled_hausdorff_2d(env_a, env_b, n=20_000):
    """Reference for the exact oracle: n samples along each boundary (every
    vertex, the edges, and the end rays cut far out), each at its exact
    distance to the other boundary, or 0 inside the other envelope.
    Sampling can only miss the largest distance, never exceed it."""
    def vertices(env):
        # Every feasible crossing of two constraint lines, in order along
        # the boundary (y_1 - y_2 grows along it).
        N, b = env.normals, env.offsets
        tol = 1e-12 * max(1.0, float(np.max(np.abs(b))))
        cross = [np.linalg.solve(N[[i, j]], b[[i, j]]) for i in range(len(b))
                 for j in range(i) if abs(np.linalg.det(N[[i, j]])) > 1e-12]
        verts = np.array([v for v in cross if np.all(N @ v <= b + tol)]).reshape(-1, 2)
        verts = verts if len(verts) else b[:1, None] * N[:1]
        return verts[np.argsort(verts[:, 0] - verts[:, 1])]

    def pieces(env):
        # Boundary edges (a, a + d) between consecutive vertices, then the
        # two end rays a + t d, t >= 0.
        verts, theta = vertices(env), np.arctan2(env.normals[:, 1], env.normals[:, 0])
        first, last = env.normals[np.argmax(theta)], env.normals[np.argmin(theta)]
        a = np.vstack([verts[:-1], verts[0], verts[-1]])
        d = np.vstack([np.diff(verts, axis=0), [-first[1], first[0]], [last[1], -last[0]]])
        return a, d, np.r_[np.ones(len(verts) - 1), np.inf, np.inf]

    def samples(env):
        a, d, hi = pieces(env)
        lengths = np.linalg.norm(d, axis=1) * np.where(np.isinf(hi), far, 1.0)
        per = np.maximum(2, np.round(n * lengths / lengths.sum()).astype(int))
        return np.vstack([a_i + np.linspace(0.0, min(h, far), m)[:, None] * d_i
                          for a_i, d_i, h, m in zip(a, d, hi, per)])

    def dist_to_boundary(pts, env):
        a, d, hi = pieces(env)
        t = np.clip(np.einsum("nmk,mk->nm", pts[:, None] - a, d) / np.sum(d * d, axis=1),
                    0.0, hi)
        return np.min(np.linalg.norm(pts[:, None] - a - t[..., None] * d, axis=2), axis=1)

    far = 4.0 * (1.0 + max(float(np.max(np.abs(vertices(e)))) for e in (env_a, env_b)))

    def directed(env_from, env_to):
        pts = samples(env_from)
        inside = np.all(pts @ env_to.normals.T <= env_to.offsets + 1e-9, axis=1)
        return float(np.max(np.where(inside, 0.0, dist_to_boundary(pts, env_to))))

    return max(directed(env_a, env_b), directed(env_b, env_a))


class TestHausdorffOracle2D:
    def test_identical(self):
        env = diag_env()
        assert hausdorff_oracle_2d(env, env) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_halfspaces(self):
        p = np.array([1, 1]) / RT2
        e0 = HalfspaceEnvelope.from_constraints([(p, 0.0)])
        e1 = HalfspaceEnvelope.from_constraints([(p, 1.0)])
        assert hausdorff_oracle_2d(e0, e1) == pytest.approx(1.0, rel=1e-6)

    def test_agrees_with_formula_on_convex_perturbation(self, rng):
        b = np.array([[1.3, -0.35], [-0.35, 0.9]])
        angles = np.linspace(0.15, np.pi / 2 - 0.15, 50)
        rays = np.column_stack([np.cos(angles), np.sin(angles)])
        vals = diewert_value(b, rays)
        scale = 1.0 + rng.uniform(0.005, 0.03)
        env_a = HalfspaceEnvelope(rays, vals)
        env_b = HalfspaceEnvelope(rays, scale * vals)
        P = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)
        formula = hausdorff_extended(vals, scale * vals, P)
        geometric = hausdorff_oracle_2d(env_a, env_b)
        assert geometric == pytest.approx(formula, abs=2e-3)

    def test_different_recession_cones_are_infinitely_far(self):
        # A halfplane against the quadrant below its vertex: A runs off to
        # infinity along (1, -1), which leaves B's recession cone.
        a = diag_env()
        b = HalfspaceEnvelope(np.eye(2), np.zeros(2))
        assert hausdorff_oracle_2d(a, b) == np.inf
        assert hausdorff_oracle_2d(b, a) == np.inf

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_sampling_never_exceeds_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        env_a = _envelope_2d(SUPPORT_CASES[seed % len(SUPPORT_CASES)], rng)
        # B moves every offset; for odd seeds it also drops interior rays,
        # so the two envelopes share only their recession cone.
        keep = np.arange(env_a.num_constraints)
        if seed % 2:
            keep = keep[(keep % 2 == 0) | (keep == keep[-1])]
        env_b = HalfspaceEnvelope(env_a.normals[keep], env_a.offsets[keep]
                                  + rng.uniform(-0.1, 0.1, keep.size))
        exact = hausdorff_oracle_2d(env_a, env_b)
        assert np.isfinite(exact)
        sampled = sampled_hausdorff_2d(env_a, env_b)
        assert sampled <= exact * (1 + 1e-9) + 1e-12
        assert sampled == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_rejects_other_dimensions(self):
        env = free_disposal_hull(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            hausdorff_oracle_2d(env, env)


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
