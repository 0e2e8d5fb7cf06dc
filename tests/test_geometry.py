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
from prodenv.estimation import DiewertFit, diewert_value
from prodenv.geometry import (HalfspaceEnvelope, RestrictedPriceSet,
                              _support_lp, euler_residual, free_disposal_hull,
                              hausdorff_extended, hausdorff_oracle_2d,
                              recession_ok, solve_lp, support_value,
                              support_values)
from prodenv.identify import ProfitTable
from prodenv.proxies import ProxyModel

from conftest import _unit, random_admissible_b, unit, unit_rays_2d
from oracles import exact_support

RT2 = np.sqrt(2.0)


def diag_env(value=0.0):
    return HalfspaceEnvelope(np.array([1, 1]) / RT2, [value])


class TestRestrictedPriceSet:
    def test_rays_are_one_read_only_matrix(self):
        rays = np.array([unit([1, t]) for t in (0.5, 1.0, 2.0)])
        ps = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)
        assert ps.rays.shape == (3, 2) and ps.rays.dtype == np.float64
        assert np.array_equal(ps.rays, rays) and len(ps) == 3 and ps.dimension == 2
        assert not ps.rays.flags.writeable
        with pytest.raises(ValueError):
            ps.rays[0, 0] = 1.0
        rays[0, 0] = 1.0             # the set holds its own copy
        assert ps.rays[0, 0] != 1.0

    @pytest.mark.parametrize("bad", [[1.0, 0.0], unit([1.0, -1.0]), [0.0, 0.0]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="strictly positive"):
            RestrictedPriceSet([unit([1, 1]), bad])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit Euclidean norm"):
            RestrictedPriceSet([unit([1, 2]), [1.0, 1.0]])

    @pytest.mark.parametrize("rays", [(), [[]], [unit([1, 1]), unit([1, 1, 1])]])
    def test_rejects_empty_or_ragged(self, rays):
        with pytest.raises(ValueError):
            RestrictedPriceSet(rays)


class TestSupportValue:
    def test_single_halfspace_on_ray(self):
        # One observed ray with zero profit: support on that ray is zero.
        res = support_value(diag_env(), unit([1, 1]))
        assert res.finite
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.maximizer is not None

    def test_single_halfspace_off_ray_unbounded(self):
        # Any other positive direction escapes to infinite profit.
        res = support_value(diag_env(), unit([1, 2]))
        assert not res.finite
        w = res.direction
        assert np.array([1, 1]) / RT2 @ w <= 1e-9          # feasible direction
        assert np.array([1, 2]) / np.sqrt(5) @ w > 1e-9    # improves the objective

    def test_tight_constraint_is_attained(self, rng):
        angles = rng.uniform(0.2, 1.3, size=6)
        rays = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        vals = [1.0 + 0.3 * np.sin(3 * a) for a in angles]  # convex? not needed
        env = HalfspaceEnvelope(rays, vals)
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
        env = HalfspaceEnvelope([rays[0], rays[-1]], [1.0, 1.0])
        q = unit([1.0, 1.1])
        before = support_value(env, q).value
        env2 = HalfspaceEnvelope(np.vstack([env.normals, rays[2]]), np.append(env.offsets, 0.8))
        assert support_value(env2, q).value <= before + 1e-9

    def test_homogeneity_in_direction(self):
        env = HalfspaceEnvelope(unit_rays_2d([0.4, 0.8, 1.2]), [1.0, 1.0, 1.0])
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
        assert not recession_ok(diag_env(), [unit([1, 2])])

    def test_free_disposal_hull_passes(self, rng):
        pts = rng.normal(size=(6, 2))
        env = free_disposal_hull(pts)
        probes = [unit(rng.uniform(0.05, 1, 2)) for _ in range(25)]
        assert recession_ok(env, probes)

    def test_spanning_constraints(self):
        env = HalfspaceEnvelope(np.eye(2), [1.0, 1.0])
        assert recession_ok(env, [unit([1, 1]),
                                  unit([2, 1])])


class TestHausdorffExtended:
    def test_identical_sets(self):
        P = RestrictedPriceSet([unit([1, t]) for t in (0.5, 1.0, 2.0)])
        a = np.array([1.0, 2.0, 3.0])
        assert hausdorff_extended(a, a, P) == 0.0

    def test_ball_addition(self):
        # Adding c to a support function on the sphere = Minkowski ball of radius c.
        P = RestrictedPriceSet([unit([1, t]) for t in (0.5, 1.0, 2.0)])
        a = np.array([1.0, 2.0, 3.0])
        assert hausdorff_extended(a, a + 0.37, P) == pytest.approx(0.37)

    def test_length_mismatch(self):
        P = RestrictedPriceSet([unit([1, 1])])
        with pytest.raises(ValueError):
            hausdorff_extended([1.0, 2.0], [1.0], P)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, a, b, c):
        P = RestrictedPriceSet([unit([1, t]) for t in (0.4, 0.8, 1.4, 2.5)])
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


SUPPORT_CASES_ND = ("plain", "linear", "large", "near_parallel_1e-6",
                    "near_parallel_1e-9", "free_disposal", "rank_deficient",
                    "duplicate")


def _envelope_nd(case, rng, d):
    """Random envelope in d >= 3 with at most 10 constraints: Diewert
    profits with slack on some rows; a linear profit (every constraint
    through one point); values x1e3; partners 1e-6 or 1e-9 away from half
    the rays; a free-disposal hull (normals on the orthant boundary);
    normals with a zero last coordinate (rank d - 1, the LP path); or two
    rays repeated, one with a larger value."""
    if case == "free_disposal":
        while True:
            env = free_disposal_hull(rng.normal(size=(int(rng.integers(2, 4)), d)))
            if env.num_constraints <= 10:
                return env
    k = int(rng.integers(d + 1, 8 if case.startswith("near") or case == "duplicate" else 11))
    rays = _unit(rng.uniform(0.1, 1.0, (k, d)))
    if case == "rank_deficient":
        rays[:, -1] = 0.0
        rays = _unit(rays)
    if case.startswith("near"):
        gap = float(case.rsplit("_", 1)[1])
        rays = np.vstack([rays, _unit(rays[:k // 2] + gap * rng.normal(size=(k // 2, d)))])
    if case == "duplicate":
        rays = np.vstack([rays, rays[:2]])
    values = diewert_value(random_admissible_b(rng, d), rays)
    values = values + rng.uniform(0.0, 0.2, values.size) * (rng.random(values.size) < 0.5)
    if case == "linear":
        values = rays @ rng.normal(size=d)
    if case == "large":
        values = 1e3 * values
    return HalfspaceEnvelope(rays, values)


# HiGHS (scipy 1.17.1) ended the support LP at row 5 with "model_status is
# Unknown"; normals and offsets drawn as uniform(0.05, 1) rows normalized and
# uniform(-1, 1) values.
STATUS_UNKNOWN_NORMALS = np.array([
    [0.30443957284892204, 0.6321703707182137, 0.14640286208152503, 0.6973115306976502],
    [0.15239843567643002, 0.5578758704104471, 0.7911626102996601, 0.19902500868230422],
    [0.5861847027533402, 0.5893184155732267, 0.31566416380846324, 0.4576542745472214],
    [0.20048217745795693, 0.23107684980828125, 0.8400323684291575, 0.4480580386464431],
    [0.5724211963672758, 0.6512746751630984, 0.17163789994094433, 0.4676705066010892],
    [0.6332945916551289, 0.7579761913994512, 0.14119284165816468, 0.06689271198298591],
    [0.21273052938021525, 0.417812444602994, 0.6239178466645902, 0.6252239627668669],
    [0.5383620023769001, 0.15417550565715102, 0.13828140439704906, 0.8168687293868434],
    [0.9190996569918284, 0.2972576370193987, 0.1457360365949407, 0.2136696641752052]])
STATUS_UNKNOWN_OFFSETS = np.array([
    -0.8197826736798997, 0.0898831069758228, 0.9737543908530291, -0.5498649838352083,
    -0.33969165713595273, 0.6683415382317197, 0.3754496200258002, -0.3228781109136112,
    0.4840935375179989])


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
            ref = _support_lp(env, u)               # the support LP, not the faces
            if not (ref.finite and np.isfinite(v)):
                assert v == ref.value
                if v == np.inf:
                    w = support_value(env, u).direction
                    assert np.all(env.normals @ w <= 1e-12) and u @ w > 0
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

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("case", SUPPORT_CASES_ND)
    def test_matches_exact_oracle(self, case, d):
        # Own rays, positive rays and near-axis rays (mostly +inf) against
        # rational arithmetic.  A float answer carries the rounding of u . y
        # at the maximizer, so the tolerance grows with |u| |y*| where
        # near-parallel rays put the vertex y* far out.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            env = _envelope_nd(case, rng, d)
            U = np.vstack([env.normals, _unit(rng.uniform(0.01, 1.0, (4, d))),
                           _unit(np.eye(d) + 0.05)])
            exact, reach = exact_support(env.normals, env.offsets, U)
            got = support_values(env, U)
            for u, e, r, v in zip(U, exact, reach, got):
                res = support_value(env, u)
                if np.isinf(e):
                    assert v == e and res.value == e
                    assert np.all(env.normals @ res.direction <= 1e-9) and u @ res.direction > 0
                    continue
                tol = 1e-12 * max(1.0, abs(e), r)
                assert abs(v - e) <= tol and abs(res.value - e) <= tol
                assert abs(u @ res.maximizer - res.value) <= tol
                far = max(1.0, float(np.max(np.abs(env.offsets))), r / np.linalg.norm(u))
                assert np.all(env.normals @ res.maximizer <= env.offsets + 1e-12 * far)

    def test_near_parallel_rays_beat_the_lp(self):
        # Ten rays and partners 1e-6 away with random offsets: the support LP
        # stopped at -0.9055 as "optimal"; the vertex (|y| ~ 4e6) gives the
        # rational value.
        rng = np.random.default_rng(126)
        base = _unit(rng.uniform(0.1, 1.0, (10, 3)))
        rays = np.vstack([base, _unit(base + 1e-6 * rng.normal(size=(10, 3)))])
        env = HalfspaceEnvelope(rays, rng.uniform(-1.0, 1.0, 20))
        (e,), (r,) = exact_support(env.normals, env.offsets, rays[:1])
        assert e == pytest.approx(-0.619157968, abs=1e-9)
        res = support_value(env, rays[0])
        assert abs(res.value - e) <= 1e-12 * r
        assert abs(support_values(env, rays[:1])[0] - e) <= 1e-12 * r

    def test_lp_status_unknown_is_not_reached(self):
        # HiGHS ended "model_status is Unknown" (NumericFailure) at row 5 of
        # this plain envelope; the constraint is tight, so the answer is v[5].
        env = HalfspaceEnvelope(STATUS_UNKNOWN_NORMALS, STATUS_UNKNOWN_OFFSETS)
        res = support_value(env, env.normals[5])
        assert res.value == pytest.approx(env.offsets[5], abs=1e-12)
        assert np.all(env.normals @ res.maximizer <= env.offsets + 1e-12)
        exact, _ = exact_support(env.normals, env.offsets, env.normals)
        assert exact[5] == env.offsets[5]
        assert np.allclose(support_values(env, env.normals), exact, rtol=0, atol=1e-12)

    def test_rejects_negative_or_misshapen_directions(self):
        # A halfplane's support at -normal is +inf, which no face shows.
        with pytest.raises(ValueError):
            support_values(diag_env(), [[-1.0, -1.0]])
        with pytest.raises(ValueError):
            support_value(diag_env(), -diag_env().normals[0])
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
        e0 = HalfspaceEnvelope(p, [0.0])
        e1 = HalfspaceEnvelope(p, [1.0])
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
        res = support_value(env, unit([1, 1]))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        # The set is exactly the negative orthant.
        assert env.contains([-1.0, -0.5])
        assert not env.contains([0.1, -5.0])

    def test_two_points_cross_ray(self):
        env = free_disposal_hull([[1.0, 0.0], [0.0, 1.0]])
        res = support_value(env, unit([1, 1]))
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
    @pytest.mark.parametrize("reader, name", [
        (ProfitTable, "prodenv.profit-table"), (ProxyModel, "prodenv.proxy-model"),
        (DiewertFit, "prodenv.diewert-fit")], ids=["ProfitTable", "ProxyModel", "DiewertFit"])
    def test_reader_rejects_another_major_version(self, tmp_path, reader, name):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"schema": f"{name}/2"}))
        with pytest.raises(ValidationError, match=f"expected schema {name}/1, got '{name}/2'"):
            reader.load(str(path))

    def test_distinct_rays_required(self):
        with pytest.raises(ValueError, match="distinct"):
            RestrictedPriceSet((unit([1, 1]), unit([2, 2])))
