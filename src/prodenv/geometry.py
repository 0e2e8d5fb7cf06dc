"""Convex-geometry primitives for production-set analysis.

A production set consistent with observed profit values is represented as an
intersection of halfspaces, one per observed price ray: the envelope
``{y : ray . y <= value for every (ray, value)}``.  The profit function of a
price-taking firm is the support function of its production set, so every
query against an envelope is a linear program.  Unbounded support values are
legitimate outputs here (they signal a recession-cone violation of the
envelope), so +inf is a first-class result state carried with a certificate
direction rather than an exception.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import NumericFailure, ValidationError

# Feasibility tolerance (solve_lp scales it by the largest right-hand side);
# value comparisons use 1e-6 relative.
FEAS_TOL = 1e-9
UNIT_TOL = 1e-12


def _as_unit_vector(v, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("ray must be a nonempty 1-d vector")
    if dim is not None and arr.size != dim:
        raise ValueError(f"ray has dimension {arr.size}, expected {dim}")
    nrm = float(np.linalg.norm(arr))
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ValueError("ray must be finite and nonzero")
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"ray must have unit Euclidean norm, got {nrm!r}")
    return arr


@dataclass(frozen=True, eq=False)
class PriceRay:
    """A strictly positive price direction on the unit sphere.

    Counterfactual and grid prices are normalized to norm one; profits at a
    scaled price follow from degree-1 homogeneity.
    """

    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("PriceRay needs a nonempty 1-d vector")
        if not np.all(arr > 0):
            raise ValueError("PriceRay components must be strictly positive")
        if abs(np.linalg.norm(arr) - 1.0) > UNIT_TOL:
            raise ValueError("PriceRay must have unit Euclidean norm")
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @classmethod
    def from_direction(cls, v) -> "PriceRay":
        """Normalize a strictly positive vector onto the unit sphere."""
        arr = np.asarray(v, dtype=float)
        nrm = np.linalg.norm(arr)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / nrm)

    @property
    def dimension(self) -> int:
        return self.components.size

    def key(self, ndigits: int = 12) -> tuple:
        """Rounded tuple usable for dedup / dict keys."""
        return tuple(round(float(c), ndigits) for c in self.components)

    def __repr__(self):
        return f"PriceRay({np.array2string(self.components, precision=6)})"


def _ray_array(ray, dim: int | None = None) -> np.ndarray:
    if isinstance(ray, PriceRay):
        arr = ray.components
        if dim is not None and arr.size != dim:
            raise ValueError(f"ray has dimension {arr.size}, expected {dim}")
        return arr
    return _as_unit_vector(ray, dim)


@dataclass(frozen=True, eq=False)
class HalfspaceEnvelope:
    """H-representation ``{y : normals[i] . y <= offsets[i] for all i}``.

    Normals are unit vectors with nonnegative components.  Strict positivity
    is not required: free-disposal hulls have facets whose normals sit on the
    orthant boundary, and dropping them would change the set.  Nonemptiness
    is automatic: pushing y far into the negative orthant satisfies every
    constraint because each normal has a positive component.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float)).copy()
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float)).copy()
        if normals.shape[0] != offsets.size or normals.shape[0] == 0:
            raise ValueError("need one offset per normal, at least one constraint")
        if not np.all(np.isfinite(normals)) or not np.all(np.isfinite(offsets)):
            raise ValueError("envelope constraints must be finite")
        if np.any(normals < -1e-9):
            raise ValueError("envelope normals must be componentwise nonnegative")
        nrm = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(nrm - 1.0) > 1e-9):
            raise ValueError("envelope normals must have unit norm")
        normals.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_constraints(cls, constraints: Iterable[tuple]) -> "HalfspaceEnvelope":
        """Build from an iterable of (ray, value) pairs."""
        pairs = list(constraints)
        if not pairs:
            raise ValueError("need at least one constraint")
        rays = np.vstack([_ray_array(r) for r, _ in pairs])
        vals = np.array([float(v) for _, v in pairs])
        return cls(rays, vals)

    @property
    def dimension(self) -> int:
        return self.normals.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.normals.shape[0]

    def contains(self, y, tol: float = FEAS_TOL) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all(self.normals @ y <= self.offsets + tol))

    def with_constraint(self, ray, value: float) -> "HalfspaceEnvelope":
        arr = _ray_array(ray, self.dimension)
        return HalfspaceEnvelope(
            np.vstack([self.normals, arr]),
            np.append(self.offsets, float(value)),
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": "prodenv.envelope/1",
            "dimension": self.dimension,
            "constraints": [
                {"ray": list(map(float, n)), "value": float(v)}
                for n, v in zip(self.normals, self.offsets)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HalfspaceEnvelope":
        _check_schema(doc, "prodenv.envelope", 1)
        cons = [(c["ray"], c["value"]) for c in doc["constraints"]]
        env = cls.from_constraints(cons)
        if env.dimension != doc["dimension"]:
            raise ValidationError("envelope dimension does not match constraints")
        return env


def _check_schema(doc: dict, name: str, major: int) -> None:
    tag = doc.get("schema", "")
    base, _, ver = tag.partition("/")
    if base != name or not ver or int(ver.split(".")[0]) != major:
        raise ValidationError(f"expected schema {name}/{major}, got {tag!r}")


@dataclass(frozen=True, eq=False)
class RestrictedPriceSet:
    """Finite evaluation grid of price rays.

    ``convex_flag`` records the caller's assertion that the grid discretizes
    a compact convex subset of the strictly positive orthant; it is stored,
    not verified, because convexity of an intended continuum cannot be
    checked from finitely many points.
    """

    rays: tuple
    convex_flag: bool = False

    def __post_init__(self):
        rays = tuple(
            r if isinstance(r, PriceRay) else PriceRay(np.asarray(r, dtype=float))
            for r in self.rays
        )
        if not rays:
            raise ValueError("RestrictedPriceSet needs at least one ray")
        dims = {r.dimension for r in rays}
        if len(dims) != 1:
            raise ValueError("all rays must share one dimension")
        keys = {r.key() for r in rays}
        if len(keys) != len(rays):
            raise ValueError("rays must be distinct")
        object.__setattr__(self, "rays", rays)

    @property
    def dimension(self) -> int:
        return self.rays[0].dimension

    def __len__(self):
        return len(self.rays)

    def as_matrix(self) -> np.ndarray:
        return np.vstack([r.components for r in self.rays])


@dataclass(frozen=True)
class SupportResult:
    """Value of ``sup {u . y : y in envelope}``.

    ``value`` is +inf when the program is unbounded; then ``direction``
    carries a feasible ray along which the objective increases (the
    unboundedness certificate) and ``maximizer`` is None.
    """

    value: float
    maximizer: np.ndarray | None = None
    direction: np.ndarray | None = None

    @property
    def finite(self) -> bool:
        return np.isfinite(self.value)


def solve_lp(c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=(None, None)):
    """The one linear-program entry point: minimize ``c . x`` subject to
    ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and ``bounds`` (free variables by
    default) with HiGHS.

    Returns ``(state, x, value)``: state is "optimal", "infeasible" or
    "unbounded", and x and the minimum are None unless it is optimal.
    Constraints hold to FEAS_TOL relative to the largest right-hand side.
    Any other solver outcome raises NumericFailure.
    """
    scale = max([1.0] + [float(np.max(np.abs(b))) for b in (b_ub, b_eq)
                         if b is not None and np.size(b)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": FEAS_TOL * scale})
    if res.status == 0:
        return "optimal", np.asarray(res.x), float(res.fun)
    if res.status in (2, 3):
        return ("infeasible" if res.status == 2 else "unbounded"), None, None
    raise NumericFailure(f"LP failed: status {res.status} ({res.message})")


def support_value(env: HalfspaceEnvelope, u) -> SupportResult:
    """Support function of the envelope at direction ``u`` (an LP).

    Returns the finite optimum with its maximizer, or the +inf state with an
    unbounded-ray certificate when ``u`` leaves the conic hull of the
    constraint normals.
    """
    uv = _ray_array(u, env.dimension) if isinstance(u, PriceRay) else np.asarray(u, float)
    if uv.shape != (env.dimension,):
        raise ValueError(f"direction has shape {uv.shape}, expected ({env.dimension},)")
    state, x, _ = solve_lp(-uv, env.normals, env.offsets)
    if state == "optimal":
        return SupportResult(value=float(uv @ x), maximizer=x)
    if state == "unbounded":
        return SupportResult(value=np.inf, direction=recession_direction(env, uv))
    raise NumericFailure("support LP infeasible on a nonempty envelope")


def recession_direction(env: HalfspaceEnvelope, c, along=None) -> np.ndarray:
    """Unit recession direction w of the envelope (normals . w <= 0, and
    along . w = 0 when ``along`` is given) with c . w > 0: the certificate
    that sup c . y is +inf.  Capping c . w at 1 keeps the LP bounded."""
    c = np.asarray(c, dtype=float)
    A_eq, b_eq = (None, None) if along is None else (np.atleast_2d(along), [0.0])
    state, w, value = solve_lp(-c, np.vstack([env.normals, c]),
                               np.append(np.zeros(env.num_constraints), 1.0),
                               A_eq, b_eq)
    if state != "optimal" or -value <= FEAS_TOL:
        raise NumericFailure("unbounded LP without a recession certificate")
    return w / np.linalg.norm(w)


def recession_ok(env: HalfspaceEnvelope, probe_rays: Sequence) -> bool:
    """True iff the support value is finite at every probe ray.

    Finite profits on a finite probe grid are the operational stand-in for
    the recession-cone property; a full certificate over all positive prices
    is not decidable from finitely many probes.
    """
    for ray in probe_rays:
        if not support_value(env, ray).finite:
            return False
    return True


def hausdorff_extended(a, b, price_set: RestrictedPriceSet) -> float:
    """Hausdorff distance between two extended sets via support values.

    ``a`` and ``b`` are support-function values on the rays of ``price_set``;
    for restrictions of convex degree-1 homogeneous functions the distance
    between the halfspace envelopes equals ``max |a - b|`` over the grid.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != (len(price_set),) or bv.shape != (len(price_set),):
        raise ValueError("value vectors must match the ray grid length")
    return float(np.max(np.abs(av - bv)))


# ---------------------------------------------------------------------------
# 2-d boundary geometry (independent cross-check of the support-value route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Boundary2D:
    """Polyline boundary of a 2-d envelope: ordered vertices plus two
    infinite end rays (or a full line when only one constraint is active)."""

    vertices: np.ndarray        # (k, 2), possibly k == 0
    start_point: np.ndarray     # anchor of the first end ray
    start_dir: np.ndarray       # unit direction, points away to infinity
    end_point: np.ndarray
    end_dir: np.ndarray


def _boundary_2d(env: HalfspaceEnvelope) -> _Boundary2D:
    if env.dimension != 2:
        raise ValueError("boundary walk is only defined for dimension 2")
    theta = np.arctan2(env.normals[:, 1], env.normals[:, 0])
    order = np.argsort(theta)
    kept: list[int] = []
    for i in order:
        if kept and abs(theta[i] - theta[kept[-1]]) < 1e-12:
            if env.offsets[i] < env.offsets[kept[-1]]:
                kept[-1] = i
        else:
            kept.append(i)

    def line_cross(i: int, j: int) -> np.ndarray:
        A = np.vstack([env.normals[i], env.normals[j]])
        return np.linalg.solve(A, np.array([env.offsets[i], env.offsets[j]]))

    # Graham-scan style halfplane walk: a middle constraint is redundant when
    # the crossing of its neighbors already satisfies it.
    stack: list[int] = []
    for i in kept:
        while len(stack) >= 2:
            v = line_cross(stack[-2], i)
            if env.normals[stack[-1]] @ v > env.offsets[stack[-1]] + FEAS_TOL:
                break
            stack.pop()
        stack.append(i)

    n_first, b_first = env.normals[stack[0]], env.offsets[stack[0]]
    n_last, b_last = env.normals[stack[-1]], env.offsets[stack[-1]]
    start_dir = np.array([n_first[1], -n_first[0]])   # down-right, to infinity
    end_dir = np.array([-n_last[1], n_last[0]])       # up-left, to infinity
    if len(stack) == 1:
        anchor = b_first * n_first
        return _Boundary2D(np.empty((0, 2)), anchor, start_dir, anchor, end_dir)
    verts = np.array([line_cross(stack[k], stack[k + 1]) for k in range(len(stack) - 1)])
    return _Boundary2D(verts, verts[0], start_dir, verts[-1], end_dir)


def _dist_to_segments(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray,
                      clamp_hi: bool = True) -> np.ndarray:
    """Min distance from each point to a batch of segments (or rays)."""
    d = seg_b - seg_a                                  # (m, 2)
    lens2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    diff = points[:, None, :] - seg_a[None, :, :]      # (n, m, 2)
    t = np.einsum("nmk,mk->nm", diff, d) / lens2
    t = np.clip(t, 0.0, 1.0 if clamp_hi else np.inf)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.min(np.linalg.norm(points[:, None, :] - proj, axis=2), axis=1)


def _dist_to_boundary(points: np.ndarray, bd: _Boundary2D) -> np.ndarray:
    dists = []
    if len(bd.vertices) >= 2:
        dists.append(_dist_to_segments(points, bd.vertices[:-1], bd.vertices[1:]))
    dists.append(_dist_to_segments(
        points, bd.start_point[None, :], (bd.start_point + bd.start_dir)[None, :],
        clamp_hi=False))
    dists.append(_dist_to_segments(
        points, bd.end_point[None, :], (bd.end_point + bd.end_dir)[None, :],
        clamp_hi=False))
    return np.min(np.vstack(dists), axis=0)


def _sample_boundary(bd: _Boundary2D, n_samples: int, ray_extent: float) -> np.ndarray:
    pieces = []
    if len(bd.vertices) >= 2:
        pieces += [(bd.vertices[k], bd.vertices[k + 1]) for k in range(len(bd.vertices) - 1)]
    pieces.append((bd.start_point, bd.start_point + ray_extent * bd.start_dir))
    pieces.append((bd.end_point, bd.end_point + ray_extent * bd.end_dir))
    lengths = np.array([np.linalg.norm(b - a) for a, b in pieces])
    alloc = np.maximum(1, np.round(n_samples * lengths / lengths.sum()).astype(int))
    pts = [bd.vertices] if len(bd.vertices) else []
    for (a, b), m in zip(pieces, alloc):
        ts = np.linspace(0.0, 1.0, m + 1)
        pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    return np.vstack(pts)


def hausdorff_oracle_2d(env_a: HalfspaceEnvelope, env_b: HalfspaceEnvelope,
                        n_boundary: int = 10_000) -> float:
    """Geometric Hausdorff distance in d=2 by dense boundary sampling.

    Walks both polyhedral boundaries (vertices plus ``n_boundary`` edge
    samples, end rays truncated far past both vertex sets) and evaluates the
    two directed sup-inf distances against the exact opposing polyline.
    Independent of the support-value formula on purpose.
    """
    if env_a.dimension != 2 or env_b.dimension != 2:
        raise ValueError("hausdorff_oracle_2d supports dimension 2 only")
    bd_a = _boundary_2d(env_a)
    bd_b = _boundary_2d(env_b)
    coords = [bd_a.vertices, bd_b.vertices,
              bd_a.start_point[None], bd_b.start_point[None]]
    scale = max(1.0, *(float(np.max(np.abs(c))) for c in coords if len(c)))
    extent = 20.0 * scale + 10.0

    def directed(bd_from: _Boundary2D, bd_to: _Boundary2D, env_to: HalfspaceEnvelope) -> float:
        pts = _sample_boundary(bd_from, n_boundary, extent)
        inside = (env_to.normals @ pts.T <= env_to.offsets[:, None] + FEAS_TOL).all(axis=0)
        d = _dist_to_boundary(pts, bd_to)
        d[inside] = 0.0
        return float(np.max(d))

    return max(directed(bd_a, bd_b, env_b), directed(bd_b, bd_a, env_a))


# ---------------------------------------------------------------------------
# Free-disposal hull
# ---------------------------------------------------------------------------


def free_disposal_hull(points: Sequence) -> HalfspaceEnvelope:
    """Halfspace form of ``conv(points) + (-R+)^d`` (free-disposal convex hull).

    The support value of the result at any nonnegative direction u equals
    ``max_i u . p_i``; the recession cone is the negative orthant, so finite
    support at every strictly positive ray holds by construction.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("free_disposal_hull needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    d = pts.shape[1]
    if d == 1:
        return HalfspaceEnvelope(np.array([[1.0]]), np.array([float(pts.max())]))

    # Truncate the unbounded hull with a far box; facets of the truncated
    # polytope with nonnegative normals are exactly the hull's facets.
    m_low = 10.0 * (1.0 + float(np.max(np.abs(pts))))
    corners = np.array(np.meshgrid(*[[0, 1]] * d)).T.reshape(-1, d)
    cand = []
    for p in pts:
        low = np.full(d, -m_low)
        cand.append(np.where(corners == 1, p[None, :], low[None, :]))
    cand = np.unique(np.vstack(cand), axis=0)
    try:
        hull = ConvexHull(cand)
    except QhullError:
        hull = ConvexHull(cand, qhull_options="QJ")

    normals, values = [], []
    seen = set()
    for eq in hull.equations:
        nrm = eq[:-1]
        if np.any(nrm < -1e-9):
            continue                       # truncation-box facet
        nrm = np.maximum(nrm, 0.0)
        nrm = nrm / np.linalg.norm(nrm)
        key = tuple(np.round(nrm, 9))
        if key in seen:
            continue
        seen.add(key)
        normals.append(nrm)
        values.append(float(np.max(pts @ nrm)))
    return HalfspaceEnvelope(np.array(normals), np.array(values))


# ---------------------------------------------------------------------------
# Homogeneity diagnostics
# ---------------------------------------------------------------------------


def euler_residual(f: Callable[[np.ndarray], float], p, h: float = 1e-5) -> float:
    """``sum_j d f/d p_j * p_j - f(p)`` with central differences of step h*p_j.

    Zero (to truncation error) exactly when f is homogeneous of degree 1
    around p.
    """
    pv = np.asarray(p, dtype=float)
    if h <= 0:
        raise ValueError("step h must be positive")
    f0 = float(f(pv))
    total = 0.0
    for j in range(pv.size):
        step = h * pv[j]
        hi, lo = pv.copy(), pv.copy()
        hi[j] += step
        lo[j] -= step
        deriv = (float(f(hi)) - float(f(lo))) / (2.0 * step)
        total += deriv * pv[j]
    res = total - f0
    if not np.isfinite(res):
        raise NumericFailure("euler_residual: non-finite evaluation")
    return res
