"""Rationalizability tests and sharp counterfactual bounds.

Finitely many (price ray, profit) pairs for one productivity type are
rationalizable by some production set exactly when there exist quantity
vectors y_p, one per observed ray, making every observed profit attained and
no cross-ray improvement possible (the weak axiom of profit maximization):

    p . y_p  = pi(p)           for every observed p,
    p*. y_p* >= p* . y_p       for every pair p, p*.

Each y_p lives only on its own face F_p = {y : p . y = pi(p), p* . y <=
pi(p*) for every p*}, so WAPM holds exactly when every face is nonempty, and
the bundle y_c chosen at a counterfactual price p_c ranges over the envelope
cut by p_c . y_c >= L(p_c) = max_p min over F_p of p_c . y.  The faces come
from the envelope's face kernel (``geometry._kernel``): segments from one
vectorized pass in d = 2; in d >= 3 face F_p is the hull of the envelope's
vertices tight on p plus its recession generators orthogonal to p, all from
one convex hull.  The kernel also gives the support at p_c, its maximizer or
its +inf certificate, so WAPM, L, the upper bound and the projection take no
LP.  Linear programs (HiGHS) per question, d = 2 | d >= 3: wapm_feasible
0 | 0; profit_bounds 0 | 0; quantity_bounds 2 | 2; sweep 0 | at most 2 per
ray; project_rationalizable 0 | 0.  Without a hull (normals of rank < d, or
a Qhull failure) each face and each support value is an LP, and a +inf bound
takes one more for its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericFailure, ValidationError
from .geometry import (FEAS_TOL, HalfspaceEnvelope, _Hull, _kernel,
                       _Segments, _support, _vec, free_disposal_hull,
                       recession_direction, solve_lp, support_values)

VALUE_TIE_TOL = 1e-9
WAPM_VIOLATION = "profit data violate WAPM; bounds are undefined"


@dataclass(frozen=True, eq=False)
class ProfitData:
    """Observed (unit price ray, profit) pairs for one type."""

    e: int
    rays: np.ndarray          # (k, d) unit rows, distinct
    values: np.ndarray        # (k,)

    def __post_init__(self):
        rays = np.atleast_2d(np.asarray(self.rays, dtype=float)).copy()
        values = np.atleast_1d(np.asarray(self.values, dtype=float)).copy()
        if rays.shape[0] != values.size or rays.shape[0] == 0:
            raise ValueError("need one value per ray, at least one pair")
        if np.any(np.abs(np.linalg.norm(rays, axis=1) - 1.0) > 1e-9):
            raise ValueError("price rays must be unit vectors")
        keys = {tuple(np.round(r, 12)) for r in rays}
        if len(keys) != rays.shape[0]:
            raise ValueError("price rays must be distinct")
        rays.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_pairs(cls, e: int, pairs: Sequence[tuple]) -> "ProfitData":
        rays = np.vstack([_vec(p) for p, _ in pairs])
        vals = np.array([float(v) for _, v in pairs])
        return cls(e=e, rays=rays, values=vals)

    @property
    def k(self) -> int:
        return self.rays.shape[0]

    @property
    def dimension(self) -> int:
        return self.rays.shape[1]

    def envelope(self) -> HalfspaceEnvelope:
        return HalfspaceEnvelope(self.rays, self.values)

    def with_pair(self, ray, value: float) -> "ProfitData":
        return ProfitData(self.e, np.vstack([self.rays, _vec(ray)]),
                          np.append(self.values, float(value)))

    def index_of(self, ray) -> Optional[int]:
        close = np.all(np.abs(self.rays - _vec(ray)) < 1e-12, axis=1)
        hits = np.nonzero(close)[0]
        return int(hits[0]) if hits.size else None


def _fmt_bound(v: float):
    if np.isposinf(v):
        return "+inf"
    if np.isneginf(v):
        return "-inf"
    return float(v)


@dataclass(frozen=True)
class BoundResult:
    """Sharp identified interval for one counterfactual question."""

    lower: float
    upper: float
    feasible: bool = True
    lower_certificate: Optional[dict] = None
    upper_certificate: Optional[dict] = None
    argmax_rays: tuple = ()        # lower-bound maximizing rays (ties reported)
    grid_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.feasible and np.isfinite(self.lower) and np.isfinite(self.upper)
                and self.lower > self.upper + 1e-7):
            raise NumericFailure(
                f"bound inversion: lower {self.lower} > upper {self.upper}")

    def contains(self, v: float, tol: float = 1e-7) -> bool:
        return self.lower - tol <= v <= self.upper + tol

    def to_json_dict(self, question: str = "", e: Optional[int] = None) -> dict:
        def cert(c):
            if c is None:
                return None
            return {k: (list(map(float, np.atleast_1d(v))) if not isinstance(v, str) else v)
                    for k, v in c.items()}
        return {
            "schema": "prodenv.bounds-report/1",
            "type": e,
            "question": question,
            "feasible": self.feasible,
            "lower": _fmt_bound(self.lower),
            "upper": _fmt_bound(self.upper),
            "lower_certificate": cert(self.lower_certificate),
            "upper_certificate": cert(self.upper_certificate),
            "argmax_rays": [list(map(float, r)) for r in self.argmax_rays],
            "grid": self.grid_metadata,
        }


# ---------------------------------------------------------------------------
# Faces and WAPM feasibility
# ---------------------------------------------------------------------------


def _faces(data: ProfitData):
    """The profit-attaining faces: the envelope's kernel (None without a
    hull).  An empty face is exactly a WAPM violation."""
    faces = _kernel(data.envelope())
    if faces is not None and not np.all(faces.nonempty):
        raise ValidationError(WAPM_VIOLATION)
    return faces


def _face_minima(data: ProfitData, pc: np.ndarray, faces=None):
    """Least p_c . y on each face (k,) and the attaining points (k, d),
    non-finite rows on -inf faces: closed form in d = 2, the hull's vertices
    in d >= 3, one LP per face without a hull (faces cut here unless given)."""
    if np.any(pc < 0):
        raise ValueError("the faces answer only componentwise nonnegative prices p_c")
    faces = _faces(data) if faces is None else faces
    if faces is None:
        return _face_minima_lp(data, pc)
    lows, at = (m[0] for m in faces.minima(pc[None, :]))
    if isinstance(faces, _Hull):
        return lows, np.where(np.isfinite(lows)[:, None], faces.Y[at], np.nan)
    with np.errstate(invalid="ignore"):
        return lows, faces.bases + at[:, None] * faces.taus


def _face_minima_lp(data: ProfitData, pc: np.ndarray):
    """``_face_minima`` for any d: one LP per face."""
    lows, ys = np.full(data.k, -np.inf), np.full((data.k, data.dimension), np.nan)
    for i in range(data.k):
        state, y, _ = solve_lp(pc, data.rays, data.values,
                               data.rays[i][None, :], [data.values[i]])
        if state == "infeasible":
            raise ValidationError(WAPM_VIOLATION)
        if state == "optimal":
            ys[i], lows[i] = y, float(pc @ y)
    return lows, ys


def wapm_feasible(data: ProfitData) -> tuple[bool, Optional[dict]]:
    """Can any production set generate these profits?  Returns the verdict
    and, when feasible, a certificate assignment {ray index: y_p}: a point
    of each face (a tight vertex in d >= 3)."""
    try:
        ys = _face_minima(data, np.zeros(data.dimension))[1]
    except ValidationError:
        return False, None
    return True, dict(enumerate(ys))


# ---------------------------------------------------------------------------
# Profit bounds at a counterfactual price
# ---------------------------------------------------------------------------


def profit_bounds(data: ProfitData, p_c) -> BoundResult:
    """Sharp bounds on profit at a counterfactual price.

    Upper: support of the data envelope at p_c (may be +inf).  Lower:
    L(p_c), the best over observed rays p of the least value of p_c . y on
    the profit-attaining face {y : p . y = pi(p)} of the envelope (may be
    -inf).  Both scale with |p_c|.  Raises ValidationError when the data
    violate WAPM.
    """
    pc, env = _vec(p_c), data.envelope()
    faces = _faces(data)
    lows, ys = _face_minima(data, pc, faces)
    best = float(np.max(lows))
    ties = np.nonzero(lows >= best - VALUE_TIE_TOL)[0]
    i = int(ties[0])
    # Without a hull, LPs give the certificates.
    lower_cert = ({"y": ys[i], "ray": data.rays[i]} if np.isfinite(best)
                  else {"ray": recession_direction(env, -pc, along=data.rays[i])
                        if faces is None else faces.descent(pc, i),
                        "note": "unbounded direction"})
    sup = _support(env, faces, pc)
    upper_cert = ({"y": sup.maximizer} if sup.finite
                  else {"ray": sup.direction, "note": "unbounded direction"})
    return BoundResult(
        lower=best, upper=sup.value,
        lower_certificate=lower_cert, upper_certificate=upper_cert,
        argmax_rays=tuple(data.rays[i] for i in ties) if np.isfinite(best) else (),
    )


# ---------------------------------------------------------------------------
# The counterfactual bundle y_c
# ---------------------------------------------------------------------------


def _yc_range(data: ProfitData, pc: np.ndarray, c: np.ndarray, floor: float,
              fixed: Optional[tuple] = None):
    """[(min, argmin), (max, argmax)] of c . y_c over the envelope with
    p_c . y_c >= floor and, if ``fixed`` = (coord, ybar), y_c[coord] = ybar;
    NaN optimizer on an unbounded side, None when infeasible."""
    A_ub, b_ub = data.rays, data.values
    if np.isfinite(floor):
        A_ub, b_ub = np.vstack([A_ub, -pc]), np.append(b_ub, -floor)
    bounds = [(None, None)] * data.dimension
    if fixed is not None:
        bounds[fixed[0]] = (fixed[1], fixed[1])
    out = []
    for sign in (1.0, -1.0):
        state, y, value = solve_lp(sign * c, A_ub, b_ub, bounds=bounds)
        if state == "infeasible":
            return None
        out.append((sign * value, y) if state == "optimal"
                   else (-sign * np.inf, np.full(data.dimension, np.nan)))
    return out


def quantity_bounds(data: ProfitData, p_c, u) -> BoundResult:
    """Sharp bounds on u . y_c where y_c is the bundle chosen at the
    counterfactual price p_c (its profit is not pinned): y_c lies in the
    envelope with p_c . y_c >= L(p_c)."""
    pc = _vec(p_c)
    floor = float(np.max(_face_minima(data, pc)[0]))
    out = _yc_range(data, pc, np.asarray(u, dtype=float), floor)
    if out is None:
        raise NumericFailure("counterfactual system infeasible despite WAPM holding")
    (lo, x_lo), (hi, x_hi) = out
    return BoundResult(
        lower=lo, upper=hi,
        lower_certificate={"y_c": x_lo} if np.isfinite(lo) else None,
        upper_certificate={"y_c": x_hi} if np.isfinite(hi) else None,
    )


def _sweep_2d(data: ProfitData, coord: int, ybar: float, grid: np.ndarray,
              floors: np.ndarray):
    """The fixed-quantity program at every grid row in closed form (d = 2):
    per ray, feasibility, min and max of p_c . y_c, and their optimizers.
    The line y[coord] = ybar meets the envelope in a segment; over it p_c . y
    ranges over [v_lo, v_hi], and the floor L(p_c) (floors, one per row)
    cuts that to [max(v_lo, L), v_hi]."""
    line = _Segments.cut(data.rays, data.values, np.eye(2)[[coord]], np.array([ybar]))
    base, tau = line.bases[0], line.taus[0]
    (v_lo, t_lo), (v_hi, t_hi) = line.minima(grid), line.minima(-grid)
    v_lo, t_lo, v_hi, t_hi = v_lo[:, 0], t_lo[:, 0], -v_hi[:, 0], t_hi[:, 0]
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(data.values))))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = np.where(v_lo >= floors - tol, t_lo, (floors - grid @ base) / (grid @ tau))
        y_lo, y_hi = base + t_lo[:, None] * tau, base + t_hi[:, None] * tau
    ok = line.nonempty[0] & (v_hi >= floors - tol)
    return ok, np.minimum(np.maximum(v_lo, floors), v_hi), v_hi, y_lo, y_hi


def _sweep_lp(data: ProfitData, coord: int, ybar: float, grid: np.ndarray,
              floors: np.ndarray):
    """General-d twin of ``_sweep_2d``: per ray, the y_c program with
    y_c[coord] = ybar above the floor L(p_c)."""
    n, d = grid.shape
    ok, lo, hi = np.zeros(n, dtype=bool), np.full(n, np.nan), np.full(n, np.nan)
    y_lo, y_hi = np.full((n, d), np.nan), np.full((n, d), np.nan)
    for m, (pc, floor) in enumerate(zip(grid, floors)):
        out = _yc_range(data, pc, pc, float(floor), fixed=(coord, ybar))
        if out is not None:
            ok[m] = True
            (lo[m], y_lo[m]), (hi[m], y_hi[m]) = out
    return ok, lo, hi, y_lo, y_hi


def profit_bounds_fixed_quantity(data: ProfitData, coord: int, ybar: float,
                                 ray_grid: Sequence) -> BoundResult:
    """Bounds on profit when one bundle coordinate is pinned at ybar and the
    counterfactual price is free on a ray grid.

    At each grid ray the y_c program gains y_c[coord] = ybar; the reported
    interval is the sup of the per-ray maxima and the inf of the per-ray
    minima, a conservative-from-below discretization of the quadratic
    free-price program.  An empty feasible set at every grid ray is a
    legitimate (infeasible) outcome.
    """
    rays = [_vec(r) for r in ray_grid]
    if not rays:
        raise ValueError("ray grid must be nonempty")
    grid, faces = np.vstack(rays), _faces(data)
    floors = (np.max(faces.minima(grid)[0], axis=1) if faces is not None
              else np.array([np.max(_face_minima_lp(data, pc)[0]) for pc in grid]))
    sweep = _sweep_2d if data.dimension == 2 else _sweep_lp
    ok, lo, hi, y_lo, y_hi = sweep(data, coord, ybar, grid, floors)
    meta = {"n_rays": len(rays), "coord": coord, "ybar": ybar,
            "n_feasible": int(np.sum(ok))}
    if not np.any(ok):
        return BoundResult(lower=np.nan, upper=np.nan, feasible=False,
                           grid_metadata=meta)
    i_lo = int(np.argmin(np.where(ok, lo, np.inf)))
    i_hi = int(np.argmax(np.where(ok, hi, -np.inf)))
    lo_cert, hi_cert = ({"y_c": y[i], "p_c": rays[i]} if np.isfinite(v[i])
                        else {"p_c": rays[i], "note": "unbounded"}
                        for i, v, y in ((i_lo, lo, y_lo), (i_hi, hi, y_hi)))
    return BoundResult(lower=float(lo[i_lo]), upper=float(hi[i_hi]),
                       lower_certificate=lo_cert, upper_certificate=hi_cert,
                       argmax_rays=(rays[i_hi],), grid_metadata=meta)


# ---------------------------------------------------------------------------
# Brute-force oracle (d = 2, few rays)
# ---------------------------------------------------------------------------


def _face_intervals(data: ProfitData) -> Optional[list[tuple[float, float]]]:
    """Feasible parameter interval per profit-attaining face.

    On face i, y_i(t) = pi_i p_i + t tau_i with tau_i the 90-degree rotation
    of p_i; the cross constraints p_j . y_i <= pi_j are linear in t.  An
    empty interval means no WAPM assignment exists.  Cross constraints do not
    couple faces because each equality pins p_j . y_j at pi_j.
    """
    intervals = []
    for i in range(data.k):
        p_i, v_i = data.rays[i], data.values[i]
        tau = np.array([-p_i[1], p_i[0]])
        base = v_i * p_i
        lo, hi = -np.inf, np.inf
        for j in range(data.k):
            if j == i:
                continue
            a = float(data.rays[j] @ tau)
            rhs = data.values[j] - float(data.rays[j] @ base)
            if abs(a) < 1e-14:
                if rhs < -1e-9:
                    return None
                continue
            if a > 0:
                hi = min(hi, rhs / a)
            else:
                lo = max(lo, rhs / a)
        if lo > hi + 1e-9:
            return None
        intervals.append((lo, hi))
    return intervals


def brute_force_bounds(data: ProfitData, p_c, resolution: int = 50) -> BoundResult:
    """Independent enumeration oracle for profit bounds in d = 2.

    Parametrizes each face by one scalar, enumerates assignments {y_p} on a
    dense product grid (step at most 2/resolution in each parameter), checks
    the WAPM constraints directly, and takes the extremes of the implied
    counterfactual profit max_p (p_c . y_p) -- the support of each
    assignment's free-disposal hull at p_c.
    """
    if data.dimension != 2:
        raise ValueError("brute_force_bounds supports d = 2 only")
    if data.k > 4:
        raise ValueError("brute_force_bounds supports at most 4 rays")
    if resolution < 2:
        raise ValidationError("resolution too coarse for the enumeration oracle")
    pc = _vec(p_c)

    intervals = _face_intervals(data)
    if intervals is None:
        return BoundResult(lower=np.nan, upper=np.nan, feasible=False,
                           grid_metadata={"reason": "no feasible assignment found"})

    taus = np.column_stack([-data.rays[:, 1], data.rays[:, 0]])   # (k, 2)
    bases = data.values[:, None] * data.rays                       # (k, 2)
    slopes = taus @ pc                                             # d f_i / d t
    offsets = bases @ pc

    # Analytic per-face extremes of f_i(t) = offsets[i] + slopes[i] * t.
    sups, infs = np.empty(data.k), np.empty(data.k)
    for i, (lo, hi) in enumerate(intervals):
        s = slopes[i]
        cands = []
        for end in (lo, hi):
            if np.isfinite(end):
                cands.append(offsets[i] + s * end)
        sup_i = max(cands) if cands else -np.inf
        inf_i = min(cands) if cands else np.inf
        if s > 1e-14 and np.isposinf(hi):
            sup_i = np.inf
        if s < -1e-14 and np.isneginf(lo):
            sup_i = np.inf
        if s > 1e-14 and np.isneginf(lo):
            inf_i = -np.inf
        if s < -1e-14 and np.isposinf(hi):
            inf_i = -np.inf
        if abs(s) <= 1e-14:
            sup_i = inf_i = offsets[i]
        sups[i], infs[i] = sup_i, inf_i

    # Dense-grid enumeration over the (truncated) box as the direct check;
    # endpoints are on the grid, and each f_i is linear, so finite extremes
    # are hit exactly.
    step = 2.0 / resolution
    grids = []
    span_cap = 4.0 * (1.0 + float(np.max(np.abs(data.values))))
    for (lo, hi) in intervals:
        lo_t = lo if np.isfinite(lo) else min(-span_cap, (hi if np.isfinite(hi) else 0.0) - span_cap)
        hi_t = hi if np.isfinite(hi) else max(span_cap, (lo if np.isfinite(lo) else 0.0) + span_cap)
        n = max(2, int(np.ceil((hi_t - lo_t) / step)) + 1)
        grids.append(np.linspace(lo_t, hi_t, n))
    mesh = np.meshgrid(*grids, indexing="ij")
    tt = np.stack([m.ravel() for m in mesh], axis=1)               # (N, k)
    f = offsets[None, :] + tt * slopes[None, :]                    # (N, k)
    # Feasibility audit of the sampled assignments (belt and braces).
    ok = np.ones(tt.shape[0], dtype=bool)
    for j in range(data.k):
        y_j = bases[j][None, :] + tt[:, j][:, None] * taus[j][None, :]
        ok &= np.all(y_j @ data.rays.T <= data.values[None, :] + 1e-7, axis=1)
    if not np.any(ok):
        return BoundResult(lower=np.nan, upper=np.nan, feasible=False,
                           grid_metadata={"reason": "no feasible assignment found"})
    vals = np.max(f[ok], axis=1)
    emp_hi, emp_lo = float(vals.max()), float(vals.min())
    upper = np.inf if np.any(np.isposinf(sups)) else emp_hi
    lower = -np.inf if np.all(np.isneginf(infs)) else emp_lo

    i_hi = int(np.argmax(vals))
    idx_hi = np.nonzero(ok)[0][i_hi]
    assign_hi = bases + tt[idx_hi][:, None] * taus
    return BoundResult(
        lower=lower, upper=upper,
        upper_certificate={"assignment": assign_hi.ravel()},
        grid_metadata={"resolution": resolution,
                       "grid_sizes": [len(g) for g in grids]},
    )


def project_rationalizable(data: ProfitData) -> tuple[ProfitData, float]:
    """Minimal downward repair of estimated profits onto rationalizability.

    Data are rationalizable exactly when every constraint of their envelope
    is tight (the observed value equals the envelope's support there).
    Estimated tables miss tightness by their recovery error.  Replacing each
    value with its envelope support leaves the envelope unchanged, so one
    pass makes every constraint tight.  Returns the repaired data and the
    largest shift.
    """
    values = support_values(data.envelope(), data.rays)
    if not np.all(np.isfinite(values)):
        raise NumericFailure("projection produced an unbounded support")
    shift = float(np.max(np.abs(values - data.values)))
    return ProfitData(data.e, data.rays, values), shift


def sharpness_check(data: ProfitData, p_c, upper: float) -> bool:
    """A finite upper bound is attainable: appending (p_c, upper), rescaled
    onto the sphere, keeps the dataset rationalizable (its free-disposal
    hull generates the bound); at an observed ray, when upper is its value."""
    if not np.isfinite(upper):
        return True
    scale = float(np.linalg.norm(_vec(p_c)))
    pc, upper = _vec(p_c) / scale, upper / scale
    i = data.index_of(pc)
    if i is not None:
        same = abs(upper - data.values[i]) <= VALUE_TIE_TOL * max(1.0, abs(upper))
        return same and wapm_feasible(data)[0]
    return wapm_feasible(data.with_pair(pc, upper))[0]


def rationalizing_hull(certificate: dict) -> HalfspaceEnvelope:
    """Free-disposal hull of a WAPM certificate's quantity vectors."""
    pts = np.vstack([np.asarray(v) for v in certificate.values()])
    return free_disposal_hull(pts)
