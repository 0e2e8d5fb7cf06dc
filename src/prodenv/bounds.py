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
cut by p_c . y_c >= L(p_c) = max_p min over F_p of p_c . y.  A
``ProfitData`` keeps its envelope, and the envelope keeps its face kernel
(``HalfspaceEnvelope.kernel``), so every question on the same data reads
one kernel, built once: segments from one vectorized pass in d = 2; in
d >= 3 face F_p is the hull of the envelope's vertices tight on p plus its
recession generators orthogonal to p, all from one convex hull.  The kernel
also gives the support at p_c, its maximizer or its +inf certificate, so
WAPM, L, the upper bound and the projection take no LP.  In d = 2 the y_c
set is itself a polygon, whose own segments give the quantity bounds.
Linear programs (HiGHS) per question, d = 2 | d >= 3: wapm_feasible 0 | 0;
profit_bounds 0 | 0; quantity_bounds 0 | 2; sweep 0 | at most 2 per ray;
project_rationalizable 0 | 0.  Without a hull (normals of rank < d, or
a Qhull failure) each face and each support value is an LP, and a +inf bound
takes one more for its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericFailure, ValidationError
from .geometry import (FEAS_TOL, HalfspaceEnvelope, _Hull, _Segments,
                       _supports, first_duplicate, recession_direction,
                       solve_lp, support_values)

VALUE_TIE_TOL = 1e-9
WAPM_VIOLATION = "profit data violate WAPM; bounds are undefined"


@dataclass(frozen=True, eq=False)
class ProfitData:
    """Observed (unit price ray, profit) pairs for one type, kept in their
    envelope, which checks them."""

    e: int
    rays: np.ndarray          # (k, d) unit rows, distinct
    values: np.ndarray        # (k,)
    _envelope: HalfspaceEnvelope = field(init=False, repr=False)

    def __post_init__(self):
        env = HalfspaceEnvelope(self.rays, self.values)
        if first_duplicate(env.normals) is not None:
            raise ValueError("price rays must be distinct")
        object.__setattr__(self, "rays", env.normals)
        object.__setattr__(self, "values", env.offsets)
        object.__setattr__(self, "_envelope", env)

    @classmethod
    def from_pairs(cls, e: int, pairs: Sequence[tuple]) -> "ProfitData":
        return cls(e, np.vstack([p for p, _ in pairs]), [float(v) for _, v in pairs])

    @property
    def k(self) -> int:
        return self.rays.shape[0]

    @property
    def dimension(self) -> int:
        return self.rays.shape[1]

    def envelope(self) -> HalfspaceEnvelope:
        return self._envelope

    def with_pair(self, ray, value: float) -> "ProfitData":
        return ProfitData(self.e, np.vstack([self.rays, ray]),
                          np.append(self.values, float(value)))

    def index_of(self, ray) -> Optional[int]:
        close = np.all(np.abs(self.rays - np.asarray(ray, float)) < 1e-12, axis=1)
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
    faces = data.envelope().kernel
    if faces is not None and not np.all(faces.nonempty):
        raise ValidationError(WAPM_VIOLATION)
    return faces


def _face_minima(data: ProfitData, pc: np.ndarray):
    """Least p_c . y on each face (k,) and the attaining points (k, d),
    non-finite rows on -inf faces: closed form in d = 2, the hull's vertices
    in d >= 3, one LP per face without a hull."""
    if np.any(pc < 0):
        raise ValueError("the faces answer only componentwise nonnegative prices p_c")
    faces = _faces(data)
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


def _checked(data: ProfitData, x, name: str) -> np.ndarray:
    """A price or direction as data.dimension finite numbers."""
    x = np.asarray(x, float)
    if x.shape != (data.dimension,) or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be {data.dimension} finite numbers, got {x.tolist()}")
    return x


def profit_bounds(data: ProfitData, p_c) -> BoundResult:
    """Sharp bounds on profit at a counterfactual price.

    Upper: support of the data envelope at p_c (may be +inf).  Lower:
    L(p_c), the best over observed rays p of the least value of p_c . y on
    the profit-attaining face {y : p . y = pi(p)} of the envelope (may be
    -inf).  Both scale with |p_c|.  Raises ValidationError when the data
    violate WAPM, and ValueError when p_c is not ``data.dimension`` finite
    numbers.
    """
    pc, env = _checked(data, p_c, "p_c"), data.envelope()
    faces = _faces(data)
    lows, ys = _face_minima(data, pc)
    best = float(np.max(lows))
    ties = np.nonzero(lows >= best - VALUE_TIE_TOL)[0]
    i = int(ties[0])
    # Without a hull, LPs give the certificates.
    lower_cert = ({"y": ys[i], "ray": data.rays[i]} if np.isfinite(best)
                  else {"ray": recession_direction(env, -pc, along=data.rays[i])
                        if faces is None else faces.descent(pc, i),
                        "note": "unbounded direction"})
    (upper,), (y,), (w,) = _supports(env, pc[None, :])
    upper_cert = ({"y": y} if np.isfinite(upper)
                  else {"ray": w, "note": "unbounded direction"})
    return BoundResult(
        lower=best, upper=float(upper),
        lower_certificate=lower_cert, upper_certificate=upper_cert,
        argmax_rays=tuple(data.rays[i] for i in ties) if np.isfinite(best) else (),
    )


# ---------------------------------------------------------------------------
# The counterfactual bundle y_c
# ---------------------------------------------------------------------------


def _yc_range(data: ProfitData, pc: np.ndarray, c: np.ndarray, floor: float,
              fixed: Optional[tuple] = None):
    """[(min, argmin, ray), (max, argmax, ray)] of c . y_c over the envelope
    with p_c . y_c >= floor and, if ``fixed`` = (coord, ybar), y_c[coord] =
    ybar; NaN optimizer on an unbounded side, NaN rays, None when infeasible."""
    A_ub, b_ub = data.rays, data.values
    if np.isfinite(floor):
        A_ub, b_ub = np.vstack([A_ub, -pc]), np.append(b_ub, -floor)
    bounds = [(None, None)] * data.dimension
    if fixed is not None:
        bounds[fixed[0]] = (fixed[1], fixed[1])
    out, nan = [], np.full(data.dimension, np.nan)
    for sign in (1.0, -1.0):
        state, y, value = solve_lp(sign * c, A_ub, b_ub, bounds=bounds)
        if state == "infeasible":
            return None
        out.append((sign * value, y, nan) if state == "optimal"
                   else (-sign * np.inf, nan, nan))
    return out


def _yc_cut(data: ProfitData, pc: np.ndarray, u: np.ndarray, floor: float):
    """``_yc_range`` without an LP (d = 2): the y_c set is a polygon, whose
    faces' supports at -u and u give both ends, their optimizers and the end
    ray of an unbounded side; None when it is empty.  One ray and no floor
    leave a half-plane, unbounded along -p where no face runs: the line
    along p through the face's base joins the faces."""
    P, v = data.rays, data.values
    if np.isfinite(floor) and np.any(pc):
        P, v = np.vstack([P, -pc]), np.append(v, -floor)
    F, f = (P, v) if len(P) > 1 else (np.vstack([P, P[:, ::-1] * [-1.0, 1.0]]),
                                      np.append(v, 0.0))
    cut = _Segments.cut(P, v, F, f)
    if not np.any(cut.nonempty):
        return None
    values, ys, rays = cut.sup(np.vstack([-u, u]))
    return [(-values[0], ys[0], rays[0]), (values[1], ys[1], rays[1])]


def quantity_bounds(data: ProfitData, p_c, u) -> BoundResult:
    """Sharp bounds on u . y_c where y_c is the bundle chosen at the
    counterfactual price p_c (its profit is not pinned): y_c lies in the
    envelope with p_c . y_c >= L(p_c).  An unbounded end is certified by a
    ray in d = 2 and has no certificate in d >= 3.  Raises ValueError
    unless p_c and u are ``data.dimension`` finite numbers each."""
    pc, u = _checked(data, p_c, "p_c"), _checked(data, u, "u")
    floor = float(np.max(_face_minima(data, pc)[0]))
    ends = (_yc_cut(data, pc, u, floor) if data.dimension == 2
            else _yc_range(data, pc, u, floor))
    if ends is None:
        raise NumericFailure("counterfactual system infeasible despite WAPM holding")
    certs = [{"y_c": y} if np.isfinite(v) else None if np.isnan(w).any()
             else {"ray": w, "note": "unbounded direction"} for v, y, w in ends]
    return BoundResult(lower=ends[0][0], upper=ends[1][0],
                       lower_certificate=certs[0], upper_certificate=certs[1])


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
            (lo[m], y_lo[m], _), (hi[m], y_hi[m], _) = out
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
    rays = np.asarray(ray_grid, float)
    if not rays.size:
        raise ValueError("ray grid must be nonempty")
    if not 0 <= coord < data.dimension:
        raise ValueError(f"coord {coord} is not in 0..{data.dimension - 1}")
    faces = _faces(data)
    floors = (np.max(faces.minima(rays)[0], axis=1) if faces is not None
              else np.array([np.max(_face_minima_lp(data, pc)[0]) for pc in rays]))
    sweep = _sweep_2d if data.dimension == 2 else _sweep_lp
    ok, lo, hi, y_lo, y_hi = sweep(data, coord, ybar, rays, floors)
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
    scale = float(np.linalg.norm(p_c))
    pc, upper = np.asarray(p_c, float) / scale, upper / scale
    i = data.index_of(pc)
    if i is not None:
        same = abs(upper - data.values[i]) <= VALUE_TIE_TOL * max(1.0, abs(upper))
        return same and wapm_feasible(data)[0]
    return wapm_feasible(data.with_pair(pc, upper))[0]
