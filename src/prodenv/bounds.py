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
set is itself a polygon, whose own segments give the quantity bounds; in
d >= 3 a one-dimensional dual over the hull's vertices gives them.  The
sweep pins one coordinate and reads the support of that slice in every d.
Linear programs (HiGHS) per question, d = 2 | d >= 3: wapm_feasible 0 | 0;
profit_bounds 0 | 0; quantity_bounds 0 | 0; sweep 0 | 0;
project_rationalizable 0 | 0.  Without a hull (normals of rank < d, or
a Qhull failure) each face and each support value is an LP, and a +inf bound
takes one more for its certificate.  With a hull, a quantity bound whose
dual the hull's weights do not certify (among rays 1e-6 apart, say) takes
the two LPs of ``_yc_range``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericFailure, ValidationError
from .geometry import (FEAS_TOL, PARALLEL_TOL, UNIT_TOL, HalfspaceEnvelope, _Hull, _Segments,
                       _carried, _supports, first_duplicate, recession_direction,
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


def _face_lows(data: ProfitData, pcs: np.ndarray, name: str = "p_c"):
    """Least p_c . y on each face (n, k) at each row of pcs (n, d), -inf on
    unbounded faces, the kernel and where the least is attained: the
    kernel's vertices or segment parameters, or without a hull (kernel None)
    the points of one LP per face and row."""
    if np.any(pcs < 0):
        raise ValueError(f"{name} must be componentwise nonnegative")
    faces = _faces(data)
    return (*(_face_minima_lp(data, pcs) if faces is None else faces.minima(pcs)), faces)


def _face_minima(data: ProfitData, pcs: np.ndarray, name: str = "p_c"):
    """``_face_lows`` with where (n, k, d), non-finite on -inf faces: closed
    form in d = 2, the hull's vertices in d >= 3, the LPs without a hull."""
    lows, at, faces = _face_lows(data, pcs, name)
    if faces is None:
        return lows, at
    if isinstance(faces, _Hull):
        return lows, np.where(np.isfinite(lows)[..., None], faces.Y[at], np.nan)
    with np.errstate(invalid="ignore"):
        return lows, faces.bases + at[..., None] * faces.taus


def _face_minima_lp(data: ProfitData, pcs: np.ndarray):
    """``_face_minima`` for any d: one LP per face and row."""
    lows = np.full((len(pcs), data.k), -np.inf)
    ys = np.full((*lows.shape, data.dimension), np.nan)
    for m, i in np.ndindex(lows.shape):
        state, y, _ = solve_lp(pcs[m], data.rays, data.values, data.rays[i][None], [data.values[i]])
        if state == "infeasible":
            raise ValidationError(WAPM_VIOLATION)
        if state == "optimal":
            ys[m, i], lows[m, i] = y, float(pcs[m] @ y)
    return lows, ys


def wapm_feasible(data: ProfitData) -> tuple[bool, Optional[dict]]:
    """Can any production set generate these profits?  Returns the verdict
    and, when feasible, a certificate assignment {ray index: y_p}: a point
    of each face (a tight vertex in d >= 3)."""
    try:
        ys = _face_minima(data, np.zeros((1, data.dimension)))[1][0]
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
    lows, ys = (m[0] for m in _face_minima(data, pc[None]))
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


def _yc_range(data: ProfitData, pc: np.ndarray, c: np.ndarray, floor: float):
    """[(min, argmin, ray), (max, argmax, ray)] of c . y_c over the envelope
    with p_c . y_c >= floor; NaN optimizer on an unbounded side, NaN rays,
    None when infeasible."""
    A_ub, b_ub = data.rays, data.values
    if np.isfinite(floor):
        A_ub, b_ub = np.vstack([A_ub, -pc]), np.append(b_ub, -floor)
    out, nan = [], np.full(data.dimension, np.nan)
    for sign in (1.0, -1.0):
        state, y, value = solve_lp(sign * c, A_ub, b_ub)
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


def _yc_dual(data: ProfitData, hull: _Hull, pc: np.ndarray, c: np.ndarray, floor: float):
    """(sup c . y_c, y_c, ray, mu*) over the envelope cut by p_c . y >= floor
    from the hull (d >= 3), or None where it does not certify the end.

    By LP duality the sup is min over mu >= 0 of h(c + mu p_c) - mu floor
    (Boyd & Vandenberghe 2004, ch. 5).  A recession generator w keeps
    (c + mu p_c) . w <= 0, which bounds mu to [lo, hi]; an empty interval is
    +inf, and the ray is the one or two generators that empty it.  Inside,
    h is the largest (c + mu p_c) . y_F over the vertices (Rockafellar 1970,
    sec. 13), an upper envelope of lines in mu, walked from lo to its least
    point mu*.  y_c joins the two vertices meeting there on p_c . y = floor,
    or a vertex and the generator bounding mu.  As in ``_Hull.sup``, the
    weights of c + mu* p_c on a vertex's rays certify the end, here also
    within a rounding radius of FEAS_TOL relative.  No floor leaves mu = 0:
    h(c)."""
    if not np.isfinite(floor):
        (h,), (y,), (w,) = hull.sup(c[None])
        return None if np.isnan(h) else (h, y, w, 0.0)
    nan, W = np.full(len(c), np.nan), hull.W
    rise, lift = W @ c, W @ pc
    rise[np.abs(rise) <= FEAS_TOL * np.linalg.norm(c)] = 0.0
    flat = np.abs(lift) <= UNIT_TOL * np.linalg.norm(pc)
    with np.errstate(divide="ignore", invalid="ignore"):
        edge = -rise / lift
    up, down = ~flat & (lift > 0), ~flat & (lift < 0)
    hi, lo = np.min(edge[up], initial=np.inf), np.max(edge[down], initial=0.0)
    i_hi = np.flatnonzero(up)[np.argmin(edge[up])] if hi < np.inf else None
    i_lo = np.flatnonzero(down)[np.argmax(edge[down])] if lo > 0 else None
    leaves = flat & (rise > 0)
    if leaves.any() or hi < lo:
        w = (W[np.argmax(np.where(leaves, rise, -np.inf))] if leaves.any()
             else W[i_hi] if hi < 0 else lift[i_hi] * W[i_lo] - lift[i_lo] * W[i_hi])
        w = w / np.linalg.norm(w)
        ok = (c @ w > FEAS_TOL * np.linalg.norm(c) and pc @ w >= -UNIT_TOL * np.linalg.norm(pc)
              and np.all(data.rays @ w <= UNIT_TOL))
        return (np.inf, nan, w, np.nan) if ok else None
    # The vertices' lines; b is p_c . y_F - floor as _Hull.minima rounds it,
    # so the vertex attaining the floor has slope 0 exactly.
    a, b = hull.Y @ c, (pc[None] @ hull.Y.T)[0] - floor
    vals = a + lo * b
    mu, i, j = lo, None, np.argmax(np.where(vals == vals.max(), b, -np.inf))
    while b[j] < 0:
        # The next kink: where a line of larger slope overtakes line j.
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(b > b[j], (a[j] - a) / (b - b[j]), np.inf)
        step = max(mu, float(np.min(cross)))
        if step > hi or step == np.inf:
            break
        mu, i, j = step, j, np.argmax(np.where(cross <= step, b, -np.inf))
    if b[j] >= 0 and i is not None:
        t = b[j] / (b[j] - b[i])
        y = t * hull.Y[i] + (1.0 - t) * hull.Y[j]
    elif b[j] >= 0:
        y = hull.Y[j] if i_lo is None else hull.Y[j] - b[j] / lift[i_lo] * W[i_lo]
    elif hi < np.inf:
        mu, y = hi, hull.Y[j] - b[j] / lift[i_hi] * W[i_hi]
    else:
        return None             # h(p_c) below the floor: only rounding gets here
    # Certified when a vertex's rays carry c + mu* p_c, with weights lam,
    # and the end moves by at most FEAS_TOL relative when the data move by
    # the weights' rounding and y_c's violation of the envelope.  The kink's
    # own vertices come first: rounding can put either on top there, and
    # the search over every facet costs one SVD each.
    q, value = c + mu * pc, float(c @ y)
    facets = np.array([j] if i is None else [j, i])
    lam, rel = hull.weights[facets] @ q, hull.rel(facets)
    ok = _carried(lam, rel)
    if not ok.any():
        _, facets, ok = hull.carriers(q[None])
        lam, rel = hull.weights[facets] @ q, hull.rel(facets)
    F = int(np.argmax(ok))
    slack = (rel[F] * max(1.0, float(np.max(np.abs(data.values))))
             + max(0.0, float(np.max(data.rays @ y - data.values))))
    radius = np.sum(np.abs(lam[F])) * slack
    return (value, y, nan, mu) if ok[F] and radius <= FEAS_TOL * max(1.0, abs(value)) else None


def quantity_bounds(data: ProfitData, p_c, u) -> BoundResult:
    """Sharp bounds on u . y_c where y_c is the bundle chosen at the
    counterfactual price p_c (its profit is not pinned): y_c lies in the
    envelope with p_c . y_c >= L(p_c).  A finite end is certified by its
    y_c and an unbounded end by a ray.  In d >= 3 a finite end also carries
    the multiplier mu* of the cut at which the hull's weights certify it
    (``_yc_dual``); an end the hull does not certify, and data without a
    hull, take the two LPs of ``_yc_range`` (whose unbounded ends carry no
    ray).  Raises ValueError unless p_c and u are ``data.dimension`` finite
    numbers each."""
    pc, u = _checked(data, p_c, "p_c"), _checked(data, u, "u")
    lows, _, faces = _face_lows(data, pc[None])
    floor = float(np.max(lows))
    if data.dimension == 2:
        ends = [(*end, None) for end in _yc_cut(data, pc, u, floor) or ()]
    else:
        ends = [None if faces is None else _yc_dual(data, faces, pc, s * u, floor)
                for s in (-1.0, 1.0)]
        if ends[0] is not None:
            ends[0] = (-ends[0][0], *ends[0][1:])
        if any(end is None for end in ends):
            ends = [end or (*ref, None) for end, ref in zip(ends, _yc_range(data, pc, u, floor)
                                                            or ())]
    if not ends:
        raise NumericFailure("counterfactual system infeasible despite WAPM holding")
    certs = [({"y_c": y} if mu is None else {"y_c": y, "mu": mu}) if np.isfinite(v)
             else None if np.isnan(w).any() else {"ray": w, "note": "unbounded direction"}
             for v, y, w, mu in ends]
    return BoundResult(lower=ends[0][0], upper=ends[1][0],
                       lower_certificate=certs[0], upper_certificate=certs[1])


def _sweep(data: ProfitData, coord: int, ybar: float, grid: np.ndarray,
           floors: np.ndarray):
    """Feasibility, min and max of p . y and their points at each grid row p,
    over the envelope with y[coord] = ybar and p . y >= L(p) (floors).  The
    max is p[coord] ybar plus the support at p[free] of the slice Q z <= w,
    Q = P[:, free], w = v - P[:, coord] ybar (Rockafellar 1970, sec. 13);
    rows with Q_j = 0 only ask w_j >= 0.  Q >= 0 leaves p . y unbounded below
    on the slice unless p[free] = 0: the min is L(p) capped by the max."""
    d = grid.shape[1]
    free = np.arange(d) != coord
    Q, G = np.maximum(data.rays[:, free], 0.0), grid[:, free]   # -1e-9 is a rounded 0
    w, pinned = data.values - data.rays[:, coord] * ybar, grid[:, coord] * ybar
    cut = (norm := np.linalg.norm(Q, axis=1)) > PARALLEL_TOL
    if not np.any(cut):            # the slice is all of R^(d-1)
        h, zs, dirs, z1 = np.where(G.any(axis=1), np.inf, 0.0), np.zeros_like(G), G, np.zeros(d - 1)
    elif d == 2:                   # a half-line z <= top: h is finite, dirs and z1 unread
        top = np.min(w[cut] / Q[cut, 0])
        h, zs, dirs, z1 = np.where(G[:, 0] > 0, G[:, 0] * top, 0.0), np.full_like(G, top), G, G[0]
    else:
        piece = HalfspaceEnvelope(Q[cut] / norm[cut, None], w[cut] / norm[cut])
        # A last row inside the normals' cone gives a finite slice point z1.
        h, zs, dirs = _supports(piece, np.vstack([G, piece.normals.sum(axis=0)]))
        h, zs, dirs, z1 = h[:-1], zs[:-1], dirs[:-1], zs[-1]
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(data.values))))
    hi = pinned + h
    lo = np.where(G.any(axis=1), np.minimum(floors, hi), hi)
    ok = np.all(w[~cut] >= -tol) & (hi >= floors - tol)
    J = np.arange(d - 1) == np.argmax(G, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # From a slice point above L(p), lower one free coordinate to reach it.
        s = np.maximum(0.0, (floors - pinned - G @ z1) / np.sum(G * dirs, axis=1))
        z0 = np.where(np.isfinite(h)[:, None], zs, z1 + s[:, None] * dirs)
        rest = np.sum(np.where(J, 0.0, G * z0), axis=1)
        z_lo = np.where(J, ((floors - pinned - rest) / G[J])[:, None], z0)
    z_lo = np.where((lo < hi)[:, None], z_lo, zs)
    return ok, lo, hi, np.insert(z_lo, coord, ybar, axis=1), np.insert(zs, coord, ybar, axis=1)


def profit_bounds_fixed_quantity(data: ProfitData, coord: int, ybar: float,
                                 ray_grid: Sequence) -> BoundResult:
    """Bounds on profit when one bundle coordinate is pinned at ybar and the
    counterfactual price is free on a ray grid, an (n, d) array of finite,
    componentwise nonnegative rows; coord is an integer in 0..d-1 and ybar
    is finite (else ValueError).

    At each grid ray the y_c program gains y_c[coord] = ybar; the reported
    interval is the sup of the per-ray maxima and the inf of the per-ray
    minima, a conservative-from-below discretization of the quadratic
    free-price program.  An empty feasible set at every grid ray is a
    legitimate (infeasible) outcome."""
    rays = np.asarray(ray_grid, float)
    if rays.shape[1:] != (data.dimension,) or not rays.size or not np.isfinite(rays).all():
        raise ValueError(f"ray_grid must be a nonempty (n, {data.dimension}) finite array, "
                         f"got shape {rays.shape}")
    if not hasattr(coord, "__index__") or not 0 <= coord < data.dimension:
        raise ValueError(f"coord must be an integer in 0..{data.dimension - 1}, got {coord!r}")
    if not np.isfinite(ybar):
        raise ValueError(f"ybar must be finite, got {ybar!r}")
    floors = np.max(_face_lows(data, rays, "ray_grid")[0], axis=1)
    ok, lo, hi, y_lo, y_hi = _sweep(data, coord, ybar, rays, floors)
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
