"""Shape-constrained profit estimation and the estimation duality.

The generalized-Leontief profit family  pi(p, e) = sum_s sum_j b_sj(e)
sqrt(p_s p_j)  is linear in its coefficients, degree-1 homogeneous by
construction, convex in prices under the sign pattern (offdiagonal <= 0,
diagonal >= 0), and monotone across types when every coefficient is
nondecreasing in e.  All of that composes into a single linear program for
least-absolute-deviations (median regression; any quantile is a config
knob), so the fit inherits the shape restrictions exactly.  Its value and
supply formulas are ``prodenv.simulate``'s, re-exported here.

The duality side: for a convex, homogeneous, continuous estimator, the
Hausdorff distance between the extended plug-in set and the truth equals the
sup-norm of the normalized profit error over the evaluation grid.  For a
nonconvex estimator only an inflation bound holds, and only while the error
is smaller than the lowest normalized profit on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import NumericFailure, ValidationError
from .geometry import (HalfspaceEnvelope, RestrictedPriceSet, _check_schema,
                       _Artifact, hausdorff_extended, hausdorff_oracle_2d,
                       solve_lp, support_values)
from .simulate import diewert_supply, diewert_value

MIN_DIAG_INCREMENT = 1e-6     # strict monotonicity margin between adjacent types


def _vech_indices(d: int) -> list[tuple[int, int]]:
    return [(s, j) for s in range(d) for j in range(s, d)]


def diewert_basis(prices: np.ndarray) -> np.ndarray:
    """Design matrix of sqrt(p_s p_j) terms, offdiagonals doubled (symmetry
    folds b_sj and b_js into one coefficient)."""
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    d = prices.shape[1]
    sq = np.sqrt(prices)
    cols = []
    for s, j in _vech_indices(d):
        w = 1.0 if s == j else 2.0
        cols.append(w * sq[:, s] * sq[:, j])
    return np.column_stack(cols)


@dataclass
class DiewertFit(_Artifact):
    """Per-type symmetric coefficient matrices with the fit residual and the
    slack of the shape constraints at the solution."""

    b_stack: np.ndarray           # (d_e, d, d)
    residual: float
    slack_report: dict = field(default_factory=dict)

    @property
    def d_e(self) -> int:
        return self.b_stack.shape[0]

    @property
    def dimension(self) -> int:
        return self.b_stack.shape[1]

    def value(self, e: int, prices) -> np.ndarray:
        return diewert_value(self.b_stack[e - 1], prices)

    def evaluator(self, e: int) -> Callable[[np.ndarray], float]:
        b = self.b_stack[e - 1]
        return lambda p: float(diewert_value(b, np.asarray(p, float)[None, :])[0])

    def supply(self, e: int, p) -> np.ndarray:
        return diewert_supply(self.b_stack[e - 1], np.asarray(p, float))

    def to_json_dict(self) -> dict:
        return {
            "schema": "prodenv.diewert-fit/1",
            "d_e": self.d_e,
            "dimension": self.dimension,
            "b": [[[float(v) for v in row] for row in mat] for mat in self.b_stack],
            "residual": float(self.residual),
            "slack": self.slack_report,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DiewertFit":
        _check_schema(doc, "prodenv.diewert-fit", 1)
        return cls(b_stack=np.asarray(doc["b"], dtype=float),
                   residual=doc["residual"], slack_report=doc.get("slack", {}))


def fit_diewert(per_type: Sequence[tuple], d_y: int,
                convexity: bool = True, monotone: bool = True,
                tau: float = 0.5) -> DiewertFit:
    """Constrained quantile regression of profits on the Diewert basis.

    ``per_type[e-1]`` is a pair (prices, values): evaluation prices (rows)
    and observed profit values for type e.  The objective is the check loss
    at quantile ``tau`` (0.5 = least absolute deviations), an LP in the
    coefficients and the residual splits.  Convexity enters through variable
    bounds (diagonal >= 0, offdiagonal <= 0); monotonicity across types
    through componentwise coefficient ordering with a strict diagonal
    increment.
    """
    if not 0 < tau < 1:
        raise ValidationError("quantile tau must lie in (0, 1)")
    d_e = len(per_type)
    if d_e == 0:
        raise ValidationError("need at least one type")
    pairs = _vech_indices(d_y)
    n_coef = len(pairs)

    designs, targets = [], []
    for e, (prices, values) in enumerate(per_type, start=1):
        prices = np.atleast_2d(np.asarray(prices, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if prices.shape[1] != d_y:
            raise ValidationError(f"type {e}: price dimension {prices.shape[1]} != {d_y}")
        if prices.shape[0] != values.size:
            raise ValidationError(f"type {e}: {prices.shape[0]} rays vs {values.size} values")
        X = diewert_basis(prices)
        if np.linalg.matrix_rank(X) < n_coef:
            raise ValidationError(
                f"type {e}: needs >= {n_coef} distinct rays in general position "
                f"to identify the coefficients (rank {np.linalg.matrix_rank(X)})")
        designs.append(X)
        targets.append(values)

    n_obs = sum(t.size for t in targets)
    c = np.concatenate([np.zeros(d_e * n_coef), np.full(n_obs, tau),
                        np.full(n_obs, 1.0 - tau)])
    # Variables: the d_e coefficient vectors, then the residual splits
    # u+ and u- with X b + u+ - u- = values.
    eye = sparse.identity(n_obs, format="csr")
    A_eq = sparse.hstack([sparse.block_diag(designs), eye, -eye], format="csr")
    if convexity:
        coef_bounds = [(0.0, None) if s == j else (None, 0.0) for s, j in pairs]
    else:
        coef_bounds = [(None, None)] * n_coef
    bounds = coef_bounds * d_e + [(0.0, None)] * (2 * n_obs)

    A_ub = b_ub = None
    if monotone and d_e > 1:
        # b(e) - b(e+1) <= 0 per coefficient, <= -increment on the diagonal.
        step = sparse.eye(d_e - 1, d_e) - sparse.eye(d_e - 1, d_e, k=1)
        A_ub = sparse.hstack([sparse.kron(step, sparse.identity(n_coef)),
                              sparse.csr_matrix((n_coef * (d_e - 1), 2 * n_obs))],
                             format="csr")
        diag = np.array([s == j for s, j in pairs])
        b_ub = np.tile(np.where(diag, -MIN_DIAG_INCREMENT, 0.0), d_e - 1)

    # The check loss is nonnegative, so the program is never unbounded.
    state, x, residual = solve_lp(c, A_ub, b_ub, A_eq, np.concatenate(targets),
                                  bounds=bounds)
    if state == "infeasible":
        raise ValidationError(
            "no coefficient matrices satisfy the shape constraints for these data")

    b_stack = np.zeros((d_e, d_y, d_y))
    rows, cols = np.triu_indices(d_y)          # the order of _vech_indices
    coefs = x[:d_e * n_coef].reshape(d_e, n_coef)
    b_stack[:, rows, cols] = coefs
    b_stack[:, cols, rows] = coefs
    slack = {}
    if monotone and d_e > 1:
        diffs = b_stack[1:] - b_stack[:-1]
        slack["min_monotonicity_slack"] = float(diffs.min())
        slack["min_diagonal_increment"] = float(
            np.min(np.diagonal(diffs, axis1=1, axis2=2)))
    if convexity:
        off = b_stack[:, ~np.eye(d_y, dtype=bool)]
        slack["max_offdiagonal"] = float(off.max()) if off.size else 0.0
        slack["min_diagonal"] = float(
            np.min(np.diagonal(b_stack, axis1=1, axis2=2)))
    return DiewertFit(b_stack=b_stack, residual=residual, slack_report=slack)


# ---------------------------------------------------------------------------
# Plug-in sets and the duality report
# ---------------------------------------------------------------------------


def plugin_set(pi_hat: Callable, price_set: RestrictedPriceSet,
               e: Optional[int] = None) -> HalfspaceEnvelope:
    """One halfspace per evaluation ray, offset by the estimated profit."""
    cons = []
    for ray in price_set.rays:
        args = (ray.components,) if e is None else (ray.components, e)
        v = float(pi_hat(*args))
        if not np.isfinite(v):
            raise NumericFailure(f"estimator returned non-finite value at {ray}")
        cons.append((ray, v))
    return HalfspaceEnvelope.from_constraints(cons)


@dataclass
class DualityReport:
    """Comparison of the profit-side and set-side estimation errors."""

    n_rays: int
    eta: float                   # sup-norm of the normalized profit error
    d_h: float                   # Hausdorff distance between extended sets
    big_r: float                 # sup of normalized true profit on the grid
    small_r: float               # inf of normalized true profit on the grid
    bound: Optional[float]       # nonconvex inflation bound, when applicable
    convex: bool
    verdict: str
    oracle_d_h: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "schema": "prodenv.duality-report/1",
            "n_rays": self.n_rays,
            "eta": self.eta,
            "d_h": self.d_h,
            "R": self.big_r,
            "r": self.small_r,
            "bound": self.bound,
            "convex": self.convex,
            "verdict": self.verdict,
            "oracle_d_h": self.oracle_d_h,
        }


def duality_check(pi_true: Callable, pi_hat: Callable,
                  price_set: RestrictedPriceSet, convex_flag: bool,
                  geometric_oracle: bool = False,
                  n_boundary: int = 10_000) -> DualityReport:
    """Verify the distance duality on an evaluation grid.

    Convex estimator: the Hausdorff distance between the extended sets, the
    sup-norm gap between their support functions on the grid, must equal the
    sup-norm profit error to 1e-6; an estimate that is not convex on the grid
    (its plug-in set's support falls below it somewhere) fails.  Nonconvex
    estimator: the distance uses the convexification of the estimate (its
    plug-in set's support values) and must respect the
    inflation bound eta (R/r) (1+eta/R) / (1-eta/r), applicable only while
    eta < r and r > 0.  ``geometric_oracle`` adds the exact d = 2 distance of
    ``hausdorff_oracle_2d``; ``n_boundary`` is ignored, kept for callers.
    """
    rays = price_set.as_matrix()
    a = np.array([float(pi_true(r)) for r in rays])
    h = np.array([float(pi_hat(r)) for r in rays])
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(h))):
        raise NumericFailure("non-finite profit evaluation on the grid")
    eta = float(np.max(np.abs(h - a)))
    big_r, small_r = float(np.max(a)), float(np.min(a))

    env_true = HalfspaceEnvelope(rays, a)
    env_hat = HalfspaceEnvelope(rays, h)
    oracle_val = None
    if geometric_oracle and price_set.dimension == 2:
        oracle_val = hausdorff_oracle_2d(env_true, env_hat)

    bound = None
    if convex_flag:
        d_h = hausdorff_extended(support_values(env_true, rays),
                                 support_values(env_hat, rays), price_set)
        verdict = "equality" if abs(d_h - eta) <= 1e-6 else "equality-violated"
    else:
        if small_r <= 0:
            raise ValidationError(
                "inflation bound needs inf pi/|p| > 0 on the grid (got r <= 0)")
        # Support of the plug-in set at each ray: the convexification of pi_hat.
        h_conv = support_values(env_hat, rays)
        if not np.all(np.isfinite(h_conv)):
            raise NumericFailure("plug-in set support is unbounded on its own grid")
        d_h = float(np.max(np.abs(a - h_conv)))
        if oracle_val is not None:
            d_h = max(d_h, float(oracle_val))
        if eta >= small_r:
            verdict = "bound-inapplicable"
        else:
            bound = eta * (big_r / small_r) * (1 + eta / big_r) / (1 - eta / small_r)
            verdict = "bound-holds" if d_h <= bound + 1e-9 else "bound-violated"
    return DualityReport(n_rays=len(price_set), eta=eta, d_h=d_h, big_r=big_r,
                         small_r=small_r, bound=bound, convex=bool(convex_flag),
                         verdict=verdict, oracle_d_h=oracle_val)


# ---------------------------------------------------------------------------
# Unbounded-distance demonstration
# ---------------------------------------------------------------------------


def infinite_hausdorff_demo(m: int = 10,
                            window_exponents: Sequence[int] = (2, 4, 6),
                            ratio_band: tuple = (0.1, 10.0),
                            n_grid: int = 400) -> dict:
    """Why extended sets are needed: a square-root frontier and its
    (1 - 1/m) contraction are Hausdorff-infinitely far apart, yet their
    extensions over a compact positive price band are close.

    The sets are {y1 <= sqrt(-y2)} and {y1 <= (1-1/m) sqrt(-y2)}.  The
    directed distance from the first to the second grows without bound as
    the y2 window widens (the table shows successive decades); the profit
    function of the frontier is p1^2 / (4 p2), so over a band of price
    ratios the extended sets sit exactly eta apart.
    """
    shrink = 1.0 - 1.0 / m

    def directed_distance(window: float) -> float:
        # Boundary samples (a, -a^2) of the larger set over the window, each
        # at its exact distance to the contracted frontier (c t, -t^2), t >= 0:
        # the squared distance (a - c t)^2 + (t^2 - a^2)^2 is least at t = 0
        # or at a real root of its derivative over 4, t^3 + (c^2/2 - a^2) t - c a / 2.
        w = np.concatenate([[0.0], np.geomspace(1e-3, window, 2000)])
        a = np.sqrt(w)
        companion = np.zeros((w.size, 3, 3))
        companion[:, 0, 1], companion[:, 0, 2] = w - shrink ** 2 / 2, shrink * a / 2
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        t = np.column_stack([np.zeros_like(w),
                             np.maximum(np.linalg.eigvals(companion).real, 0.0)])
        dist2 = (a[:, None] - shrink * t) ** 2 + (t ** 2 - w[:, None]) ** 2
        return float(np.sqrt(np.max(np.min(dist2, axis=1))))

    table = [{"window": 10.0 ** k, "directed_distance": directed_distance(10.0 ** k)}
             for k in window_exponents]

    lo, hi = ratio_band
    t = np.geomspace(lo, hi, n_grid)          # p2/p1 ratios
    rays = np.column_stack([np.ones_like(t), t])
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    price_set = RestrictedPriceSet(tuple(map(tuple, rays)), convex_flag=True)

    def pi_true(p):
        return p[0] ** 2 / (4.0 * p[1])

    def pi_hat(p):
        return shrink ** 2 * pi_true(p)

    report = duality_check(pi_true, pi_hat, price_set, convex_flag=True,
                           geometric_oracle=True)
    eta_limit = [
        {"m": mm, "eta": float((1 - (1 - 1 / mm) ** 2)
                               * max(r[0] ** 2 / (4 * r[1]) for r in rays))}
        for mm in (m, 10 * m, 100 * m)]
    return {
        "m": m,
        "truncated_window_table": table,
        "extended_duality": report.to_json_dict(),
        "eta_vanishes": eta_limit,
    }
