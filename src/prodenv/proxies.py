"""Recovery of unobserved prices from proxies via the Euler identity.

A degree-1 homogeneous profit function pi(p) composed with per-good monotone
price maps p_j = g_j(x_j) satisfies, in proxy space,

    sum_j  d pi~/d x_j (x) * t_j(x_j)  =  alpha * pi~(x),      t_j = g_j / g_j',

with alpha = 1 for profits (any homogeneity degree alpha >= 0 works the same
way).  Varying the observed-price coordinate generates a linear system for
the vector t; when the matrix of partial derivatives at the anchor points is
nonsingular (the rank condition), t is identified, and each g_j follows by
integrating log g_j' = 1/t_j from a location anchor g(x0) = p0.  The anchor
points come from one ``_anchor_points`` for both the rank matrix and
``solve_t``; by default the anchors are rank quantiles (``quantile_anchors``).

The housing variant uses market-average housing value as the proxy and the
zero-average-profit condition, which reduces the system to the scalar ODE
g'(v)/g(v) = pi~'(v)/v.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegrationError, RankConditionError
from .geometry import _Artifact, _check_schema

DERIV_BLOWUP = 1e12          # |t| beyond this flags a vanishing g' (warning state)
COND_THRESHOLD = 1e8         # nonsingularity verdict cutoff


def _central_diff(f: Callable, x: np.ndarray, j: int, h_rel: float = 1e-5) -> float:
    step = h_rel * max(abs(float(x[j])), 1e-3)
    hi, lo = x.copy(), x.copy()
    hi[j] += step
    lo[j] -= step
    return (float(f(hi)) - float(f(lo))) / (2.0 * step)


@dataclass(frozen=True)
class RankDiagnostic:
    """The matrix of profit partials at the anchor points, its condition
    number, and the nonsingularity verdict."""

    x_minus: np.ndarray
    anchors: np.ndarray
    matrix: np.ndarray
    cond: float
    nonsingular: bool

    def as_json(self) -> dict:
        return {
            "x_minus": [float(v) for v in self.x_minus],
            "anchors": [float(v) for v in self.anchors],
            "cond": float(self.cond),
            "nonsingular": bool(self.nonsingular),
        }


def _anchor_points(x_minus: np.ndarray, anchors: np.ndarray, obs: int) -> np.ndarray:
    """Row l is the proxy vector with ``x_minus`` in the free coordinates and
    anchors[l] in the observed one."""
    return np.insert(np.tile(x_minus, (anchors.size, 1)), obs, anchors, axis=1)


def rank_matrix(pi_tilde: Callable, x_minus, anchors,
                observed_index: Optional[int] = None) -> RankDiagnostic:
    """Assemble the rank-condition matrix at ``x_minus``.

    Row l holds the partials of pi~ with respect to every non-observed proxy
    coordinate, evaluated at (x_minus, anchors[l]) with anchors[l] plugged
    into the observed coordinate (by default the last one).
    """
    x_minus = np.asarray(x_minus, dtype=float)
    anchors = np.atleast_1d(np.asarray(anchors, dtype=float))
    d = x_minus.size + 1
    obs = d - 1 if observed_index is None else observed_index
    free = [j for j in range(d) if j != obs]
    if anchors.size < d - 1:
        raise ValueError(f"need at least {d-1} anchor values, got {anchors.size}")
    M = np.array([[_central_diff(pi_tilde, x_full, j) for j in free]
                  for x_full in _anchor_points(x_minus, anchors, obs)])
    if not np.all(np.isfinite(M)):
        raise ValueError("profit evaluator returned non-finite partials "
                         "(anchor outside the proxy domain?)")
    sv = np.linalg.svd(M, compute_uv=False)
    cond = float(np.inf) if sv[-1] == 0 else float(sv[0] / sv[-1])
    return RankDiagnostic(x_minus=x_minus, anchors=anchors, matrix=M,
                          cond=cond, nonsingular=bool(cond < COND_THRESHOLD))


def solve_t(pi_tilde: Callable, x, anchors,
            observed_index: Optional[int] = None) -> np.ndarray:
    """Solve the anchored linear system for t_j = g_j / g_j'.

    The right-hand side at anchor l is pi~(x*_l) - d pi~/d x_obs (x*_l) * a_l
    (the observed good's own Euler term moved over, using g_obs = identity).
    With more anchors than unknowns the system is solved by least squares.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    obs = d - 1 if observed_index is None else observed_index
    free = [j for j in range(d) if j != obs]
    x_minus = x[free]
    diag = rank_matrix(pi_tilde, x_minus, anchors, observed_index=obs)
    if not diag.nonsingular:
        raise RankConditionError(
            f"rank condition fails at x_minus={x_minus} (cond={diag.cond:.3g})")
    b = np.array([float(pi_tilde(x_full)) - _central_diff(pi_tilde, x_full, obs) * x_full[obs]
                  for x_full in _anchor_points(x_minus, diag.anchors, obs)])
    t, *_ = np.linalg.lstsq(diag.matrix, b, rcond=None)
    return t


@dataclass(frozen=True)
class ProxyGoodModel:
    grid: np.ndarray
    g_values: np.ndarray
    observed: bool

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        if grid.shape != g.shape or grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-d arrays")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("proxy grid must be strictly increasing")
        if np.any(g <= 0):
            raise ValueError("price map must be strictly positive on the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "g_values", g)

    def g(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.g_values)

    def t(self, x) -> np.ndarray:
        """g / g' with the derivative taken from the tabulated values."""
        dg = np.gradient(self.g_values, self.grid)
        return self.g(x) / np.interp(np.asarray(x, dtype=float), self.grid, dg)


@dataclass(frozen=True)
class ProxyModel(_Artifact):
    """Tabulated price maps per good with the location anchor pinned exactly."""

    goods: tuple
    anchor_x: np.ndarray
    anchor_p: np.ndarray
    diagnostics: tuple = ()
    gaps: tuple = ()              # per-good list of excluded grid intervals

    def __post_init__(self):
        object.__setattr__(self, "anchor_x", np.asarray(self.anchor_x, dtype=float))
        object.__setattr__(self, "anchor_p", np.asarray(self.anchor_p, dtype=float))
        if len(self.goods) != self.anchor_x.size:
            raise ValueError("one anchor coordinate per good")
        for j, good in enumerate(self.goods):
            pj = float(good.g(self.anchor_x[j]))
            if abs(pj - self.anchor_p[j]) > 1e-8 * max(1.0, abs(self.anchor_p[j])):
                raise ValueError(f"anchor not honored for good {j+1}: "
                                 f"g(x0)={pj}, p0={self.anchor_p[j]}")

    def price_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([float(g.g(x[j])) for j, g in enumerate(self.goods)])

    def to_json_dict(self) -> dict:
        return {
            "schema": "prodenv.proxy-model/1",
            "goods": [
                {"grid": [float(v) for v in g.grid],
                 "g_values": [float(v) for v in g.g_values],
                 "observed": bool(g.observed)}
                for g in self.goods
            ],
            "anchor": {"x": [float(v) for v in self.anchor_x],
                       "p": [float(v) for v in self.anchor_p]},
            "diagnostics": [d.as_json() for d in self.diagnostics],
            "gaps": [list(map(list, gg)) for gg in self.gaps] if self.gaps else [],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProxyModel":
        _check_schema(doc, "prodenv.proxy-model", 1)
        goods = tuple(ProxyGoodModel(np.array(g["grid"]), np.array(g["g_values"]),
                                     g["observed"]) for g in doc["goods"])
        gaps = tuple([tuple(run) for run in good_gaps]
                     for good_gaps in doc.get("gaps", []))
        return cls(goods=goods, anchor_x=np.array(doc["anchor"]["x"]),
                   anchor_p=np.array(doc["anchor"]["p"]), gaps=gaps)


def _integrate_log_from_anchor(grid: np.ndarray, integrand: np.ndarray,
                               x0: float, log_p0: float) -> np.ndarray:
    """log g on the grid from trapezoid integration of ``integrand``
    started at the anchor point x0 (which must be a grid point)."""
    k0 = int(np.argmin(np.abs(grid - x0)))
    if abs(grid[k0] - x0) > 1e-9 * max(1.0, abs(x0)):
        raise ValueError("anchor x0 must lie on the integration grid")
    seg = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return log_p0 + (cum - cum[k0])


def integrate_g(t_field: Sequence[np.ndarray], grids: Sequence[np.ndarray],
                anchor: tuple, observed_flags: Optional[Sequence[bool]] = None
                ) -> ProxyModel:
    """Integrate log g_j' = 1/t_j from the anchor for every unobserved good.

    Grid points where |t_j| exceeds the blow-up threshold (vanishing g') are
    excluded and bridged by interpolation of the integrand; a sign change of
    t_j inside the grid is an error because g would have to pass through a
    zero derivative non-trivially.
    """
    x0, p0 = (np.asarray(anchor[0], dtype=float), np.asarray(anchor[1], dtype=float))
    n_goods = len(grids)
    observed_flags = ([False] * n_goods if observed_flags is None
                      else list(observed_flags))
    goods, gaps = [], []
    for j in range(n_goods):
        grid = np.asarray(grids[j], dtype=float)
        if observed_flags[j]:
            goods.append(ProxyGoodModel(grid, grid.copy(), observed=True))
            gaps.append([])
            continue
        t = np.asarray(t_field[j], dtype=float)
        if t.shape != grid.shape:
            raise ValueError(f"t values for good {j+1} do not match its grid")
        usable = np.isfinite(t) & (np.abs(t) < DERIV_BLOWUP)
        if not np.any(usable):
            raise IntegrationError(f"no usable t values for good {j+1}")
        signs = np.sign(t[usable])
        if signs.max() != signs.min():
            raise IntegrationError(
                f"t changes sign inside the grid for good {j+1}; "
                "g would need a vanishing derivative on a non-null set")
        integrand = np.empty_like(t)
        integrand[usable] = 1.0 / t[usable]
        if np.any(~usable):
            integrand[~usable] = np.interp(grid[~usable], grid[usable],
                                           integrand[usable])
        log_g = _integrate_log_from_anchor(grid, integrand, float(x0[j]),
                                           float(np.log(p0[j])))
        goods.append(ProxyGoodModel(grid, np.exp(log_g), observed=False))
        bad_runs = []
        if np.any(~usable):
            idx = np.nonzero(~usable)[0]
            start = idx[0]
            for a, b in zip(idx, idx[1:]):
                if b != a + 1:
                    bad_runs.append((float(grid[start]), float(grid[a])))
                    start = b
            bad_runs.append((float(grid[start]), float(grid[idx[-1]])))
        gaps.append(bad_runs)
    return ProxyModel(goods=tuple(goods), anchor_x=x0, anchor_p=p0,
                      gaps=tuple(gaps))


def recover_proxy_model(pi_tilde: Callable, grids: Sequence[np.ndarray],
                        x_ref: np.ndarray, anchors, anchor: tuple,
                        observed_index: Optional[int] = None) -> ProxyModel:
    """Tabulate t_j over each unobserved good's grid (holding the other
    coordinates at ``x_ref``) and integrate; collects one rank diagnostic per
    evaluated point, marking failed points as gaps."""
    x_ref = np.asarray(x_ref, dtype=float)
    d = len(grids)
    obs = d - 1 if observed_index is None else observed_index
    free = [j for j in range(d) if j != obs]
    t_field: list[np.ndarray] = [np.array([]) for _ in range(d)]
    for c, j in enumerate(free):
        grid = np.asarray(grids[j], dtype=float)
        tj = np.full(grid.size, np.nan)
        for i, xj in enumerate(grid):
            x_full = x_ref.copy()
            x_full[j] = xj
            try:
                tj[i] = solve_t(pi_tilde, x_full, anchors, observed_index=obs)[c]
            except RankConditionError:
                pass    # left as a gap; bridged in integrate_g
        t_field[j] = tj
    # The rank diagnostic at x_ref, recorded once per free good.
    diag = rank_matrix(pi_tilde, x_ref[free], anchors, observed_index=obs)
    model = integrate_g(t_field, grids, anchor, [j == obs for j in range(d)])
    return replace(model, diagnostics=(diag,) * len(free))


def recover_g_housing(vbar_grid, pl_values, anchor: tuple) -> ProxyGoodModel:
    """Housing-value proxy: integrate g'(v)/g(v) = pi~'(v)/v from the anchor.

    ``pl_values`` tabulates the observed land price as a function of average
    housing value per market (the identified pi~); the zero-average-profit
    condition makes v itself the denominator.
    """
    v = np.asarray(vbar_grid, dtype=float)
    pl = np.asarray(pl_values, dtype=float)
    if v.shape != pl.shape or v.ndim != 1 or v.size < 3:
        raise ValueError("need matching 1-d grids with at least 3 points")
    if np.any(v <= 0):
        raise ValueError("average housing value must be strictly positive")
    if np.any(np.diff(v) <= 0):
        raise ValueError("the value grid must be strictly increasing")
    v0, p0 = float(anchor[0]), float(anchor[1])
    dpl = np.gradient(pl, v)
    log_g = _integrate_log_from_anchor(v, dpl / v, v0, np.log(p0))
    return ProxyGoodModel(grid=v, g_values=np.exp(log_g), observed=False)


def euler_system_residual(pi_tilde: Callable, model: ProxyModel, x,
                          alpha: float = 1.0) -> float:
    """Residual of the proxy-space Euler identity at x for homogeneity
    degree alpha: sum_j d pi~/d x_j * t_j - alpha * pi~."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for j, good in enumerate(model.goods):
        t_j = float(x[j]) if good.observed else float(good.t(x[j]))
        total += _central_diff(pi_tilde, x, j) * t_j
    return total - alpha * float(pi_tilde(x))


def quantile_anchors(values, count: int) -> np.ndarray:
    """Equally spaced rank quantiles of the observed-good proxy values."""
    values = np.asarray(values, dtype=float)
    return np.quantile(values, np.linspace(0.1, 0.9, count))
