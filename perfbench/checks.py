"""Output checks: each compares an answer with a truth computed outside
prodenv, or with an oracle written here, and returns the problems found
(an empty list means the answer passed).

Tolerances are fixed here.  ``test_checks.py`` shows that every check
rejects a corrupted answer.
"""

from __future__ import annotations

import math

import numpy as np

RECOVERY_TOL = 0.01          # identified profits within 1% of the truth ...
RECOVERY_SE = 4.0            # ... or within 4 sampling errors K / sqrt(n_e),
                             # whichever is wider (worst of 250 seeds: 2.35)
PROXY_TOL = 0.01             # recovered proxy map within 1% of x^2 + 1
CLI_BOUND_TOL = 0.01         # CLI bounds contain the truth within 1%
IDENTIFY_BOUND_TOL = 0.01    # bounds from identified profits, 1% slack
EXACT_TOL = 1e-6             # bounds from exact data contain the truth
ORACLE_TOL = 2e-3            # sampled 2-d Hausdorff oracle vs eta
FIT_TOL = 0.1                # LAD coefficients vs truth: twice the +/-0.05
                             # value noise (worst of 300 seeds: 0.048)


def _is_ray_cert(cert) -> bool:
    return isinstance(cert, dict) and "ray" in cert and \
        np.all(np.isfinite(np.asarray(cert["ray"], float)))


def _as_float(v) -> float:
    """Bound value as a float; reports write infinities as strings."""
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def recovery_error(identified: dict, truth: dict) -> float:
    """Largest relative error over (cell, type) pairs.  Both maps are
    keyed by (cell index, type)."""
    if set(identified) != set(truth) or not identified:
        return math.inf
    return max(abs(identified[k] - truth[k]) / abs(truth[k]) for k in identified)


def check_recovery(identified: dict, truth: dict, tol: float = RECOVERY_TOL,
                   sampling_err: dict | None = None) -> list:
    """Every identified profit is within ``tol`` of the truth, relative, or
    within ``RECOVERY_SE`` times its sampling error where one is given.

    The sampling error matters for profits near zero: the deconvolution's
    absolute error scales with the noise, not with the profit, so a 1%
    relative tolerance on a profit of 0.11 is under two sampling errors."""
    if set(identified) != set(truth) or not identified:
        return [f"identified {len(identified)} (cell, type) pairs, "
                f"truth has {len(truth)}"]
    misses = {}
    for k in identified:
        miss = abs(identified[k] - truth[k])
        allowed = tol * abs(truth[k])
        if sampling_err is not None:
            allowed = max(allowed, RECOVERY_SE * sampling_err[k])
        if not miss <= allowed:
            misses[k] = (miss, allowed)
    if not misses:
        return []
    k = max(misses, key=lambda key: misses[key][0] / misses[key][1])
    return [f"{len(misses)} of {len(identified)} profits outside tolerance; worst "
            f"{k}: {identified[k]:.6g} vs truth {truth[k]:.6g}, off by "
            f"{misses[k][0]:.3g} > {misses[k][1]:.3g}"]


def check_proxy_map(grid, g_values, tol: float = PROXY_TOL) -> list:
    grid = np.asarray(grid, float)
    truth = grid ** 2 + 1.0
    err = float(np.max(np.abs(np.asarray(g_values, float) - truth) / truth))
    return [] if err <= tol else [f"proxy map off x^2+1 by {err:.3g}"]


def check_bound(lower, upper, truth: float, tol: float, lower_cert=None,
                upper_cert=None) -> list:
    """The interval contains the truth within ``tol``; infinite sides carry
    a ray certificate."""
    problems = []
    lo, hi = _as_float(lower), _as_float(upper)
    if not lo - tol <= truth <= hi + tol:
        problems.append(f"[{lo:.6g}, {hi:.6g}] misses truth {truth:.6g}")
    if math.isinf(hi) and not _is_ray_cert(upper_cert):
        problems.append("+inf upper bound without a ray certificate")
    if math.isinf(lo) and not _is_ray_cert(lower_cert):
        problems.append("-inf lower bound without a ray certificate")
    return problems


def check_doubly_unbounded(lower, upper, lower_cert, upper_cert) -> list:
    """A type seen at one ray only: both bounds infinite, with rays."""
    lo, hi = _as_float(lower), _as_float(upper)
    if not (lo == -math.inf and hi == math.inf):
        return [f"expected (-inf, +inf), got [{lo:.6g}, {hi:.6g}]"]
    return check_bound(lo, hi, 0.0, 0.0, lower_cert, upper_cert)


def check_out_of_cone(lower, upper, truth: float, upper_cert) -> list:
    if _as_float(upper) != math.inf:
        return [f"out-of-cone upper bound {upper} is finite"]
    return check_bound(lower, upper, truth, EXACT_TOL, None, upper_cert)


def check_verdict(verdict: str, expected: str) -> list:
    return [] if verdict == expected else [f"verdict {verdict!r}, expected {expected!r}"]


def check_convex_duality(report: dict, eta: float, oracle: bool) -> list:
    """Convex estimator: verdict, the benchmark's own eta, and (d = 2) the
    sampled geometric oracle, which is independent of the verdict."""
    problems = check_verdict(report["verdict"], "equality")
    if abs(report["eta"] - eta) > 1e-12 * max(1.0, abs(eta)):
        problems.append(f"eta {report['eta']:.9g} != recomputed {eta:.9g}")
    if oracle:
        od = report.get("oracle_d_h")
        if od is None or not abs(od - eta) <= ORACLE_TOL:
            problems.append(f"2-d oracle {od} disagrees with eta {eta:.6g}")
    return problems


def inflation_bound(eta: float, big_r: float, small_r: float) -> float:
    return eta * (big_r / small_r) * (1 + eta / big_r) / (1 - eta / small_r)


def check_nonconvex_duality(report: dict, eta: float, big_r: float,
                            small_r: float) -> list:
    """Nonconvex estimator: bound holds, recomputed here from eta, R, r."""
    problems = check_verdict(report["verdict"], "bound-holds")
    if not eta < small_r:
        problems.append(f"eta {eta:.6g} >= r {small_r:.6g}")
        return problems
    bound = inflation_bound(eta, big_r, small_r)
    if report["bound"] is None or abs(report["bound"] - bound) > 1e-9 * bound:
        problems.append(f"bound {report['bound']} != recomputed {bound:.9g}")
    if not 0.0 <= report["d_h"] <= bound + 1e-9:
        problems.append(f"d_H {report['d_h']:.6g} outside [0, {bound:.6g}]")
    od = report.get("oracle_d_h")
    if od is not None and not od <= bound + 1e-9:
        problems.append(f"2-d oracle {od:.6g} exceeds bound {bound:.6g}")
    return problems


def check_fit(b_fit, b_true, tol: float = FIT_TOL) -> list:
    err = float(np.max(np.abs(np.asarray(b_fit) - np.asarray(b_true))))
    return [] if err <= tol else [f"fit coefficients off by {err:.3g}"]


def check_demo(demo: dict) -> list:
    problems = check_verdict(demo["extended_duality"]["verdict"], "equality")
    table = demo["truncated_window_table"]
    for early, late in zip(table, table[1:]):
        if not late["directed_distance"] >= 10.0 * early["directed_distance"]:
            problems.append("truncated distance grows < 10x per decade")
    if not math.isfinite(demo["extended_duality"]["d_h"]):
        problems.append("extended distance is not finite")
    return problems


# ---------------------------------------------------------------------------
# Fixed-quantity sweep oracle (d = 2)
# ---------------------------------------------------------------------------


def _face_lows(rays: np.ndarray, values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """L(p_c) = max_j min over face j of p_c . y: the least profit at p_c
    that every WAPM assignment concedes (the profit lower bound)."""
    k = rays.shape[0]
    taus = np.column_stack([-rays[:, 1], rays[:, 0]])
    lows = np.full(grid.shape[0], -np.inf)
    for i in range(k):
        # Face i: y = v_i p_i + t tau_i with p_j . y <= v_j for j != i.
        others = np.arange(k) != i
        a = rays[others] @ taus[i]
        rhs = values[others] - values[i] * (rays[others] @ rays[i])
        t_hi = np.min(rhs[a > 0] / a[a > 0]) if np.any(a > 0) else np.inf
        t_lo = np.max(rhs[a < 0] / a[a < 0]) if np.any(a < 0) else -np.inf
        slope = grid @ taus[i]
        base = values[i] * (grid @ rays[i])
        end = np.where(slope > 0, t_lo, t_hi)
        with np.errstate(invalid="ignore"):
            face_min = np.where(slope == 0, base, base + slope * end)
        lows = np.maximum(lows, face_min)
    return lows


def sweep_oracle(rays, values, coord: int, ybar: float, grid):
    """Per-ray feasibility margin and upper value of the fixed-quantity
    program in d = 2, in closed form: y_c[coord] = ybar, the free
    coordinate is capped by the envelope, and p_c . y_c must reach L(p_c)."""
    rays, values, grid = (np.asarray(rays, float), np.asarray(values, float),
                          np.asarray(grid, float))
    other = 1 - coord
    t_max = np.min((values - rays[:, coord] * ybar) / rays[:, other])
    upper = grid[:, coord] * ybar + grid[:, other] * t_max
    margin = upper - _face_lows(rays, values, grid)
    return margin, upper


def check_sweep(result: dict, rays, values, coord: int, ybar: float, grid,
                truth: float) -> list:
    """The sweep agrees with the closed-form oracle on every ray whose
    feasibility is not a near-tie, and its interval contains the truth."""
    margin, upper = sweep_oracle(rays, values, coord, ybar, grid)
    clear = np.abs(margin) > 1e-6
    expected = int(np.sum(margin[clear] > 0))
    n_feasible = result["n_feasible"]
    n_ties = int(np.sum(~clear))
    problems = []
    if not expected <= n_feasible <= expected + n_ties:
        problems.append(f"n_feasible {n_feasible}, oracle {expected} "
                        f"(+{n_ties} ties)")
    # A near-tie ray may go either way, so the upper bound must lie between
    # the oracle's maxima without and with the near-tie rays.
    hi_lo = float(np.max(upper[margin > 1e-6], initial=-np.inf))
    hi_hi = float(np.max(upper[margin > -1e-6], initial=-np.inf))
    tol = EXACT_TOL * max(1.0, abs(hi_hi))
    if not hi_lo - tol <= _as_float(result["upper"]) <= hi_hi + tol:
        problems.append(f"sweep upper {result['upper']} outside oracle "
                        f"[{hi_lo:.9g}, {hi_hi:.9g}]")
    problems += check_bound(result["lower"], result["upper"], truth, EXACT_TOL)
    return problems
