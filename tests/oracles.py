"""Independent oracles that check the library in tests.

``brute_force_bounds`` enumerates WAPM assignments on a dense grid in d = 2;
it shares no algorithm with ``prodenv.bounds.profit_bounds``, which it checks
in ``test_bounds.py`` and acceptance criterion 5.  ``sweep_lp`` solves the
fixed-quantity program at each grid ray as two linear programs with the
coordinate pinned by its bounds; the library answers it from the support of
one slice of the envelope.  ``exact_support`` gives an envelope's support
values in rational arithmetic, by Caratheodory enumeration: the reference
for finite ends where a floating-point LP is not exact enough.
``sharpness_check`` asks whether a finite upper bound is attained by some
rationalizing production set, through ``with_pair`` (the data with one more
pair); ``euler_residual`` is Euler's identity for degree-1 homogeneity by
central differences.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional

import numpy as np

from prodenv.bounds import VALUE_TIE_TOL, BoundResult, ProfitData, wapm_feasible
from prodenv.errors import NumericFailure, ValidationError
from prodenv.geometry import solve_lp


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
    pc = np.asarray(p_c, float)

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


def sweep_lp(data: ProfitData, coord: int, ybar: float, grid: np.ndarray,
             floors: np.ndarray):
    """Reference for ``prodenv.bounds._sweep``: at each grid row p, min and
    max of p . y over the envelope with y[coord] = ybar and p . y >= floor,
    one LP each.  Returns feasibility, the minima and the maxima (+/-inf on
    an unbounded side, NaN on an infeasible row)."""
    n, d = grid.shape
    ok, lo, hi = np.zeros(n, dtype=bool), np.full(n, np.nan), np.full(n, np.nan)
    bounds = [(None, None)] * d
    bounds[coord] = (ybar, ybar)
    for m, (pc, floor) in enumerate(zip(grid, floors)):
        A_ub, b_ub = data.rays, data.values
        if np.isfinite(floor):
            A_ub, b_ub = np.vstack([A_ub, -pc]), np.append(b_ub, -floor)
        ends = []
        for sign in (1.0, -1.0):
            state, _, value = solve_lp(sign * pc, A_ub, b_ub, bounds=bounds)
            if state == "infeasible":
                break
            ends.append(sign * value if state == "optimal" else -sign * np.inf)
        else:
            ok[m], (lo[m], hi[m]) = True, ends
    return ok, lo, hi


def _exact_ints(values):
    """Integers m and a power of two q with values == m / q exactly."""
    fr = [Fraction(float(x)) for x in values]
    q = lcm(*(f.denominator for f in fr))
    return [int(f * q) for f in fr], q


def _exact_inverse(rows):
    """Gauss-Jordan over the rationals: (integer A, q > 0) with the inverse
    equal to A / q, or None when the matrix is singular."""
    n = len(rows)
    a = [[Fraction(e) for e in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        a[c] = [e / a[c][c] for e in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                a[r] = [e - a[r][c] * ec for e, ec in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    q = lcm(*(e.denominator for row in inv for e in row))
    return [[int(e * q) for e in row] for row in inv], q


def _pivot_columns(rows):
    """Columns of a row-echelon form of an integer matrix: a column basis."""
    a = [[Fraction(e) for e in r] for r in rows]
    cols, top = [], 0
    for c in range(len(a[0])):
        p = next((r for r in range(top, len(a)) if a[r][c] != 0), None)
        if p is None:
            continue
        a[top], a[p] = a[p], a[top]
        for r in range(top + 1, len(a)):
            f = a[r][c] / a[top][c]
            a[r] = [e - f * e0 for e, e0 in zip(a[r], a[top])]
        cols.append(c)
        top += 1
    return cols


def exact_support(normals, offsets, U):
    """Support values of {y : normals y <= offsets} at the rows of U in
    rational arithmetic, independent of the package.

    LP duality: h(u) = min lam . v over u = sum_j lam_j n_j, lam >= 0.  By
    Caratheodory a minimizer uses linearly independent rows, so the r-subsets
    (r the rank) enumerate the cone membership and the value; no
    representation means u leaves the cone, +inf.  At full rank the value is
    also the largest u . y over feasible vertices (d-subsets), which the
    oracle checks against itself.  Also returns |u| times the largest |y|
    over vertices attaining a finite value (0 without vertices): the scale
    of the rounding in a float u . y.
    """
    k, d = normals.shape
    flat, qn = _exact_ints(normals.ravel())
    N = [flat[i * d:(i + 1) * d] for i in range(k)]
    v, qv = _exact_ints(offsets)
    P = _pivot_columns(N)
    bases = [(S, inv) for S in combinations(range(k), len(P))
             if (inv := _exact_inverse([[N[i][c] for c in P] for i in S])) is not None]
    verts = []              # vertex y * qv / qn, exactly
    if len(P) == d:
        for S, (A, q) in bases:
            y = [Fraction(sum(A[a][b] * v[S[b]] for b in range(d)), q) for a in range(d)]
            if all(sum(nj[c] * y[c] for c in range(d)) <= vj for nj, vj in zip(N, v)):
                verts.append(y)
    values, reach = [], []
    for u in U:
        uq, qu = _exact_ints(u)
        best = None
        for S, (A, q) in bases:
            # lam = L qn / (q qu) on rows S; the other columns must agree too.
            L = [sum(A[a][i] * uq[P[a]] for a in range(len(P))) for i in range(len(S))]
            if min(L) < 0 or any(sum(l * N[j][c] for l, j in zip(L, S)) != uq[c] * q
                                 for c in range(d) if c not in P):
                continue
            val = Fraction(sum(l * v[j] for l, j in zip(L, S)), q)
            best = val if best is None or val < best else best
        top = [y for y in verts if best is not None
               and sum(a * b for a, b in zip(uq, y)) == best]
        assert best is None or not verts or top        # strong duality, exactly
        values.append(np.inf if best is None else float(best * qn / (qu * qv)))
        reach.append(max((float(np.linalg.norm([float(c * qn / qv) for c in y])) for y in top),
                         default=0.0) * float(np.linalg.norm(u)))
    return np.array(values), np.array(reach)


def with_pair(data: ProfitData, ray, value: float) -> ProfitData:
    """``data`` with the pair (ray, value) appended."""
    return ProfitData(data.e, np.vstack([data.rays, ray]), np.append(data.values, float(value)))


def sharpness_check(data: ProfitData, p_c, upper: float) -> bool:
    """A finite upper bound is attainable: appending (p_c, upper), rescaled
    onto the sphere, keeps the dataset rationalizable (its free-disposal
    hull generates the bound); at an observed ray, when upper is its value."""
    if not np.isfinite(upper):
        return True
    scale = float(np.linalg.norm(p_c))
    pc, upper = np.asarray(p_c, float) / scale, upper / scale
    hits = np.flatnonzero(np.all(np.abs(data.rays - pc) < 1e-12, axis=1))
    if hits.size:
        same = abs(upper - data.values[hits[0]]) <= VALUE_TIE_TOL * max(1.0, abs(upper))
        return same and wapm_feasible(data)[0]
    return wapm_feasible(with_pair(data, pc, upper))[0]


def euler_residual(f, p, h: float = 1e-5) -> float:
    """``sum_j d f/d p_j * p_j - f(p)`` with central differences of step
    h p_j: zero (to truncation error) exactly when f is homogeneous of
    degree 1 around p."""
    pv = np.asarray(p, dtype=float)
    if h <= 0:
        raise ValueError("step h must be positive")

    def partial(j):
        hi, lo = pv.copy(), pv.copy()
        hi[j] += h * pv[j]
        lo[j] -= h * pv[j]
        return (float(f(hi)) - float(f(lo))) / (2.0 * h * pv[j])

    res = sum(partial(j) * pv[j] for j in range(pv.size)) - float(f(pv))
    if not np.isfinite(res):
        raise NumericFailure("euler_residual: non-finite evaluation")
    return res
