"""Convex-geometry primitives for production-set analysis.

A production set consistent with observed profit values is represented as an
intersection of halfspaces, one per observed price ray: the envelope
``{y : ray . y <= value for every (ray, value)}``.  The profit function of a
price-taking firm is the support function of its production set.  One face
kernel per envelope answers every question about it, built on first use and
kept with the envelope (``HalfspaceEnvelope.kernel``): in d = 2 the faces
are segments from one vectorized pass (``_Segments``), which also give the
exact Hausdorff distance; in d >= 3 one convex hull of the constraints
lifted over the price simplex gives the vertices, recession generators and
faces (``_Hull``).  The kernel's ``sup`` gives support values, maximizers
and +inf certificates, with a linear program only for what no certificate
covers (``_supports``); ``prodenv.bounds`` takes the WAPM test and the lower
bounds from its faces.  Unbounded support values are legitimate outputs (a
recession-cone violation of the envelope), so +inf is a first-class result
state with a certificate direction, not an exception.

``_check_schema`` and the atomic ``_write_json`` are the reading and writing
halves of the artifact format; everything else is a pure function on
immutable values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import NumericFailure, ValidationError

# Feasibility tolerance (solve_lp scales it by the largest right-hand side);
# value comparisons use 1e-6 relative.
FEAS_TOL = 1e-9
UNIT_TOL = 1e-12
PARALLEL_TOL = 1e-14       # |slope| at or below this counts as exactly parallel


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
            raise ValueError("envelope normals must be unit vectors")
        normals.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @property
    def dimension(self) -> int:
        return self.normals.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.normals.shape[0]

    @cached_property
    def kernel(self) -> _Segments | _Hull | None:
        """The face kernel (``_kernel``), built once and read-only."""
        kernel = _kernel(self)
        for arr in kernel or ():
            arr.flags.writeable = False
        return kernel

    def contains(self, y, tol: float = FEAS_TOL) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all(self.normals @ y <= self.offsets + tol))


def _check_schema(doc: dict, name: str, major: int) -> None:
    tag = doc.get("schema", "")
    base, _, ver = tag.partition("/")
    if base != name or not ver or int(ver.split(".")[0]) != major:
        raise ValidationError(f"expected schema {name}/{major}, got {tag!r}")


def _write_json(path: str, doc: dict) -> None:
    """Writes ``doc`` as indented JSON to ``path.partial`` and renames it to
    ``path``, so ``path`` is whole or absent; a failed write leaves only the
    partial file."""
    tmp = path + ".partial"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, path)


class _Artifact:
    """``save`` and ``load`` for a class with ``to_json_dict`` and
    ``from_json_dict``."""

    def save(self, path: str) -> None:
        _write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def angle_rays(angles) -> list[np.ndarray]:
    """The d = 2 unit rays (cos a, sin a), one per angle.  Each is computed
    from its scalar angle, so a ray's bits do not depend on the grid it is
    part of."""
    return [np.array([np.cos(a), np.sin(a)]) for a in angles]


def first_duplicate(rays: np.ndarray) -> tuple[int, int] | None:
    """Rows (i, j), i < j, where a ray first repeats at 12 digits, or None."""
    seen = {}
    for j, key in enumerate(map(tuple, np.round(rays, 12))):
        if seen.setdefault(key, j) != j:
            return seen[key], j
    return None


@dataclass(frozen=True, eq=False)
class RestrictedPriceSet:
    """Finite evaluation grid of price rays: ``rays`` is a read-only (n, d)
    array of distinct, strictly positive unit rows (profits at a scaled price
    follow from degree-1 homogeneity).

    ``convex_flag`` records the caller's assertion that the grid discretizes
    a compact convex subset of the strictly positive orthant; it is stored,
    not verified, because convexity of an intended continuum cannot be
    checked from finitely many points.
    """

    rays: np.ndarray
    convex_flag: bool = False

    def __post_init__(self):
        rays = np.array(self.rays, dtype=float)      # ragged rows raise ValueError
        if rays.ndim != 2 or rays.size == 0:
            raise ValueError(f"need a nonempty (n, d) array of rays, got shape {rays.shape}")
        if not np.all(rays > 0):
            raise ValueError("price rays must be strictly positive")
        if np.any(np.abs(np.linalg.norm(rays, axis=1) - 1.0) > UNIT_TOL):
            raise ValueError("price rays must have unit Euclidean norm")
        if first_duplicate(rays) is not None:
            raise ValueError("rays must be distinct")
        rays.flags.writeable = False
        object.__setattr__(self, "rays", rays)

    @property
    def dimension(self) -> int:
        return self.rays.shape[1]

    def __len__(self):
        return len(self.rays)


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
    """Support function of the envelope at a nonnegative direction ``u``.

    Returns the finite optimum with its maximizer, or the +inf state with an
    unbounded-ray certificate when ``u`` leaves the conic hull of the
    constraint normals: row 0 of ``_supports``.
    """
    (value,), (y,), (w,) = _supports(env, _directions(env, np.asarray(u, float)[None]))
    if value == np.inf:
        return SupportResult(value=np.inf, direction=w)
    return SupportResult(value=float(value), maximizer=y)


def _directions(env: HalfspaceEnvelope, U) -> np.ndarray:
    """U as an (n, d) float array of componentwise nonnegative directions."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != env.dimension:
        raise ValueError(f"directions have shape {U.shape}, expected (n, {env.dimension})")
    if np.any(U < 0):
        raise ValueError("support directions must be componentwise nonnegative")
    return U


def _supports(env: HalfspaceEnvelope, U: np.ndarray):
    """Support values at the rows of U with their maximizers and +inf
    directions (NaN rows where they do not apply): the kernel's certified
    rows, and ``_support_lp`` for each row it leaves NaN."""
    kernel = env.kernel
    if kernel is None:
        values, (ys, dirs) = np.full(len(U), np.nan), np.full((2, *U.shape), np.nan)
    else:
        values, ys, dirs = kernel.sup(U)
    for i in np.flatnonzero(np.isnan(values)):
        res = _support_lp(env, U[i])
        values[i] = res.value
        if res.finite:
            ys[i] = res.maximizer
        else:
            dirs[i] = res.direction
    return values, ys, dirs


def _support_lp(env: HalfspaceEnvelope, u: np.ndarray) -> SupportResult:
    """The support LP at u, and a recession LP to certify +inf."""
    state, x, _ = solve_lp(-u, env.normals, env.offsets)
    if state == "optimal":
        return SupportResult(value=float(u @ x), maximizer=x)
    if state == "unbounded":
        return SupportResult(value=np.inf, direction=recession_direction(env, u))
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
    return not len(probe_rays) or bool(np.all(np.isfinite(support_values(env, probe_rays))))


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
# The d = 2 face kernel
# ---------------------------------------------------------------------------


class _Segments(NamedTuple):
    """Where lines F_i . y = f_i meet a d = 2 envelope: segment i is
    {bases_i + t taus_i : lo_i <= t <= hi_i}, empty when not nonempty_i."""

    bases: np.ndarray         # (m, 2) f_i F_i / |F_i|^2, on the line
    taus: np.ndarray          # (m, 2) F_i turned by 90 degrees
    lo: np.ndarray            # (m,) -inf when the segment is unbounded that way
    hi: np.ndarray
    nonempty: np.ndarray      # (m,) bool

    @classmethod
    def cut(cls, P: np.ndarray, v: np.ndarray, F: np.ndarray | None = None,
            f: np.ndarray | None = None) -> "_Segments":
        """All m segments of the envelope {P . y <= v} in one O(mk) pass; the
        lines default to its own constraints, which gives its faces.
        Constraint j reads (p_j . tau_i) t <= v_j - p_j . base_i on line i."""
        if F is None:
            F, f = P, v
        bases = f[:, None] * F / np.sum(F * F, axis=1)[:, None]
        taus = np.column_stack([-F[:, 1], F[:, 0]])
        a, r = taus @ P.T, v[None, :] - bases @ P.T         # (m, k) each
        up, down = a > PARALLEL_TOL, a < -PARALLEL_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            q = r / a
        hi = np.min(np.where(up, q, np.inf), axis=1)
        lo = np.max(np.where(down, q, -np.inf), axis=1)
        tol = FEAS_TOL * max(1.0, float(np.max(np.abs(v))))
        nonempty = (lo <= hi + tol) & np.all(up | down | (r >= -tol), axis=1)
        return cls(bases, taus, lo, hi, nonempty)

    def minima(self, pcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least p_c . y on each segment for each row of pcs (n, 2): values
        (n, m) and attaining parameters t (n, m), +/-inf on a -inf side."""
        slope, offset = pcs @ self.taus.T, pcs @ self.bases.T
        flat = np.abs(slope) <= PARALLEL_TOL
        t = np.where(flat, np.clip(0.0, self.lo, self.hi),
                     np.where(slope > 0, self.lo, self.hi))
        with np.errstate(invalid="ignore"):
            return np.where(flat, offset, offset + slope * t), t

    def descent(self, pc: np.ndarray, i: int) -> np.ndarray:
        """The direction of segment i, +/-tau_i, along which p_c . y falls."""
        return -np.sign(pc @ self.taus[i]) * self.taus[i]

    def sup(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Support values at the rows of U (n, 2): the largest u . y over the
        nonempty faces, the point of the chosen face attaining it and, on a
        +inf row, the end ray sign(t) tau the face runs off along; NaN where
        a row has no such point or ray."""
        neg, t = self.minima(-U)
        at = np.arange(len(U)), np.argmin(np.where(self.nonempty, neg, np.inf), axis=1)
        values, t, tau = -neg[at], t[at][:, None], self.taus[at[1]]
        up = np.isposinf(values)[:, None]
        with np.errstate(invalid="ignore"):
            ys = np.where(up, np.nan, self.bases[at[1]] + t * tau)
        return values, ys, np.where(up, np.sign(t) * tau, np.nan)

    def nonempty_only(self) -> "_Segments":
        return _Segments(*(field[self.nonempty] for field in self))


def support_values(env: HalfspaceEnvelope, U) -> np.ndarray:
    """Support values of the envelope at the rows of U (price directions,
    componentwise nonnegative), +inf where unbounded; values only.

    They come from the face kernel: in d = 2 the largest maximum of u . y
    over the nonempty faces, with no LP; in d >= 3 one convex hull.  A row
    it cannot certify is a support LP (``_supports``).
    """
    return _supports(env, _directions(env, U))[0]


class _Hull(NamedTuple):
    """The vertices, recession generators and faces of a d >= 3 envelope.
    Face F_i = {y in envelope : n_i . y = v_i} is the convex hull of the
    vertices tight on n_i (by tolerance: Qhull drops coplanar lifted points
    whose constraints are tight) plus the cone of the generators orthogonal
    to n_i."""

    Y: np.ndarray             # (m, d) certified feasible vertices y_F
    weights: np.ndarray       # (m, d, d) u -> lam with u = N_F^T lam
    NF: np.ndarray            # (m, d, d) the rays of each vertex's facet
    W: np.ndarray             # (r, d) unit generators of the recession cone
    vertex: np.ndarray        # (nnz,) vertex of each tight pair, sorted by face
    face: np.ndarray          # (nnz,) its face
    starts: np.ndarray        # (k,) each face's first pair
    flat: np.ndarray          # (k, r) generators orthogonal to each n_i
    nonempty: np.ndarray      # (k,)

    def minima(self, pcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least p_c . y on each nonempty face for each row of pcs (n, d):
        values (n, k), -inf where a generator of the face descends, and the
        attaining vertices (n, k)."""
        vals = (pcs @ self.Y.T)[:, self.vertex]                        # (n, nnz)
        lows = np.minimum.reduceat(vals, self.starts, axis=1)
        pair = np.where(vals <= lows[:, self.face], np.arange(vals.shape[1]), vals.shape[1])
        down = self.W @ pcs.T < -FEAS_TOL * np.linalg.norm(pcs, axis=1)   # (r, n)
        lows[(self.flat.astype(int) @ down.astype(int)).T > 0] = -np.inf
        return lows, self.vertex[np.minimum.reduceat(pair, self.starts, axis=1)]

    def descent(self, pc: np.ndarray, i: int) -> np.ndarray:
        """The generator of face i along which p_c . y falls fastest."""
        return self.W[np.argmin(np.where(self.flat[i], self.W @ pc, np.inf))]

    def rel(self, facets) -> np.ndarray:
        """The rounding of the weights on ``facets``: d eps cond(N_F)."""
        return self.Y.shape[1] * np.finfo(float).eps * np.linalg.cond(self.NF[facets])

    def carriers(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gains u . y_F (n, m) at the rows of U, the best facet for each
        row and whether its rays carry u (its weights are nonnegative, up to
        rounding): then y_F maximizes u . y over the envelope."""
        gains = U @ self.Y.T
        best = np.argmax(gains, axis=1)
        chosen, at = np.unique(best, return_inverse=True)
        ok = _carried(np.einsum("nij,nj->ni", self.weights[best], U), self.rel(chosen)[at])
        # Tied facets (coplanar lifted points) can put the argmax on a facet
        # whose rays do not carry u: take the best facet whose rays do.
        redo = np.flatnonzero(~ok)
        if redo.size:
            cone = _carried(np.einsum("mij,nj->nmi", self.weights, U[redo]),
                            self.rel(slice(None))[None, :])
            best[redo] = np.argmax(np.where(cone, gains[redo], -np.inf), axis=1)
            ok[redo] = cone[np.arange(redo.size), best[redo]]
        return gains, best, ok

    def sup(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Certified support values h(u) = max_F u . y_F at the nonnegative
        rows of U, with maximizers and +inf generators; NaN where uncertified.

        Certificates (weak duality): a finite row's y_F is feasible and tight
        on its facet's rays, and u's weights over those rays are nonnegative.
        A +inf row has a generator w with u . w > 1e-9 |u|, which covers the
        1e-12 slack on N w: w - 1e-12 (1, ..., 1) has N w <= 0 exactly.
        """
        values, (ys, dirs) = np.full(len(U), np.nan), np.full((2, *U.shape), np.nan)
        gains, best, ok = self.carriers(U)
        values[ok], ys[ok] = gains[ok, best[ok]], self.Y[best[ok]]
        if len(self.W):
            rise = U @ self.W.T
            w = np.argmax(rise, axis=1)
            leaves = ~ok & (rise[np.arange(len(U)), w] > FEAS_TOL * np.linalg.norm(U, axis=1))
            values[leaves], dirs[leaves] = np.inf, self.W[w[leaves]]
        return values, ys, dirs


def _kernel(env: HalfspaceEnvelope) -> _Segments | _Hull | None:
    """The face kernel of an envelope, which answers every support and face
    question about it (read it as ``env.kernel``, which builds it once): its
    segments in d = 2; in d >= 3 its vertices, recession generators and
    faces from one convex hull.  None in d = 1, when the normals have rank
    < d, when Qhull fails or when no vertex is certified.

    Constraint j scaled by s_j = sum(normal_j) > 0 is the lifted point
    (x_j, z_j) = (normal_j[:-1], v_j) / s_j over the price simplex, and
    h(u) is s(u) times the lower convex envelope of the lifted points at
    x_u = u[:-1] / s(u), +inf where x_u leaves conv(x_j).  The d rays of a
    lower facet z = a . x + b meet at the envelope's vertex y_F = (a + b, b).
    An apex above the data keeps the hull full-dimensional when the lifted
    points are coplanar (a linear profit).  The hull gives only which rays
    meet; y_F is solved from them and kept when feasible and tight on them.
    A facet g . x + g0 <= 0 of conv(x_j) gives w = (g + g0, g0), with
    n_j . w = s_j (g . x_j + g0) <= 0: the generators.
    """
    N, v = env.normals, env.offsets
    d = env.dimension
    if d == 2:
        return _Segments.cut(N, v)
    if d == 1 or np.linalg.matrix_rank(N) < d:
        return None
    s = N.sum(axis=1)
    x, z = N[:, :-1] / s[:, None], v / s
    apex = np.append(x.mean(axis=0), z.max() + max(1.0, float(np.max(np.abs(z)))))
    try:
        hull = ConvexHull(np.vstack([np.column_stack([x, z]), apex]))
        # Lower facets, neither vertical nor touching the apex, nor one of
        # the degenerate slivers Qhull's triangulated output can hold.
        facets = hull.simplices[(hull.equations[:, d - 1] < -UNIT_TOL)
                                & np.all(hull.simplices < len(v), axis=1)]
        facets = facets[np.linalg.det(N[facets]) != 0]
        NF = N[facets]                                               # (m, d, d)
        Y = np.linalg.solve(NF, v[facets][:, :, None])[:, :, 0]     # (m, d)
        # FEAS_TOL as in solve_lp, plus the rounding of n . y (Higham's
        # d eps |y|_1 for a unit n): near-parallel rays put y_F far out.
        tol = (FEAS_TOL * max(1.0, float(np.max(np.abs(v))))
               + d * np.finfo(float).eps * np.sum(np.abs(Y), axis=1, keepdims=True))
        good = (np.all(Y @ N.T <= v + tol, axis=1)
                & np.all(np.abs(np.einsum("mij,mj->mi", NF, Y) - v[facets]) <= tol, axis=1))
        NF, Y, tol = NF[good], Y[good], tol[good]
        weights = np.linalg.inv(NF.transpose(0, 2, 1))
        eq = ConvexHull(x).equations
    except (QhullError, np.linalg.LinAlgError):
        return None
    if not len(Y):
        return None
    W = np.column_stack([eq[:, :-1] + eq[:, -1:], eq[:, -1]])
    W = (W / np.linalg.norm(W, axis=1, keepdims=True))[np.all(N @ W.T <= UNIT_TOL, axis=0)]
    tight = np.abs(Y @ N.T - v) <= tol                                 # (m, k)
    face, vertex = np.nonzero(tight.T)
    counts = np.sum(tight, axis=0)
    return _Hull(Y, weights, NF, W, vertex, face, np.cumsum(counts) - counts,
                 np.abs(N @ W.T) <= UNIT_TOL, counts > 0)


def _carried(lam: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Whether each weight vector (last axis) is nonnegative, up to rounding
    of rel = d eps times its facet's condition number, relative to |lam|_1."""
    return np.all(lam >= -rel[..., None] * np.sum(np.abs(lam), axis=-1, keepdims=True),
                  axis=-1)


def _directed_hausdorff_2d(env_a: HalfspaceEnvelope, env_b: HalfspaceEnvelope) -> float:
    """sup over y in A of dist(y, B); see ``hausdorff_oracle_2d``."""
    fa = env_a.kernel.nonempty_only()
    t = np.concatenate([fa.lo, fa.hi])
    base, tau = np.tile(fa.bases, (2, 1)), np.tile(fa.taus, (2, 1))
    finite = np.isfinite(t)
    end_rays = np.where(np.isneginf(t)[:, None], -tau, tau)[~finite]
    if np.any(end_rays @ env_b.normals.T > FEAS_TOL):
        return np.inf
    verts = base[finite] + t[finite, None] * tau[finite] if finite.any() else fa.bases
    fb = env_b.kernel.nonempty_only()
    diff = verts[:, None, :] - fb.bases[None]                       # (n, m, 2)
    t_b = np.clip(np.sum(diff * fb.taus, axis=2), fb.lo, fb.hi)
    dist = np.min(np.linalg.norm(diff - t_b[:, :, None] * fb.taus, axis=2), axis=1)
    inside = np.all(verts @ env_b.normals.T <= env_b.offsets + FEAS_TOL, axis=1)
    return float(np.max(np.where(inside, 0.0, dist)))


def hausdorff_oracle_2d(env_a: HalfspaceEnvelope, env_b: HalfspaceEnvelope) -> float:
    """Exact geometric Hausdorff distance between two d = 2 envelopes.

    The directed distance from A to B is +inf when an end ray of A leaves
    B's recession cone.  Otherwise it is attained at a vertex of A (Atallah
    1983): the distance from a point of A to B is convex and does not grow
    along A's recession directions.  A vertex's distance is 0 inside B and
    otherwise the distance to the nearest face segment of B.  Independent of
    the support-value formula on purpose.
    """
    if env_a.dimension != 2 or env_b.dimension != 2:
        raise ValueError("hausdorff_oracle_2d supports dimension 2 only")
    return max(_directed_hausdorff_2d(env_a, env_b), _directed_hausdorff_2d(env_b, env_a))


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


def central_diff(f: Callable[[np.ndarray], float], x: np.ndarray, j: int,
                 step: float) -> float:
    """``d f / d x_j`` at x by a central difference of the given step."""
    hi, lo = x.copy(), x.copy()
    hi[j] += step
    lo[j] -= step
    return (float(f(hi)) - float(f(lo))) / (2.0 * step)


def euler_residual(f: Callable[[np.ndarray], float], p, h: float = 1e-5) -> float:
    """``sum_j d f/d p_j * p_j - f(p)`` with central differences of step h*p_j.

    Zero (to truncation error) exactly when f is homogeneous of degree 1
    around p.
    """
    pv = np.asarray(p, dtype=float)
    if h <= 0:
        raise ValueError("step h must be positive")
    f0 = float(f(pv))
    res = sum(central_diff(f, pv, j, h * pv[j]) * pv[j] for j in range(pv.size)) - f0
    if not np.isfinite(res):
        raise NumericFailure("euler_residual: non-finite evaluation")
    return res
