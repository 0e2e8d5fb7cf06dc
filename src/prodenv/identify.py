"""Recovery of the discrete-type restricted profit function from the
conditional distribution of noisy profit values.

The estimator mirrors the constructive identification argument for finitely
many ranked types under bounded, mean-zero measurement error:

1. find a conditioning cell where one type's observations form a cluster
   isolated by gaps wider than the noise support K (separatedness);
2. the cluster mean identifies that type's profit, and the residuals inside
   the isolating interval identify the noise distribution;
3. in every cell, the observed distribution is a finite mixture convolved
   with the noise law; for each atom count that a window-cover lower bound
   leaves able to win, Nelder-Mead places the atoms to minimise the sup-norm
   CDF distance, with NNLS weights under a sum-to-one row (the MGF ratio,
   the textbook device, is a diagnostic only: it is unstable at large |t|);
4. atoms are assigned to types from the top down: the largest atom belongs
   to the most productive type.  A cell with fewer atoms than types pins
   down only the top types; the missing ones are low types that do not
   operate there and stay unidentified in that cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.optimize import minimize, nnls

from .errors import (DeconvolutionFailure, IdentificationFailure,
                     InsufficientData, ValidationError)
from .geometry import _Artifact, _check_schema
from .simulate import Dataset

ATOM_MERGE_TOL = 1e-8
ROUND_DECIMALS = 9            # "unique" bucketing rounds values to this many decimals
MGF_T = np.delete(np.linspace(-3.0, 3.0, 13), 6)   # the MGF diagnostic's t: +-0.5 .. +-3
MGF_REL_TOL = 0.05            # the MGF diagnostic's relative tolerance


# ---------------------------------------------------------------------------
# Bucketing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellKey:
    """Bucket ids of the conditioning observables (restricted quantities,
    then price/proxy coordinates)."""

    y_bucket: tuple
    x_bucket: tuple

    def as_json(self) -> dict:
        return {"y": list(self.y_bucket), "x": list(self.x_bucket)}


@dataclass(frozen=True)
class BucketingConfig:
    """How observables are grouped into conditioning cells.

    "quantile": equal-count buckets per coordinate (default 10 per
    dimension); the theory conditions on exact values, so bucket diameters
    are recorded and belong in any error report.  "unique": group by exact
    (rounded) values, appropriate when the design is discrete.
    """

    mode: str = "quantile"
    buckets_per_dim: int = 10

    def __post_init__(self):
        if self.mode not in ("quantile", "unique"):
            raise ValidationError(f"unknown bucketing mode {self.mode!r}")
        if self.buckets_per_dim < 1:
            raise ValidationError("need at least one bucket per dimension")


@dataclass
class Cell:
    key: CellKey
    values: np.ndarray            # noisy profits, sorted ascending
    y_center: np.ndarray
    x_center: np.ndarray
    diameter: float               # max coordinate range inside the cell

    @property
    def count(self) -> int:
        return self.values.size


def lattice_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a column rounded to ROUND_DECIMALS, ascending,
    and each entry's index into them."""
    rounded = np.round(values, ROUND_DECIMALS)
    distinct = np.unique(rounded)
    return distinct, np.searchsorted(distinct, rounded)


def build_cells(data: Dataset, bucketing: BucketingConfig) -> dict:
    """Group observations into conditioning cells keyed by bucket ids.

    Cells come in lexicographic order of their bucket ids (restricted
    quantities first).  The ids fold into one mixed-radix label, and one
    stable sort of that label groups the rows, so each cell keeps its rows in
    data order."""
    cols = np.hstack([data.y_restricted, data.x])
    k, n = data.y_restricted.shape[1], len(cols)
    if bucketing.mode == "unique":
        ids = [lattice_ids(col)[1] for col in cols.T]
    else:
        q = np.linspace(0, 1, bucketing.buckets_per_dim + 1)[1:-1]
        ids = [np.searchsorted(np.quantile(col, q), col, side="right") for col in cols.T]
    label, size = np.zeros(n, dtype=np.int64), 1
    for col_ids in ids:
        card = int(col_ids.max()) + 1
        if size * card > 2 ** 62:
            _, label = np.unique(label, return_inverse=True)   # order-preserving re-rank
            size = int(label.max()) + 1
        label, size = label * card + col_ids, size * card
    # Stable, so each cell keeps its rows in data order and its means their
    # bits; labels of 16 bits or fewer sort by radix.
    label = label.astype(np.min_scalar_type(size - 1))
    order = np.argsort(label, kind="stable")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(label[order])) + 1])
    cols, profit = cols[order], data.noisy_profit[order]
    first = order[starts]
    keys = [CellKey(tuple(row[:k]), tuple(row[k:]))
            for row in zip(*(col_ids[first].tolist() for col_ids in ids))]
    diams = (np.maximum.reduceat(cols, starts) - np.minimum.reduceat(cols, starts)).max(axis=1)
    cells: dict[CellKey, Cell] = {}
    for key, a, b, diam in zip(keys, starts, [*starts[1:], n], diams.tolist()):
        sub = cols[a:b]
        cells[key] = Cell(
            key=key,
            values=np.sort(profit[a:b]),
            y_center=sub[:, :k].mean(axis=0),
            x_center=sub[:, k:].mean(axis=0),
            diameter=diam,
        )
    return cells


# ---------------------------------------------------------------------------
# Separated cell and noise distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Anchor:
    """A separated cluster: the conditioning cell, the isolating interval
    [a, b], and the cluster's top-down index (0 = highest type)."""

    cell_key: CellKey
    interval: tuple
    e_star_offset: int
    count: int


def _split_clusters(sorted_vals: np.ndarray, gap: float) -> list[np.ndarray]:
    if sorted_vals.size == 0:
        return []
    cuts = np.nonzero(np.diff(sorted_vals) > gap)[0] + 1
    return np.split(sorted_vals, cuts)


def find_separated_cell(cells: dict, noise_width: float,
                        span_slack: float = 0.0) -> Anchor:
    """Scan cells for a cluster isolated by gaps wider than the noise
    support; returns the cell, isolating interval, and top-down type index.

    Cells are scanned in decreasing order of their largest absolute profit:
    profit differences scale with the price norm, so extreme cells are where
    separation shows up first.  A cluster qualifies only if its own span does
    not exceed the noise support (a wider blob is evidence of overlapping
    types, not of a single separated one); ``span_slack`` widens that cap to
    absorb within-cell profit variation when the bucketing is coarse.
    """
    K = float(noise_width)
    order = sorted(cells.values(), key=lambda c: -float(np.max(np.abs(c.values))))
    for cell in order:
        clusters = _split_clusters(cell.values, K)
        best: Optional[tuple] = None
        for idx, cl in enumerate(clusters):
            span = float(cl[-1] - cl[0])
            if span > K + span_slack + 1e-12:
                continue
            rank = (cl.size, idx)      # most observations, ties to the top cluster
            if best is None or rank > best[0]:
                best = (rank, idx, cl)
        if best is None:
            continue
        _, idx, cl = best
        # Covers the anchor type's full noise support: the unseen tails extend
        # at most K past the observed extremes of the cluster.
        a = min(float(cl[0]), float(cl[-1]) - K)
        b = max(float(cl[-1]), float(cl[0]) + K)
        return Anchor(cell_key=cell.key, interval=(a, b),
                      e_star_offset=len(clusters) - 1 - idx, count=cl.size)
    raise IdentificationFailure(
        "no separated cell: no cluster is isolated by gaps wider than the noise support")


@dataclass(frozen=True)
class NoiseCdf:
    """Tabulated mean-zero noise distribution (empirical CDF of residuals)."""

    points: np.ndarray
    cdf: np.ndarray

    @classmethod
    def from_residuals(cls, residuals: np.ndarray) -> "NoiseCdf":
        pts = np.sort(np.asarray(residuals, dtype=float))
        ranks = (np.arange(1, pts.size + 1) - 0.5) / pts.size
        return cls(points=pts, cdf=ranks)

    @property
    def half_width(self) -> float:
        return float(max(abs(self.points[0]), abs(self.points[-1])))

    @cached_property
    def mgf(self) -> list:
        return [float(np.mean(np.exp(t * self.points))) for t in MGF_T]

    def evaluate(self, t) -> np.ndarray:
        """Right-continuous empirical CDF, broadcast over any shape.

        A small absolute slack keeps an exactly-zero noise distribution
        (residuals identical up to rounding) behaving like a step at 0.
        """
        t = np.asarray(t, dtype=float)
        flat = np.searchsorted(self.points, t.ravel() + 1e-12, side="right")
        return (flat / self.points.size).reshape(t.shape)

    def to_json_dict(self) -> dict:
        step = max(1, self.points.size // 512)
        return {"points": [float(v) for v in self.points[::step]],
                "cdf": [float(v) for v in self.cdf[::step]]}


def estimate_noise_cdf(cell: Cell, anchor: Anchor,
                       min_count: int = 200) -> tuple[NoiseCdf, float]:
    """Anchor profit (interval mean) and the noise CDF from residuals.

    Mean-zero follows from centering at the interval mean, which equals the
    anchor type's profit because the isolating interval covers that type's
    full noise support and nothing else.
    """
    a, b = anchor.interval
    sel = cell.values[(cell.values >= a - 1e-12) & (cell.values <= b + 1e-12)]
    if sel.size < min_count:
        raise InsufficientData(
            f"only {sel.size} observations in the isolating interval (need {min_count})")
    anchor_value = float(np.mean(sel))
    return NoiseCdf.from_residuals(sel - anchor_value), anchor_value


# ---------------------------------------------------------------------------
# Deconvolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomSet:
    """Discrete support of the within-cell profit distribution."""

    atoms: np.ndarray
    weights: np.ndarray
    fit_error: float
    mgf_ok: bool = True

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if np.any(np.diff(atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to one")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.atoms.size


def _merge_close_atoms(atoms: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out_a, out_w = [atoms[0]], [weights[0]]
    for a, w in zip(atoms[1:], weights[1:]):
        if a - out_a[-1] < ATOM_MERGE_TOL:
            out_a[-1] = (out_a[-1] * out_w[-1] + a * w) / (out_w[-1] + w)
            out_w[-1] += w
        else:
            out_a.append(a)
            out_w.append(w)
    return np.array(out_a), np.array(out_w)


def _cannot_fit(t_grid: np.ndarray, f_emp: np.ndarray, width: float, k: int,
                theta: float) -> bool:
    """True when the window-cover bound shows every k-atom fit has error > theta."""
    band, s = 2.0 * (theta + 1e-12), 0
    for _ in range(k):
        e = np.searchsorted(f_emp, f_emp[s] + band, side="right")
        if e == f_emp.size:
            return False
        s = min(np.searchsorted(t_grid, t_grid[e] + width, side="right"), t_grid.size - 1)
    return np.searchsorted(f_emp, f_emp[s] + band, side="right") < f_emp.size


def _mgf_diagnostic(sample: np.ndarray, noise: NoiseCdf, atoms: np.ndarray,
                    weights: np.ndarray) -> bool:
    """Ratio of empirical MGFs against the fitted mixture's MGF on [-3, 3]."""
    center = float(np.mean(sample))
    for t, m_eta in zip(MGF_T, noise.mgf):
        m_obs = float(np.mean(np.exp(t * (sample - center))))
        m_fit = float(weights @ np.exp(t * (atoms - center)))
        if (m_eta <= 0 or not np.isfinite(m_obs)
                or abs(m_obs / m_eta - m_fit) > MGF_REL_TOL * max(abs(m_fit), 1e-12)):
            return False
    return True


def deconvolve_atoms(sample: np.ndarray, noise: NoiseCdf, max_types: int,
                     penalty_c: float = 1.0, min_count: int = 50,
                     fit_error_threshold: float = 0.1) -> AtomSet:
    """Fit a discrete mixture convolved with the noise law to the cell's
    empirical CDF; the atom count minimizes fit error + c*k/sqrt(n).

    Nelder-Mead places a fitted k's atoms to minimise the sup-norm CDF
    distance.  Each trial evaluates the noise CDF once, at every grid point
    minus every atom; those values give the NNLS weights (Lawson & Hanson),
    under a sum-to-one row weighted by beta = 10, and the model CDF.

    Atom a moves the model only on a + [p_0, p_N] (the noise range), so a
    fit misses f_emp by half its rise between windows: if k greedy windows
    leave a rise above 2 theta, every k-atom fit errs by more than theta.
    Phase 1 fits k = 1, 2, ... up to a fit at the noise floor 0.9c/sqrt(n),
    which more atoms cannot beat, deferring each k the bound puts above it;
    phase 2 fits a deferred k, largest first, if the bound lets it tie the
    best score.  Slack absorbs rounding: the answer is that of every k."""
    if max_types < 1:
        raise ValidationError(f"max_types must be at least 1, got {max_types!r}")
    sample = np.sort(np.asarray(sample, dtype=float))
    n = sample.size
    if n < min_count:
        raise InsufficientData(f"cell has {n} observations (need {min_count})")
    t_grid = np.quantile(sample, np.linspace(0.001, 0.999, 257))
    pad = max(noise.half_width, 1e-6)
    t_grid = np.unique(np.concatenate([
        t_grid, [sample[0] - pad, sample[-1] + pad]]))
    f_emp = np.searchsorted(sample, t_grid, side="right") / n
    m = t_grid.size
    beta = 10.0
    rhs = np.append(f_emp, beta)

    def objective_for(atoms: np.ndarray) -> tuple[float, np.ndarray]:
        atoms = np.sort(atoms)
        phi = noise.evaluate(t_grid[:, None] - atoms[None, :])
        A = np.empty((m + 1, atoms.size))
        A[:m] = phi
        A[m] = beta
        w, _ = nnls(A, rhs.copy())     # nnls does not promise to keep b
        s = w.sum()
        w = w / s if s > 0 else np.full(atoms.size, 1.0 / atoms.size)
        # Not phi @ w: the product rounds differently from this sum.
        err = float(np.abs((w[None, :] * phi).sum(axis=1) - f_emp).max())
        return err, w

    results = {}

    def fit(k: int) -> float:
        # Atoms start sorted, at the means of the k widest-gap clusters.
        cuts = np.sort(np.argsort(np.diff(sample))[n - k:]) + 1
        init = np.array([c.mean() for c in np.split(sample, cuts)])
        err, w = objective_for(init)
        atoms = init
        if err > 2.0 / np.sqrt(n):
            res = minimize(lambda a: objective_for(a)[0], init,
                           method="Nelder-Mead",
                           options={"maxiter": 80 * k, "xatol": 1e-8, "fatol": 1e-10})
            err2, w2 = objective_for(res.x)
            if err2 < err:
                atoms, err, w = np.sort(res.x), err2, w2
        results[k] = (err, atoms, w)
        return err

    def score(k: int) -> float:
        return results[k][0] + penalty_c * k / np.sqrt(n)

    width = noise.points[-1] - noise.points[0] + 1e-9 * (
        1 + np.abs(t_grid).max() + np.abs(noise.points).max())
    floor, deferred = 0.9 * penalty_c / np.sqrt(n), []
    for k in range(1, min(max_types, n) + 1):
        if _cannot_fit(t_grid, f_emp, width, k, floor):
            deferred.append(k)
        elif fit(k) <= floor:
            break
    for k in reversed(deferred):
        best = min(map(score, results), default=np.inf) * (1 + 1e-12)
        if not _cannot_fit(t_grid, f_emp, width, k, best - penalty_c * k / np.sqrt(n)):
            fit(k)
    best_k = min(sorted(results), key=score)
    err, atoms, weights = results[best_k]
    if err > fit_error_threshold:
        raise DeconvolutionFailure(
            f"best mixture fit error {err:.4f} exceeds threshold {fit_error_threshold}")
    keep = weights > 1e-6
    atoms, weights = atoms[keep], weights[keep] / weights[keep].sum()
    atoms, weights = _merge_close_atoms(atoms, weights)
    return AtomSet(atoms=atoms, weights=weights, fit_error=err,
                   mgf_ok=_mgf_diagnostic(sample, noise, atoms, weights))


# ---------------------------------------------------------------------------
# Ranking and table assembly
# ---------------------------------------------------------------------------


@dataclass
class CellAssignment:
    key: CellKey
    y_center: np.ndarray
    x_center: np.ndarray
    diameter: float
    count: int
    values: dict                  # type index -> identified profit
    stderr: dict                  # type index -> dispersion proxy
    unidentified_below: int       # types 1..unidentified_below are missing here


@dataclass
class ProfitTable(_Artifact):
    """Identified profit values per conditioning cell and type, plus the
    anchor and the tabulated noise distribution used to recover them."""

    d_e: int
    anchor: Anchor
    anchor_value: float
    noise_cdf: NoiseCdf
    cells: list = field(default_factory=list)

    def cell_map(self) -> dict:
        return {c.key: c for c in self.cells}

    def to_json_dict(self) -> dict:
        return {
            "schema": "prodenv.profit-table/1",
            "d_e": self.d_e,
            "anchor": {
                "cell": self.anchor.cell_key.as_json(),
                "interval": list(self.anchor.interval),
                "e_star_offset": self.anchor.e_star_offset,
                "value": self.anchor_value,
            },
            "noise_cdf": self.noise_cdf.to_json_dict(),
            "cells": [
                {
                    "key": c.key.as_json(),
                    "y_center": [float(v) for v in c.y_center],
                    "x_center": [float(v) for v in c.x_center],
                    "diameter": c.diameter,
                    "count": c.count,
                    "assignments": [
                        {"e": e, "value": float(c.values[e]),
                         "stderr": float(c.stderr[e])}
                        for e in sorted(c.values)
                    ],
                    "unidentified_below": c.unidentified_below,
                }
                for c in self.cells
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProfitTable":
        _check_schema(doc, "prodenv.profit-table", 1)
        anchor = Anchor(
            cell_key=CellKey(tuple(doc["anchor"]["cell"]["y"]),
                             tuple(doc["anchor"]["cell"]["x"])),
            interval=tuple(doc["anchor"]["interval"]),
            e_star_offset=doc["anchor"]["e_star_offset"],
            count=0,
        )
        noise = NoiseCdf(points=np.array(doc["noise_cdf"]["points"]),
                         cdf=np.array(doc["noise_cdf"]["cdf"]))
        cells = []
        for c in doc["cells"]:
            values = {a["e"]: a["value"] for a in c["assignments"]}
            stderr = {a["e"]: a["stderr"] for a in c["assignments"]}
            cells.append(CellAssignment(
                key=CellKey(tuple(c["key"]["y"]), tuple(c["key"]["x"])),
                y_center=np.array(c["y_center"]),
                x_center=np.array(c["x_center"]),
                diameter=c["diameter"],
                count=c["count"],
                values=values,
                stderr=stderr,
                unidentified_below=c["unidentified_below"],
            ))
        return cls(d_e=doc["d_e"], anchor=anchor,
                   anchor_value=doc["anchor"]["value"], noise_cdf=noise, cells=cells)


def rank_and_assign(cell_atoms: dict, d_e: int, cells: dict,
                    noise_cdf: NoiseCdf) -> list:
    """Assign atoms to types from the top down in every cell.

    The largest atom is the most productive type d_e, the next one type
    d_e - 1, and so on; a cell with m < d_e atoms identifies only the top m
    types (absent firms must be low types under monotone presence).
    """
    out = []
    for key, atom_set in cell_atoms.items():
        m = len(atom_set)
        if m > d_e:
            raise IdentificationFailure(
                f"cell {key} has {m} atoms but only {d_e} types; "
                "bucketing may be too coarse or d_e misspecified")
        cell = cells[key]
        values, stderr = {}, {}
        for i, (a, w) in enumerate(zip(atom_set.atoms, atom_set.weights)):
            e = d_e - m + 1 + i
            n_e = max(1.0, w * cell.count)
            values[e] = float(a)
            stderr[e] = float(noise_cdf.half_width / np.sqrt(n_e))
        out.append(CellAssignment(
            key=key, y_center=cell.y_center, x_center=cell.x_center,
            diameter=cell.diameter, count=cell.count,
            values=values, stderr=stderr, unidentified_below=d_e - m))
    out.sort(key=lambda c: (c.key.y_bucket, c.key.x_bucket))
    return out


@dataclass(frozen=True)
class IdentifyConfig:
    bucketing: BucketingConfig = BucketingConfig()
    noise_width: Optional[float] = None    # K; defaults to the dataset's
    max_types: Optional[int] = None
    min_anchor_count: int = 200
    min_cell_count: int = 50
    penalty_c: float = 1.0
    fit_error_threshold: float = 0.1
    anchor_span_slack: float = 0.0

    def __post_init__(self):
        for key, ok, what in (
                ("noise_width", self.noise_width is None or self.noise_width >= 0, "nonnegative"),
                ("anchor_span_slack", self.anchor_span_slack >= 0, "nonnegative"),
                ("max_types", self.max_types is None or self.max_types >= 1, "at least 1"),
                ("min_anchor_count", self.min_anchor_count >= 1, "at least 1"),
                ("min_cell_count", self.min_cell_count >= 1, "at least 1"),
                ("penalty_c", self.penalty_c >= 0, "nonnegative"),
                ("fit_error_threshold", self.fit_error_threshold > 0, "positive")):
            if not ok:
                raise ValidationError(f"{key} must be {what}, got {getattr(self, key)!r}")


def identify_profits(data: Dataset, config: IdentifyConfig = IdentifyConfig()) -> ProfitTable:
    """Full pipeline: bucket, anchor, noise CDF, per-cell deconvolution,
    top-down assignment."""
    if len(data) == 0:
        raise ValidationError("empty dataset")
    K = data.noise_width if config.noise_width is None else config.noise_width
    cells = build_cells(data, config.bucketing)
    anchor = find_separated_cell(cells, K, config.anchor_span_slack)
    noise_cdf, anchor_value = estimate_noise_cdf(
        cells[anchor.cell_key], anchor, config.min_anchor_count)

    hard_cap = config.max_types if config.max_types is not None else 8
    cell_atoms: dict[CellKey, AtomSet] = {}
    for key, cell in cells.items():
        if cell.count < config.min_cell_count:
            continue
        cell_atoms[key] = deconvolve_atoms(
            cell.values, noise_cdf, hard_cap,
            penalty_c=config.penalty_c, min_count=config.min_cell_count,
            fit_error_threshold=config.fit_error_threshold)

    if not cell_atoms:
        raise InsufficientData("no cell has enough observations to deconvolve")

    # Every cell here passed deconvolve_atoms's penalised atom count and
    # its fit-error threshold, and a cell with m atoms identifies the top m
    # types, so d_e is the largest atom count.
    if config.max_types is not None:
        d_e = config.max_types
    else:
        d_e = max(len(a) for a in cell_atoms.values())

    assignments = rank_and_assign(cell_atoms, d_e, cells, noise_cdf)
    return ProfitTable(d_e=d_e, anchor=anchor, anchor_value=anchor_value,
                       noise_cdf=noise_cdf, cells=assignments)
