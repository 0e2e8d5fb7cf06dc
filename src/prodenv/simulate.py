"""Synthetic economies: technologies nested in productivity, market price
variation, entry rules, price proxies and noisy observation generation.

A firm type is a ``Technology`` whose profit maximization has an exact
solution: power, kinked-power and generalized-Leontief in closed form.
Each type has one profit formula, evaluated for a whole batch of price
vectors at once; ``profit_oracle`` is one row of ``profit_oracle_batch``.
Nestedness across types (a more productive firm can do everything a less
productive one can, and more) is the maintained ranking restriction and is
checked on a probe grid before any dataset is generated.

Price variation across markets is drawn directly as a distribution over price
rays; the endowment field parameterizes one such law but no market-clearing
system is solved.  Entry rules are monotone in the type index by
construction, so the support of types present in any conditioning cell is
always a top interval.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UnboundedProblem, ValidationError

# ---------------------------------------------------------------------------
# Technologies
# ---------------------------------------------------------------------------


class Technology:
    """A firm type: ``profit(P)`` gives the maximized profits at prices P of
    shape (..., dimension) and the optimal netputs, goods on the last axis;
    ``value(P)`` gives the profits alone."""

    dimension = 2                 # single-output types price (p_out, p_in)
    restricted_scales = False

    def value(self, P) -> np.ndarray:
        return self.profit(P)[0]


def _best(vals: np.ndarray, ls, ys) -> tuple[np.ndarray, np.ndarray]:
    """The best candidate along the last axis: its profit and netput (y, -l)."""
    k = np.argmax(vals, axis=-1)[..., None]
    ls, ys = (np.take_along_axis(np.broadcast_to(a, vals.shape), k, -1)[..., 0] for a in (ls, ys))
    return vals.max(axis=-1), np.stack([ys, -ls], axis=-1)


@dataclass(frozen=True)
class PowerTech(Technology):
    """Single-output technology y <= scale * l**exponent, netputs (y, -l)."""

    scale: float
    exponent: float

    def __post_init__(self):
        if not (0 < self.exponent < 1):
            raise ValidationError("power technology needs exponent in (0, 1)")
        if self.scale <= 0:
            raise ValidationError("power technology needs positive scale")

    def profit(self, P) -> tuple[np.ndarray, np.ndarray]:
        p_out, p_in = np.moveaxis(np.asarray(P, dtype=float), -1, 0)
        l = (p_out * self.scale * self.exponent / p_in) ** (1 / (1 - self.exponent))
        la = l ** self.exponent
        return p_out * self.scale * la - p_in * l, np.stack([self.scale * la, -l], axis=-1)


@dataclass(frozen=True)
class KinkedTech(Technology):
    """Three-piece frontier: power, then linear, then a scaled power shifted
    up to keep the frontier continuous.

    f(l) = l**a1                      on [0, l1]
         = slope*(l - l1) + l1**a1    on [l1, l2]
         = a2_scale*l**a2_exp + c     on [l2, inf),  c chosen for continuity
    """

    a1: float
    l1: float
    slope: float
    l2: float
    a2_scale: float
    a2_exp: float

    def __post_init__(self):
        if not (0 < self.a1 < 1 and 0 < self.a2_exp < 1):
            raise ValidationError("kinked technology needs power exponents in (0, 1)")
        if not (0 < self.l1 < self.l2):
            raise ValidationError("kinked technology needs 0 < l1 < l2")

    def frontier(self, l):
        l = np.asarray(l, dtype=float)
        shift = (self.slope * (self.l2 - self.l1) + self.l1 ** self.a1
                 - self.a2_scale * self.l2 ** self.a2_exp)
        return np.where(l <= self.l1, np.power(np.maximum(l, 0.0), self.a1),
                        np.where(l <= self.l2, self.slope * (l - self.l1) + self.l1 ** self.a1,
                                 self.a2_scale * np.power(l, self.a2_exp) + shift))

    def profit(self, P) -> tuple[np.ndarray, np.ndarray]:
        # Each piece has an exact maximizer (the linear piece peaks at an
        # end); the optimum is the best of the four candidates.
        p_out, p_in = np.moveaxis(np.asarray(P, dtype=float), -1, 0)
        l_a = (p_out * self.a1 / p_in) ** (1 / (1 - self.a1))
        l_c = (p_out * self.a2_scale * self.a2_exp / p_in) ** (1 / (1 - self.a2_exp))
        ls = np.stack(np.broadcast_arrays(np.minimum(l_a, self.l1), self.l1, self.l2,
                                          np.maximum(l_c, self.l2)), axis=-1)
        ys = self.frontier(ls)
        return _best(p_out[..., None] * ys - p_in[..., None] * ls, ls, ys)


@dataclass(frozen=True)
class DiewertTech(Technology):
    """Generalized-Leontief profit pi(p) = sum_s sum_j b[s,j] sqrt(p_s p_j).

    The coefficient matrix must be symmetric; the sufficient sign pattern for
    convexity in prices (offdiagonal <= 0, diagonal >= 0) is enforced.  The
    implied net supply is y_s(p) = sum_j b[s,j] sqrt(p_j / p_s).  ``value``
    builds no supplies.
    """

    b: np.ndarray
    restricted_scales: bool = False

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).copy()
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValidationError("coefficient matrix must be square")
        if not np.allclose(b, b.T, atol=1e-12):
            raise ValidationError("coefficient matrix must be symmetric")
        off = b[~np.eye(b.shape[0], dtype=bool)]
        if np.any(off > 1e-12) or np.any(np.diag(b) < -1e-12):
            raise ValidationError(
                "convexity sign pattern violated: need offdiagonal <= 0 and diagonal >= 0")
        b.flags.writeable = False
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.b.shape[0]

    def value(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        return diewert_value(self.b, P.reshape(-1, P.shape[-1])).reshape(P.shape[:-1])[()]

    def profit(self, P) -> tuple[np.ndarray, np.ndarray]:
        return self.value(P), diewert_supply(self.b, P)


def diewert_value(b: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Generalized-Leontief profits sum_s sum_j b[s,j] sqrt(p_s p_j) at the
    rows of ``prices``."""
    sq = np.sqrt(np.atleast_2d(np.asarray(prices, dtype=float)))
    return np.einsum("ns,sj,nj->n", sq, np.asarray(b, float), sq)


def diewert_supply(b: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Net supply implied by a coefficient matrix, y_s = sum_j b_sj
    sqrt(p_j/p_s), at a price vector or along the last axis of ``prices``."""
    sq = np.sqrt(np.asarray(prices, dtype=float))
    return (sq @ np.asarray(b, float).T) / sq


@dataclass(frozen=True)
class TechnologySpec:
    """A family of technologies indexed by the discrete productivity type.

    ``types[e-1]`` is the technology of type e; types must be nested, which
    is validated on a probe grid by ``nested_check`` (strictly higher profit
    for strictly higher type at every probe ray).
    """

    types: tuple

    def __post_init__(self):
        if not self.types:
            raise ValidationError("need at least one type")
        object.__setattr__(self, "types", tuple(self.types))

    @property
    def num_types(self) -> int:
        return len(self.types)

    @property
    def dimension(self) -> int:
        return self.types[0].dimension

    @classmethod
    def nonmonotone_supply_triple(cls) -> "TechnologySpec":
        """Three nested single-output types whose optimal input/output levels
        are not monotone in the type index at output/input price ratio 0.12."""
        return cls(types=(
            PowerTech(scale=1.0, exponent=0.4),
            PowerTech(scale=2.0, exponent=0.4),
            KinkedTech(a1=0.2, l1=0.01, slope=7.0, l2=0.03, a2_scale=2.0, a2_exp=0.4),
        ))

    @classmethod
    def diewert_family(cls, b_stack, restricted_scales: bool = False) -> "TechnologySpec":
        return cls(tuple(DiewertTech(b, restricted_scales) for b in b_stack))


def _positive_prices(p) -> np.ndarray:
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0) or not np.all(np.isfinite(pv)):
        raise ValueError("prices must be strictly positive and finite")
    return pv


def _capacity(t: Technology, restricted: Optional[np.ndarray], n: int) -> np.ndarray:
    """The factor on type t's profits and netputs at n rows: a restricted-scale
    type's first restricted quantity, else 1."""
    if not t.restricted_scales or restricted is None:
        return np.ones(n)
    cap = np.asarray(restricted, dtype=float)[:, 0]
    if np.any(cap <= 0):
        raise ValueError("restricted capacity must be positive")
    return cap


def profit_oracle(tech: TechnologySpec, e: int, p,
                  y_restricted=None) -> tuple[float, np.ndarray]:
    """Exact restricted profit and optimal netput of type ``e`` at one price
    vector ``p``.

    The row ``p[None, :]`` goes through the code of ``profit_oracle_batch``,
    so the value is the batch's bit for bit.  A non-finite value raises
    UnboundedProblem.
    """
    if not (1 <= e <= tech.num_types):
        raise ValueError(f"type index {e} outside 1..{tech.num_types}")
    t = tech.types[e - 1]
    pv = _positive_prices(p)
    if pv.shape != (t.dimension,):
        raise ValueError(f"type {e} prices {t.dimension} goods, not shape {pv.shape}")
    cap = _capacity(t, None if y_restricted is None else np.reshape(y_restricted, (1, -1)), 1)[0]
    values, netputs = t.profit(pv[None, :])
    value = float(values[0] * cap)
    if not np.isfinite(value):
        raise UnboundedProblem("profit maximization has no finite value")
    return value, netputs[0] * cap


def profit_oracle_batch(tech: TechnologySpec, prices: np.ndarray,
                        restricted: Optional[np.ndarray] = None) -> np.ndarray:
    """Profits for all types at a batch of price vectors, shape (n, d_e)."""
    prices = np.atleast_2d(_positive_prices(prices))
    if prices.shape[1] != tech.dimension:
        raise ValueError(f"the technology prices {tech.dimension} goods, not {prices.shape[1]}")
    return np.column_stack([t.value(prices) * _capacity(t, restricted, len(prices))
                            for t in tech.types])


def nested_check(tech: TechnologySpec, probe_rays: Sequence) -> bool:
    """True iff profit is strictly increasing in the type index at every
    probe ray (the profit-side equivalent of nested production sets), in
    ``profit_oracle_batch``'s numbers, the ones datasets are drawn from."""
    if not len(probe_rays):
        raise ValueError("need at least one probe ray")
    profits = profit_oracle_batch(tech, np.asarray(probe_rays, float))
    return bool(np.all(np.diff(profits, axis=1) > 0))


# ---------------------------------------------------------------------------
# Market configuration
# ---------------------------------------------------------------------------

_PROXY_FORMS = {
    "identity": (lambda x, par: x),
    "affine": (lambda x, par: par[0] + par[1] * x),
    "square_plus": (lambda x, par: x ** 2 + par[0]),
    "exp": (lambda x, par: np.exp(x)),
    "power": (lambda x, par: par[0] * x ** par[1]),
}


@dataclass(frozen=True)
class ProxyGood:
    """One flexibly chosen good whose price is linked to a scalar proxy by a
    strictly monotone map; the identity form marks an observed price."""

    form: str
    params: tuple = ()
    x_range: tuple = (0.5, 2.0)
    lattice: int = 0          # 0: a continuous draw; >= 2: a lattice of that many nodes

    def __post_init__(self):
        if self.form not in _PROXY_FORMS:
            raise ValidationError(f"unknown proxy form {self.form!r}")
        if self.lattice < 0 or self.lattice == 1:
            raise ValidationError(f"lattice must be 0 (a continuous draw) or at least 2, "
                                  f"got {self.lattice}")
        lo, hi = self.x_range
        if not lo < hi:
            raise ValidationError("proxy range must satisfy lo < hi")
        grid = np.linspace(lo, hi, 101)
        vals = self.g(grid)
        if np.any(vals <= 0):
            raise ValidationError("proxy map must produce strictly positive prices")
        if np.any(np.diff(vals) <= 0):
            raise ValidationError("proxy map must be strictly increasing on its range")

    def g(self, x):
        return _PROXY_FORMS[self.form](np.asarray(x, dtype=float), self.params)

    @property
    def observed(self) -> bool:
        return self.form == "identity"


@dataclass(frozen=True)
class MarketConfig:
    """Everything that varies across markets plus the observation noise law.

    price_law:
      ("grid", rays)            equal-probability draw from a finite ray set
      ("box", lo, hi)           componentwise uniform direction, normalized
      ("endowment", sigma)      ray proportional to 1/omega with lognormal
                                endowments omega
    entry_rule:
      ("all",)                          every type in every market
      ("nonneg_profit",)                type e enters iff profit >= 0
      ("threshold_by_type", weights)    market-level minimum type, categorical
    noise: (half_width, shape) with shape "uniform" or "truncated-normal";
      measured profit = true profit + eta, |eta| <= half_width, mean zero.
    restricted_quantity_law:
      None, ("fixed", values) for a finite set, or ("uniform", lo, hi).
    """

    num_markets: int
    dimension: int
    price_law: tuple = ("box", 0.2, 1.0)
    proxy_goods: Optional[tuple] = None
    entry_rule: tuple = ("all",)
    restricted_quantity_law: Optional[tuple] = None
    noise: tuple = (0.0, "uniform")
    seed: int = 0

    def __post_init__(self):
        if self.num_markets <= 0:
            raise ValidationError(f"markets must be positive, got {self.num_markets}")
        if self.noise[0] < 0:
            raise ValidationError(f"noise_half_width must be nonnegative, got {self.noise[0]:g}")
        if self.noise[1] not in ("uniform", "truncated-normal"):
            raise ValidationError(f"unknown noise_shape {self.noise[1]!r}")
        law = self.price_law if isinstance(self.price_law, (tuple, list)) else ()
        if not law or {"grid": 2, "box": 3, "endowment": 2}.get(law[0]) != len(law):
            raise ValidationError("price_law must be ('grid', rays), ('box', lo, hi) or "
                                  f"('endowment', sigma), got {self.price_law!r:.80}")
        if self.entry_rule[0] not in ("all", "nonneg_profit", "threshold_by_type"):
            raise ValidationError(f"unknown entry rule {self.entry_rule[0]!r}")
        if self.entry_rule[0] == "threshold_by_type":
            check_entry_weights(self.entry_rule[1])
        if self.proxy_goods is not None:
            if len(self.proxy_goods) != self.dimension:
                raise ValidationError("need one proxy spec per good")
            if not any(g.observed for g in self.proxy_goods):
                raise ValidationError("at least one price must be observed (identity proxy)")

    @property
    def noise_width(self) -> float:
        """Full support width K of the measurement error."""
        return 2.0 * self.noise[0]


def check_entry_weights(weights) -> np.ndarray:
    """Threshold entry weights, checked finite, nonnegative and not all 0."""
    w = np.asarray(weights, dtype=float)
    if not (np.all(np.isfinite(w)) and np.all(w >= 0) and w.sum() > 0):
        raise ValidationError("threshold entry weights must be finite, nonnegative and not all 0")
    return w


# Rows of the dataset CSV built and written at once: about 3 MB of text.
_CSV_BLOCK_ROWS = 8192


@dataclass
class Dataset:
    """Column-oriented container for generated observations.

    Rows are canonically ordered by (market_id, type) regardless of how the
    generation was scheduled; regeneration with the same seed is
    byte-identical.
    """

    market_id: np.ndarray
    y_restricted: np.ndarray      # (n, k), k may be 0
    x: np.ndarray                 # (n, d)
    is_price: np.ndarray          # (d,) bool, column-level flags
    noisy_profit: np.ndarray
    type_e: np.ndarray            # hidden column
    noise_width: float

    def __len__(self):
        return self.market_id.size

    def to_csv(self, path_or_buf, debug: bool = False) -> None:
        """Writes a header line and one CRLF-ended line per row, built a
        column at a time and written a block of ``_CSV_BLOCK_ROWS`` rows at a
        time, so memory does not grow with the row count.  Floats are written
        as their ``repr``, so ``from_csv`` reads back the same bits.  A block's
        column at most half distinct formats each distinct bit pattern once
        (so -0.0 apart from 0.0)."""
        if isinstance(path_or_buf, (str, bytes, os.PathLike)):
            with open(path_or_buf, "w", newline="") as fh:
                return self.to_csv(fh, debug)
        k, d = self.y_restricted.shape[1], self.x.shape[1]
        header = (["market_id"]
                  + [f"y_restricted_{j+1}" for j in range(k)]
                  + [f"x_{j+1}" for j in range(d)]
                  + [f"is_price_{j+1}" for j in range(d)]
                  + ["noisy_profit"]
                  + (["type_e"] if debug else []))

        def text(col, dtype=float):
            col = np.asarray(col, dtype=dtype)
            bits, inv = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
            if 2 * bits.size > col.size:   # the object take would cost more
                return map(repr, col.tolist())
            return np.array(list(map(repr, bits.view(col.dtype).tolist())), object)[inv]

        path_or_buf.write(",".join(header) + "\r\n")
        for lo in range(0, len(self), _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            cols = ([text(self.market_id[rows], int)]
                    + [text(c) for c in self.y_restricted[rows].T]
                    + [text(c) for c in self.x[rows].T]
                    + [itertools.repeat(str(int(v))) for v in self.is_price]
                    + [text(self.noisy_profit[rows])]
                    + ([text(self.type_e[rows], int)] if debug else []))
            path_or_buf.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")

    @classmethod
    def from_csv(cls, path_or_buf) -> "Dataset":
        """Reads what ``to_csv`` writes, LF line ends and double-quoted fields
        too.  A file records no noise width, so ``noise_width`` is 0."""
        if isinstance(path_or_buf, (str, bytes, os.PathLike)):
            with open(path_or_buf, newline="") as fh:
                return cls.from_csv(fh)
        line = path_or_buf.readline()
        if not line:
            raise ValidationError("empty dataset file")
        header = [h.strip('"') for h in line.rstrip("\r\n").split(",")]
        k = sum(1 for h in header if h.startswith("y_restricted_"))
        d = sum(1 for h in header if h.startswith("x_"))
        if d == 0 or header[0] != "market_id" or "noisy_profit" not in header:
            raise ValidationError("not a prodenv dataset CSV")
        debug = header[-1] == "type_e"
        body = csv_rows(path_or_buf, getattr(path_or_buf, "name", "dataset"),
                        len(header), quotechar='"')
        return cls(
            market_id=body[:, 0].astype(int),
            y_restricted=body[:, 1:1 + k],
            x=body[:, 1 + k:1 + k + d],
            is_price=body[0, 1 + k + d:1 + k + 2 * d].astype(bool),
            noisy_profit=body[:, 1 + k + 2 * d],
            type_e=(body[:, -1].astype(int) if debug
                    else np.zeros(body.shape[0], dtype=int)),
            noise_width=0.0,
        )


def csv_rows(source, name: str, fields: Optional[int] = None,
             **kwargs) -> np.ndarray:
    """The numeric rows of a CSV (a path or an open file past its header)
    as a 2-d array; ``kwargs`` go to ``np.loadtxt``.  A file with no data
    rows, or rows of other than ``fields`` fields when it is given, is a
    ValidationError naming it, not numpy's warning and a later crash."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        body = np.loadtxt(source, delimiter=",", ndmin=2, **kwargs)
    if body.size == 0:
        raise ValidationError(f"{name!r} has no data rows")
    if fields is not None and body.shape[1] != fields:
        raise ValidationError(f"{name!r} rows have {body.shape[1]} fields, "
                              f"the header {fields}")
    return body


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _draw_prices(cfg: MarketConfig, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Returns (prices, x); x equals prices when no proxies are set."""
    m, d = cfg.num_markets, cfg.dimension
    if cfg.proxy_goods is not None:
        cols = []
        for g in cfg.proxy_goods:
            lo, hi = g.x_range
            if g.lattice > 0:
                pts = np.linspace(lo, hi, g.lattice)
                cols.append(rng.choice(pts, size=m))
            else:
                cols.append(rng.uniform(lo, hi, size=m))
        x = np.column_stack(cols)
        prices = np.column_stack([g.g(x[:, j]) for j, g in enumerate(cfg.proxy_goods)])
        return prices, x
    law = cfg.price_law
    if law[0] == "grid":
        _, rays = law
        prices = np.asarray(rays, float)[rng.choice(len(rays), size=m)]
    elif law[0] == "box":
        lo, hi = law[1], law[2]
        prices = rng.uniform(lo, hi, size=(m, d))
        prices /= np.linalg.norm(prices, axis=1, keepdims=True)
    else:                          # ("endowment", sigma), as MarketConfig checks
        prices = 1.0 / rng.lognormal(mean=0.0, sigma=law[1], size=(m, d))
        prices /= np.linalg.norm(prices, axis=1, keepdims=True)
    return prices, prices.copy()


def _draw_restricted(cfg: MarketConfig, rng: np.random.Generator) -> np.ndarray:
    law = cfg.restricted_quantity_law
    m = cfg.num_markets
    if law is None:
        return np.empty((m, 0))
    if law[0] == "fixed":
        vals = np.asarray(law[1], dtype=float)
        vals = vals.reshape(-1, 1) if vals.ndim < 2 else vals      # rows are draws
        return vals[rng.choice(vals.shape[0], size=m)]
    if law[0] == "uniform":
        lo, hi = np.atleast_1d(law[1]), np.atleast_1d(law[2])
        return rng.uniform(lo, hi, size=(m, lo.size))
    raise ValidationError(f"unknown restricted-quantity law {law[0]!r}")


def _entry_mask(cfg: MarketConfig, profits: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    rule = cfg.entry_rule
    m, d_e = profits.shape
    if rule[0] == "all":
        return np.ones((m, d_e), dtype=bool)
    if rule[0] == "nonneg_profit":
        return profits >= 0.0
    weights = np.asarray(rule[1], dtype=float)
    weights = weights / weights.sum()
    min_type = rng.choice(np.arange(1, weights.size + 1), size=m, p=weights)
    return np.arange(1, d_e + 1)[None, :] >= min_type[:, None]


def _draw_noise(cfg: MarketConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    half, shape = cfg.noise
    if half == 0:
        return np.zeros(n)
    if shape == "uniform":
        return rng.uniform(-half, half, size=n)
    draws = rng.normal(0.0, half / 2.0, size=n)
    bad = np.abs(draws) > half
    while np.any(bad):
        draws[bad] = rng.normal(0.0, half / 2.0, size=int(bad.sum()))
        bad = np.abs(draws) > half
    return draws


def generate_dataset(tech: TechnologySpec, cfg: MarketConfig) -> Dataset:
    """Draw one dataset: per market a price vector (or proxies), restricted
    quantities, entry per type under the monotone rule, and one noisy profit
    record per entering firm.  Deterministic given the seed."""
    if cfg.dimension != tech.dimension:
        raise ValidationError("market dimension does not match the technology")
    rng = np.random.default_rng(cfg.seed)
    prices, x = _draw_prices(cfg, rng)
    restricted = _draw_restricted(cfg, rng)

    probe_idx = np.linspace(0, cfg.num_markets - 1, min(16, cfg.num_markets)).astype(int)
    probes = prices[probe_idx] / np.linalg.norm(prices[probe_idx], axis=1, keepdims=True)
    if not nested_check(tech, list(probes)):
        raise ValidationError("technology is not strictly nested on the probe grid")

    profits = profit_oracle_batch(tech, prices, restricted if restricted.size else None)
    mask = _entry_mask(cfg, profits, rng)
    if not mask.any():
        raise ValidationError("entry rule excluded every type in every market")

    market_idx, type_idx = np.nonzero(mask)       # row-major: sorted by (market, type)
    eta = _draw_noise(cfg, market_idx.size, rng)
    return Dataset(
        market_id=market_idx,
        y_restricted=restricted[market_idx],
        x=x[market_idx],
        is_price=(np.ones(cfg.dimension, dtype=bool) if cfg.proxy_goods is None
                  else np.array([g.observed for g in cfg.proxy_goods])),
        noisy_profit=profits[market_idx, type_idx] + eta,
        type_e=type_idx + 1,
        noise_width=cfg.noise_width,
    )

