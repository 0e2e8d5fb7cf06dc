"""Synthetic economies: technologies nested in productivity, market price
variation, entry rules, price proxies, a separable demand side, and noisy
observation generation.

A firm type is a closed-form technology whose profit maximization has an
exact solution (power, kinked-power, generalized-Leontief) or a tabulated
concave frontier refined by golden section.  Nestedness across types (a more
productive firm can do everything a less productive one can, and more) is the
maintained ranking restriction and is checked on a probe grid before any
dataset is generated.

Price variation across markets is drawn directly as a distribution over price
rays; the endowment field parameterizes one such law but no market-clearing
system is solved.  Entry rules are monotone in the type index by
construction, so the support of types present in any conditioning cell is
always a top interval.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UnboundedProblem, ValidationError
from .geometry import _vec

# ---------------------------------------------------------------------------
# Technologies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerTech:
    """Single-output technology y <= scale * l**exponent, netputs (y, -l)."""

    scale: float
    exponent: float

    def __post_init__(self):
        if not (0 < self.exponent < 1):
            raise ValidationError("power technology needs exponent in (0, 1)")
        if self.scale <= 0:
            raise ValidationError("power technology needs positive scale")

    def profit(self, p_out: float, p_in: float) -> tuple[float, np.ndarray]:
        l_star = (p_out * self.scale * self.exponent / p_in) ** (1.0 / (1.0 - self.exponent))
        y_star = self.scale * l_star ** self.exponent
        return p_out * y_star - p_in * l_star, np.array([y_star, -l_star])


@dataclass(frozen=True)
class KinkedTech:
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

    @property
    def shift(self) -> float:
        return (self.slope * (self.l2 - self.l1) + self.l1 ** self.a1
                - self.a2_scale * self.l2 ** self.a2_exp)

    def frontier(self, l):
        l = np.asarray(l, dtype=float)
        return np.where(
            l <= self.l1,
            np.power(np.maximum(l, 0.0), self.a1),
            np.where(
                l <= self.l2,
                self.slope * (l - self.l1) + self.l1 ** self.a1,
                self.a2_scale * np.power(l, self.a2_exp) + self.shift,
            ),
        )

    def profit(self, p_out: float, p_in: float) -> tuple[float, np.ndarray]:
        # Each piece admits an exact maximizer; the global optimum is the best
        # of the three.
        candidates = []
        l_a = (p_out * self.a1 / p_in) ** (1.0 / (1.0 - self.a1))
        candidates.append(min(l_a, self.l1))
        candidates.extend([self.l1, self.l2])   # linear piece peaks at an end
        l_c = (p_out * self.a2_scale * self.a2_exp / p_in) ** (1.0 / (1.0 - self.a2_exp))
        candidates.append(max(l_c, self.l2))
        ls = np.array(candidates)
        vals = p_out * self.frontier(ls) - p_in * ls
        k = int(np.argmax(vals))
        return float(vals[k]), np.array([float(self.frontier(ls[k])), -float(ls[k])])


@dataclass(frozen=True)
class DiewertTech:
    """Generalized-Leontief profit pi(p) = sum_s sum_j b[s,j] sqrt(p_s p_j).

    The coefficient matrix must be symmetric; the sufficient sign pattern for
    convexity in prices (offdiagonal <= 0, diagonal >= 0) is enforced.  The
    implied net supply is y_s(p) = sum_j b[s,j] sqrt(p_j / p_s).
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

    def profit(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        return float(diewert_value(self.b, p)[0]), diewert_supply(self.b, p)


def diewert_value(b: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Generalized-Leontief profits sum_s sum_j b[s,j] sqrt(p_s p_j) at the
    rows of ``prices``."""
    sq = np.sqrt(np.atleast_2d(np.asarray(prices, dtype=float)))
    return np.einsum("ns,sj,nj->n", sq, np.asarray(b, float), sq)


def diewert_supply(b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Net supply implied by a coefficient matrix: y_s = sum_j b_sj sqrt(p_j/p_s)."""
    sq = np.sqrt(np.asarray(p, dtype=float))
    return (np.asarray(b, float) @ sq) / sq


@dataclass(frozen=True)
class HicksNeutralTech:
    """Output scaling scale * fbar(l) with fbar tabulated on a grid.

    fbar must be concave on the grid; the profit problem is solved on the
    piecewise-linear interpolant by a grid scan plus golden-section
    refinement of the bracketing interval.
    """

    scale: float
    grid_l: np.ndarray
    grid_f: np.ndarray

    def __post_init__(self):
        gl = np.asarray(self.grid_l, dtype=float)
        gf = np.asarray(self.grid_f, dtype=float)
        if gl.ndim != 1 or gl.size < 3 or gl.shape != gf.shape:
            raise ValidationError("need matching 1-d grids of length >= 3")
        if np.any(np.diff(gl) <= 0):
            raise ValidationError("input grid must be strictly increasing")
        slopes = np.diff(gf) / np.diff(gl)
        if np.any(np.diff(slopes) > 1e-9):
            raise ValidationError("tabulated frontier must be concave")
        object.__setattr__(self, "grid_l", gl)
        object.__setattr__(self, "grid_f", gf)

    def profit(self, p_out: float, p_in: float) -> tuple[float, np.ndarray]:
        def obj(l):
            return p_out * self.scale * np.interp(l, self.grid_l, self.grid_f) - p_in * l

        vals = obj(self.grid_l)
        k = int(np.argmax(vals))
        lo = self.grid_l[max(k - 1, 0)]
        hi = self.grid_l[min(k + 1, self.grid_l.size - 1)]
        # Golden-section to 1e-10 relative on the bracketing interval.
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        while (b - a) > 1e-10 * max(1.0, abs(b)):
            if obj(c) >= obj(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        l_star = 0.5 * (a + b)
        if obj(self.grid_l[k]) >= obj(l_star):
            l_star = self.grid_l[k]
        y_star = self.scale * float(np.interp(l_star, self.grid_l, self.grid_f))
        return p_out * y_star - p_in * l_star, np.array([y_star, -float(l_star)])


TechKind = PowerTech | KinkedTech | DiewertTech | HicksNeutralTech


@dataclass(frozen=True)
class TechnologySpec:
    """A family of technologies indexed by the discrete productivity type.

    ``types[e-1]`` is the technology of type e; types must be nested, which
    is validated on a probe grid by ``nested_check`` (strictly higher profit
    for strictly higher type at every probe ray).
    """

    kind: str
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
        t = self.types[0]
        return t.b.shape[0] if isinstance(t, DiewertTech) else 2

    @classmethod
    def nonmonotone_supply_triple(cls) -> "TechnologySpec":
        """Three nested single-output types whose optimal input/output levels
        are not monotone in the type index at output/input price ratio 0.12."""
        return cls(kind="kinked-mix", types=(
            PowerTech(scale=1.0, exponent=0.4),
            PowerTech(scale=2.0, exponent=0.4),
            KinkedTech(a1=0.2, l1=0.01, slope=7.0, l2=0.03, a2_scale=2.0, a2_exp=0.4),
        ))

    @classmethod
    def diewert_family(cls, b_stack, restricted_scales: bool = False) -> "TechnologySpec":
        return cls(kind="diewert",
                   types=tuple(DiewertTech(b, restricted_scales) for b in b_stack))


def _positive_prices(p) -> np.ndarray:
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0) or not np.all(np.isfinite(pv)):
        raise ValueError("prices must be strictly positive and finite")
    return pv


def profit_oracle(tech: TechnologySpec, e: int, p,
                  y_restricted=None) -> tuple[float, np.ndarray]:
    """Exact restricted profit and optimizer for type ``e`` at price ``p``.

    Closed-form where available; unbounded problems (frontier exponent >= 1
    would be rejected at construction, so in practice nonpositive prices or a
    non-finite evaluation) raise.
    """
    if not (1 <= e <= tech.num_types):
        raise ValueError(f"type index {e} outside 1..{tech.num_types}")
    pv = _positive_prices(p)
    t = tech.types[e - 1]
    if isinstance(t, DiewertTech):
        if pv.size != t.b.shape[0]:
            raise ValueError("price dimension mismatch")
        value, supply = t.profit(pv)
        if t.restricted_scales and y_restricted is not None:
            cap = float(np.atleast_1d(np.asarray(y_restricted, dtype=float))[0])
            if cap <= 0:
                raise ValueError("restricted capacity must be positive")
            value, supply = cap * value, cap * supply
    else:
        if pv.size != 2:
            raise ValueError("single-output technologies price as (p_out, p_in)")
        value, supply = t.profit(float(pv[0]), float(pv[1]))
    if not np.isfinite(value):
        raise UnboundedProblem("profit maximization has no finite value")
    return value, supply


def profit_oracle_batch(tech: TechnologySpec, prices: np.ndarray,
                        restricted: Optional[np.ndarray] = None) -> np.ndarray:
    """Profits for all types at a batch of price vectors, shape (n, d_e)."""
    prices = np.atleast_2d(_positive_prices(prices))
    n = prices.shape[0]
    out = np.empty((n, tech.num_types))
    for j, t in enumerate(tech.types):
        if isinstance(t, DiewertTech):
            out[:, j] = diewert_value(t.b, prices)
            if t.restricted_scales and restricted is not None:
                out[:, j] *= restricted[:, 0]
        elif isinstance(t, PowerTech):
            l = (prices[:, 0] * t.scale * t.exponent / prices[:, 1]) ** (1 / (1 - t.exponent))
            out[:, j] = prices[:, 0] * t.scale * l ** t.exponent - prices[:, 1] * l
        else:
            out[:, j] = [profit_oracle(tech, j + 1, prices[i])[0] for i in range(n)]
    return out


def nested_check(tech: TechnologySpec, probe_rays: Sequence) -> bool:
    """True iff profit is strictly increasing in the type index at every
    probe ray (the profit-side equivalent of nested production sets), in
    ``profit_oracle_batch``'s numbers, the ones datasets are drawn from."""
    if not probe_rays:
        raise ValueError("need at least one probe ray")
    profits = profit_oracle_batch(tech, np.vstack([_vec(ray) for ray in probe_rays]))
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
    lattice: int = 0          # >0: draw x from a regular lattice (discrete law)

    def __post_init__(self):
        if self.form not in _PROXY_FORMS:
            raise ValidationError(f"unknown proxy form {self.form!r}")
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
class DemandGood:
    """Per-good aggregate demand; must be strictly decreasing in price."""

    form: str                 # "isoelastic": a*p**-b ; "linear": a - b*p
    params: tuple

    def __post_init__(self):
        if self.form not in ("isoelastic", "linear"):
            raise ValidationError(f"unknown demand form {self.form!r}")
        if self.params[1] <= 0:
            raise ValidationError("demand must be strictly decreasing (need b > 0)")

    def quantity(self, p):
        p = np.asarray(p, dtype=float)
        a, b = self.params
        return a * p ** (-b) if self.form == "isoelastic" else a - b * p


@dataclass(frozen=True)
class MarketConfig:
    """Everything that varies across markets plus the observation noise law.

    price_law:
      ("grid", rays)            equal-probability draw from a finite ray set
      ("grid", rays, weights)   weighted draw
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
    demand_side: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        if self.num_markets <= 0:
            raise ValidationError("need a positive number of markets")
        if self.noise[0] < 0:
            raise ValidationError("noise half-width must be nonnegative")
        if self.noise[1] not in ("uniform", "truncated-normal"):
            raise ValidationError(f"unknown noise shape {self.noise[1]!r}")
        if self.entry_rule[0] not in ("all", "nonneg_profit", "threshold_by_type"):
            raise ValidationError(f"unknown entry rule {self.entry_rule[0]!r}")
        if self.proxy_goods is not None:
            if len(self.proxy_goods) != self.dimension:
                raise ValidationError("need one proxy spec per good")
            if not any(g.observed for g in self.proxy_goods):
                raise ValidationError("at least one price must be observed (identity proxy)")

    @property
    def noise_width(self) -> float:
        """Full support width K of the measurement error."""
        return 2.0 * self.noise[0]


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
    seed: int

    def __len__(self):
        return self.market_id.size

    def to_csv(self, path_or_buf, debug: bool = False) -> None:
        """Writes a header line and one CRLF-ended line per row, built a
        column at a time.  Floats are written as their ``repr``, so
        ``from_csv`` reads back the same bits."""
        k, d = self.y_restricted.shape[1], self.x.shape[1]
        header = (["market_id"]
                  + [f"y_restricted_{j+1}" for j in range(k)]
                  + [f"x_{j+1}" for j in range(d)]
                  + [f"is_price_{j+1}" for j in range(d)]
                  + ["noisy_profit"]
                  + (["type_e"] if debug else []))

        def text(col, dtype=float):
            return map(repr, np.asarray(col, dtype=dtype).tolist())

        cols = ([text(self.market_id, int)]
                + [text(c) for c in self.y_restricted.T]
                + [text(c) for c in self.x.T]
                + [itertools.repeat(str(int(v)), len(self)) for v in self.is_price]
                + [text(self.noisy_profit)]
                + ([text(self.type_e, int)] if debug else []))
        lines = [",".join(header), *map(",".join, zip(*cols))]
        body = "\r\n".join(lines) + "\r\n"
        if isinstance(path_or_buf, (str, bytes)):
            with open(path_or_buf, "w", newline="") as fh:
                fh.write(body)
        else:
            path_or_buf.write(body)

    @classmethod
    def from_csv(cls, path_or_buf, noise_width: float = 0.0) -> "Dataset":
        """Reads what ``to_csv`` writes; LF line ends and double-quoted
        fields are accepted too."""
        if isinstance(path_or_buf, (str, bytes)):
            with open(path_or_buf, newline="") as fh:
                return cls.from_csv(fh, noise_width)
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
                        quotechar='"')
        if body.shape[1] != len(header):
            raise ValidationError(f"dataset rows have {body.shape[1]} fields, "
                                  f"the header {len(header)}")
        return cls(
            market_id=body[:, 0].astype(int),
            y_restricted=body[:, 1:1 + k],
            x=body[:, 1 + k:1 + k + d],
            is_price=body[0, 1 + k + d:1 + k + 2 * d].astype(bool),
            noisy_profit=body[:, 1 + k + 2 * d],
            type_e=(body[:, -1].astype(int) if debug
                    else np.zeros(body.shape[0], dtype=int)),
            noise_width=noise_width,
            seed=-1,
        )


def csv_rows(source, name: str, **kwargs) -> np.ndarray:
    """The numeric rows of a CSV (a path or an open file past its header)
    as a 2-d array; ``kwargs`` go to ``np.loadtxt``.  A file with no data
    rows is a ValidationError naming it, not numpy's warning and a later
    crash."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        body = np.loadtxt(source, delimiter=",", ndmin=2, **kwargs)
    if body.size == 0:
        raise ValidationError(f"{name!r} has no data rows")
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
        rays = np.vstack([_vec(r) for r in law[1]])
        weights = np.asarray(law[2], float) if len(law) > 2 else None
        idx = rng.choice(rays.shape[0], size=m, p=weights)
        prices = rays[idx]
    elif law[0] == "box":
        lo, hi = law[1], law[2]
        prices = rng.uniform(lo, hi, size=(m, d))
        prices /= np.linalg.norm(prices, axis=1, keepdims=True)
    elif law[0] == "endowment":
        prices = 1.0 / rng.lognormal(mean=0.0, sigma=law[1], size=(m, d))
        prices /= np.linalg.norm(prices, axis=1, keepdims=True)
    else:
        raise ValidationError(f"unknown price law {law[0]!r}")
    return prices, prices.copy()


def _draw_restricted(cfg: MarketConfig, rng: np.random.Generator) -> np.ndarray:
    law = cfg.restricted_quantity_law
    m = cfg.num_markets
    if law is None:
        return np.empty((m, 0))
    if law[0] == "fixed":
        vals = np.atleast_2d(np.asarray(law[1], dtype=float))
        if vals.shape[0] == 1 and vals.shape[1] > 1 and np.asarray(law[1]).ndim == 1:
            vals = np.asarray(law[1], dtype=float)[:, None]
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
        seed=cfg.seed,
    )


def gen_demand_proxy(cfg: MarketConfig, p) -> np.ndarray:
    """Aggregate quantities demanded at market prices p, one per good.

    Strict monotonicity of each configured demand is validated on a price
    grid; the resulting quantities are valid price proxies whenever the
    demand-heterogeneity distribution is held fixed across markets (which
    holds here by construction: the demand side is a single configured law).
    """
    if cfg.demand_side is None:
        raise ValidationError("no demand side configured")
    pv = np.atleast_1d(np.asarray(p, dtype=float))
    goods = cfg.demand_side
    if pv.size != len(goods):
        raise ValueError("price dimension does not match demand side")
    grid = np.linspace(pv.min() * 0.5, pv.max() * 2.0, 64)
    out = np.empty(pv.size)
    for j, good in enumerate(goods):
        q = good.quantity(grid)
        if np.any(np.diff(q) >= 0):
            raise ValidationError(f"configured demand for good {j+1} is not strictly decreasing")
        out[j] = float(good.quantity(pv[j]))
    return out


def invert_demand(good: DemandGood, quantity: float,
                  p_lo: float = 1e-8, p_hi: float = 1e8) -> float:
    """Price at which the good's demand equals ``quantity`` (bisection)."""
    lo, hi = p_lo, p_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if good.quantity(mid) > quantity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
