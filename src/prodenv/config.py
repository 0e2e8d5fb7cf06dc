"""INI configuration parsing with schema validation.

One file drives the whole pipeline; each stage reads its own section
through its settings parser in ``STAGES``.  Every listed stage's section is
parsed when the plan is loaded (unknown keys, missing required keys, and
type errors are ValidationErrors) so a bad config fails before any work is
done; only defaults that depend on a stage's input data are left to it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import profit_bounds, profit_bounds_fixed_quantity, quantity_bounds
from .errors import ValidationError
from .geometry import angle_rays
from .identify import BucketingConfig, IdentifyConfig
from .simulate import (MarketConfig, PowerTech, ProxyGood, TechnologySpec)


def artifact_file(artifact: str) -> str:
    return "dataset.csv" if artifact == "dataset" else artifact + ".json"


def _parse_number(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return v


def _parse_vector(text: str) -> np.ndarray:
    return np.array([_parse_number(v) for v in text.replace(",", " ").split()])


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([_parse_vector(r) for r in text.split(";") if r.strip()])


def _parse_range(text: str) -> tuple[float, float]:
    lo, hi = map(float, _parse_vector(text))
    return lo, hi


class SectionView:
    """Typed accessors over one config section with unknown-key detection."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self._items = dict(parser.items(name)) if parser.has_section(name) else {}
        self._seen: set[str] = set()

    def _raw(self, key: str, required: bool, default):
        self._seen.add(key)
        if key in self._items:
            return self._items[key]
        if required:
            raise ValidationError(f"[{self.name}] missing required key {key!r}")
        return default

    def get_str(self, key: str, default: Optional[str] = None, required: bool = False):
        v = self._raw(key, required, default)
        return v if v is None else str(v)

    def parse(self, key: str, text: str, parse, what: str):
        """``parse(text)`` for ``key``; its error names the key."""
        try:
            return parse(text)
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"[{self.name}] {key} must be {what}: {exc}")

    def _typed(self, key: str, parse, what: str, required: bool, default):
        v = self._raw(key, required, default)
        if not isinstance(v, str):            # absent: the default as given
            return v
        return self.parse(key, v, parse, what)

    def get_int(self, key: str, default: Optional[int] = None, required: bool = False):
        return self._typed(key, int, "an integer", required, default)

    def get_float(self, key: str, default: Optional[float] = None, required: bool = False):
        return self._typed(key, _parse_number, "a number", required, default)

    def get_bool(self, key: str, default: bool = False) -> bool:
        v = self._raw(key, False, None)
        if v is None:
            return default
        if str(v).lower() in ("1", "true", "yes", "on"):
            return True
        if str(v).lower() in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"[{self.name}] {key} must be a boolean")

    def get_matrix(self, key: str, required: bool = False):
        return self._typed(key, _parse_matrix, "a matrix", required, None)

    def get_vector(self, key: str, required: bool = False):
        return self._typed(key, _parse_vector, "a list of numbers", required, None)

    def keys_with_prefix(self, prefix: str) -> list[str]:
        ks = sorted(k for k in self._items if k.startswith(prefix))
        self._seen.update(ks)
        return ks

    def check_unknown(self) -> None:
        unknown = set(self._items) - self._seen
        if unknown:
            raise ValidationError(
                f"[{self.name}] unknown keys: {', '.join(sorted(unknown))}")


def load_config(path: Optional[str]) -> configparser.ConfigParser:
    """The INI file at ``path`` (no file: an empty config); a section that
    is neither [pipeline] nor a stage is a ValidationError."""
    parser = configparser.ConfigParser()
    try:
        if path is not None and not parser.read(path):
            raise ValidationError(f"cannot read config file {path!r}")
        for name in parser.sections():
            parser.items(name)            # a bad '%' interpolation fails here
    except configparser.Error as exc:
        raise ValidationError(f"config file {path!r}: {exc}") from None
    unknown = set(parser.sections()) - {"pipeline", *STAGES}
    if unknown:
        raise ValidationError(f"unknown config sections: {', '.join(sorted(unknown))}")
    return parser


def parse_technology(sec: SectionView) -> TechnologySpec:
    kind = sec.get_str("technology", required=True)
    if kind == "nonmonotone-triple":
        return TechnologySpec.nonmonotone_supply_triple()
    if kind == "diewert":
        mats = [sec.get_matrix(key) for key in sec.keys_with_prefix("b_")]
        if not mats:
            raise ValidationError("[simulate] diewert technology needs b_1, b_2, ... matrices")
        return TechnologySpec.diewert_family(mats)
    if kind == "power":
        scales = sec.get_vector("power_scales", required=True)
        exps = sec.get_vector("power_exponents", required=True)
        if scales.size != exps.size:
            raise ValidationError("[simulate] power_scales and power_exponents differ in length")
        return TechnologySpec(kind="power", types=tuple(
            PowerTech(float(a), float(g)) for a, g in zip(scales, exps)))
    raise ValidationError(f"[simulate] unknown technology {kind!r}")


def _parse_proxy_good(spec: str) -> ProxyGood:
    """One proxy spec, form[:param,param]:lo,hi[:lattice]."""
    form, *rest = spec.split(":")
    if not rest:
        raise ValueError("no range")
    params: tuple = ()
    if len(rest) >= 2 and form.strip() not in ("identity", "exp"):
        params = tuple(map(float, _parse_vector(rest[0])))
        rest = rest[1:]
    lo, hi = _parse_range(rest[0])
    lattice = int(rest[1]) if len(rest) > 1 else 0
    return ProxyGood(form=form.strip(), params=params, x_range=(lo, hi), lattice=lattice)


def _parse_proxy_goods(sec: SectionView) -> Optional[tuple]:
    keys = sec.keys_with_prefix("proxy_")
    if not keys:
        return None
    return tuple(sec.parse(key, sec.get_str(key), _parse_proxy_good,
                           "form[:params]:lo,hi[:lattice]") for key in keys)


def parse_market_config(sec: SectionView, seed: int, dimension: int) -> MarketConfig:
    law_kind = sec.get_str("price_law", "box")
    if law_kind == "grid":
        angles = sec.get_vector("grid_angles")
        if angles is not None:
            if dimension != 2:
                raise ValidationError("[simulate] grid_angles needs dimension 2")
            rays = angle_rays(angles)
        else:
            mat = sec.get_matrix("grid_rays", required=True)
            rays = [r / np.linalg.norm(r) for r in mat]
        price_law = ("grid", rays)
    elif law_kind == "box":
        price_law = ("box", sec.get_float("box_lo", 0.2), sec.get_float("box_hi", 1.0))
    elif law_kind == "endowment":
        price_law = ("endowment", sec.get_float("endowment_sigma", 0.5))
    else:
        raise ValidationError(f"[simulate] unknown price_law {law_kind!r}")

    entry_kind = sec.get_str("entry", "all")
    if entry_kind == "all":
        entry: tuple = ("all",)
    elif entry_kind == "nonneg_profit":
        entry = ("nonneg_profit",)
    elif entry_kind.startswith("threshold:"):
        entry = ("threshold_by_type", sec.parse("entry", entry_kind[len("threshold:"):],
                                                _parse_vector, "threshold:<weights>"))
    else:
        raise ValidationError(f"[simulate] unknown entry rule {entry_kind!r}")

    rq = sec.get_str("restricted_law", "none")
    if rq == "none":
        restricted = None
    elif rq.startswith("fixed:"):
        restricted = ("fixed", sec.parse("restricted_law", rq[len("fixed:"):],
                                         _parse_vector, "fixed:<values>"))
    elif rq.startswith("uniform:"):
        restricted = ("uniform", *sec.parse("restricted_law", rq[len("uniform:"):],
                                            _parse_range, "uniform:lo,hi"))
    else:
        raise ValidationError(f"[simulate] unknown restricted_law {rq!r}")

    return MarketConfig(
        num_markets=sec.get_int("markets", required=True),
        dimension=dimension,
        price_law=price_law,
        proxy_goods=_parse_proxy_goods(sec),
        entry_rule=entry,
        restricted_quantity_law=restricted,
        noise=(sec.get_float("noise_half_width", 0.0),
               sec.get_str("noise_shape", "uniform")),
        seed=sec.get_int("seed", seed),
    )


def parse_identify_config(sec: SectionView) -> IdentifyConfig:
    return IdentifyConfig(
        bucketing=BucketingConfig(
            mode=sec.get_str("bucketing", "quantile"),
            buckets_per_dim=sec.get_int("buckets_per_dim", 10),
        ),
        noise_width=sec.get_float("noise_width", None),
        max_types=sec.get_int("max_types", None),
        min_anchor_count=sec.get_int("min_anchor_count", 200),
        min_cell_count=sec.get_int("min_cell_count", 50),
        penalty_c=sec.get_float("penalty_c", 1.0),
        fit_error_threshold=sec.get_float("fit_error_threshold", 0.1),
    )


# Stage settings: each parser reads every key its stage uses from the
# stage's section, with the defaults that do not depend on the stage's input
# data (those stay None here and are filled in by the stage), and returns
# what the stage body needs.  ``input`` is None when the stage reads an
# earlier artifact or a command-line file.


def _simulate_settings(sec: SectionView, seed: int) -> SimpleNamespace:
    tech = parse_technology(sec)
    return SimpleNamespace(tech=tech,
                           market=parse_market_config(sec, seed, tech.dimension))


def _identify_settings(sec: SectionView, seed: int) -> SimpleNamespace:
    return SimpleNamespace(input=sec.get_str("input"),
                           identify=parse_identify_config(sec))


def _proxies_settings(sec: SectionView, seed: int) -> SimpleNamespace:
    s = SimpleNamespace(input=sec.get_str("input"), mode=sec.get_str("mode", "euler"))
    if s.mode == "housing":
        s.profile_csv = sec.get_str("profile_csv", required=True)
        s.anchor = (sec.get_float("anchor_v", required=True),
                    sec.get_float("anchor_p", required=True))
        return s
    if s.mode != "euler":
        raise ValidationError(f"[proxies] unknown mode {s.mode!r}")
    s.profile_csv = sec.get_str("profile_csv")
    # None: the table's d_e, the lattice dimension d, and d - 1 anchors.
    s.type_e = None if s.profile_csv else sec.get_int("type_e")
    s.observed_index = sec.get_int("observed_index")
    s.anchors = sec.get_vector("anchors")
    s.n_anchors = sec.get_int("n_anchors") if s.anchors is None else None
    s.anchor_x = sec.get_vector("anchor_x", required=True)
    s.anchor_p = sec.get_vector("anchor_p", required=True)
    s.x_ref = sec.get_vector("x_ref")
    s.trim = sec.get_int("trim", 1)
    return s


def _bounds_question(sec: SectionView) -> tuple[str, Callable]:
    """The question's label and the bound it asks for, as a function of one
    type's profit data."""
    kind = sec.get_str("question", "profit")
    if kind in ("profit", "quantity"):
        pc = sec.get_vector("p_c", required=True)
        if np.any(pc < 0) or not np.any(pc > 0):
            raise ValidationError(f"[bounds] p_c must be nonnegative and nonzero: {pc.tolist()}")
        pc = pc / np.linalg.norm(pc)
        if kind == "profit":
            return f"profit at p_c={pc.tolist()}", lambda data: profit_bounds(data, pc)
        u = sec.get_vector("u", required=True)
        return (f"u.y at p_c={pc.tolist()}, u={u.tolist()}",
                lambda data: quantity_bounds(data, pc, u))
    if kind == "fixed_quantity":
        coord = sec.get_int("coord", required=True) - 1
        ybar = sec.get_float("ybar", required=True)
        grid = angle_rays(np.linspace(0.01, np.pi / 2 - 0.01, sec.get_int("n_grid_rays", 720)))

        def solve(data):
            if data.dimension != 2:
                raise ValidationError("fixed_quantity grid is built for dimension 2")
            return profit_bounds_fixed_quantity(data, coord, ybar, grid)
        return f"profit with y[{coord+1}]={ybar} fixed", solve
    raise ValidationError(f"[bounds] unknown question {kind!r}")


def _profit_input_settings(sec: SectionView) -> SimpleNamespace:
    """The keys of a stage that reads profit data: a profit table, mapped to
    prices through a proxy model when there is one, or a pairs CSV."""
    return SimpleNamespace(input=sec.get_str("input"),
                           proxy_model=sec.get_str("proxy_model"))


def _bounds_settings(sec: SectionView, seed: int) -> SimpleNamespace:
    s = _profit_input_settings(sec)
    types = sec.get_vector("types")
    s.types = None if types is None else [int(v) for v in types]
    s.repair = sec.get_str("repair", "none")
    if s.repair not in ("none", "project"):
        raise ValidationError(f"[bounds] unknown repair mode {s.repair!r}")
    s.question, s.solve = _bounds_question(sec)
    return s


def _estimate_settings(sec: SectionView, seed: int) -> SimpleNamespace:
    s = _profit_input_settings(sec)
    s.convexity = sec.get_bool("convexity", True)
    s.monotone = sec.get_bool("monotone", True)
    s.tau = sec.get_float("tau", 0.5)
    return s


def _duality_settings(sec: SectionView, seed: int) -> SimpleNamespace:
    b_true = sec.get_matrix("b_true", required=True)
    if b_true.shape != (2, 2):
        raise ValidationError("[duality] b_true must be 2 x 2: the built-in grid "
                              "is 2-dimensional")
    return SimpleNamespace(
        input=sec.get_str("input"),
        b_true=b_true,
        type_e=sec.get_int("type_e"),              # None: the fit's d_e
        n_rays=sec.get_int("n_rays", 90),
        angle_lo=sec.get_float("angle_lo", 0.15),
        angle_hi=sec.get_float("angle_hi", float(np.pi / 2 - 0.15)),
        geometric_oracle=sec.get_bool("geometric_oracle", True))


class Stage(NamedTuple):
    needs: Optional[str]      # the artifact it reads: made earlier, or [<stage>] input
    makes: str
    settings: Callable        # (section, [pipeline] seed) -> what the stage reads


# The pipeline, in order.
STAGES = {
    "simulate": Stage(None, "dataset", _simulate_settings),
    "identify": Stage("dataset", "profit_table", _identify_settings),
    "proxies": Stage("profit_table", "proxy_model", _proxies_settings),
    "bounds": Stage("profit_table", "bounds_report", _bounds_settings),
    "estimate": Stage("profit_table", "diewert_fit", _estimate_settings),
    "duality": Stage("diewert_fit", "duality_report", _duality_settings),
}


@dataclass
class PipelineConfig:
    """Validated pipeline plan: ordered stages plus each stage's settings."""

    stages: list
    out_dir: str
    seed: int
    debug: bool = False           # the dataset keeps its hidden type column
    settings: dict = field(default_factory=dict, repr=False)   # stage -> settings

    @classmethod
    def from_file(cls, path: Optional[str], stages: Optional[list] = None,
                  inputs=(), debug: bool = False) -> "PipelineConfig":
        """The plan in the INI file at ``path``: its [pipeline] stages, or
        ``stages`` when given, with ``inputs`` naming the artifacts the
        caller supplies.  Fails before any work on an unknown section,
        [pipeline] key or stage, on a stage whose input nothing makes, and
        on a bad key in the section of any stage it lists."""
        parser = load_config(path)
        sec = SectionView(parser, "pipeline")
        listed = sec.get_str("stages", required=stages is None)
        cfg = cls(stages=stages or listed.split(),
                  out_dir=sec.get_str("out_dir", "prodenv-run"),
                  seed=sec.get_int("seed", 0), debug=debug)
        sec.check_unknown()
        made = set(inputs)
        for s in cfg.stages:
            if s not in STAGES:
                raise ValidationError(f"[pipeline] unknown stage {s!r}")
            need = STAGES[s].needs
            if need and need not in made and not parser.has_option(s, "input"):
                raise ValidationError(
                    f"[pipeline] stage {s!r} needs a {need} artifact: produce it "
                    f"with an earlier stage or set [{s}] input = <path>")
            made.add(STAGES[s].makes)
        for s in cfg.stages:
            sec = SectionView(parser, s)
            cfg.settings[s] = STAGES[s].settings(sec, cfg.seed)
            sec.check_unknown()
        return cfg
