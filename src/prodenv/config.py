"""INI configuration parsing with schema validation.

One file drives the whole pipeline; each stage reads its own section.  Keys
are validated eagerly (unknown keys, missing required keys, and type errors
are ValidationErrors) so a bad config fails before any work is done.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ValidationError
from .identify import BucketingConfig, IdentifyConfig
from .simulate import (MarketConfig, PowerTech, ProxyGood, TechnologySpec)


class Stage(NamedTuple):
    needs: Optional[str]      # the artifact it reads: made earlier, or [<stage>] input
    makes: str


# The pipeline, in order.
STAGES = {
    "simulate": Stage(None, "dataset"),
    "identify": Stage("dataset", "profit_table"),
    "proxies": Stage("profit_table", "proxy_model"),
    "bounds": Stage("profit_table", "bounds_report"),
    "estimate": Stage("profit_table", "diewert_fit"),
    "duality": Stage("diewert_fit", "duality_report"),
}


def artifact_file(artifact: str) -> str:
    return "dataset.csv" if artifact == "dataset" else artifact + ".json"


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.replace(",", " ").split()] for r in rows])


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


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

    def get_int(self, key: str, default: Optional[int] = None, required: bool = False):
        v = self._raw(key, required, default)
        if v is None or isinstance(v, int):
            return v
        try:
            return int(v)
        except ValueError as exc:
            raise ValidationError(f"[{self.name}] {key} must be an integer: {exc}")

    def get_float(self, key: str, default: Optional[float] = None, required: bool = False):
        v = self._raw(key, required, default)
        if v is None or isinstance(v, float):
            return v
        try:
            return float(v)
        except ValueError as exc:
            raise ValidationError(f"[{self.name}] {key} must be a number: {exc}")

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
        v = self._raw(key, required, None)
        return None if v is None else _parse_matrix(v)

    def get_vector(self, key: str, required: bool = False):
        v = self._raw(key, required, None)
        return None if v is None else _parse_vector(v)

    def keys_with_prefix(self, prefix: str) -> list[str]:
        ks = sorted(k for k in self._items if k.startswith(prefix))
        self._seen.update(ks)
        return ks

    def raw(self, key: str) -> Optional[str]:
        self._seen.add(key)
        return self._items.get(key)

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
        mats = []
        for key in sec.keys_with_prefix("b_"):
            mats.append(_parse_matrix(sec.raw(key)))
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


def _parse_proxy_goods(sec: SectionView) -> Optional[tuple]:
    keys = sec.keys_with_prefix("proxy_")
    if not keys:
        return None
    goods = []
    for key in keys:
        # form[:param,param]:lo,hi[:lattice]
        parts = str(sec.raw(key)).split(":")
        if len(parts) < 2:
            raise ValidationError(f"[simulate] {key} must be form[:params]:lo,hi[:lattice]")
        form = parts[0].strip()
        rest = parts[1:]
        params: tuple = ()
        if len(rest) >= 2 and form not in ("identity", "exp"):
            params = tuple(float(v) for v in rest[0].replace(",", " ").split())
            rest = rest[1:]
        rng = tuple(float(v) for v in rest[0].replace(",", " ").split())
        lattice = int(rest[1]) if len(rest) > 1 else 0
        goods.append(ProxyGood(form=form, params=params,
                               x_range=(rng[0], rng[1]), lattice=lattice))
    return tuple(goods)


def parse_market_config(sec: SectionView, seed: int, dimension: int) -> MarketConfig:
    law_kind = sec.get_str("price_law", "box")
    if law_kind == "grid":
        angles = sec.get_vector("grid_angles")
        if angles is not None:
            if dimension != 2:
                raise ValidationError("[simulate] grid_angles needs dimension 2")
            rays = [np.array([np.cos(a), np.sin(a)]) for a in angles]
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
        weights = _parse_vector(entry_kind.split(":", 1)[1])
        entry = ("threshold_by_type", weights)
    else:
        raise ValidationError(f"[simulate] unknown entry rule {entry_kind!r}")

    rq = sec.get_str("restricted_law", "none")
    if rq == "none":
        restricted = None
    elif rq.startswith("fixed:"):
        restricted = ("fixed", _parse_vector(rq.split(":", 1)[1]))
    elif rq.startswith("uniform:"):
        lo, hi = (float(v) for v in rq.split(":", 1)[1].split(","))
        restricted = ("uniform", lo, hi)
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


@dataclass
class PipelineConfig:
    """Validated pipeline plan: ordered stages plus per-stage sections."""

    stages: list
    out_dir: str
    seed: int
    parser: configparser.ConfigParser = field(repr=False, default=None)
    debug: bool = False           # the dataset keeps its hidden type column

    @classmethod
    def from_file(cls, path: Optional[str], stages: Optional[list] = None,
                  inputs=(), debug: bool = False) -> "PipelineConfig":
        """The plan in the INI file at ``path``: its [pipeline] stages, or
        ``stages`` when given, with ``inputs`` naming the artifacts the
        caller supplies.  Fails before any work on an unknown section,
        [pipeline] key or stage, or on a stage whose input nothing makes;
        each stage checks its own keys when it starts."""
        parser = load_config(path)
        sec = SectionView(parser, "pipeline")
        listed = sec.get_str("stages", required=stages is None)
        cfg = cls(stages=stages or listed.split(),
                  out_dir=sec.get_str("out_dir", "prodenv-run"),
                  seed=sec.get_int("seed", 0), parser=parser, debug=debug)
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
        return cfg

    def section(self, name: str) -> SectionView:
        return SectionView(self.parser, name)
