"""Named, versioned parameterizations of the market model.

Each scenario bundles a supplier behavior, market and cost parameters,
seed quantities, a map form and the analysis it was built to run, so the
reference experiments are reproducible by name.  Scenarios round-trip
through a flat ``key = value`` config format (see ``load_scenario``).

Every builtin is registered in the form that reproduces its figure
(canonical throughout; the paper-literal algebra diverges within a few
periods at these parameters), plus a ``-paper-literal`` twin for
side-by-side comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import (
    CostPricing,
    MapForm,
    MarketParams,
    MarketState,
    SupplierBehavior,
)
from .scans import ScanConfig


class ConfigError(ValueError):
    """A scenario config document failed validation."""


@dataclass(frozen=True)
class OrbitSpec:
    steps: int
    bounded: bool

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")


@dataclass(frozen=True)
class BifurcationSpec:
    config: ScanConfig


@dataclass(frozen=True)
class LyapunovSpec:
    config: ScanConfig


@dataclass(frozen=True)
class PedSpec:
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for key, value in (("p1", self.p1), ("p2", self.p2)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")


AnalysisSpec = OrbitSpec | BifurcationSpec | LyapunovSpec | PedSpec


@dataclass(frozen=True)
class Scenario:
    """A named, fully-specified experiment on the market model."""

    name: str
    supplier: SupplierBehavior
    market: MarketParams
    cost: CostPricing
    analysis: AnalysisSpec
    seed_demand: float = 1.0
    seed_supply: float = 1.0
    form: MapForm = MapForm.CANONICAL
    figure: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        for key, text in (("name", self.name), ("figure", self.figure)):
            # the config format strips a value and ends it at '#' or a line break
            if text and (text != text.strip() or "#" in text or len(text.splitlines()) > 1):
                raise ConfigError(f"{key} {text!r} holds '#', a line break or outer whitespace")
        if not (0.0 <= self.seed_demand < math.inf):
            raise ConfigError(f"seed_d must be finite and >= 0, got {self.seed_demand}")
        if not (0.0 < self.seed_supply < math.inf):
            raise ConfigError(f"seed_s must be finite and > 0, got {self.seed_supply}")

    def initial_state(self) -> MarketState:
        """Seed state: the first stock launched to feel out the market."""
        return MarketState(demand=self.seed_demand, supply=self.seed_supply, price=0.0)


_NAIVE_MARKET = MarketParams(a=10.0, b=0.09)
_NAIVE_COST = CostPricing(fc=10.0, v=4.0, margin=0.5)
_CO_MARKET = MarketParams(a=30.0, b=0.125)
_CO_COST = CostPricing(fc=30.0, v=6.0, margin=0.5)
_COLLAPSE_MARKET = MarketParams(a=10.0, b=0.095)
_COLLAPSE_COST = CostPricing(fc=20.0, v=2.0, margin=0.5)

_M1 = SupplierBehavior(m=1.0)
_M2 = SupplierBehavior(m=2.0)


def _base_scenarios() -> list[Scenario]:
    return [
        Scenario(
            name="naive-ts",
            supplier=_M1,
            market=_NAIVE_MARKET,
            cost=_NAIVE_COST,
            analysis=OrbitSpec(steps=20, bounded=False),
            figure="fig3",
        ),
        Scenario(
            name="naive-bif-b",
            supplier=_M1,
            market=_NAIVE_MARKET,
            cost=_NAIVE_COST,
            analysis=BifurcationSpec(
                ScanConfig("b", 0.0418, 0.0918, 10000, 2500, 500, 3000)
            ),
            figure="fig4",
        ),
        Scenario(
            name="naive-lyap",
            supplier=_M1,
            market=_NAIVE_MARKET,
            cost=_NAIVE_COST,
            analysis=LyapunovSpec(
                ScanConfig("b", 0.08, 0.092, 100000, 1000, 10000, 11000)
            ),
            figure="fig5",
        ),
        Scenario(
            name="naive-bif-M",
            supplier=_M1,
            market=MarketParams(a=10.0, b=0.03),
            cost=_NAIVE_COST,
            analysis=BifurcationSpec(
                ScanConfig("M", 0.6765, 0.8365, 20000, 2500, 500, 3000)
            ),
            figure="fig6",
        ),
        Scenario(
            name="co-ts",
            supplier=_M2,
            market=_CO_MARKET,
            cost=_CO_COST,
            analysis=OrbitSpec(steps=30, bounded=False),
            figure="fig7",
        ),
        Scenario(
            name="co-bif-b",
            supplier=_M2,
            market=_CO_MARKET,
            cost=_CO_COST,
            analysis=BifurcationSpec(
                ScanConfig("b", 0.064, 0.134, 10000, 2500, 500, 3000)
            ),
            figure="fig8",
        ),
        Scenario(
            name="co-lyap",
            supplier=_M2,
            market=_CO_MARKET,
            cost=_CO_COST,
            analysis=LyapunovSpec(
                ScanConfig("b", 0.1, 0.134, 80000, 1000, 10000, 11000)
            ),
            figure="fig9",
        ),
        Scenario(
            name="elastic-b0",
            supplier=_M2,
            market=MarketParams(a=30.0, b=0.0),
            cost=_CO_COST,
            analysis=OrbitSpec(steps=20, bounded=False),
            figure="fig10",
        ),
        Scenario(
            name="collapse",
            supplier=_M1,
            market=_COLLAPSE_MARKET,
            cost=_COLLAPSE_COST,
            analysis=OrbitSpec(steps=200, bounded=True),
            figure="fig11",
        ),
        # The square-root variant of the collapse parameterization; under
        # the canonical map it stabilizes instead of collapsing, which is
        # why the naive variant above carries the figure tag.
        Scenario(
            name="collapse-m2",
            supplier=_M2,
            market=_COLLAPSE_MARKET,
            cost=_COLLAPSE_COST,
            analysis=OrbitSpec(steps=200, bounded=True),
        ),
    ]


def builtin_scenarios() -> list[Scenario]:
    """All registered scenarios, each in its recorded form plus a
    paper-literal twin (suffix ``-paper-literal``)."""
    out: list[Scenario] = []
    for sc in _base_scenarios():
        out.append(sc)
        out.append(
            replace(
                sc,
                name=sc.name + "-paper-literal",
                form=MapForm.PAPER_LITERAL,
                figure=None,
            )
        )
    return out


def get_scenario(name: str) -> Scenario:
    for sc in builtin_scenarios():
        if sc.name == name:
            return sc
    raise ConfigError(f"unknown scenario {name!r}")


_ANALYSIS_NAMES = {
    OrbitSpec: "orbit",
    BifurcationSpec: "bifurcation",
    LyapunovSpec: "lyapunov",
    PedSpec: "ped",
}

_FORM_NAMES = {MapForm.CANONICAL: "canonical", MapForm.PAPER_LITERAL: "paper-literal"}


def serialize_scenario(sc: Scenario) -> str:
    """Render a scenario as the flat key = value config document."""
    lines = [
        f"name = {sc.name}",
        f"m = {sc.supplier.m!r}",
        f"a = {sc.market.a!r}",
        f"b = {sc.market.b!r}",
        f"v = {sc.cost.v!r}",
        f"fc = {sc.cost.fc!r}",
        f"margin = {sc.cost.margin!r}",
        f"seed_d = {sc.seed_demand!r}",
        f"seed_s = {sc.seed_supply!r}",
        f"form = {_FORM_NAMES[sc.form]}",
        f"analysis = {_ANALYSIS_NAMES[type(sc.analysis)]}",
    ]
    spec = sc.analysis
    if isinstance(spec, OrbitSpec):
        lines.append(f"steps = {spec.steps}")
        lines.append(f"bounded = {'true' if spec.bounded else 'false'}")
    elif isinstance(spec, (BifurcationSpec, LyapunovSpec)):
        cfg = spec.config
        lines.append(f"param = {cfg.parameter}")
        lines.append(f"min = {cfg.lo!r}")
        lines.append(f"max = {cfg.hi!r}")
        lines.append(f"points = {cfg.grid_points}")
        lines.append(f"transient = {cfg.transient}")
        lines.append(f"keep = {cfg.keep}")
        lines.append(f"iters = {cfg.iterations_total}")
    else:
        lines.append(f"p1 = {spec.p1!r}")
        lines.append(f"p2 = {spec.p2!r}")
    if sc.figure is not None:
        lines.append(f"figure = {sc.figure}")
    return "\n".join(lines) + "\n"


_FLOAT_KEYS = {"m", "a", "b", "v", "fc", "margin", "seed_d", "seed_s", "min", "max", "p1", "p2"}
_INT_KEYS = {"steps", "points", "transient", "keep", "iters"}
_KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | {"name", "form", "analysis", "bounded", "param", "figure"}

_REQUIRED_KEYS = ("name", "a", "b", "v", "fc", "margin")


def _parse_document(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _typed(entries: dict[str, str]) -> dict:
    out: dict = {}
    for key, value in entries.items():
        if key in _FLOAT_KEYS:
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {value!r}") from None
        elif key in _INT_KEYS:
            try:
                out[key] = int(value)
            except ValueError:
                raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
        elif key == "bounded":
            if value not in ("true", "false"):
                raise ConfigError(f"bounded: expected true or false, got {value!r}")
            out[key] = value == "true"
        elif key == "form":
            forms = {v: k for k, v in _FORM_NAMES.items()}
            if value not in forms:
                raise ConfigError(f"form: expected canonical or paper-literal, got {value!r}")
            out[key] = forms[value]
        else:
            out[key] = value
    return out


def load_scenario(text: str) -> Scenario:
    """Parse a flat key = value config document into a Scenario.

    Unknown keys, missing required keys and out-of-range values raise
    ``ConfigError`` naming the offending field.  Seeds default to (1, 1),
    the form to canonical and the analysis to a bounded 100-step orbit.
    """
    entries = _typed(_parse_document(text))
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")

    try:
        supplier = SupplierBehavior(m=entries.get("m", 1.0))
        market = MarketParams(a=entries["a"], b=entries["b"])
        cost = CostPricing(fc=entries["fc"], v=entries["v"], margin=entries["margin"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    kind = entries.get("analysis", "orbit")
    try:
        if kind == "orbit":
            analysis: AnalysisSpec = OrbitSpec(
                steps=entries.get("steps", 100),
                bounded=entries.get("bounded", True),
            )
        elif kind in ("bifurcation", "lyapunov"):
            for key in ("param", "min", "max", "points"):
                if key not in entries:
                    raise ConfigError(f"missing required key {key!r} for {kind} analysis")
            cfg = ScanConfig(
                parameter=entries["param"],
                lo=entries["min"],
                hi=entries["max"],
                grid_points=entries["points"],
                transient=entries.get("transient", 2500),
                keep=entries.get("keep", 500),
                iterations_total=entries.get(
                    "iters", entries.get("transient", 2500) + entries.get("keep", 500)
                ),
            )
            analysis = BifurcationSpec(cfg) if kind == "bifurcation" else LyapunovSpec(cfg)
        elif kind == "ped":
            for key in ("p1", "p2"):
                if key not in entries:
                    raise ConfigError(f"missing required key {key!r} for ped analysis")
            analysis = PedSpec(p1=entries["p1"], p2=entries["p2"])
        else:
            raise ConfigError(
                f"analysis: expected orbit, bifurcation, lyapunov or ped, got {kind!r}"
            )

        return Scenario(
            name=entries["name"],
            supplier=supplier,
            market=market,
            cost=cost,
            analysis=analysis,
            seed_demand=entries.get("seed_d", 1.0),
            seed_supply=entries.get("seed_s", 1.0),
            form=entries.get("form", MapForm.CANONICAL),
            figure=entries.get("figure"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
