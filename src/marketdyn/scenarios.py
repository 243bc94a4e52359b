"""Named, versioned parameterizations of the market model.

Each scenario bundles a supplier behavior, market and cost parameters,
seed quantities, a map form and the analysis it was built to run, so the
reference experiments are reproducible by name.  Scenarios round-trip
through a flat ``key = value`` config format.  ``KEYS`` is its one
schema: every key in document order with its value's type.  The parser
reads text into typed entries by it, ``scenario_entries`` gives a
scenario as typed entries in that order (which ``serialize_scenario``
writes), and ``build_scenario`` turns typed entries into a validated
scenario.  The command line's flags are the same keys.  A scan's keys
build a ``ScanConfig`` (re-exported by ``scans``), whose ``grid()`` loads numpy.

The builtins are typed config entries too, built by ``build_scenario``
like a file or the flags, so its defaults hold for them as well.  Each
is registered in the form that reproduces its figure (canonical
throughout; the paper-literal algebra diverges within a few periods at
these parameters), plus a ``-paper-literal`` twin for side-by-side
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    CostPricing,
    MapForm,
    MarketParams,
    MarketState,
    SupplierBehavior,
)

SCAN_PARAMETERS = ("b", "M", "a")


class ConfigError(ValueError):
    """A scenario config document failed validation."""


@dataclass(frozen=True)
class ScanConfig:
    """Grid and iteration budget for a one-parameter sweep.

    ``parameter`` is one of "b" (demand slope), "M" (gross margin) or
    "a" (demand intercept).  Each grid point runs ``transient + keep``
    iterations and retains the last ``keep`` as samples; a bifurcation
    scan labels them with the smallest period up to ``analysis.MAX_PERIOD``
    (and ``keep // 2``) and refines unresolved points for at most
    ``scans._REFINE_ROUNDS`` more rounds.  ``iterations_total`` (the config
    key ``iters``) drives no iteration: it is only a validated bound that
    must cover ``transient + keep``.
    """

    parameter: str
    lo: float
    hi: float
    grid_points: int
    transient: int = 2500
    keep: int = 500
    iterations_total: int = 3000

    def __post_init__(self) -> None:
        if self.parameter not in SCAN_PARAMETERS:
            raise ValueError(f"parameter must be one of {SCAN_PARAMETERS}, got {self.parameter!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"scan interval must be finite, got [{self.lo}, {self.hi}]")
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")
        if self.transient < 0:
            raise ValueError(f"transient must be >= 0, got {self.transient}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")
        if self.keep > self.iterations_total - self.transient:
            raise ValueError(f"keep ({self.keep}) exceeds iterations_total - transient "
                             f"({self.iterations_total} - {self.transient})")
        if self.parameter == "M" and not (0.0 <= self.lo and self.hi < 1.0):
            raise ValueError(f"margin scan interval must lie in [0, 1), got [{self.lo}, {self.hi}]")
        if self.parameter != "M" and self.lo < 0.0:
            raise ValueError(
                f"{self.parameter} scan interval must be non-negative, got lo={self.lo}")

    def grid(self, start: int = 0, stop: int | None = None):
        """Grid values ``start`` to ``stop`` (default: all), an ndarray equal
        bit for bit to that slice of ``np.linspace(lo, hi, grid_points)``,
        whose arithmetic it repeats (numpy is imported here, at first use)."""
        import numpy as np
        n = self.grid_points
        stop = n if stop is None else stop
        y = np.arange(start, stop, dtype=float)
        if n > 1:  # with linspace's own path for a step that underflows to 0
            step = (self.hi - self.lo) / (n - 1)
            y = y / (n - 1) * (self.hi - self.lo) if step == 0.0 else y * step
        y += self.lo
        if n > 1 and start < stop == n:
            y[-1] = self.hi
        return y


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


# The paper's parameterizations as typed config entries; ``build_scenario``
# supplies the rest (seeds (1, 1), m = 1, a bounded orbit, a scan's budget).
_NAIVE = {"a": 10.0, "b": 0.09, "v": 4.0, "fc": 10.0, "margin": 0.5}
_CO = {"m": 2.0, "a": 30.0, "b": 0.125, "v": 6.0, "fc": 30.0, "margin": 0.5}
_COLLAPSE = {"a": 10.0, "b": 0.095, "v": 2.0, "fc": 20.0, "margin": 0.5, "steps": 200}

_ENTRIES = (
    {**_NAIVE, "name": "naive-ts", "steps": 20, "bounded": False, "figure": "fig3"},
    {**_NAIVE, "name": "naive-bif-b", "analysis": "bifurcation",
     "param": "b", "min": 0.0418, "max": 0.0918, "points": 10000, "figure": "fig4"},
    {**_NAIVE, "name": "naive-lyap", "analysis": "lyapunov", "param": "b", "min": 0.08,
     "max": 0.092, "points": 100000, "transient": 1000, "keep": 10000, "figure": "fig5"},
    {**_NAIVE, "name": "naive-bif-M", "b": 0.03, "analysis": "bifurcation",
     "param": "M", "min": 0.6765, "max": 0.8365, "points": 20000, "figure": "fig6"},
    {**_CO, "name": "co-ts", "steps": 30, "bounded": False, "figure": "fig7"},
    {**_CO, "name": "co-bif-b", "analysis": "bifurcation",
     "param": "b", "min": 0.064, "max": 0.134, "points": 10000, "figure": "fig8"},
    {**_CO, "name": "co-lyap", "analysis": "lyapunov", "param": "b", "min": 0.1,
     "max": 0.134, "points": 80000, "transient": 1000, "keep": 10000, "figure": "fig9"},
    {**_CO, "name": "elastic-b0", "b": 0.0, "steps": 20, "bounded": False, "figure": "fig10"},
    {**_COLLAPSE, "name": "collapse", "figure": "fig11"},
    # The square-root variant of the collapse parameterization; under the
    # canonical map it stabilizes instead of collapsing, which is why the
    # naive variant above carries the figure tag.
    {**_COLLAPSE, "name": "collapse-m2", "m": 2.0},
)


def _registry():
    """Each builtin's entries, then its paper-literal twin's."""
    for entry in _ENTRIES:
        yield entry
        yield {**entry, "name": entry["name"] + "-paper-literal",
               "form": MapForm.PAPER_LITERAL, "figure": None}


def builtin_scenarios() -> list[Scenario]:
    """All registered scenarios, each in its recorded form plus a
    paper-literal twin (suffix ``-paper-literal``)."""
    return [build_scenario(entry) for entry in _registry()]


def get_scenario(name: str) -> Scenario:
    for entry in _registry():
        if entry["name"] == name:
            return build_scenario(entry)
    raise ConfigError(f"unknown scenario {name!r}")


ANALYSIS_NAMES = {
    OrbitSpec: "orbit",
    BifurcationSpec: "bifurcation",
    LyapunovSpec: "lyapunov",
    PedSpec: "ped",
}

# Every config key, in the order a document lists them, with its value's type.
KEYS: dict[str, type] = {
    "name": str, "m": float, "a": float, "b": float, "v": float, "fc": float,
    "margin": float, "seed_d": float, "seed_s": float, "form": MapForm, "analysis": str,
    "steps": int, "bounded": bool,
    "param": str, "min": float, "max": float, "points": int,
    "transient": int, "keep": int, "iters": int,
    "p1": float, "p2": float,
    "figure": str,
}


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# value type -> (config text to value, value to config text, what the text must be)
_CODECS = {
    str: (str, str, ""),
    float: (float, repr, "a number"),
    int: (int, str, "an integer"),
    bool: (_bool, lambda flag: "true" if flag else "false", "true or false"),
    MapForm: (MapForm, lambda form: form.value, "canonical or paper-literal"),
}

_REQUIRED_KEYS = ("name", "a", "b", "v", "fc", "margin")
_SCAN_KEYS = ("param", "min", "max", "points")
# the keys each analysis requires beyond _REQUIRED_KEYS
_ANALYSIS_KEYS = {
    "orbit": (), "bifurcation": _SCAN_KEYS, "lyapunov": _SCAN_KEYS, "ped": ("p1", "p2"),
}


def scenario_entries(sc: Scenario) -> dict:
    """The scenario as typed config entries, in the order of ``KEYS``:
    the keys of its own analysis, and ``figure`` only when it has one."""
    spec = sc.analysis
    entries = {
        "name": sc.name, "m": sc.supplier.m, "a": sc.market.a, "b": sc.market.b,
        "v": sc.cost.v, "fc": sc.cost.fc, "margin": sc.cost.margin,
        "seed_d": sc.seed_demand, "seed_s": sc.seed_supply, "form": sc.form,
        "analysis": ANALYSIS_NAMES[type(spec)],
    }
    if isinstance(spec, OrbitSpec):
        entries.update(steps=spec.steps, bounded=spec.bounded)
    elif isinstance(spec, PedSpec):
        entries.update(p1=spec.p1, p2=spec.p2)
    else:
        cfg = spec.config
        entries.update(param=cfg.parameter, min=cfg.lo, max=cfg.hi, points=cfg.grid_points,
                       transient=cfg.transient, keep=cfg.keep, iters=cfg.iterations_total)
    if sc.figure is not None:
        entries["figure"] = sc.figure
    return entries


def serialize_scenario(sc: Scenario) -> str:
    """Render a scenario as the flat key = value config document."""
    return "".join(f"{key} = {_CODECS[KEYS[key]][1](value)}\n"
                   for key, value in scenario_entries(sc).items())


def _parse_document(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _typed(entries: dict[str, str]) -> dict:
    out: dict = {}
    for key, text in entries.items():
        parse, _, expected = _CODECS[KEYS[key]]
        try:
            out[key] = parse(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None
    return out


def build_scenario(entries: dict) -> Scenario:
    """Build a Scenario from typed config entries (``form`` may also be
    given by its value).

    Missing required keys and out-of-range values raise ``ConfigError``
    naming the offending field; the keys of analyses other than the one
    named are ignored.  Seeds default to (1, 1), the form to canonical
    and the analysis to a bounded 100-step orbit.
    """
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")
    kind = entries.get("analysis", "orbit")
    try:
        supplier = SupplierBehavior(m=entries.get("m", 1.0))
        market = MarketParams(a=entries["a"], b=entries["b"])
        cost = CostPricing(fc=entries["fc"], v=entries["v"], margin=entries["margin"])
        if kind not in _ANALYSIS_KEYS:
            raise ConfigError(
                f"analysis: expected orbit, bifurcation, lyapunov or ped, got {kind!r}"
            )
        for key in _ANALYSIS_KEYS[kind]:
            if key not in entries:
                raise ConfigError(f"missing required key {key!r} for {kind} analysis")
        if kind == "orbit":
            analysis: AnalysisSpec = OrbitSpec(entries.get("steps", 100),
                                               entries.get("bounded", True))
        elif kind == "ped":
            analysis = PedSpec(entries["p1"], entries["p2"])
        else:
            transient = entries.get("transient", ScanConfig.transient)
            keep = entries.get("keep", ScanConfig.keep)
            cfg = ScanConfig(entries["param"], entries["min"], entries["max"], entries["points"],
                             transient, keep, entries.get("iters", transient + keep))
            analysis = BifurcationSpec(cfg) if kind == "bifurcation" else LyapunovSpec(cfg)
        return Scenario(
            entries["name"], supplier, market, cost, analysis,
            seed_demand=entries.get("seed_d", 1.0), seed_supply=entries.get("seed_s", 1.0),
            form=MapForm(entries.get("form", MapForm.CANONICAL)), figure=entries.get("figure"),
        )
    except ValueError as exc:  # a ConfigError keeps its text
        raise ConfigError(str(exc)) from None


def load_scenario(text: str) -> Scenario:
    """Parse a flat key = value config document into a Scenario.

    Unknown, duplicate and mistyped keys raise ``ConfigError``; the
    entries then go through ``build_scenario``.
    """
    return build_scenario(_typed(_parse_document(text)))
