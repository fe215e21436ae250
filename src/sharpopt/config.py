"""INI-style experiment configuration.

A run document has an [objective] section (required), and optional
[optimizer], [run], and [sweep] sections. Unknown sections or keys are
rejected so a typo cannot silently fall back to a default. Defaults
reproduce the two-minima trajectory demo: SGDM(0.9) base, alpha 5, rho 2,
150 steps from (-6, 10).
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

from .base_optimizers import SGDM, BaseOptConfig
from .core import CONSTANT, Schedule
from .sam import COUPLED, SAM, SamConfig


class ConfigError(ValueError):
    pass


FORMATS = ("csv", "jsonl")
TOY_INIT = (-6.0, 10.0)


@dataclass(frozen=True)
class ObjectiveSpec:
    """One kind's objective; a field left None takes the kind's default from READS."""

    # kind -> the fields it reads, with their defaults; setting any other field is an error
    READS: ClassVar[dict[str, dict]] = {
        "toy": {},
        "quadratic": {"a": (2.0, 1.0), "centers": ((1.0, -1.0),)},
        "logistic": {"csv_path": None, "num_examples": 64, "dim": 6, "noise_fraction": 0.0},
    }

    kind: str = "toy"
    a: tuple[float, ...] | None = None
    centers: tuple[tuple[float, ...], ...] | None = None
    csv_path: str | None = None
    num_examples: int | None = None
    dim: int | None = None
    noise_fraction: float | None = None

    def __post_init__(self):
        names = {f.name: f.name for f in fields(self) if getattr(self, f.name) is not None}
        for name, default in self._check_reads(self.kind, names).items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.kind == "quadratic" and any(len(c) != len(self.a) for c in self.centers):
            raise ConfigError("each centers row must match the length of a")
        if self.kind == "logistic":
            if not 0.0 <= self.noise_fraction < 1.0:
                raise ConfigError("noise_fraction must be in [0,1)")
            if self.num_examples < 1 or self.dim < 1:
                raise ConfigError("num_examples and dim must be >= 1")

    @classmethod
    def _check_reads(cls, kind: str, names: dict[str, str]) -> dict:
        """The kind's READS entry; raises unless kind reads every field of names.

        names maps each field set to the name an error calls it by.
        """
        if kind not in cls.READS:
            raise ConfigError(f"objective kind must be one of {tuple(cls.READS)}, got {kind!r}")
        for field, name in names.items():
            if field != "kind" and field not in cls.READS[kind]:
                raise ConfigError(f"key '{name}' does not apply to the {kind} objective")
        return cls.READS[kind]


def _schedule(name: str, kind: str, base: float) -> Schedule:
    """A Schedule whose range errors name the setting they came from."""
    try:
        return Schedule(kind, base)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """One run; construction checks every field's range, then init's length for the objective."""

    objective: ObjectiveSpec = ObjectiveSpec()
    mode: str = SAM
    base_kind: str = SGDM
    alpha: float = 5.0
    alpha_schedule: str = CONSTANT
    rho: float = 2.0
    rho_schedule: str = CONSTANT
    gamma: float = 0.5
    momentum_coeff: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    sam_eps: float = 1e-12
    adaptive: bool = False
    clip_norm: float | None = None
    batch_size: int | None = None
    steps: int = 150
    seed: int = 0
    init: tuple[float, ...] | None = None  # None -> init_scale * seeded standard normal
    init_scale: float = 1.0
    record_every: int = 1
    out: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.init_scale > 0.0:
            raise ConfigError("init_scale must be > 0")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.out_format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.out_format!r}")
        # the optimizer's own range rules live in the configs it is built into
        try:
            self.sam_config()
            self.base_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.init is not None:
            dim = objective_dim(self.objective)
            if len(self.init) != dim:
                raise ConfigError(f"init must have {dim} entries for this objective")

    def sam_config(self) -> SamConfig:
        return SamConfig(
            alpha_schedule=_schedule("alpha", self.alpha_schedule, self.alpha),
            mode=self.mode, rho=self.rho,
            rho_schedule=_schedule("rho", self.rho_schedule, self.rho),
            gamma=self.gamma, sam_eps=self.sam_eps, adaptive=self.adaptive,
            clip_norm=self.clip_norm,
        )

    def base_config(self) -> BaseOptConfig:
        return BaseOptConfig(
            kind=self.base_kind, momentum_coeff=self.momentum_coeff,
            beta1=self.beta1, beta2=self.beta2, eps_adam=self.eps_adam,
        )


@dataclass(frozen=True)
class SweepSpec:
    """A grid over gamma, rho, alpha and seed; an empty grid keeps the run's value.

    Construction checks the cell cap, then each value, in grid order, with
    RunConfig's rule for its field, which reads no other field of the run.
    """

    gammas: tuple[float, ...] = ()
    rhos: tuple[float, ...] = ()
    alphas: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()
    max_cells: int = 10_000
    eig: bool = False

    def __post_init__(self):
        if self.max_cells < 1:
            raise ConfigError("max_cells must be >= 1")
        n_cells = math.prod(max(1, len(values)) for values in self.grids.values())
        if n_cells > self.max_cells:
            raise ConfigError(f"sweep has {n_cells} cells, above the cap {self.max_cells}")
        base = RunConfig()
        for field, values in self.grids.items():
            for value in values:
                replace(base, **{field: value})

    @property
    def grids(self) -> dict[str, tuple]:
        """RunConfig field -> the values the sweep gives it."""
        return {"gamma": self.gammas, "rho": self.rhos, "alpha": self.alphas, "seed": self.seeds}


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} in [{section}] must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} in [{section}] must be finite, got {raw!r}")
    return value


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} in [{section}] must be an integer, got {raw!r}") from None


def _bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} in [{section}] must be a boolean, got {raw!r}")


def _list(parse):
    """A parser of a nonempty comma-separated list whose entries parse reads."""
    def parse_list(section: str, key: str, raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key} in [{section}] must be a comma-separated list")
        return tuple(parse(section, key, p) for p in parts)
    return parse_list


def _text(section: str, key: str, raw: str) -> str:
    return raw.strip()


def _or_none(parse):
    """An empty value leaves the field unset (None)."""
    return lambda section, key, raw: parse(section, key, raw) if raw.strip() else None


def _init(section: str, key: str, raw: str) -> tuple[float, ...] | None:
    raw = raw.strip()
    return None if raw in ("", "random") else _list(_float)(section, key, raw)


def _rows(section: str, key: str, raw: str) -> tuple[tuple[float, ...], ...]:
    """Rows separated by '|', each a comma-separated list of numbers."""
    rows = [r.strip() for r in raw.split("|") if r.strip()]
    return tuple(_list(_float)(section, key, r) for r in rows)


# (section, INI key) -> (field, parser of the raw value); [objective] keys
# fill ObjectiveSpec, [optimizer] and [run] keys RunConfig, [sweep] keys SweepSpec
_FIELDS = {
    ("objective", "kind"): ("kind", _text),
    ("objective", "a"): ("a", _list(_float)),
    ("objective", "centers"): ("centers", _rows),
    ("objective", "csv"): ("csv_path", _text),
    ("objective", "num_examples"): ("num_examples", _int),
    ("objective", "dim"): ("dim", _int),
    ("objective", "noise_fraction"): ("noise_fraction", _float),
    ("optimizer", "mode"): ("mode", _text),
    ("optimizer", "base"): ("base_kind", _text),
    ("optimizer", "alpha"): ("alpha", _float),
    ("optimizer", "alpha_schedule"): ("alpha_schedule", _text),
    ("optimizer", "rho"): ("rho", _float),
    ("optimizer", "rho_schedule"): ("rho_schedule", _text),
    ("optimizer", "gamma"): ("gamma", _float),
    ("optimizer", "momentum"): ("momentum_coeff", _float),
    ("optimizer", "beta1"): ("beta1", _float),
    ("optimizer", "beta2"): ("beta2", _float),
    ("optimizer", "eps_adam"): ("eps_adam", _float),
    ("optimizer", "sam_eps"): ("sam_eps", _float),
    ("optimizer", "adaptive"): ("adaptive", _bool),
    ("optimizer", "clip_norm"): ("clip_norm", _or_none(_float)),
    ("optimizer", "batch_size"): ("batch_size", _or_none(_int)),
    ("run", "steps"): ("steps", _int),
    ("run", "seed"): ("seed", _int),
    ("run", "init"): ("init", _init),
    ("run", "init_scale"): ("init_scale", _float),
    ("run", "record_every"): ("record_every", _int),
    ("run", "out"): ("out", _or_none(_text)),
    ("run", "format"): ("out_format", _text),
    ("sweep", "gamma"): ("gammas", _list(_float)),
    ("sweep", "rho"): ("rhos", _list(_float)),
    ("sweep", "alpha"): ("alphas", _list(_float)),
    ("sweep", "seed"): ("seeds", _list(_int)),
    ("sweep", "max_cells"): ("max_cells", _int),
    ("sweep", "eig"): ("eig", _bool),
}

_KNOWN = {section: {k for s, k in _FIELDS if s == section} for section, _ in _FIELDS}


def _read_document(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    if not parser.has_section("objective"):
        raise ConfigError("missing [objective] section")
    return parser


def _values(parser: configparser.ConfigParser, section: str) -> dict:
    """The fields a section sets, each parsed from its raw value."""
    return {
        field: parse(section, key, parser[section][key])
        for (s, key), (field, parse) in _FIELDS.items()
        if s == section and parser.has_option(section, key)
    }


def parse_config(text: str) -> RunConfig:
    """Validate a config document into a RunConfig; raises ConfigError."""
    return _run_config(_read_document(text))


def _run_config(parser: configparser.ConfigParser) -> RunConfig:
    """The RunConfig of a read document; raises ConfigError."""
    # the kind, then which keys it reads, are checked before any value is parsed
    sec = parser["objective"]
    kind = sec.get("kind", ObjectiveSpec.kind).strip()
    ObjectiveSpec._check_reads(kind, {_FIELDS["objective", key][0]: key for key in sec})
    objective = ObjectiveSpec(**_values(parser, "objective"))
    values = _values(parser, "optimizer") | _values(parser, "run")
    # the toy demo starts from its canonical point unless 'random' was asked for
    random_init = parser.get("run", "init", fallback="").strip() == "random"
    if objective.kind == "toy" and values.get("init") is None and not random_init:
        values["init"] = TOY_INIT
    return RunConfig(objective=objective, **values)


def parse_sweep_config(text: str) -> tuple[RunConfig, SweepSpec]:
    """Parse a document that also carries a [sweep] section."""
    parser = _read_document(text)
    cfg = _run_config(parser)
    if not parser.has_section("sweep"):
        raise ConfigError("missing [sweep] section")
    return cfg, SweepSpec(**_values(parser, "sweep"))


def objective_dim(spec: ObjectiveSpec) -> int:
    if spec.kind == "toy":
        return 2
    if spec.kind == "quadratic":
        return len(spec.a)
    if spec.csv_path is not None:
        raise ConfigError("init must be omitted or 'random' for CSV-backed logistic runs")
    return spec.dim


def toy_preset(gamma: float, mode: str = COUPLED, steps: int = 150, seed: int = 0) -> RunConfig:
    """The two-minima trajectory recipe behind `toy`: RunConfig's defaults plus these.

    The gamma-weighted runs default to the coupled variant: with the demo's
    step size it is the one whose trajectory actually switches basins as
    gamma grows (the decoupled correction, lacking momentum amplification,
    settles in the sharp basin for every gamma at these settings).
    """
    return RunConfig(mode=mode, gamma=gamma, steps=steps, seed=seed, init=TOY_INIT)
