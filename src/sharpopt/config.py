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
from dataclasses import dataclass, replace

from .base_optimizers import BASE_KINDS, SGDM
from .core import CONSTANT, INVERSE_SQRT
from .sam import COUPLED, MODES, SAM


class ConfigError(ValueError):
    pass


OBJECTIVE_KINDS = ("toy", "quadratic", "logistic")
FORMATS = ("csv", "jsonl")
SCHEDULE_KINDS = (CONSTANT, INVERSE_SQRT)

TOY_INIT = (-6.0, 10.0)


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "toy"
    # quadratic
    a: tuple[float, ...] = (2.0, 1.0)
    centers: tuple[tuple[float, ...], ...] = ((1.0, -1.0),)
    # logistic
    csv_path: str | None = None
    num_examples: int = 64
    dim: int = 6
    noise_fraction: float = 0.0


@dataclass(frozen=True)
class RunConfig:
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
    init: tuple[float, ...] | None = None  # None -> seeded random (toy: (-6, 10))
    init_scale: float = 1.0
    record_every: int = 1
    out: str | None = None
    out_format: str = "csv"


@dataclass(frozen=True)
class SweepSpec:
    gammas: tuple[float, ...] = ()
    rhos: tuple[float, ...] = ()
    alphas: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()
    max_cells: int = 10_000
    eig: bool = False


_KNOWN = {
    "objective": {"kind", "a", "centers", "csv", "num_examples", "dim", "noise_fraction"},
    "optimizer": {
        "mode", "base", "alpha", "alpha_schedule", "rho", "rho_schedule", "gamma",
        "momentum", "beta1", "beta2", "eps_adam", "sam_eps", "adaptive", "clip_norm",
        "batch_size",
    },
    "run": {"steps", "seed", "init", "init_scale", "record_every", "out", "format"},
    "sweep": {"gamma", "rho", "alpha", "seed", "max_cells", "eig"},
}


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


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} in [{section}] must be a comma-separated list")
    return tuple(_float(section, key, p) for p in parts)


def _int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} in [{section}] must be a comma-separated list")
    return tuple(_int(section, key, p) for p in parts)


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


def _parse_objective(sec) -> ObjectiveSpec:
    kind = sec.get("kind", "toy").strip()
    if kind not in OBJECTIVE_KINDS:
        raise ConfigError(f"objective kind must be one of {OBJECTIVE_KINDS}, got {kind!r}")
    spec = ObjectiveSpec(kind=kind)
    if kind == "quadratic":
        if "a" in sec:
            spec = replace(spec, a=_float_list("objective", "a", sec["a"]))
        if "centers" in sec:
            rows = [r.strip() for r in sec["centers"].split("|") if r.strip()]
            centers = tuple(_float_list("objective", "centers", r) for r in rows)
            if any(len(c) != len(spec.a) for c in centers):
                raise ConfigError("each centers row must match the length of a")
            spec = replace(spec, centers=centers)
    elif kind == "logistic":
        spec = replace(
            spec,
            csv_path=sec.get("csv", None),
            num_examples=_int("objective", "num_examples", sec.get("num_examples", "64")),
            dim=_int("objective", "dim", sec.get("dim", "6")),
            noise_fraction=_float("objective", "noise_fraction", sec.get("noise_fraction", "0")),
        )
        if not 0.0 <= spec.noise_fraction < 1.0:
            raise ConfigError("noise_fraction must be in [0,1)")
        if spec.num_examples < 1 or spec.dim < 1:
            raise ConfigError("num_examples and dim must be >= 1")
    else:
        for key in ("a", "centers", "csv", "num_examples", "dim", "noise_fraction"):
            if key in sec:
                raise ConfigError(f"key '{key}' does not apply to the toy objective")
    return spec


def parse_config(text: str) -> RunConfig:
    """Validate a config document into a RunConfig; raises ConfigError."""
    parser = _read_document(text)
    objective = _parse_objective(parser["objective"])
    cfg = RunConfig(objective=objective)
    explicit_random_init = False

    if parser.has_section("optimizer"):
        sec = parser["optimizer"]
        mode = sec.get("mode", cfg.mode).strip()
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        base = sec.get("base", cfg.base_kind).strip()
        if base not in BASE_KINDS:
            raise ConfigError(f"base must be one of {BASE_KINDS}, got {base!r}")
        alpha_schedule = sec.get("alpha_schedule", cfg.alpha_schedule).strip()
        rho_schedule = sec.get("rho_schedule", cfg.rho_schedule).strip()
        for name, val in (("alpha_schedule", alpha_schedule), ("rho_schedule", rho_schedule)):
            if val not in SCHEDULE_KINDS:
                raise ConfigError(f"{name} must be one of {SCHEDULE_KINDS}, got {val!r}")
        gamma = _float("optimizer", "gamma", sec.get("gamma", str(cfg.gamma)))
        if not 0.0 <= gamma < 1.0:
            raise ConfigError("gamma must be in [0,1)")
        alpha = _float("optimizer", "alpha", sec.get("alpha", str(cfg.alpha)))
        if not alpha >= 0.0:
            raise ConfigError("alpha must be >= 0")
        rho = _float("optimizer", "rho", sec.get("rho", str(cfg.rho)))
        if not rho >= 0.0:
            raise ConfigError("rho must be >= 0")
        momentum = _float("optimizer", "momentum", sec.get("momentum", str(cfg.momentum_coeff)))
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must be in [0,1)")
        beta1 = _float("optimizer", "beta1", sec.get("beta1", str(cfg.beta1)))
        beta2 = _float("optimizer", "beta2", sec.get("beta2", str(cfg.beta2)))
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError("beta1 and beta2 must be in [0,1)")
        eps_adam = _float("optimizer", "eps_adam", sec.get("eps_adam", str(cfg.eps_adam)))
        sam_eps = _float("optimizer", "sam_eps", sec.get("sam_eps", str(cfg.sam_eps)))
        if eps_adam <= 0.0 or sam_eps <= 0.0:
            raise ConfigError("eps_adam and sam_eps must be > 0")
        adaptive = _bool("optimizer", "adaptive", sec.get("adaptive", "false"))
        clip_norm = None
        if sec.get("clip_norm", "").strip():
            clip_norm = _float("optimizer", "clip_norm", sec["clip_norm"])
            if clip_norm <= 0.0:
                raise ConfigError("clip_norm must be > 0 when set")
        batch_size = None
        if sec.get("batch_size", "").strip():
            batch_size = _int("optimizer", "batch_size", sec["batch_size"])
            if batch_size < 1:
                raise ConfigError("batch_size must be >= 1")
        cfg = replace(
            cfg, mode=mode, base_kind=base, alpha=alpha, alpha_schedule=alpha_schedule,
            rho=rho, rho_schedule=rho_schedule, gamma=gamma, momentum_coeff=momentum,
            beta1=beta1, beta2=beta2, eps_adam=eps_adam, sam_eps=sam_eps,
            adaptive=adaptive, clip_norm=clip_norm, batch_size=batch_size,
        )

    if parser.has_section("run"):
        sec = parser["run"]
        steps = _int("run", "steps", sec.get("steps", str(cfg.steps)))
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        seed = _int("run", "seed", sec.get("seed", str(cfg.seed)))
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        record_every = _int("run", "record_every", sec.get("record_every", "1"))
        if record_every < 1:
            raise ConfigError("record_every must be >= 1")
        init = None
        raw_init = sec.get("init", "").strip()
        if raw_init == "random":
            explicit_random_init = True
        elif raw_init:
            init = _float_list("run", "init", raw_init)
        init_scale = _float("run", "init_scale", sec.get("init_scale", "1.0"))
        if init_scale <= 0.0:
            raise ConfigError("init_scale must be > 0")
        out = sec.get("out", "").strip() or None
        out_format = sec.get("format", cfg.out_format).strip()
        if out_format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {out_format!r}")
        cfg = replace(
            cfg, steps=steps, seed=seed, init=init, init_scale=init_scale,
            record_every=record_every, out=out, out_format=out_format,
        )

    # the toy demo starts from its canonical point unless 'random' was asked for
    if cfg.init is None and not explicit_random_init and cfg.objective.kind == "toy":
        cfg = replace(cfg, init=TOY_INIT)
    if cfg.init is not None:
        dim = objective_dim(cfg.objective)
        if len(cfg.init) != dim:
            raise ConfigError(f"init must have {dim} entries for this objective")
    return cfg


def parse_sweep_config(text: str) -> tuple[RunConfig, SweepSpec]:
    """Parse a document that also carries a [sweep] section."""
    cfg = parse_config(text)
    parser = _read_document(text)
    if not parser.has_section("sweep"):
        raise ConfigError("missing [sweep] section")
    sec = parser["sweep"]
    spec = SweepSpec(
        gammas=_float_list("sweep", "gamma", sec["gamma"]) if "gamma" in sec else (),
        rhos=_float_list("sweep", "rho", sec["rho"]) if "rho" in sec else (),
        alphas=_float_list("sweep", "alpha", sec["alpha"]) if "alpha" in sec else (),
        seeds=tuple(_int_list("sweep", "seed", sec["seed"])) if "seed" in sec else (),
        max_cells=_int("sweep", "max_cells", sec.get("max_cells", "10000")),
        eig=_bool("sweep", "eig", sec.get("eig", "false")),
    )
    if spec.max_cells < 1:
        raise ConfigError("max_cells must be >= 1")
    for g in spec.gammas:
        if not 0.0 <= g < 1.0:
            raise ConfigError("gamma must be in [0,1)")
    for r in spec.rhos:
        if r < 0.0:
            raise ConfigError("rho must be >= 0")
    for a in spec.alphas:
        if a < 0.0:
            raise ConfigError("alpha must be >= 0")
    for s in spec.seeds:
        if s < 0:
            raise ConfigError("seed must be >= 0")
    n_cells = (
        max(1, len(spec.gammas)) * max(1, len(spec.rhos))
        * max(1, len(spec.alphas)) * max(1, len(spec.seeds))
    )
    if n_cells > spec.max_cells:
        raise ConfigError(f"sweep has {n_cells} cells, above the cap {spec.max_cells}")
    return cfg, spec


def objective_dim(spec: ObjectiveSpec) -> int:
    if spec.kind == "toy":
        return 2
    if spec.kind == "quadratic":
        return len(spec.a)
    if spec.csv_path is not None:
        raise ConfigError("init must be omitted or 'random' for CSV-backed logistic runs")
    return spec.dim


def toy_preset(gamma: float, mode: str = COUPLED, steps: int = 150, seed: int = 0) -> RunConfig:
    """The two-minima trajectory recipe behind the `toy` subcommand.

    The gamma-weighted runs default to the coupled variant: with the demo's
    step size it is the one whose trajectory actually switches basins as
    gamma grows (the decoupled correction, lacking momentum amplification,
    settles in the sharp basin for every gamma at these settings).
    """
    if not 0.0 <= gamma < 1.0:
        raise ConfigError("gamma must be in [0,1)")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    return RunConfig(
        objective=ObjectiveSpec(kind="toy"),
        mode=mode,
        base_kind=SGDM,
        alpha=5.0,
        rho=2.0,
        gamma=gamma,
        momentum_coeff=0.9,
        steps=steps,
        seed=seed,
        init=TOY_INIT,
    )
