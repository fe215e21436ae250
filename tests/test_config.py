import pytest

from sharpopt.cli import main
from sharpopt.config import (
    ConfigError,
    ObjectiveSpec,
    RunConfig,
    SweepSpec,
    objective_dim,
    parse_config,
    parse_sweep_config,
    toy_preset,
)

MINIMAL = "[objective]\nkind = toy\n"


def test_minimal_document_gets_the_demo_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.objective.kind == "toy"
    assert cfg.mode == "sam"
    assert cfg.base_kind == "sgdm"
    assert (cfg.alpha, cfg.rho, cfg.gamma) == (5.0, 2.0, 0.5)
    assert cfg.momentum_coeff == 0.9
    assert cfg.steps == 150
    assert cfg.init == (-6.0, 10.0)
    assert cfg.clip_norm is None and cfg.batch_size is None


def test_full_document_round_trip():
    text = """
[objective]
kind = quadratic
a = 2.0, 1.0
centers = 1.0, -1.0 | 0.0, 0.0

[optimizer]
mode = wsam
base = adam
alpha = 0.05
alpha_schedule = inverse-sqrt
rho = 0.3
gamma = 0.88
beta1 = 0.8
eps_adam = 1e-9
adaptive = yes
clip_norm = 2.5
batch_size = 2

[run]
steps = 40
seed = 9
init = 0.5, 0.5
record_every = 5
format = jsonl
"""
    cfg = parse_config(text)
    assert cfg.objective.a == (2.0, 1.0)
    assert cfg.objective.centers == ((1.0, -1.0), (0.0, 0.0))
    assert cfg.mode == "wsam" and cfg.base_kind == "adam"
    assert cfg.alpha_schedule == "inverse-sqrt"
    assert cfg.gamma == 0.88 and cfg.beta1 == 0.8 and cfg.eps_adam == 1e-9
    assert cfg.adaptive is True
    assert cfg.clip_norm == 2.5 and cfg.batch_size == 2
    assert cfg.steps == 40 and cfg.seed == 9
    assert cfg.init == (0.5, 0.5)
    assert cfg.record_every == 5 and cfg.out_format == "jsonl"


def test_round_trip_of_the_remaining_optimizer_and_run_keys():
    text = MINIMAL + """
[optimizer]
rho_schedule = inverse-sqrt
momentum = 0.5
beta2 = 0.99
sam_eps = 1e-6

[run]
init_scale = 0.25
out = traj.csv
"""
    cfg = parse_config(text)
    assert cfg.rho_schedule == "inverse-sqrt"
    assert cfg.momentum_coeff == 0.5 and cfg.beta2 == 0.99 and cfg.sam_eps == 1e-6
    assert cfg.init_scale == 0.25 and cfg.out == "traj.csv"


@pytest.mark.parametrize(
    "text",
    [
        "",  # no [objective]
        "[mystery]\nx = 1\n",
        "[objective]\nkind = cubic\n",
        "[objective]\nkind = toy\nwhat = 3\n",
        MINIMAL + "[optimizer]\ngamma = 1.0\n",
        MINIMAL + "[optimizer]\ngamma = -0.1\n",
        MINIMAL + "[optimizer]\nalpha = -2\n",
        MINIMAL + "[optimizer]\nalpha = fast\n",
        MINIMAL + "[optimizer]\nmode = nesterov\n",
        MINIMAL + "[optimizer]\nbase = lion\n",
        MINIMAL + "[optimizer]\nalpha_schedule = cosine\n",
        MINIMAL + "[optimizer]\nclip_norm = 0\n",
        MINIMAL + "[run]\nsteps = 0\n",
        MINIMAL + "[run]\nseed = -1\n",
        MINIMAL + "[run]\nrecord_every = 0\n",
        MINIMAL + "[run]\nformat = parquet\n",
        MINIMAL + "[run]\ninit = 1.0\n",  # wrong arity for a 2-d objective
        "[objective]\nkind = toy\na = 1.0\n",  # quadratic key on the toy kind
        "[objective]\nkind = quadratic\na = 1.0, 2.0\ncenters = 0.0\n",
        "[objective]\nkind = logistic\nnoise_fraction = 1.5\n",
    ],
)
def test_bad_documents_raise_config_errors(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_init_keyword_random_defers_to_the_seed():
    cfg = parse_config(MINIMAL + "[run]\ninit = random\n")
    assert cfg.init is None


def test_sweep_document():
    text = MINIMAL + "[sweep]\ngamma = 0.1, 0.2\nrho = 0.5\nseed = 0, 1, 2\neig = true\n"
    cfg, spec = parse_sweep_config(text)
    assert spec.gammas == (0.1, 0.2)
    assert spec.rhos == (0.5,)
    assert spec.seeds == (0, 1, 2)
    assert spec.eig is True
    assert cfg.objective.kind == "toy"


def test_sweep_requires_its_section_and_respects_the_cap():
    with pytest.raises(ConfigError):
        parse_sweep_config(MINIMAL)
    text = MINIMAL + "[sweep]\ngamma = 0.1, 0.2, 0.3\nmax_cells = 2\n"
    with pytest.raises(ConfigError):
        parse_sweep_config(text)
    with pytest.raises(ConfigError):
        parse_sweep_config(MINIMAL + "[sweep]\ngamma = 1.5\n")


@pytest.mark.parametrize("line", ["rho = 0.5, -1", "alpha = -0.1", "seed = 0, -2"])
def test_out_of_range_sweep_values_raise_config_errors(line):
    with pytest.raises(ConfigError):
        parse_sweep_config(MINIMAL + f"[sweep]\n{line}\n")


@pytest.mark.parametrize("field,value", [
    ("steps", 0), ("momentum_coeff", 1.0), ("out_format", "yaml"),
])
def test_run_config_checks_its_ranges_when_constructed(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})


def test_objective_dim():
    assert objective_dim(parse_config(MINIMAL).objective) == 2
    quad = "[objective]\nkind = quadratic\na = 1.0, 2.0, 3.0\ncenters = 0, 0, 0\n"
    assert objective_dim(parse_config(quad).objective) == 3
    logi = "[objective]\nkind = logistic\ndim = 7\n"
    assert objective_dim(parse_config(logi).objective) == 7


def test_csv_backed_logistic_rejects_explicit_init():
    text = "[objective]\nkind = logistic\ncsv = /nonexistent.csv\n[run]\ninit = 1, 2\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_toy_preset_fields():
    cfg = toy_preset(gamma=0.95)
    assert cfg.mode == "coupled"
    assert cfg.base_kind == "sgdm" and cfg.momentum_coeff == 0.9
    assert (cfg.alpha, cfg.rho, cfg.steps) == (5.0, 2.0, 150)
    assert cfg.init == (-6.0, 10.0)
    assert toy_preset(gamma=0.6, mode="wsam").mode == "wsam"
    with pytest.raises(ConfigError):
        toy_preset(gamma=1.0)
    with pytest.raises(ConfigError):
        toy_preset(gamma=0.5, steps=0)


def test_sweep_spec_defaults_are_empty_grids():
    spec = SweepSpec()
    assert spec.gammas == () and spec.eig is False


@pytest.mark.parametrize("fields", [
    {"kind": "logistic", "noise_fraction": 1.5},
    {"kind": "logistic", "noise_fraction": -0.1},
    {"kind": "logistic", "num_examples": 0},
    {"kind": "logistic", "dim": 0},
    {"kind": "quadratic", "a": (1.0, 2.0), "centers": ((0.0,),)},
    {"kind": "cubic"},
])
def test_objective_spec_checks_its_ranges_when_constructed(fields):
    from sharpopt.config import ObjectiveSpec

    with pytest.raises(ConfigError):
        RunConfig(objective=ObjectiveSpec(**fields))


@pytest.mark.parametrize("kind,line", [
    ("quadratic", "dim = 3"),
    ("quadratic", "csv = data.csv"),
    ("logistic", "a = 1, 2"),
    ("logistic", "centers = 0, 0"),
    ("toy", "a = 1"),
])
def test_an_objective_key_of_another_kind_is_rejected(kind, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"key '{key}' does not apply to the {kind} objective"):
        parse_config(f"[objective]\nkind = {kind}\n{line}\n")


def test_an_objective_key_of_another_kind_exits_one_at_the_cli(tmp_path, capfd):
    from sharpopt.cli import main

    path = tmp_path / "cfg.ini"
    path.write_text("[objective]\nkind = quadratic\ndim = 3\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert "does not apply to the quadratic objective" in capfd.readouterr().err


def test_objective_spec_rejects_a_field_its_kind_does_not_read():
    with pytest.raises(ConfigError, match="key 'dim' does not apply to the quadratic objective"):
        ObjectiveSpec(kind="quadratic", dim=3)
    with pytest.raises(ConfigError, match="key 'a' does not apply to the toy objective"):
        ObjectiveSpec(kind="toy", a=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="key 'csv_path' does not apply to the toy objective"):
        ObjectiveSpec(csv_path="data.csv")


def test_objective_spec_fills_only_the_defaults_of_its_kind():
    quad = ObjectiveSpec(kind="quadratic")
    assert quad == ObjectiveSpec(kind="quadratic", a=(2.0, 1.0), centers=((1.0, -1.0),))
    assert quad.dim is None and quad.num_examples is None
    logi = ObjectiveSpec(kind="logistic", dim=3)
    assert (logi.num_examples, logi.dim, logi.noise_fraction) == (64, 3, 0.0)
    assert logi.csv_path is None and logi.a is None and logi.centers is None
    assert ObjectiveSpec().a is None and ObjectiveSpec().dim is None
    # a quadratic with no centres, as an objective built by hand and passed to run
    assert ObjectiveSpec(kind="quadratic", a=(1.0, 2.0), centers=()).centers == ()


@pytest.mark.parametrize("body,message", [
    ("kind = toy\na = abc\n", "key 'a' does not apply to the toy objective"),
    ("kind = cubic\na = abc\n", "objective kind must be one of"),
    ("kind = logistic\ndim = abc\nnoise_fraction = 2\n", r"dim in \[objective\] must be an integer"),
])
def test_an_objective_section_reports_its_kind_then_a_foreign_key_then_a_value(body, message):
    with pytest.raises(ConfigError, match=message):
        parse_config("[objective]\n" + body)


def test_sweep_spec_checks_max_cells_and_the_cell_cap_when_constructed():
    with pytest.raises(ConfigError, match="max_cells must be >= 1"):
        SweepSpec(max_cells=0)
    with pytest.raises(ConfigError, match="sweep has 3 cells, above the cap 2"):
        SweepSpec(gammas=(0.1, 0.2, 0.3), max_cells=2)
    spec = SweepSpec(gammas=(0.1, 0.2), seeds=(0, 1), max_cells=4)
    assert spec.grids == {"gamma": (0.1, 0.2), "rho": (), "alpha": (), "seed": (0, 1)}


def test_a_grid_reports_its_first_bad_value_in_code_as_at_the_cli(tmp_path, capfd):
    with pytest.raises(ConfigError, match=r"^gamma must be in \[0,1\)$"):
        SweepSpec(gammas=(1.5,), seeds=(-1,))
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "[sweep]\ngamma = 1.5\nseed = -1\n")
    assert main(["sweep", "--config", str(path)]) == 1
    assert capfd.readouterr().err == "sharpopt: gamma must be in [0,1)\n"


def test_run_config_checks_the_length_of_init_as_the_reader_does():
    quadratic = ObjectiveSpec(kind="quadratic", a=(1.0, 2.0), centers=((0.0, 0.0),))
    message = r"^init must have 2 entries for this objective$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(objective=quadratic, init=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match=message):
        parse_config("[objective]\nkind = quadratic\na = 1, 2\ncenters = 0, 0\n"
                     "[run]\ninit = 1, 2, 3\n")
    with pytest.raises(ConfigError, match="CSV-backed"):
        RunConfig(objective=ObjectiveSpec(kind="logistic", csv_path="data.csv"), init=(1.0,))
