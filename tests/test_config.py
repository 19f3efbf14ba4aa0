"""INI configuration: the loader and reference text follow the dataclasses."""
import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

import returncast.cli as cli
from returncast.config import DEFAULT_CONFIG_TEXT, AppConfig, _keys, load_config
from returncast.errors import NumericError, ValidationError
from returncast.pipeline import run_cycle
from returncast.report import render_report, validate_report
from returncast.synth import ScenarioSpec, generate

from helpers import month


def _load(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return load_config(path)


def test_no_file_gives_the_defaults():
    assert load_config(None) == AppConfig()


def test_reference_text_parses_to_the_defaults(tmp_path):
    assert _load(tmp_path, DEFAULT_CONFIG_TEXT) == AppConfig()


def test_reference_text_lists_every_field():
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG_TEXT)
    config = AppConfig()
    assert parser.sections() == [f.name for f in fields(config)]
    for f in fields(config):
        expected = [g.name for g in fields(getattr(config, f.name))]
        assert list(parser[f.name]) == expected, f.name


def test_reference_text_matches_the_committed_file():
    # the keys, their order and every default as a deployment reads them
    committed = Path(__file__).parent / "fixtures" / "default_config.ini"
    assert committed.read_bytes() == DEFAULT_CONFIG_TEXT.encode()


def test_every_config_key_has_a_reader():
    package = Path(__file__).parents[1] / "src" / "returncast"
    code = "\n".join(
        path.read_text() for path in sorted(package.rglob("*.py")) if path.name != "config.py"
    )
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG_TEXT)
    # `ModelsConfig.cart_min_leaf` reads the default; a reader goes through an instance
    classes = {type(getattr(AppConfig(), f.name)).__name__ for f in fields(AppConfig)}
    unread = {
        (section, key)
        for section in parser.sections()
        for key in parser[section]
        if all(m[1] in classes for m in re.finditer(rf"(\w*)\.{key}\b", code))
    }
    assert unread == set()


def test_non_default_values_of_each_type_round_trip(tmp_path):
    config = _load(
        tmp_path,
        "[prep]\nlags = 12, 18\n"
        "[analysis]\nstrong_at = 0.3\nramp_up_months = 9\n"
        "[models]\nseed = 3\nz_multiplier = 1.5\ninclude_phasewise = yes\n"
        "[adjust]\napply_seasonal = false\n",
    )
    assert config.prep.lags == (12, 18)
    assert (config.analysis.medium_at, config.analysis.strong_at) == (0.15, 0.3)
    assert config.analysis.ramp_up_months == 9
    assert (config.models.seed, config.models.z_multiplier) == (3, 1.5)
    assert config.models.include_phasewise is True
    assert config.adjust.apply_seasonal is False
    # every key not named keeps its default
    assert config.models.nn_epochs == AppConfig().models.nn_epochs
    assert config.pipeline == AppConfig().pipeline


def test_every_ranged_key_is_documented_with_its_default():
    """Each key with an `accepts` range has a row in a README range table,
    whose Default cell is what the reference text prints for it."""
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG_TEXT)
    documented = {}
    in_table = False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        in_table = line.startswith("|") and (in_table or line == "| Key | Default | Accepted |")
        if not in_table:
            continue
        cells = [cell.strip() for cell in line.split("|")]
        # a key is named with or without its `[section] `; names are unique
        names = re.findall(r"`(?:\[\w+\] )?(\w+)`", cells[1])
        values = cells[2].split(", ") if len(names) > 1 else [cells[2]]
        if len(values) != len(names):  # one default shared by every key of the row
            values = [cells[2]] * len(names)
        documented.update(zip(names, values))
    config = AppConfig()
    for section in fields(config):
        for f in fields(getattr(config, section.name)):
            if "accepts" in f.metadata:
                printed = parser[section.name][f.name]
                assert documented.get(f.name) == printed, f"[{section.name}] {f.name}"


@pytest.mark.parametrize(
    "text, where",
    [
        ("[models]\nseed = three\n", "[models] seed"),
        ("[ewa]\nred_cut = low\n", "[ewa] red_cut"),
        ("[models]\ninclude_phasewise = maybe\n", "[models] include_phasewise"),
        ("[prep]\nlags = 24, x\n", "[prep] lags"),
        ("[ewa]\nweights = heavy\n", "[ewa] weights"),
        # values that crash a fit
        ("[models]\nnn_hidden_units = -1\n", "[models] nn_hidden_units"),
        ("[models]\nts_seasonal = true\nts_period = 0\n", "[models] ts_period"),
        ("[models]\nts_period = -3\n", "[models] ts_period"),
        ("[models]\ncart_min_leaf = 0\n", "[models] cart_min_leaf"),
        # values that silently train nothing
        ("[models]\nnn_hidden_units = 0\n", "[models] nn_hidden_units"),
        ("[models]\nnn_epochs = 0\n", "[models] nn_epochs"),
        ("[models]\nnn_epochs = -5\n", "[models] nn_epochs"),
        ("[models]\nnn_learning_rate = 0\n", "[models] nn_learning_rate"),
        ("[models]\nnn_learning_rate = -0.01\n", "[models] nn_learning_rate"),
        ("[models]\nnn_learning_rate = nan\n", "[models] nn_learning_rate"),
        ("[models]\nnn_learning_rate = inf\n", "[models] nn_learning_rate"),
        # values that train the whole zoo and then leave nothing to report
        ("[models]\nz_multiplier = -1\n", "[models] z_multiplier"),
        ("[models]\nz_multiplier = -0.01\n", "[models] z_multiplier"),
        ("[models]\nz_multiplier = nan\n", "[models] z_multiplier"),
        ("[models]\nz_multiplier = inf\n", "[models] z_multiplier"),
        ("[pipeline]\nhorizon_months = 0\n", "[pipeline] horizon_months"),
        ("[pipeline]\nhorizon_months = -12\n", "[pipeline] horizon_months"),
        ("[pipeline]\nmax_predictors = 0\n", "[pipeline] max_predictors"),
        ("[pipeline]\nmax_predictors = -2\n", "[pipeline] max_predictors"),
        # values a cycle refuses with a message that names no key
        ("[prep]\nlags = -1\n", "[prep] lags"),
        ("[prep]\nlags = 24, 24\n", "[prep] lags"),
        ("[models]\ntrain_fraction = 0\n", "[models] train_fraction"),
        ("[models]\ntrain_fraction = 1\n", "[models] train_fraction"),
        ("[models]\ntrain_fraction = nan\n", "[models] train_fraction"),
        ("[preprocess]\nsigma_multiplier = 0\n", "[preprocess] sigma_multiplier"),
        ("[preprocess]\nsigma_multiplier = -1\n", "[preprocess] sigma_multiplier"),
        ("[analysis]\nramp_up_months = -1\n", "[analysis] ramp_up_months"),
        ("[ewa]\nlookback_months = 0\n", "[ewa] lookback_months"),
        # values that train the whole zoo and then break or blank the report
        ("[ewa]\nprojection_window = 0\n", "[ewa] projection_window"),
        ("[ewa]\nscore_window = 0\n", "[ewa] score_window"),
        ("[adjust]\nseasonal_damp = nan\n", "[adjust] seasonal_damp"),
        ("[adjust]\nseasonal_damp = -inf\n", "[adjust] seasonal_damp"),
        # values that train the whole zoo and then overflow the forecast
        ("[adjust]\nseasonal_damp = 1e308\n", "[adjust] seasonal_damp"),
        ("[adjust]\nseasonal_damp = -1e308\n", "[adjust] seasonal_damp"),
        ("[models]\nz_multiplier = 1e308\n", "[models] z_multiplier"),
        # a value that refuses any cycle whose donor has an outlier
        ("[preprocess]\nsmoothing_window = 0\n", "[preprocess] smoothing_window"),
        # a value that crashes the NN fit
        ("[models]\nseed = -1\n", "[models] seed"),
        # rules across two keys of one section name the section
        ("[analysis]\nmedium_at = 0.5\n", "[analysis]: need 0 < medium_at < strong_at <= 1"),
        ("[analysis]\nstrong_at = 1.5\n", "[analysis]: need 0 < medium_at < strong_at <= 1"),
        # values a cycle reads as another value: no seasonal rule, no masked receipts
        ("[analysis]\nseasonal_period = 1\n", "[analysis] seasonal_period"),
        ("[analysis]\nseasonal_period = 0\n", "[analysis] seasonal_period"),
        # a floor below the genealogy correlation's 3 months acts as 3
        ("[analysis]\nmin_genealogy_overlap = 2\n", "[analysis] min_genealogy_overlap = '2'"),
        ("[prep]\nreceipt_exclusion_months = -3\n", "[prep] receipt_exclusion_months"),
    ],
)
def test_bad_value_names_its_key(tmp_path, text, where):
    with pytest.raises(ValidationError, match=re.escape(where)):
        _load(tmp_path, text)


FLOAT_KEYS = [
    (section.name, key)
    for section in fields(AppConfig)
    for key, kind, _ in _keys(getattr(AppConfig(), section.name))
    if kind is float
]


@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_nan_is_rejected_for_every_float_key(tmp_path, section, key):
    with pytest.raises(ValidationError, match=re.escape(f"[{section}] {key} = 'nan'")):
        _load(tmp_path, f"[{section}]\n{key} = nan\n")


def test_inf_stays_accepted_where_the_range_allows_it(tmp_path):
    config = _load(
        tmp_path, "[preprocess]\nsigma_multiplier = inf\n[ewa]\nretrain_pad = inf\n"
    )
    assert config.preprocess.sigma_multiplier == config.ewa.retrain_pad == float("inf")


@pytest.mark.parametrize(
    "text, named",
    [
        ("[models]\ninclude_phasewsie = true\n", r"\[models\] include_phasewsie"),
        ("[analysis]\nstrength = 0.2\n", r"\[analysis\] strength"),
        ("[modles]\nseed = 3\n", r"\[modles\]"),
        ("[DEFAULT]\nseed = 3\n", r"\[DEFAULT\]"),
        # retired keys, which no rule read
        ("[prep]\nmoving_averages = 3, 6\n", r"unknown config key \[prep\] moving_averages"),
        ("[adjust]\npad_threshold = 10.0\n", r"unknown config key \[adjust\] pad_threshold"),
        ("[adjust]\nfactor_min = 0.5\n", r"unknown config key \[adjust\] factor_min"),
        ("[adjust]\nfactor_max = 2.0\n", r"unknown config key \[adjust\] factor_max"),
    ],
)
def test_unknown_key_or_section_is_rejected(tmp_path, text, named):
    with pytest.raises(ValidationError, match=named):
        _load(tmp_path, text)


def test_cli_exits_1_on_an_unknown_key(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--generations", "3", "--out", str(data)]) == 0
    ini = tmp_path / "bad.ini"
    ini.write_text("[models]\ninclude_phasewsie = true\n")
    code = cli.main([
        "train", "--history", str(data / "history.csv"), "--ga", str(data / "ga.csv"),
        "--generation", "gen2", "--cycle", "2012-09", "--config", str(ini),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "include_phasewsie" in capsys.readouterr().err


def test_smallest_accepted_model_values_load(tmp_path):
    config = _load(
        tmp_path,
        "[models]\ncart_min_leaf = 1\nnn_hidden_units = 1\nnn_epochs = 1\n"
        "nn_learning_rate = 1e-9\nts_period = 1\n",
    )
    m = config.models
    assert (m.cart_min_leaf, m.nn_hidden_units, m.nn_epochs, m.ts_period) == (1, 1, 1, 1)
    assert m.nn_learning_rate == 1e-9


def test_smallest_accepted_prep_and_cycle_values_load(tmp_path):
    config = _load(
        tmp_path,
        "[prep]\nlags = 0, 1\nreceipt_exclusion_months = 0\n"
        "[preprocess]\nsigma_multiplier = 1e-9\n"
        "[analysis]\nramp_up_months = 0\nseasonal_period = 2\nmin_genealogy_overlap = 3\n"
        "[models]\ntrain_fraction = 0.01\n"
        "[ewa]\nlookback_months = 1\nscore_window = 1\nprojection_window = 1\n"
        "[adjust]\nseasonal_damp = -2.5\n",
    )
    assert config.prep.lags == (0, 1)
    assert config.preprocess.sigma_multiplier == 1e-9
    assert config.prep.receipt_exclusion_months == 0
    assert (config.analysis.ramp_up_months, config.analysis.seasonal_period) == (0, 2)
    assert config.analysis.min_genealogy_overlap == 3
    assert config.models.train_fraction == 0.01
    assert (config.ewa.lookback_months, config.ewa.score_window) == (1, 1)
    assert config.ewa.projection_window == 1
    assert config.adjust.seasonal_damp == -2.5  # only its size is bounded


def test_smallest_accepted_band_and_pipeline_values_load(tmp_path):
    config = _load(
        tmp_path, "[models]\nz_multiplier = 0\n[pipeline]\nhorizon_months = 1\nmax_predictors = 1\n"
    )
    assert config.models.z_multiplier == 0.0
    assert (config.pipeline.horizon_months, config.pipeline.max_predictors) == (1, 1)


def test_run_cycle_exits_1_on_a_model_value_that_would_crash(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--generations", "3", "--out", str(data)]) == 0
    ini = tmp_path / "bad.ini"
    ini.write_text("[models]\nts_seasonal = true\nts_period = 0\n")
    code = cli.main([
        "run-cycle", "--history", str(data / "history.csv"), "--ga", str(data / "ga.csv"),
        "--generation", "gen2", "--cycle", "2012-09", "--config", str(ini),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "[models] ts_period = '0': must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[models]\nz_multiplier = nan\n", "[models] z_multiplier = 'nan': must be finite and >= 0"),
        ("[pipeline]\nhorizon_months = 0\n", "[pipeline] horizon_months = '0': must be >= 1"),
        ("[ewa]\nprojection_window = 0\n", "[ewa] projection_window = '0': must be >= 1"),
        ("[ewa]\nscore_window = 0\n", "[ewa] score_window = '0': must be >= 1"),
        ("[adjust]\nseasonal_damp = nan\n", "[adjust] seasonal_damp = 'nan': must be finite"),
        (
            "[adjust]\nseasonal_damp = 1e308\n",
            "[adjust] seasonal_damp = '1e308': must be finite and between -10 and 10",
        ),
        (
            "[models]\nz_multiplier = 1e308\n",
            "[models] z_multiplier = '1e308': must be finite and >= 0, at most 10",
        ),
        (
            "[preprocess]\nsmoothing_window = 0\n",
            "[preprocess] smoothing_window = '0': must be >= 1",
        ),
        ("[models]\nseed = -1\n", "[models] seed = '-1': must be >= 0"),
        ("[analysis]\nseasonal_period = 1\n", "[analysis] seasonal_period = '1': must be >= 2"),
        (
            "[prep]\nreceipt_exclusion_months = -3\n",
            "[prep] receipt_exclusion_months = '-3': must be >= 0",
        ),
        (
            "[analysis]\nmedium_at = 0.5\n",
            "[analysis]: need 0 < medium_at < strong_at <= 1, got 0.5, 0.186",
        ),
    ],
)
def test_run_cycle_exits_1_before_training_on_a_value_that_leaves_no_report(
    tmp_path, capsys, monkeypatch, text, message
):
    data = tmp_path / "data"
    assert cli.main(["synth", "--generations", "3", "--out", str(data)]) == 0
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    monkeypatch.setattr(cli, "run_cycle", lambda *a, **k: pytest.fail("the cycle ran"))
    code = cli.main([
        "run-cycle", "--history", str(data / "history.csv"), "--ga", str(data / "ga.csv"),
        "--generation", "gen2", "--cycle", "2012-09", "--config", str(ini),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def demo():
    return generate(ScenarioSpec(generations=3, months_after_final_ga=8, seed=0))


# integer keys with no lower bound of their own, and four whose bound
# refuses -1 at load (seasonal_period and min_genealogy_overlap refuse 0 as well)
UNBOUNDED_KEYS = [
    ("models", "seed"),
    ("models", "cart_max_depth"),
    ("models", "chaid_min_segment"),
    ("analysis", "plateau_months"),
    ("analysis", "seasonal_period"),
    ("analysis", "min_genealogy_overlap"),
    ("prep", "receipt_exclusion_months"),
    ("adjust", "onset_months"),
    ("pipeline", "min_matrix_rows"),
]


@pytest.mark.parametrize("value", [-1, 0])
@pytest.mark.parametrize("section, key", UNBOUNDED_KEYS)
def test_a_low_value_is_refused_at_load_or_ends_the_demo_cycle(
    tmp_path, demo, section, key, value
):
    """The loader refuses the value naming its key, or the README demo's
    first cycle ends in a report or a refusal; never in a traceback."""
    try:
        config = _load(tmp_path, f"[{section}]\n{key} = {value}\n")
    except ValidationError as exc:
        assert f"[{section}] {key} = '{value}'" in str(exc)
        return
    series, calendar, _ = demo
    try:
        outcome = run_cycle(series, calendar, "gen2", month("2012-09"), config=config)
    except (ValidationError, NumericError):
        return
    validate_report(render_report(outcome))
