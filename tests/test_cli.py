"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from microfreq import cli
from microfreq.cli import SIM_KEYS, load_run_config, main
from microfreq.der_models import DELOAD_FRACTION
from microfreq.lfc_model import MicrogridParams
from microfreq.profiles import ProfileSet, generate_profiles, write_profiles_csv
from microfreq.simulate import RunConfig, make_scenario, run_scenario, write_trace_csv


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", "step", "--controller", "mpc", "--seed", "0",
        "--out", str(out),
    ]) == 0
    captured = capsys.readouterr().out
    assert "max|df|" in captured
    trace = out / "trace_step_mpc_seed0.csv"
    metrics = out / "metrics_step_mpc_seed0.json"
    assert trace.exists() and metrics.exists()
    summary = json.loads(metrics.read_text())
    assert summary["controller"] == "mpc"
    assert summary["scenario"] == "step"
    assert summary["constraint_violations"] == 0
    header = trace.read_text().splitlines()[0]
    assert header.startswith("t,freq_dev,cmd_pv1")


def test_run_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        main(["run", "--scenario", "moderate", "--controller", "pi_all",
              "--seed", "3", "--out", str(out)])
    name = "trace_moderate_pi_all_seed3.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_compare_prints_ordering(tmp_path, capsys):
    assert main(["compare", "--scenario", "step", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "ordering mpc < pi_all < pi_dubess: yes" in out
    assert "pi_dubess" in out


def test_sweep_single_cell(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--seeds", "1", "--kinds", "moderate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "all runs ordered mpc < pi_all < pi_dubess: yes" in printed
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary) == 3  # three controllers on one cell


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--seeds", ""], "argument --seeds: invalid seed ''"),
    (["sweep", "--seeds", "0,,1"], "argument --seeds: invalid seed ''"),
    (["sweep", "--seeds", "-1"], "argument --seeds: invalid seed '-1'"),
    (["sweep", "--kinds", ""], "argument --kinds: invalid scenario kind ''"),
    (["sweep", "--kinds", "step,bogus"], "argument --kinds: invalid scenario kind 'bogus'"),
    (["run", "--seed", "-3"], "argument --seed: invalid seed '-3'"),
    (["compare", "--seed", "x"], "argument --seed: invalid seed 'x'"),
], ids=["no-seeds", "empty-seed", "negative-seeds", "no-kinds", "unknown-kind",
        "negative-seed", "non-integer-seed"])
def test_bad_arguments_fail_at_parse_time(monkeypatch, capsys, argv, message):
    runs = []
    for engine in ("run_scenario", "run_cells"):
        monkeypatch.setattr(cli, engine, lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert f"error: {message}" in captured.err
    assert captured.out == "" and runs == []


def test_sweep_arguments_accept_spaces_around_tokens(capsys):
    assert main(["sweep", "--seeds", " 2 ", "--kinds", " step"]) == 0
    assert capsys.readouterr().out.startswith("step      seed=2 ")


# pi_gains.json of the default config, as written before the step check ran
# through the scenario engine.
PINNED_STEP_CHECK = {
    "pi_all": {"peak": 0.018116259741381893, "settle_time": 31.6,
               "itae": 0.5364857694598161, "zero_crossings": 0},
    "pi_dubess": {"peak": 0.027592298439912025, "settle_time": 40.2,
                  "itae": 1.3871981915359937, "zero_crossings": 0},
}
STEP_CHECK_RTOL = 1e-12


def tune_pi_results(tmp_path, config=None):
    args = ["tune-pi", "--out", str(tmp_path / "tuned")]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        args += ["--config", str(config_path)]
    assert main(args) == 0
    return json.loads((tmp_path / "tuned" / "pi_gains.json").read_text())


def test_tune_pi_reports_gains(capsys, tmp_path):
    gains = tune_pi_results(tmp_path)
    printed = capsys.readouterr().out
    assert "designed gains: kp=1.44 ki=0.24" in printed
    assert gains["kp"] == pytest.approx(1.44)
    assert gains["ki"] == pytest.approx(0.24)
    # The BLAS kernel numpy picks at run time can sum the trace's products in
    # another order: under OPENBLAS_CORETYPE=Prescott the all-units itae
    # reads 0.5364857694598194 against 0.5364857694598161 (relative 6e-15).
    # So peak and itae hold within a relative STEP_CHECK_RTOL, and the
    # settle time and crossing count, which such bits do not move, exactly.
    for name, expected in PINNED_STEP_CHECK.items():
        got = gains[name]
        assert got.keys() == expected.keys(), name
        for key in ("peak", "itae"):
            assert got[key] == pytest.approx(expected[key], rel=STEP_CHECK_RTOL, abs=0), (name, key)
        for key in ("settle_time", "zero_crossings"):
            assert got[key] == expected[key], (name, key)


def test_tune_pi_step_check_follows_the_config(tmp_path):
    # A 2 % deload leaves the renewables too little headroom for their share
    # of the 0.05 p.u. step, so the all-units response changes.
    gains = tune_pi_results(tmp_path, {"sim": {"deload": 0.02}})
    assert gains["pi_all"]["peak"] > PINNED_STEP_CHECK["pi_all"]["peak"]
    assert gains["pi_all"]["itae"] > PINNED_STEP_CHECK["pi_all"]["itae"]
    # With no deloading reserve only diesel and storage can push up.
    gains = tune_pi_results(tmp_path, {"sim": {"deload": 0.0}})
    assert gains["pi_all"]["peak"] == pytest.approx(
        PINNED_STEP_CHECK["pi_dubess"]["peak"], rel=1e-12)


def test_profiles_file_used_when_present(tmp_path, capsys):
    profiles = generate_profiles("moderate", seed=9, duration=30.0)
    path = tmp_path / "profiles.csv"
    write_profiles_csv(path, profiles)
    assert main(["run", "--scenario", "moderate", "--controller", "mpc",
                 "--seed", "0", "--profiles", str(path)]) == 0
    # 30 s profile: the run completes quickly and reports a summary line.
    assert "moderate" in capsys.readouterr().out


def test_missing_profiles_file_falls_back_to_generated(capsys):
    assert main(["run", "--scenario", "step", "--controller", "pi_dubess",
                 "--seed", "1", "--profiles", "/nonexistent/profiles.csv"]) == 0
    captured = capsys.readouterr()
    assert "step" in captured.out
    assert "warning: profile file /nonexistent/profiles.csv not found" in captured.err
    assert "generated step profiles for seed 1" in captured.err


def test_compare_warns_once_for_a_missing_profiles_file(capsys):
    assert main(["compare", "--scenario", "step", "--seed", "0",
                 "--profiles", "/nonexistent/profiles.csv"]) == 0
    assert capsys.readouterr().err.count("warning:") == 1


@pytest.mark.parametrize("unit2", ["p_wt2", "p_pv2"])
def test_config_rejects_unequal_twin_unit_ratings(tmp_path, unit2):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"microgrid": {unit2: 50.0}}))
    with pytest.raises(ValueError, match=f"{unit2}=50.0 differs from"):
        load_run_config(str(config_path))


def test_config_accepts_equal_twin_unit_ratings(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"microgrid": {"p_wt1": 50.0, "p_wt2": 50.0}}))
    config = load_run_config(str(config_path))
    assert config.wind.rated_power == 50.0


def test_sim_defaults_come_from_run_config():
    defaults = RunConfig()
    config = load_run_config(None)
    for key in SIM_KEYS:
        assert getattr(config, key) == getattr(defaults, key), key
    assert config.deload == DELOAD_FRACTION


def test_config_rejects_unknown_sim_keys(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sim": {"delaod": 0.2}}))
    with pytest.raises(ValueError, match=r"unknown sim config keys \['delaod'\]") as err:
        load_run_config(str(config_path))
    for key in SIM_KEYS:
        assert key in str(err.value)


@pytest.mark.parametrize("config, message", [
    ({"simulaton": {"deload": 0.5}}, r"unknown config sections \['simulaton'\]"),
    ({"estimator": {"measurment_noise": 1.0}},
     r"unknown estimator config keys \['measurment_noise'\]"),
    ({"pi": {"KP": 9.0}}, r"unknown pi config keys \['KP'\]"),
    ({"microgrid": {"inertia": 0.6, "intertia": 0.5}},
     r"unknown microgrid config keys \['intertia'\]"),
    ({"mpc": {"horizon": 12}}, r"unknown mpc config keys \['horizon'\]"),
], ids=["section", "estimator", "pi", "microgrid", "mpc"])
def test_config_rejects_unknown_keys(tmp_path, config, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=message):
        load_run_config(str(config_path))


@pytest.mark.parametrize("text, message", [
    ('{"sim": {"deload": "0.1"}}', r'config sim.deload must be a number, got "0.1"'),
    ('{"microgrid": {"p_du": null}}', r"config microgrid.p_du must be a number, got null"),
    ('{"sim": {"measurement_noise_std": [1]}}',
     r"config sim.measurement_noise_std must be a number, got \[1\]"),
    ('{"mpc": {"m": 2.0}}', r"config mpc.m must be an integer, got 2.0"),
    ('{"mpc": {"p": 10.5}}', r"config mpc.p must be an integer, got 10.5"),
    ('{"mpc": {"alpha": true}}', r"config mpc.alpha must be a number, got true"),
    ('{"pi": {"kp": true}}', r"config pi.kp must be a number, got true"),
    ('{"estimator": {"measurement_noise": "1e-8"}}',
     r'config estimator.measurement_noise must be a number, got "1e-8"'),
    ('{"microgrid": {"bess_droop_variant": 1}}',
     r"config microgrid.bess_droop_variant must be true or false, got 1"),
    ('[]', r"config file must be a JSON object, got \[\]"),
    ('{"sim": 3}', r"config section sim must be a JSON object, got 3"),
], ids=["string-number", "null-number", "list-number", "float-horizon", "fractional-horizon",
        "bool-weight", "bool-gain", "string-estimator-noise", "int-flag", "top-level-list",
        "section-not-object"])
@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "step", "--controller", "mpc", "--seed", "0"],
    ["sweep", "--seeds", "0", "--kinds", "step"],
], ids=["run-mpc", "sweep"])
def test_config_values_of_the_wrong_type_fail_at_ingest(tmp_path, monkeypatch, capsys, argv,
                                                        text, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    runs = []
    for engine in ("run_scenario", "run_cells"):
        monkeypatch.setattr(cli, engine, lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=message):
        main(argv + ["--config", str(config_path)])
    assert runs == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text, message", [
    ('{"sim": {"measurement_noise_std": -1e-5}}', r"measurement_noise_std must be >= 0, got -1e-05"),
    ('{"sim": {"measurement_noise_std": NaN}}', r"config value NaN is not finite"),
    ('{"sim": {"measurement_noise_std": Infinity}}', r"config value Infinity is not finite"),
    ('{"estimator": {"measurement_noise": NaN}}', r"config value NaN is not finite"),
    ('{"mpc": {"alpha": Infinity}}', r"config value Infinity is not finite"),
    ('{"sim": {"deload": -Infinity}}', r"config value -Infinity is not finite"),
    ('{"microgrid": {"p_load": 1e999}}', r"config value 1e999 is not finite"),
    ('{"microgrid": {"p_load": 1%s}}' % ("0" * 400), r"config value 10{400} is not finite"),
    ('{"pi": {"kp": NaN}}', r"config value NaN is not finite"),
    ('{"pi": {"kp": -1}}', r"kp must be >= 0"),
    ('{"pi": {"ki": 0.0}}', r"ki must be > 0"),
    ('{"sim": {"deload": 1.5}}', r"deload must be in \[0, 1\), got 1.5"),
    ('{"sim": {"dispatch_du_kw": 500}}', r"diesel dispatch 500 kW outside \[0, 120.0\]"),
], ids=["negative-noise", "nan-noise", "infinite-noise", "nan-estimator-noise",
        "infinite-mpc-weight", "negative-infinite-deload", "overflowing-number", "overflowing-integer", "nan-kp", "negative-kp", "zero-ki",
        "deload-above-one", "diesel-dispatch"])
@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "step", "--controller", "mpc", "--seed", "0"],
    ["sweep", "--seeds", "0", "--kinds", "step"],
    ["tune-pi"],
], ids=["run-mpc", "sweep", "tune-pi"])
def test_bad_config_values_fail_at_ingest(tmp_path, monkeypatch, capsys, argv, text, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    runs = []
    for engine in ("run_scenario", "run_cells"):
        monkeypatch.setattr(cli, engine, lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=message):
        main(argv + ["--config", str(config_path)])
    assert runs == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("controller", ["mpc", "pi_all"])
def test_run_rejects_an_mpc_sample_time_as_an_unknown_key(tmp_path, controller):
    # The sample time is the model's constant, not a config key, even at its value.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mpc": {"Ts": 0.2}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"unknown mpc config keys \['Ts'\]"):
        main(["run", "--scenario", "step", "--controller", controller, "--seed", "0",
              "--config", str(config_path), "--out", str(out)])
    assert not out.exists()
    assert load_run_config().mpc.Ts == 0.2


@pytest.mark.parametrize("command", ["run", "compare"])
def test_profiles_off_the_model_sample_time_fail_before_any_output(tmp_path, command):
    n = 31
    fine = ProfileSet(t=np.arange(n) * 0.1, load_pu=np.zeros(n), v_w=np.full((2, n), 12.0),
                      g_eff=np.full((2, n), 1000.0), t_amb=np.full(n, 25.0))
    path = tmp_path / "fine.csv"
    write_profiles_csv(path, fine)
    out = tmp_path / "out"
    message = r"profile sample time 0\.1 does not match the model sample time 0\.2"
    with pytest.raises(ValueError, match=message):
        main([command, "--scenario", "step", "--seed", "0", "--profiles", str(path),
              "--out", str(out)])
    assert not out.exists()


def test_config_file_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "pi": {"kp": 2, "ki": 0.5},
        "mpc": {"p": 8, "m": 2},
        "microgrid": {"bess_droop_variant": True},
        "sim": {"deload": 0.05},
        "estimator": {"disturbance_noise": 1e-3, "measurement_noise": 2e-8,
                      "initial_covariance": 0.5},
    }))
    config = load_run_config(str(config_path))
    assert config.pi_kp == 2.0 and config.pi_ki == 0.5
    assert config.mpc.p == 8 and config.mpc.m == 2
    assert config.params.bess_droop_variant is True
    assert config.deload == 0.05
    assert config.estimator.Q[10, 10] == pytest.approx(1e-3)
    assert config.estimator.Q[0, 0] == RunConfig().estimator.Q[0, 0]
    assert config.estimator.R_noise == 2e-8
    assert np.array_equal(config.estimator.P0, 0.5 * np.eye(11))


def test_default_config_matches_published_values():
    config = load_run_config(None)
    assert config.params.p_load == 200.0
    assert config.mpc.alpha == pytest.approx(1.6596)
    assert config.mpc.p == 10 and config.mpc.m == 3
    assert config.pi_kp == pytest.approx(1.44)
    assert config.deload == 0.10


TWIN_RATINGS = {"p_wt1": 80.0, "p_wt2": 80.0, "p_pv1": 100.0, "p_pv2": 100.0}


def test_library_config_matches_the_cli_config_of_the_same_ratings(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"microgrid": TWIN_RATINGS}))
    cli_config = load_run_config(str(config_path))
    library_config = RunConfig(params=MicrogridParams(**TWIN_RATINGS))
    for config in (cli_config, library_config):
        assert config.wind.rated_power == 80.0
        assert config.pv.rated_array_kw == 100.0
    assert (library_config.pi_kp, library_config.pi_ki) == (cli_config.pi_kp, cli_config.pi_ki)
    for kind, controller in (("rapid", "pi_all"), ("step", "mpc")):
        paths = []
        for name, config in (("cli", cli_config), ("library", library_config)):
            paths.append(tmp_path / f"{name}_{kind}_{controller}.csv")
            write_trace_csv(run_scenario(make_scenario(kind, controller, 3), config), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes(), (kind, controller)
