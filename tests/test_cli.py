import configparser
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import riscest
from riscest.cli import SWEEP_COLUMNS, _sweep_config, main, read_csv, write_csv
from riscest.errors import ConfigurationError
from riscest.moments import group_expansion_matrix
from riscest.montecarlo import SweepEngine
from riscest.scenario import (
    CONFIG_KEYS,
    config_digest,
    dbm_to_watts,
    db_to_linear,
    default_scenario,
    desk_scenario,
    load_config,
)
from riscest.validation import check_correlation_matrix, check_unit_modulus

ROOT = Path(__file__).resolve().parents[1]
DESK_INI = ROOT / "perfbench" / "desk.ini"
README = ROOT / "README.md"


DESK_SCENARIO_INI = """
[scenario]
name = desk
bs_position = 0 0 15
ris_position = 0 50 10
ue_positions = -8 44 5; 8 44 5
n_x = 4
n_y = 4
m_antennas = 4
kappa_a_db = -20
kappa_g_db = 3
alpha_a = 2.5
alpha_g = 2.2
rho_0_db = -30
noise_dbm = -89
eta = 0.99
direct_blocked = true

[sweep]
estimators = lmmse correlated_grouping_lmmse
n_groups = 16
snr_min_db = 0
snr_max_db = 20
snr_step_db = 10
trials = 5
seed = 99
"""


@pytest.fixture()
def desk_ini(tmp_path):
    path = tmp_path / "desk.ini"
    path.write_text(DESK_SCENARIO_INI)
    return str(path)


def assert_same_scenario(got, want):
    """Every geometry and fading field, the noise power and the BS angle agree exactly."""
    for part in ("geometry", "fading"):
        for f in fields(getattr(want, part)):
            a, b = getattr(getattr(got, part), f.name), getattr(getattr(want, part), f.name)
            assert np.array_equal(a, b), f"{part}.{f.name}"
    assert (got.sigma_w2, got.psi) == (want.sigma_w2, want.psi)


class TestConfigParsing:
    def test_defaults_are_reference_setup(self):
        cfg = load_config(None)
        geo = cfg.scenario.geometry
        assert (geo.n_x, geo.n_y, geo.m_antennas, geo.n_users) == (8, 8, 8, 4)
        assert cfg.scenario.fading.kappa_a == pytest.approx(db_to_linear(-20))
        assert cfg.scenario.fading.kappa_g == pytest.approx(db_to_linear(3))
        assert cfg.scenario.sigma_w2 == pytest.approx(dbm_to_watts(-89))
        assert cfg.scenario.psi == pytest.approx(np.pi / 3)
        assert cfg.scenario.fading.direct_blocked
        np.testing.assert_allclose(cfg.scenario.fading.eta, 0.99)

    def test_db_conversions_documented_example(self):
        #  -89 dBm -> 10**((-89-30)/10) W
        assert dbm_to_watts(-89.0) == pytest.approx(1.258925411794166e-12, rel=1e-12)
        assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_file_values_applied(self, desk_ini):
        cfg = load_config(desk_ini)
        assert cfg.scenario.geometry.n_users == 2
        assert cfg.sweep.trials == 5
        assert cfg.sweep.seed == 99
        assert cfg.sweep.snr_points() == [0.0, 10.0, 20.0]
        # the grid stops at the last point at or below the maximum
        cfg.sweep.snr_min_db, cfg.sweep.snr_max_db, cfg.sweep.snr_step_db = 0.0, 13.0, 5.0
        assert cfg.sweep.snr_points() == [0.0, 5.0, 10.0]
        cfg.sweep.snr_max_db = 20.0
        assert cfg.sweep.snr_points() == [0.0, 5.0, 10.0, 15.0, 20.0]
        cfg.sweep.snr_max_db, cfg.sweep.snr_step_db = 0.3, 0.1  # 0.3 / 0.1 < 3 in floats
        assert len(cfg.sweep.snr_points()) == 4

    def test_bad_value_diagnostic_names_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nn_x = four\n")
        with pytest.raises(ConfigurationError, match=r"\[scenario\] n_x"):
            load_config(str(path))

    @pytest.mark.parametrize("word,blocked", [
        ("1", True), ("Yes", True), ("TRUE", True), ("on", True),
        ("0", False), ("no", False), ("False", False), ("OFF", False),
    ])
    def test_direct_blocked_takes_the_boolean_words(self, word, blocked, tmp_path):
        path = tmp_path / "b.ini"
        path.write_text(f"[scenario]\ndirect_blocked = {word}\n")
        assert load_config(str(path)).scenario.fading.direct_blocked is blocked

    @pytest.mark.parametrize("key,value", [
        ("noise_dbm", "nan"), ("psi", "inf"), ("kappa_a_db", "inf"), ("kappa_g_db", "-inf"),
        ("alpha_a", "nan"), ("wavelength", "inf"), ("eta", "0.9 nan 0.9 0.9 0.9"),
        ("bs_position", "0 0 nan"), ("ue_positions", "-8 44 5; inf 42 5; 6 42 5; 8 44 5"),
        # finite in dB, but the linear power overflows, or underflows to zero watts
        ("kappa_a_db", "1e308"), ("rho_0_db", "1e308"), ("noise_dbm", "1e308"),
        ("noise_dbm", "-1e308"),
    ])
    def test_non_finite_scenario_value_is_usage_error(self, key, value, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[scenario]\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=rf"\[scenario\] {key}: .* is not finite"):
            load_config(str(path))
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--config", str(path), "--out", "-"])
        assert exc.value.code == 2
        assert f"[scenario] {key}" in capsys.readouterr().err

    def test_desk_ini_is_desk_scenario(self):
        # perfbench/desk.ini promises the desk scenario; the statistics follow from it
        got, want = load_config(str(DESK_INI)).scenario, desk_scenario()
        assert_same_scenario(got, want)
        assert got.name == want.name == "desk"
        got_stats, want_stats = got.statistics(), want.statistics()
        for f in fields(want_stats):
            if f.name != "fading":  # compared above
                assert np.array_equal(getattr(got_stats, f.name), getattr(want_stats, f.name)), f.name

    def test_readme_ini_is_the_defaults(self, tmp_path):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0])
        got, want = load_config(str(path)), load_config(None)
        assert_same_scenario(got.scenario, default_scenario())
        assert (got.scenario.name, want.scenario.name) == ("config", "default")
        assert got.sweep == want.sweep
        # the example sets every key a config may hold, in its own section
        parser = configparser.ConfigParser()
        parser.read_string(blocks[0])
        assert {name: set(parser[name]) for name in parser.sections()} == CONFIG_KEYS

    def test_missing_file_diagnostic(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config("/nonexistent/path.ini")

    def test_digest_stable_and_sensitive(self):
        a = load_config(None)
        b = load_config(None)
        assert config_digest(a) == config_digest(b)
        b.sweep.seed += 1
        assert config_digest(a) != config_digest(b)


class TestCsvFormat:
    def test_seventeen_digit_roundtrip(self, tmp_path):
        value = 0.1234567890123456789
        path = tmp_path / "x.csv"
        write_csv(str(path), ["v"], [[value]])
        _, rows = read_csv(str(path))
        assert rows[0]["v"] == value

    def test_lf_endings_and_comments(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a"], [[1.0]], comments=["hello"])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"# hello\n")

    def test_empty_field_becomes_nan(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["estimator", "nmse_floor"], [["ls", float("nan")]])
        _, rows = read_csv(str(path))
        assert math.isnan(rows[0]["nmse_floor"])


class TestTheoryCommand:
    def test_degenerate_grouping_matches_conventional(self, desk_ini, tmp_path):
        out = tmp_path / "theory.csv"
        assert main(["theory", "--config", desk_ini, "--out", str(out), "--groups", "16"]) == 0
        _, rows = read_csv(str(out))
        by_est = {}
        for r in rows:
            by_est.setdefault(r["estimator"], []).append(r["nmse_theory"])
        for a, b in zip(by_est["lmmse"], by_est["correlated_grouping_lmmse"]):
            assert abs(a - b) / a < 1e-8

    def test_floor_constant_across_snr(self, desk_ini, tmp_path):
        out = tmp_path / "theory.csv"
        assert main([
            "theory", "--config", desk_ini, "--out", str(out),
            "--groups", "4", "--estimators", "correlated_grouping_lmmse",
        ]) == 0
        _, rows = read_csv(str(out))
        floors = [r["nmse_floor"] for r in rows]
        assert len(floors) == 3
        assert max(floors) - min(floors) < 1e-15

    def test_extreme_power_stays_finite_and_above_floor(self, tmp_path):
        # at 160 dB the block-ideal observation covariance is singular to float64
        out = tmp_path / "theory.csv"
        assert main([
            "theory", "--config", str(DESK_INI), "--groups", "2", "4",
            "--snr-min-db", "160", "--snr-max-db", "160", "--out", str(out),
        ]) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 6
        assert all(math.isfinite(r["nmse_theory"]) for r in rows)
        for r in rows:
            if r["estimator"] == "correlated_grouping_lmmse":
                assert r["nmse_theory"] >= r["nmse_floor"] - 1e-12

    def test_expansion_built_once_per_group_count(self, monkeypatch, tmp_path):
        import riscest.estimators as est

        calls = []

        def counted(*args):
            calls.append(args)
            return group_expansion_matrix(*args)

        monkeypatch.setattr(est, "group_expansion_matrix", counted)
        counts = []
        for step in ("20", "5"):  # 3 and 9 SNR points
            calls.clear()
            assert main([
                "theory", "--config", str(DESK_INI), "--groups", "4", "16",
                "--snr-min-db", "0", "--snr-max-db", "40", "--snr-step-db", step,
                "--out", str(tmp_path / "theory.csv"),
            ]) == 0
            counts.append(len(calls))
        # grouping LS and grouping LMMSE, once per (group count, user)
        assert counts == [2 * 2 * 2] * 2

    def test_empty_estimator_list_is_usage_error(self, tmp_path, desk_ini, capsys):
        path = tmp_path / "empty.ini"
        path.write_text(DESK_SCENARIO_INI.replace(
            "estimators = lmmse correlated_grouping_lmmse", "estimators ="
        ))
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--config", str(path)])
        assert exc.value.code == 2

    def test_config_hash_logged(self, desk_ini, tmp_path):
        out = tmp_path / "theory.csv"
        main(["theory", "--config", desk_ini, "--out", str(out), "--groups", "16"])
        header = out.read_text().splitlines()[0]
        assert header.startswith("# config_hash=")
        assert len(header.split("=", 1)[1]) == 16


@pytest.mark.parametrize("command", ["theory", "sweep"])
@pytest.mark.parametrize("bad", [
    ["--groups", "3"], ["--estimators", "bogus"],
    ["--groups", "16", "16"], ["--estimators", "lmmse", "lmmse"],
    ["--snr-min-db", "20", "--snr-max-db", "19"], ["--snr-step-db", "0"],
    ["--seed", "-1"],
    ["--snr-min-db", "nan"], ["--snr-min-db", "inf"],
    ["--snr-max-db", "nan"], ["--snr-max-db", "inf"],
    ["--snr-step-db", "nan"], ["--snr-step-db", "inf"],
    # finite in dB, but the pilot power rounds to zero
    ["--snr-min-db", "-4000", "--snr-max-db", "-4000"],
    # finite in dB, but the pilot power overflows
    ["--snr-min-db", "3100", "--snr-max-db", "3100"],
])
def test_bad_input_is_usage_error(command, bad, desk_ini, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", desk_ini, "--out", "-"] + bad)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["theory", "sweep"])
@pytest.mark.parametrize("old,new", [
    ("eta = 0.99", "eta = 0.9 0.9"),  # K = 2 needs K+1 = 3 coefficients
    ("n_x = 4", "n_x = 0"),
    ("ue_positions = -8 44 5; 8 44 5", "ue_positions = 1 2"),
    ("n_groups = 16", "n_groups ="),
    ("direct_blocked = true", "direct_blocked = ture"),
])
def test_malformed_ini_is_usage_error(command, old, new, tmp_path, capsys):
    assert old in DESK_SCENARIO_INI
    path = tmp_path / "bad.ini"
    path.write_text(DESK_SCENARIO_INI.replace(old, new))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["theory", "sweep"])
@pytest.mark.parametrize("old,new,message", [
    # a typo in a key of a known section
    ("eta = 0.99", "etaa = 0.5", "unknown key etaa in [scenario]"),
    ("trials = 5", "trails = 3", "unknown key trails in [sweep]"),
    # a key placed in the wrong section
    ("trials = 5", "trials = 5\neta = 0.5", "key eta in [sweep] (it belongs in [scenario])"),
    ("name = desk", "name = desk\nseed = 3", "key seed in [scenario] (it belongs in [sweep])"),
    # an unknown section, and keys configparser would copy into every section
    ("[sweep]", "[bogus]\nx = 1\n\n[sweep]", "unknown section [bogus]"),
    ("[scenario]", "[DEFAULT]\nname = desk\n\n[scenario]", "unknown section [DEFAULT]"),
])
def test_unknown_ini_entry_is_usage_error(command, old, new, message, tmp_path, capsys):
    assert old in DESK_SCENARIO_INI
    path = tmp_path / "bad.ini"
    path.write_text(DESK_SCENARIO_INI.replace(old, new))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out.csv").exists()


def test_bad_worker_count_is_usage_error(desk_ini, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--workers", "0", "--config", desk_ini, "--out", "-"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestSweepCommand:
    def test_byte_identical_reruns_and_worker_counts(self, desk_ini, tmp_path):
        args = ["sweep", "--config", desk_ini, "--trials", "6", "--groups", "4"]
        outs = []
        for name, extra in [("a", []), ("b", []), ("c", ["--workers", "2"])]:
            out = tmp_path / f"{name}.csv"
            assert main(args + ["--out", str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    @staticmethod
    def assert_worker_split_changes_no_byte(desk_ini, tmp_path, n_trials):
        args = [
            "sweep", "--config", desk_ini, "--trials", str(n_trials), "--groups", "4", "16",
            "--snr-min-db", "10", "--snr-max-db", "10",
        ]
        outs = []
        for name, workers in [("serial", "1"), ("pooled", "2")]:
            out = tmp_path / f"{name}.csv"
            assert main(args + ["--workers", workers, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(read_csv(tmp_path / "serial.csv")[1]) == 3

    def test_worker_chunk_boundary_inside_a_trial_block(self, desk_ini, tmp_path):
        b = SweepEngine(_sweep_config(load_config(desk_ini))).block_size
        n_trials = 2 * b + b // 2 + 1
        # two workers split the one SNR point after ceil(n/2) trials, inside block 1
        assert n_trials % b and -(-n_trials // 2) % b
        self.assert_worker_split_changes_no_byte(desk_ini, tmp_path, n_trials)

    def test_worker_chunk_boundary_inside_a_scoring_batch(self, desk_ini, tmp_path):
        engine = SweepEngine(_sweep_config(load_config(desk_ini)))
        b, n = engine.block_size, engine.batch_size
        n_trials = 2 * n + 10
        # the split after ceil(n/2) trials lies inside batch 1, off its block boundaries
        split = -(-n_trials // 2)
        assert split // n == 1 and split % n and split % b
        self.assert_worker_split_changes_no_byte(desk_ini, tmp_path, n_trials)

    def test_schema_roundtrip(self, desk_ini, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", desk_ini, "--trials", "4", "--groups", "4", "--out", str(out)])
        header, rows = read_csv(str(out))
        assert header == [
            "estimator", "n_groups", "snr_db", "rho", "trials",
            "nmse_empirical", "stderr", "nmse_theory", "nmse_floor", "seed",
        ]
        for row in rows:
            assert row["trials"] == 4
            assert row["seed"] == 99
            assert row["nmse_empirical"] >= 0

    def test_seed_override_changes_output(self, desk_ini, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["sweep", "--config", desk_ini, "--trials", "4", "--groups", "4", "--out", str(out_a)])
        main([
            "sweep", "--config", desk_ini, "--trials", "4", "--groups", "4",
            "--seed", "1", "--out", str(out_b),
        ])
        assert out_a.read_bytes() != out_b.read_bytes()


class TestReproduceCommands:
    def test_fig2_reports_reference_overheads(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = main([
            "reproduce-fig2", "--trials", "1",
            "--snr-min-db", "20", "--snr-max-db", "20", "--snr-step-db", "10",
            "--estimators", "grouping_lmmse", "correlated_grouping_lmmse",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().err
        assert "tau_p_full=260" in printed
        assert "tau_p_grouped=68" in printed
        comments = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("tau_p_full=260" in c and "tau_p_grouped=68" in c for c in comments)

    def test_fig3_stdout_is_csv(self, desk_ini, capsys):
        assert main(["reproduce-fig3", "--config", desk_ini, "--groups", "4", "--trials", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header].split(",") == SWEEP_COLUMNS
        assert len(lines) == header + 1 + 2 * 3  # two estimators at three SNR points


class TestValidation:
    def test_injected_fault_fails_named_check(self):
        geo_eta = 1.2  # out-of-domain coefficient forced past the constructor
        n = 4
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 0.5
        bad = geo_eta**dist
        result = check_correlation_matrix(bad, name="R_injected")
        assert not result.passed
        assert "R_injected" in result.name
        assert "magnitude" in result.detail or "eigenvalue" in result.detail

    def test_good_matrix_passes(self):
        result = check_correlation_matrix(np.eye(4))
        assert result.passed

    @pytest.mark.parametrize("name", ["g_bar", "a_bar"])
    def test_injected_los_fault_fails_unit_modulus(self, name):
        stats = desk_scenario().statistics()
        los = getattr(stats, name).copy()
        assert check_unit_modulus(los, name).passed
        los[0, 3] *= 1.5  # one entry of modulus 1.5
        result = check_unit_modulus(los, name)
        assert not result.passed
        assert result.name == f"channel.unit_modulus[{name}]"
        assert result.detail == "max deviation 5.00e-01"


NO_SCIPY_SCRIPT = """
import sys
from riscest.cli import main

desk, out = sys.argv[1:]
assert main(["theory", "--config", desk, "--groups", "4", "16", "--out", out]) == 0
assert main(["sweep", "--config", desk, "--trials", "2", "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_runs_without_scipy(tmp_path):
    """riscest's one numerical dependency is numpy: a theory run and a sweep load no scipy."""
    src = str(Path(riscest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(DESK_INI), str(tmp_path / "out.csv")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
