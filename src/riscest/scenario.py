"""Scenario definitions and flat key-value configuration files.

A scenario bundles the geometry, fading model, noise level and the BS
arrival angle.  Configs use INI sections [scenario], [sweep] and [output];
all *_db / *_dbm keys are converted to linear units at parse time
(x_linear = 10**(x_db/10), dBm with the additional -30 dB offset to watts).
Example: noise_dbm = -89 gives sigma_w2 = 10**((-89-30)/10) ~= 1.26e-12 W.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelStatistics, FadingParams, SystemGeometry, build_statistics
from .errors import ConfigurationError


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass
class Scenario:
    """Physical setup: geometry, fading, noise power and BS arrival angle."""

    geometry: SystemGeometry
    fading: FadingParams
    sigma_w2: float  # W
    psi: float  # BS arrival angle, rad
    name: str = "scenario"

    def statistics(self) -> ChannelStatistics:
        return build_statistics(self.geometry, self.fading, psi=self.psi)


@dataclass
class SweepSettings:
    """Sweep-level knobs shared by the CLI subcommands."""

    estimators: list[str] = field(default_factory=lambda: [
        "ls", "lmmse", "grouping_ls", "grouping_lmmse", "correlated_grouping_lmmse",
    ])
    n_groups: list[int] = field(default_factory=lambda: [16])
    snr_min_db: float = 0.0
    snr_max_db: float = 50.0
    snr_step_db: float = 5.0
    trials: int = 100
    seed: int = 20240901

    def snr_points(self) -> list[float]:
        if not np.all(np.isfinite([self.snr_min_db, self.snr_max_db, self.snr_step_db])):
            raise ConfigurationError("snr_min_db, snr_max_db and snr_step_db must be finite")
        if self.snr_step_db <= 0:
            raise ConfigurationError("snr_step_db must be positive")
        if self.snr_max_db < self.snr_min_db:
            raise ConfigurationError("snr_max_db is below snr_min_db")
        # every point up to the maximum; 1e-9 absorbs rounding in the quotient
        n = int(np.floor((self.snr_max_db - self.snr_min_db) / self.snr_step_db + 1e-9)) + 1
        return [self.snr_min_db + i * self.snr_step_db for i in range(n)]


@dataclass
class RunConfig:
    scenario: Scenario
    sweep: SweepSettings
    output_path: str | None = None


# the [scenario] keys of the desk deployment; every other key takes the reference default
DESK_SCENARIO = {
    "name": "desk",
    "ue_positions": "-8 44 5; 8 44 5",
    "n_x": "4",
    "n_y": "4",
    "m_antennas": "4",
}


def default_scenario() -> Scenario:
    """Reference multi-user deployment: M=8, N=8x8, K=4, blocked direct links.

    BS at (0,0,15), RIS at (0,50,10), four UEs around y ~= 43 m; half-wave
    spacings, kappa_a = -20 dB, kappa_g = 3 dB, eta = 0.99 on every link.
    These are `scenario_from_config`'s defaults.
    """
    return scenario_from_config(configparser.ConfigParser())


def desk_scenario() -> Scenario:
    """Scaled-down variant for fast test runs: M=4, N=4x4, K=2 (`DESK_SCENARIO`)."""
    parser = configparser.ConfigParser()
    parser["scenario"] = DESK_SCENARIO
    return scenario_from_config(parser)


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _power(text: str, offset_db: float = 0.0) -> float:
    """A dB entry as the power 10**((x - offset_db)/10), which must be finite and positive."""
    try:
        power = db_to_linear(_finite(text) - offset_db)
    except OverflowError:
        power = np.inf
    if not 0.0 < power < np.inf:
        raise ValueError(f"{text} is not finite and positive as a linear power")
    return power


def _parse_vector(text: str) -> np.ndarray:
    return np.array([_finite(tok) for tok in text.replace(",", " ").split()])


def _parse_points(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return np.array([_parse_vector(r) for r in rows])


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is none of 1/yes/true/on, 0/no/false/off") from None


def _get(section, key, cast, default):
    """section[key] parsed by cast, or default when the key is absent."""
    if key not in section:
        return default
    try:
        return cast(section[key])
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"bad value for [{section.name}] {key}: {exc}") from exc


def scenario_from_config(parser: configparser.ConfigParser) -> Scenario:
    """The scenario of the [scenario] section; keys left out take the reference values.

    Without the section the scenario is named "default", and without a name
    key "config".
    """
    sc = parser["scenario"] if "scenario" in parser else {"name": "default"}
    wavelength = _get(sc, "wavelength", _finite, 0.1)
    geometry = SystemGeometry(
        bs_position=_get(sc, "bs_position", _parse_vector, np.array([0.0, 0.0, 15.0])),
        ris_position=_get(sc, "ris_position", _parse_vector, np.array([0.0, 50.0, 10.0])),
        ue_positions=_get(
            sc, "ue_positions", _parse_points,
            np.array([[-8.0, 44.0, 5.0], [-6.0, 42.0, 5.0], [6.0, 42.0, 5.0], [8.0, 44.0, 5.0]]),
        ),
        n_x=_get(sc, "n_x", int, 8),
        n_y=_get(sc, "n_y", int, 8),
        m_antennas=_get(sc, "m_antennas", int, 8),
        delta_x=_get(sc, "delta_x", _finite, wavelength / 2),
        delta_y=_get(sc, "delta_y", _finite, wavelength / 2),
        delta_0=_get(sc, "delta_0", _finite, wavelength / 2),
        wavelength=wavelength,
    )
    eta = _get(sc, "eta", _parse_vector, np.array([0.99]))
    if eta.size == 1:
        eta = np.full(geometry.n_users + 1, eta[0])
    fading = FadingParams(
        kappa_a=_get(sc, "kappa_a_db", _power, db_to_linear(-20.0)),
        kappa_g=_get(sc, "kappa_g_db", _power, db_to_linear(3.0)),
        alpha_a=_get(sc, "alpha_a", _finite, 2.5),
        alpha_g=_get(sc, "alpha_g", _finite, 2.2),
        alpha_b=_get(sc, "alpha_b", _finite, 3.0),
        rho_0=_get(sc, "rho_0_db", _power, db_to_linear(-30.0)),
        eta=eta,
        direct_blocked=_get(sc, "direct_blocked", _parse_bool, True),
    )
    return Scenario(
        geometry=geometry, fading=fading,
        sigma_w2=_get(sc, "noise_dbm", lambda x: _power(x, 30.0), dbm_to_watts(-89.0)),
        psi=_get(sc, "psi", _finite, np.pi / 3),
        name=_get(sc, "name", str, "config"),
    )


# every key an INI file may set, by section; `scenario_from_config` reads the
# [scenario] keys and `load_config` the others
CONFIG_KEYS = {
    "scenario": frozenset({
        "name", "bs_position", "ris_position", "ue_positions", "n_x", "n_y", "m_antennas",
        "wavelength", "delta_x", "delta_y", "delta_0", "kappa_a_db", "kappa_g_db",
        "alpha_a", "alpha_g", "alpha_b", "rho_0_db", "noise_dbm", "eta", "psi",
        "direct_blocked",
    }),
    "sweep": frozenset(f.name for f in fields(SweepSettings)),
    "output": frozenset({"path"}),
}


def _check_config_keys(parser: configparser.ConfigParser) -> None:
    """Reject an unknown section, an unknown key and a key in the wrong section."""
    problems = []
    if parser.defaults():  # configparser would copy them into every section
        problems.append(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key in CONFIG_KEYS[section]:
                continue
            home = [f"[{name}]" for name, keys in CONFIG_KEYS.items() if key in keys]
            where = f" (it belongs in {home[0]})" if home else ""
            problems.append(f"unknown key {key} in [{section}]{where}")
    if problems:
        sections = ", ".join(f"[{name}]" for name in CONFIG_KEYS)
        raise ConfigurationError(f"{'; '.join(problems)}; the sections are {sections}")


def load_config(path: str | None) -> RunConfig:
    """Load a RunConfig from an INI file; defaults reproduce the reference setup."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigurationError(f"cannot read {path}: {exc}") from exc
        _check_config_keys(parser)
    scenario = scenario_from_config(parser)
    sweep = SweepSettings()
    if "sweep" in parser:
        sw = parser["sweep"]
        sweep = SweepSettings(
            estimators=_get(sw, "estimators", lambda s: s.split(), sweep.estimators),
            n_groups=_get(sw, "n_groups", lambda s: [int(t) for t in s.split()], sweep.n_groups),
            snr_min_db=_get(sw, "snr_min_db", float, sweep.snr_min_db),
            snr_max_db=_get(sw, "snr_max_db", float, sweep.snr_max_db),
            snr_step_db=_get(sw, "snr_step_db", float, sweep.snr_step_db),
            trials=_get(sw, "trials", int, sweep.trials),
            seed=_get(sw, "seed", int, sweep.seed),
        )
    output_path = None
    if "output" in parser and "path" in parser["output"]:
        output_path = parser["output"]["path"]
    return RunConfig(scenario=scenario, sweep=sweep, output_path=output_path)


def config_digest(config: RunConfig) -> str:
    """Short stable hash over the fully resolved configuration, for provenance."""
    buf = io.StringIO()
    sc, sw = config.scenario, config.sweep
    geo, fad = sc.geometry, sc.fading
    for key, value in [
        ("name", sc.name),
        ("bs", geo.bs_position.tolist()), ("ris", geo.ris_position.tolist()),
        ("ues", geo.ue_positions.tolist()),
        ("grid", [geo.n_x, geo.n_y, geo.m_antennas]),
        ("spacing", [geo.delta_x, geo.delta_y, geo.delta_0, geo.wavelength]),
        ("kappa", [fad.kappa_a, fad.kappa_g]),
        ("alpha", [fad.alpha_a, fad.alpha_g, fad.alpha_b]),
        ("rho0", fad.rho_0), ("eta", fad.eta.tolist()),
        ("blocked", fad.direct_blocked),
        ("sigma", sc.sigma_w2), ("psi", sc.psi),
        ("estimators", sw.estimators), ("groups", sw.n_groups),
        ("snr", [sw.snr_min_db, sw.snr_max_db, sw.snr_step_db]),
        ("trials", sw.trials), ("seed", sw.seed),
    ]:
        buf.write(f"{key}={value!r}\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
