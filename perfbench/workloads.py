"""Workload definitions and the correctness gate of the riscest benchmark.

Standard library only: the parent process of the benchmark never imports
numpy or riscest, so it can check a checkout that lacks them and fail cleanly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK_INI = HERE / "desk.ini"
REFERENCE = HERE / "reference.json"

KINDS = ("ls", "lmmse", "grouping_ls", "grouping_lmmse", "correlated_grouping_lmmse")

# ROADMAP aim 2 yardstick for theory columns.  Floors near zero (the LMMSE
# floor at G=N is 5.9e-14 of cutoff noise) are compared on an absolute scale,
# so reporting them as exactly 0 still passes.
THEORY_REL_TOL = 1e-10
FLOOR_ABS_TOL = 1e-12
# Criterion 2 of the acceptance suite: empirical within 5% of theory.
DESK_REL_TOL = 0.05
DESK_CHECKED = (("lmmse", 16), ("correlated_grouping_lmmse", 4))
# fig2-ref runs few trials, so each empirical value is held to its own row's
# standard error instead of a relative tolerance.
FIG2_STDERR_MULT = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]  # riscest CLI arguments; the harness adds --seed and --out
    config: Path | None  # INI the CLI and the set-up phase load; None = built-in defaults
    monte_carlo: bool  # the entry call builds a ChannelSampler and runs trials
    theory_columns: tuple[str, ...]

    def cli_args(self, seed: int, out: Path) -> list[str]:
        argv = list(self.args)
        if self.config is not None:
            argv += ["--config", str(self.config)]
        return argv + ["--seed", str(seed), "--out", str(out)]

    def definition(self) -> dict:
        return {
            "args": list(self.args),
            "config": None if self.config is None else self.config.relative_to(ROOT).as_posix(),
            "monte_carlo": self.monte_carlo,
        }


_SWEEP_THEORY = ("nmse_theory", "nmse_floor")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="theory-ref",
            why="closed-form curves only: isolates moment and filter building, "
            "11 SNR points share one pattern set and prior",
            args=("theory",),
            config=None,
            monte_carlo=False,
            theory_columns=("nmse_theory", "mse_trace_theory", "nmse_floor"),
        ),
        Workload(
            name="desk-mc",
            why="desk acceptance sweep at 2500 trials: tiny matrices, per-trial Python "
            "overhead dominates and two group cells re-sample each realization",
            # Half the acceptance suite's 5000 trials, so a run holds three
            # repetitions; criterion 2's 5% still sits 5 standard errors out.
            args=("sweep", "--trials", "2500", "--workers", "1"),
            config=DESK_INI,
            monte_carlo=True,
            theory_columns=_SWEEP_THEORY,
        ),
        Workload(
            name="fig2-ref",
            why="reference fig2 at G in {16, 64}, 20 dB: ungrouped LS/LMMSE and the "
            "520-dim G=64 bank dominate, banks hold 0.28 GB, trials are a tenth",
            args=(
                "reproduce-fig2", "--groups", "16", "64",
                "--snr-min-db", "20", "--snr-max-db", "20", "--snr-step-db", "10",
                "--trials", "80", "--workers", "1",
            ),
            config=None,
            monte_carlo=True,
            theory_columns=_SWEEP_THEORY,
        ),
    )
}

_ALL = frozenset(WORKLOADS)
_THEORY_FIG2 = frozenset({"theory-ref", "fig2-ref"})

# Span -> workloads on which it must fire at least once (the "Active on"
# column of the layer table in README.md).  A traced run that sees zero calls
# of one of these fails, so a renamed entry point cannot report 0 silently.
ACTIVE_ON = {
    "scenario.statistics": frozenset({"theory-ref"}),
    "channel.sampler_init": frozenset({"desk-mc", "fig2-ref"}),
    "channel.sample": frozenset({"desk-mc"}),
    "training.make_config": _THEORY_FIG2,
    "training.build_Z": _THEORY_FIG2,
    "training.synthesize": frozenset({"desk-mc", "fig2-ref"}),
    "moments.build": _THEORY_FIG2,
    # theory-ref runs G=16 only, so the ungrouped kinds are built on fig2-ref.
    "estimators.filter.ls": frozenset({"fig2-ref"}),
    "estimators.filter.lmmse": frozenset({"fig2-ref"}),
    "estimators.filter.grouping_ls": _THEORY_FIG2,
    "estimators.filter.grouping_lmmse": _THEORY_FIG2,
    "estimators.filter.correlated_grouping_lmmse": _THEORY_FIG2,
    "estimators.asymptotic_mse": _THEORY_FIG2,
    "estimators.squared_error": frozenset({"desk-mc"}),
    "montecarlo.bank": frozenset({"fig2-ref"}),
    "montecarlo.trial_rng": frozenset({"desk-mc"}),
    "montecarlo.cell_trial": frozenset({"desk-mc"}),
    "montecarlo.reduce": frozenset({"desk-mc", "fig2-ref"}),
    "cli.theory": frozenset({"theory-ref"}),
    "cli.write_csv": _ALL,
}

# Every per-layer metric a traced run reports: (name, unit, better).
LAYER_METRICS = (
    [
        ("scenario.statistics.s", "s", "lower"),
        ("scenario.statistics.calls", "count", "lower"),
        ("channel.sampler_init.s", "s", "lower"),
        ("channel.sample.s", "s", "lower"),
        ("channel.sample.calls", "count", "lower"),
        ("channel.sample.unique_frac", "frac", "higher"),
        ("training.make_config.s", "s", "lower"),
        ("training.make_config.calls", "count", "lower"),
        ("training.build_Z.s", "s", "lower"),
        ("training.build_Z.calls", "count", "lower"),
        ("training.synthesize.s", "s", "lower"),
        ("training.synthesize.calls", "count", "lower"),
        ("training.orthogonality_warnings", "count", "lower"),
        ("moments.build.s", "s", "lower"),
        ("moments.build.calls", "count", "lower"),
        ("moments.build_ideal.calls", "count", "lower"),
    ]
    + [
        (f"estimators.filter.{kind}.{field}", unit, "lower")
        for kind in KINDS
        for field, unit in (("s", "s"), ("calls", "count"))
    ]
    + [
        ("estimators.asymptotic_mse.s", "s", "lower"),
        ("estimators.asymptotic_mse.calls", "count", "lower"),
        ("estimators.squared_error.s", "s", "lower"),
        ("estimators.squared_error.calls", "count", "lower"),
        ("estimators.nan_trials", "count", "lower"),
        ("estimators.degenerate_filters", "count", "lower"),
        ("montecarlo.bank.s", "s", "lower"),
        ("montecarlo.bank.builds", "count", "lower"),
        ("montecarlo.bank.hit_frac", "frac", "higher"),
        ("montecarlo.bank_bytes", "bytes", "lower"),
        ("montecarlo.trial_rng.s", "s", "lower"),
        ("montecarlo.trial_rng.calls", "count", "lower"),
        ("montecarlo.cell_trial.s", "s", "lower"),
        ("montecarlo.cell_trial.calls", "count", "lower"),
        ("montecarlo.cell_trial.self_s", "s", "lower"),
        ("montecarlo.cell_trial.p50_us", "us", "lower"),
        ("montecarlo.cell_trial.tail_us", "us", "lower"),
        ("montecarlo.cell_trial.tail_pct", "%", "higher"),
        ("montecarlo.reduce.self_s", "s", "lower"),
        ("cli.theory.self_s", "s", "lower"),
        ("cli.write_csv.s", "s", "lower"),
        ("cli.csv_bytes", "bytes", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
    ]
)
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def read_rows(path: Path) -> list[dict]:
    """Rows of a riscest CSV; '#' lines skipped, empty fields read as NaN."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = []
    for raw in csv.DictReader(lines):
        row = {}
        for key, val in raw.items():
            if key == "estimator":
                row[key] = val
            elif key in ("n_groups", "trials", "seed"):
                row[key] = int(val)
            else:
                row[key] = float(val) if val else math.nan
        rows.append(row)
    return rows


def row_key(row: dict) -> tuple[str, int, float]:
    return row["estimator"], int(row["n_groups"]), float(row["snr_db"])


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _theory_ok(column: str, got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    tol = THEORY_REL_TOL * abs(ref) + (FLOOR_ABS_TOL if column == "nmse_floor" else 0.0)
    return abs(got - ref) <= tol


def row_failures(workload: Workload, row: dict, ref: dict) -> list[str]:
    """Reasons one output row fails the gate; empty when it passes."""
    out = [
        f"{col}={row[col]!r} vs reference {ref[col]!r}"
        for col in workload.theory_columns
        if not _theory_ok(col, row[col], ref[col])
    ]
    if not workload.monte_carlo:
        return out
    emp, theory = row["nmse_empirical"], row["nmse_theory"]
    if not math.isfinite(emp):
        return out + [f"nmse_empirical={emp!r} is not finite"]
    if workload.name == "desk-mc" and (row["estimator"], row["n_groups"]) in DESK_CHECKED:
        dev = abs(emp - theory) / theory
        if not dev < DESK_REL_TOL:
            out.append(f"empirical {emp!r} deviates {dev:.4f} from theory {theory!r}")
    if workload.name == "fig2-ref":
        stderr = row["stderr"]
        if not (math.isfinite(stderr) and abs(emp - theory) <= FIG2_STDERR_MULT * stderr):
            out.append(
                f"empirical {emp!r} is not within {FIG2_STDERR_MULT} x stderr "
                f"{stderr!r} of theory {theory!r}"
            )
    return out


def check_output(workload: Workload, rows: list[dict], reference: dict) -> tuple[int, list[str]]:
    """(rows attempted, failure messages with one entry per failed row).

    Rows missing from the output or absent from the reference count as
    attempted and failed.  Empirical columns are checked statistically, never
    byte for byte, so a change to the random-stream layout still passes.
    """
    expected = {row_key(r): r for r in reference[workload.name]["rows"]}
    got: dict = {}
    failures = []
    for row in rows:
        key = row_key(row)
        if key in got:
            failures.append(f"{key}: duplicated")
        got[key] = row
    for key in sorted(expected.keys() | got.keys()):
        if key not in got:
            failures.append(f"{key}: missing from the output")
        elif key not in expected:
            failures.append(f"{key}: not in the reference")
        else:
            reasons = row_failures(workload, got[key], expected[key])
            if reasons:
                failures.append(f"{key}: " + "; ".join(reasons))
    return len(rows) + len(expected.keys() - got.keys()), failures
