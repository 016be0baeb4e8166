"""Command-line front end: theory curves, Monte Carlo sweeps, validation and
reference-figure reproduction, all emitting stable CSV.

CSV conventions: UTF-8, comma-separated, LF line endings, one header row,
floats at 17 significant digits.  Leading comment lines start with '#' and
carry provenance (config hash, pilot-overhead accounting); unavailable
values are emitted as empty fields.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigurationError
# The F401 names are unused here but stay: perfbench/tracing.py patches them on this module.
from .estimators import EstimatorKind, asymptotic_mse, make_estimator  # noqa: F401
from .moments import build_moments  # noqa: F401
from .montecarlo import (
    MseReport,
    SweepConfig,
    build_cell_bank,
    received_snr_to_power,
    resolve_workers,
    run_sweep,
    theory_means,
)
from .scenario import RunConfig, SweepSettings, config_digest, load_config
from .training import make_training_config, pilot_overhead  # noqa: F401
from .validation import run_validation

SWEEP_COLUMNS = [
    "estimator", "n_groups", "snr_db", "rho", "trials",
    "nmse_empirical", "stderr", "nmse_theory", "nmse_floor", "seed",
]
THEORY_COLUMNS = [
    "estimator", "n_groups", "snr_db", "rho",
    "nmse_theory", "mse_trace_theory", "nmse_floor",
]


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.17g}"
    if isinstance(value, EstimatorKind):
        return value.value
    return str(value)


def write_csv(path, header: list[str], rows, comments: list[str] = ()) -> None:
    """Write rows of already-ordered values; see module docstring for format."""

    def _dump(fh):
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    if path in (None, "-"):
        _dump(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _dump(fh)


def read_csv(path) -> tuple[list[str], list[dict]]:
    """Parse a CSV produced by write_csv back into typed row dictionaries."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        row = {}
        for key, val in zip(header, values):
            if key in ("estimator",):
                row[key] = val
            elif key in ("n_groups", "trials", "seed"):
                row[key] = int(val)
            else:
                row[key] = float(val) if val else math.nan
        rows.append(row)
    return header, rows


def _sweep_config(config: RunConfig) -> SweepConfig:
    sw = config.sweep
    return SweepConfig(
        scenario=config.scenario,
        estimators=tuple(EstimatorKind(e) for e in sw.estimators),
        snr_db=tuple(sw.snr_points()),
        n_trials=sw.trials,
        n_groups=tuple(sw.n_groups),
        base_seed=sw.seed,
    )


def _report_rows(report: MseReport):
    for r in report.rows:
        yield [
            r.estimator, r.n_groups, r.snr_db, r.rho, r.trials,
            r.nmse_empirical, r.stderr, r.nmse_theory, r.nmse_floor, r.seed,
        ]


def _overhead_comments(config: RunConfig) -> list[str]:
    geo = config.scenario.geometry
    out = []
    for n_groups in config.sweep.n_groups:
        tau_full, tau_grouped = pilot_overhead(geo.n_users, geo.n_elements, n_groups)
        out.append(
            f"pilot_overhead K={geo.n_users} N={geo.n_elements} n_groups={n_groups} "
            f"tau_p_full={tau_full} tau_p_grouped={tau_grouped}"
        )
    return out


def cmd_theory(config: RunConfig) -> int:
    """Evaluate the closed-form NMSE of every selected estimator over the sweep grid."""
    stats = config.scenario.statistics()
    kinds = tuple(EstimatorKind(e) for e in config.sweep.estimators)
    if not kinds:
        raise ConfigurationError("no estimators selected")
    rows = []
    for n_groups in config.sweep.n_groups:
        floors: dict[int, float] = {}
        for snr in config.sweep.snr_points():
            rho = received_snr_to_power(snr, config.scenario)
            bank = build_cell_bank(stats, config.scenario.sigma_w2, n_groups, rho, kinds, floors)
            rows += [
                [kind, n_groups, snr, rho, *theory_means(filters)]
                for kind, filters in bank.filters.items()
            ]
            del bank  # free this cell's filters before the next cell's are built
    comments = [f"config_hash={config_digest(config)}"] + _overhead_comments(config)
    write_csv(config.output_path, THEORY_COLUMNS, rows, comments)
    return 0


def cmd_sweep(config: RunConfig, workers: int | None = None) -> int:
    """Run the Monte Carlo sweep and emit empirical plus theoretical NMSE."""
    report = run_sweep(_sweep_config(config), workers=workers)
    comments = [f"config_hash={config_digest(config)}"] + _overhead_comments(config)
    write_csv(config.output_path, SWEEP_COLUMNS, _report_rows(report), comments)
    return 0


def cmd_validate(out=sys.stdout) -> int:
    """Run every module's invariant suite and print a pass/fail table."""
    results = run_validation()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        out.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def _reproduce(config: RunConfig, workers: int | None) -> int:
    for line in _overhead_comments(config):
        print(line)
    return cmd_sweep(config, workers=workers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscest",
        description="Channel-estimation theory curves and Monte Carlo sweeps "
        "for RIS-assisted multi-user uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_trials=True):
        p.add_argument("--config", help="INI scenario/sweep configuration file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--snr-min-db", type=float, dest="snr_min_db")
        p.add_argument("--snr-max-db", type=float, dest="snr_max_db")
        p.add_argument("--snr-step-db", type=float, dest="snr_step_db")
        p.add_argument("--groups", type=int, nargs="+", help="group counts to sweep")
        p.add_argument("--estimators", nargs="+", help="estimator subset")
        if needs_trials:
            p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")
            p.add_argument(
                "--workers", type=int,
                help="worker processes (default: RISCEST_WORKERS env var or 1)",
            )

    add_common(sub.add_parser("theory", help="closed-form NMSE curves"), needs_trials=False)
    add_common(sub.add_parser("sweep", help="Monte Carlo NMSE sweep"))
    sub.add_parser("validate", help="run all module invariant checks")
    add_common(sub.add_parser("reproduce-fig2", help="estimator comparison at the reference setup"))
    add_common(sub.add_parser("reproduce-fig3", help="group-count comparison at the reference setup"))
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    sw = config.sweep
    if getattr(args, "seed", None) is not None:
        sw.seed = args.seed
    for key in ("snr_min_db", "snr_max_db", "snr_step_db"):
        if getattr(args, key, None) is not None:
            setattr(sw, key, getattr(args, key))
    if getattr(args, "groups", None):
        sw.n_groups = list(args.groups)
    if getattr(args, "estimators", None):
        sw.estimators = list(args.estimators)
    if getattr(args, "trials", None) is not None:
        sw.trials = args.trials
    if getattr(args, "out", None) is not None:
        config.output_path = args.out
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        config = load_config(getattr(args, "config", None))
        config = _apply_overrides(config, args)
        workers = resolve_workers(getattr(args, "workers", None))
        if args.command == "theory":
            return cmd_theory(config)
        if args.command == "sweep":
            return cmd_sweep(config, workers=workers)
        if args.command == "reproduce-fig2":
            if not getattr(args, "groups", None):
                config.sweep.n_groups = [16, config.scenario.geometry.n_elements]
            return _reproduce(config, workers)
        if args.command == "reproduce-fig3":
            if not getattr(args, "groups", None):
                config.sweep.n_groups = [8, 16, 32]
            if not getattr(args, "estimators", None):
                config.sweep.estimators = ["grouping_lmmse", "correlated_grouping_lmmse"]
            return _reproduce(config, workers)
    except ConfigurationError as exc:
        parser.exit(2, f"error: {exc}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
