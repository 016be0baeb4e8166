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
import os
import sys

from .errors import ConfigurationError, DomainError
# The F401 names are unused here but stay: perfbench/tracing.py patches them on this module.
from .estimators import EstimatorKind, asymptotic_mse, make_estimator  # noqa: F401
from .moments import build_moments  # noqa: F401
from .montecarlo import SweepConfig, SweepEngine, SweepRow, run_sweep, theory_means
from .scenario import RunConfig, SweepSettings, config_digest, load_config
from .training import make_training_config, pilot_overhead  # noqa: F401

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
    """Write rows of already-ordered values; see module docstring for format.

    A path that cannot be written is a ConfigurationError, as an unreadable
    config file is (`scenario.load_config`).
    """

    def _dump(fh):
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    if path in (None, "-"):
        _dump(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _dump(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def check_writable(path) -> None:
    """Refuse, before any work, an output path whose file or directory cannot be written.

    The file is neither created nor truncated; None and "-" (stdout) pass.
    """
    if path in (None, "-"):
        return
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigurationError(f"cannot write {path}: {reason}")


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
        estimators=tuple(sw.estimators),
        snr_db=tuple(sw.snr_points()),
        n_trials=sw.trials,
        n_groups=tuple(sw.n_groups),
        base_seed=sw.seed,
    )


def _report_rows(rows: list[SweepRow]):
    for r in rows:
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
    cfg = _sweep_config(config)  # the sweep's checks of estimators, group counts and grid
    engine = SweepEngine(cfg)
    rows = []
    for gi, n_groups in enumerate(cfg.n_groups):
        for si, snr in enumerate(cfg.snr_db):
            bank = engine.bank(gi, si)
            rows += [
                [kind, n_groups, snr, bank.rho, *theory_means(filters)]
                for kind, filters in bank.filters.items()
            ]
            del bank  # the engine drops its chunk's banks when another chunk is asked for
    comments = [f"config_hash={config_digest(config)}"] + _overhead_comments(config)
    write_csv(config.output_path, THEORY_COLUMNS, rows, comments)
    return 0


def cmd_sweep(config: RunConfig, workers: int = 1) -> int:
    """Run the Monte Carlo sweep and emit empirical plus theoretical NMSE."""
    rows = run_sweep(_sweep_config(config), workers=workers)
    comments = [f"config_hash={config_digest(config)}"] + _overhead_comments(config)
    write_csv(config.output_path, SWEEP_COLUMNS, _report_rows(rows), comments)
    return 0


def cmd_validate(out=sys.stdout) -> int:
    """Run the validation registry and print a pass/fail table."""
    from .validation import run_validation  # only this command pays for the import
    results = run_validation()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        out.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def _reproduce(config: RunConfig, workers: int) -> int:
    for line in _overhead_comments(config):
        print(line, file=sys.stderr)  # stdout may carry the CSV
    return cmd_sweep(config, workers=workers)


COMMANDS = {
    "theory": "closed-form NMSE curves",
    "sweep": "Monte Carlo NMSE sweep",
    "validate": "run every invariant check and acceptance criterion",
    "reproduce-fig2": "estimator comparison at the reference setup",
    "reproduce-fig3": "group-count comparison at the reference setup",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The riscest parser, with only command's subcommand parser when command is given.

    A subcommand's parser and its help do not depend on the others, so a
    call naming its command builds that one alone; without one every
    subcommand is built, for the top-level help and its errors.
    """
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
            p.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")

    for name, text in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            if name != "validate":
                add_common(p, needs_trials=name != "theory")
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
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option but -h, so a command comes first
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported by the full parser, whose usage names every subcommand
        build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        config = load_config(getattr(args, "config", None))
        config = _apply_overrides(config, args)
        check_writable(config.output_path)
        if args.command == "theory":
            return cmd_theory(config)
        if args.command == "sweep":
            return cmd_sweep(config, workers=args.workers)
        if args.command == "reproduce-fig2":
            if not getattr(args, "groups", None):
                # one cell when N = 16, since a repeated group count is an error
                config.sweep.n_groups = sorted({16, config.scenario.geometry.n_elements})
            return _reproduce(config, args.workers)
        if args.command == "reproduce-fig3":
            if not getattr(args, "groups", None):
                config.sweep.n_groups = [8, 16, 32]
            if not getattr(args, "estimators", None):
                config.sweep.estimators = ["grouping_lmmse", "correlated_grouping_lmmse"]
            return _reproduce(config, args.workers)
    except (ConfigurationError, DomainError) as exc:
        parser.exit(2, f"error: {exc}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
