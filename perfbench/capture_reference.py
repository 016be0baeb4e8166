"""Regenerate reference.json, the theory columns every benchmark run is checked against.

    python3 perfbench/capture_reference.py

Runs each workload once, untraced, and keeps only its theory columns, which
do not depend on the seed.  Run it only at a commit whose theory is trusted.
"""

from __future__ import annotations

import json
import time

import run
from workloads import REFERENCE, WORKLOADS, read_rows, row_key

SEED = 1


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        out = run.OUT / f"{name}-reference.csv"
        child = run.run_child(workload, SEED, out, time.monotonic() + run.RUN_BUDGET_S)
        columns = ["estimator", "n_groups", "snr_db", *workload.theory_columns]
        rows = sorted(read_rows(out), key=row_key)
        reference[name] = {
            "columns": columns,
            "rows": [{col: row[col] for col in columns} for row in rows],
        }
        print(f"{name}: {len(rows)} rows in {child['wall_s']:.1f} s")
    reference["captured_at"] = {
        "git_commit": run.git_commit(run.ROOT),
        "src_sha256": run.source_digest(run.ROOT),
        "runtime": child["runtime"],
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
