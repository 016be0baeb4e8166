"""Benchmark of riscest's three reference workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh Python process (child.py) with BLAS pinned to
one thread, so peak RSS is that repetition's own high-water mark.  With
--trace 0 the workload is repeated for about S seconds and the end-to-end
metrics are medians over the repetitions; set-up is also timed in extra
set-up-only processes.  With --trace 1 one untraced and one traced
repetition run, and the per-layer metrics come from the traced one.  Every
output CSV is checked against reference.json.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run manifest, which is also written under out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ACTIVE_ON, HERE, ROOT, WORKLOADS

OUT = HERE / "out"
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MAX_REPORTED_FAILURES = 10


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("RISCEST_WORKERS", None)
    return env


def run_child(workload, seed: int, out: Path, deadline: float,
              setup_only: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {workload.name} within {RUN_BUDGET_S} s")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name} did not finish within {RUN_BUDGET_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, reps: list[dict]) -> dict:
    return {
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {var: "1" for var in BLAS_THREAD_VARS},
        "runtime": reps[0]["runtime"],
        "repetitions": len(reps),
        "workloads": {name: w.definition() for name, w in WORKLOADS.items()},
    }


def check(workload, out: Path, reference: dict, tally: dict) -> None:
    try:
        rows = workloads.read_rows(out)
        attempted, failures = workloads.check_output(workload, rows, reference)
    except (OSError, KeyError, ValueError) as exc:
        attempted, failures = 1, [f"unreadable output: {exc!r}"]
    tally["attempted"] += attempted
    tally["failed"] += len(failures)
    tally["failures"] += [f"{out.name} {msg}" for msg in failures]


def measure(workload, args, reference: dict, tally: dict) -> tuple[list[dict], dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        base_csv, traced_csv = OUT / f"{workload.name}-base.csv", OUT / f"{workload.name}-traced.csv"
        base = run_child(workload, args.seed, base_csv, deadline)
        check(workload, base_csv, reference, tally)
        traced = run_child(workload, args.seed, traced_csv, deadline,
                           spans=OUT / f"{workload.name}-spans.npz")
        check(workload, traced_csv, reference, tally)
        metrics = dict(traced["layers"])
        metrics["trace_overhead_frac"] = (traced["wall_s"] - base["wall_s"]) / base["wall_s"]
        for span, active in ACTIVE_ON.items():
            if workload.name in active and traced["span_calls"].get(span, 0) == 0:
                tally["failures"].append(f"span {span} never fired on {workload.name}")
                tally["spans_missing"] = True
        return [base, traced], metrics

    setups = [
        run_child(workload, args.seed, OUT / f"{workload.name}-setup.csv", deadline,
                  setup_only=True)["setup_s"]
        for _ in range(SETUP_REPEATS)
    ]
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        rep_start = time.monotonic()
        out = OUT / f"{workload.name}-{len(reps)}.csv"
        reps.append(run_child(workload, args.seed, out, deadline))
        check(workload, out, reference, tally)
        now = time.monotonic()
        if now - started + (now - rep_start) > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return reps, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="riscest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riscest" / "cli.py").is_file():
        print(f"perfbench: no riscest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tally = {"attempted": 0, "failed": 0, "failures": [], "spans_missing": False}
    try:
        reps, metrics = measure(workload, args, workloads.load_reference(), tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for msg in tally["failures"][:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAIL {msg}", file=sys.stderr)
    units = workloads.LAYER_UNITS if args.trace else E2E_UNITS
    missing = units.keys() - metrics.keys()
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": tally["failed"] == 0 and not tally["spans_missing"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"manifest": manifest(args, reps), "failures": tally["failures"],
              "repetitions": reps, "result": result}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"manifest": record["manifest"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
