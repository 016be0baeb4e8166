"""One repetition of a benchmark workload, run by run.py in a fresh process.

Times the set-up (imports, config load, Scenario.statistics() and, for the
Monte Carlo workloads, a ChannelSampler) and then one riscest CLI entry call,
untraced or traced.  Prints one JSON object as the last line of stdout.

    python3 perfbench/child.py --workload NAME --seed N --out CSV [--setup-only] [--spans NPZ]

--spans traces the entry call and writes the raw spans to NPZ.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

_BLAS_QUERIES = (
    ("config", "get_config", ctypes.c_char_p),
    ("corename", "get_corename", ctypes.c_char_p),
    ("threads", "get_num_threads", ctypes.c_int),
)


def blas_facts() -> list[dict]:
    """Configuration, core type and thread count of every loaded OpenBLAS.

    numpy and scipy each bundle their own copy; both are asked through
    read-only getters of the library already mapped into this process.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return []
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for key, stem, restype in _BLAS_QUERIES:
            for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                         f"openblas_{stem}64_", f"openblas_{stem}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        facts.append(entry)
    return facts


def runtime_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas": blas_facts(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    start = time.perf_counter()
    import riscest
    from riscest import cli
    from riscest.channel import ChannelSampler

    package = Path(riscest.__file__).resolve().parent
    if package != workloads.ROOT / "src" / "riscest":
        print(f"riscest was imported from {package}, not from this checkout", file=sys.stderr)
        return 3
    config = riscest.load_config(None if workload.config is None else str(workload.config))
    stats = config.scenario.statistics()
    if workload.monte_carlo:
        ChannelSampler(stats)
    result: dict = {"setup_s": time.perf_counter() - start}

    tracer = None
    if not args.setup_only:
        cli_args = workload.cli_args(args.seed, args.out)
        if args.spans is None:
            start = time.perf_counter()
            status = cli.main(cli_args)
            result["wall_s"] = time.perf_counter() - start
        else:
            from tracing import Tracer

            with Tracer() as tracer:
                start = time.perf_counter()
                status = cli.main(cli_args)
                result["wall_s"] = time.perf_counter() - start
        if status != 0:
            print(f"riscest {' '.join(cli_args)} exited with {status}", file=sys.stderr)
            return 4

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["cpu_s"] = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    result["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # Linux reports KiB
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.csv_bytes"] = os.path.getsize(args.out)
        result["span_calls"] = tracer.span_calls()
        tracer.dump(args.spans)
    result["runtime"] = runtime_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
