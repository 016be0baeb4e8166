"""Span tracer that wraps riscest's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory, and counters sit at the same boundaries.  Leaving the
`with Tracer()` block puts every patched attribute back, so code that runs
afterwards in the same process is the unpatched program.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import warnings
import weakref
from array import array
from collections import Counter

import numpy as np

from workloads import KINDS

# (module, class or None, attribute, span).  A module that did
# `from .x import f` holds its own binding of f, so a function is patched in
# every module that looks it up on the traced paths, not only where it is
# defined.  Methods are patched on the class.
SITES = (
    ("riscest.scenario", "Scenario", "statistics", "scenario.statistics"),
    ("riscest.channel", "ChannelSampler", "__init__", "channel.sampler_init"),
    ("riscest.channel", "ChannelSampler", "sample", "channel.sample"),
    ("riscest.cli", None, "make_training_config", "training.make_config"),
    ("riscest.montecarlo", None, "make_training_config", "training.make_config"),
    ("riscest.moments", None, "build_Z", "training.build_Z"),
    ("riscest.training", None, "build_Z", "training.build_Z"),
    ("riscest.montecarlo", None, "synthesize_received", "training.synthesize"),
    ("riscest.cli", None, "build_moments", "moments.build"),
    ("riscest.montecarlo", None, "build_moments", "moments.build"),
    ("riscest.cli", None, "make_estimator", "estimators.filter"),
    ("riscest.montecarlo", None, "make_estimator", "estimators.filter"),
    ("riscest.cli", None, "asymptotic_mse", "estimators.asymptotic_mse"),
    ("riscest.montecarlo", None, "asymptotic_mse", "estimators.asymptotic_mse"),
    ("riscest.estimators", None, "asymptotic_mse", "estimators.asymptotic_mse"),
    ("riscest.estimators", "AffineEstimator", "squared_error", "estimators.squared_error"),
    ("riscest.montecarlo", "SweepEngine", "bank", "montecarlo.bank"),
    ("riscest.montecarlo", "SweepEngine", "trial_rng", "montecarlo.trial_rng"),
    ("riscest.montecarlo", "SweepEngine", "run_cell_trial", "montecarlo.cell_trial"),
    ("riscest.cli", None, "run_sweep", "montecarlo.reduce"),
    ("riscest.cli", None, "cmd_theory", "cli.theory"),
    ("riscest.cli", None, "write_csv", "cli.write_csv"),
)



def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent and overlapping children are counted
    once, so the result never double-counts and never goes below zero.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(starts.shape[0])
    current, reach = -1, 0.0
    for i in np.lexsort((starts, parents)).tolist():
        p = int(parents[i])
        if p < 0:
            continue
        if p != current:
            current, reach = p, float(starts[p])
        lo = max(float(starts[i]), reach)
        hi = min(float(ends[i]), float(ends[p]))
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (ends - starts) - covered


def tail_percentile(n_samples: int) -> float | None:
    """Highest of the usual percentiles that leaves at least ten samples above it."""
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n_samples * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def _bank_nbytes(bank) -> int:
    total = bank.z_full.nbytes + bank.z_grouped.nbytes
    for per_user in bank.filters.values():
        total += sum(f.W.nbytes + f.error_cov.nbytes for f in per_user)
    return total


class Tracer:
    """Patch riscest on entry, record spans and counters, restore on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.trial_keys: set[tuple[int, int]] = set()
        self._live_banks: dict[int, int] = {}  # id(bank) -> computed bytes
        self.peak_bank_bytes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._warnings = None

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _discard_last(self) -> None:
        """Forget the last span recorded, which has no children."""
        for arr in (self.name_ids, self.parents, self.ends, self.starts):
            arr.pop()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, span: str, fn):
        nid = self._name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _filter(self, fn):
        ids = {kind: self._name_id(f"estimators.filter.{kind}") for kind in KINDS}

        @functools.wraps(fn)
        def make_estimator(kind, *args, **kwargs):
            i = self._open(ids[getattr(kind, "value", kind)])
            try:
                est = fn(kind, *args, **kwargs)
            finally:
                self._close(i)
            self.counts["estimators.degenerate_filters"] += bool(est.degenerate)
            return est

        return make_estimator

    def _moments(self, fn):
        nid = self._name_id("moments.build")

        @functools.wraps(fn)
        def build_moments(stats, k, config, block_ideal=False):
            self.counts["moments.build_ideal.calls"] += bool(block_ideal)
            i = self._open(nid)
            try:
                return fn(stats, k, config, block_ideal=block_ideal)
            finally:
                self._close(i)

        return build_moments

    def _bank(self, fn):
        """Spans only the call that builds a bank; later hits are counted."""
        nid = self._name_id("montecarlo.bank")

        @functools.wraps(fn)
        def bank(engine, group_index, snr_index):
            self.counts["montecarlo.bank.calls"] += 1
            i = self._open(nid)
            try:
                result = fn(engine, group_index, snr_index)
            finally:
                self._close(i)
            key = id(result)
            if key in self._live_banks:
                if i == len(self.starts) - 1:
                    self._discard_last()
                return result
            self.counts["montecarlo.bank.builds"] += 1
            self._live_banks[key] = _bank_nbytes(result)
            weakref.finalize(result, self._live_banks.pop, key, None)
            self.peak_bank_bytes = max(self.peak_bank_bytes, sum(self._live_banks.values()))
            return result

        return bank

    def _cell_trial(self, fn):
        nid = self._name_id("montecarlo.cell_trial")

        @functools.wraps(fn)
        def run_cell_trial(engine, group_index, snr_index, trial_index, digest=False):
            self.trial_keys.add((snr_index, trial_index))
            i = self._open(nid)
            try:
                errors, obs_digest = fn(engine, group_index, snr_index, trial_index, digest)
            finally:
                self._close(i)
            self.counts["estimators.nan_trials"] += sum(
                any(math.isnan(e) for e in err.tolist()) for err in errors.values()
            )
            return errors, obs_digest

        return run_cell_trial

    def _wrap(self, span: str, fn):
        special = {
            "estimators.filter": self._filter,
            "moments.build": self._moments,
            "montecarlo.bank": self._bank,
            "montecarlo.cell_trial": self._cell_trial,
        }.get(span)
        return special(fn) if special else self._timed(span, fn)

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> Tracer:
        from riscest.training import PatternOrthogonalityWarning

        try:
            for module, cls, attr, span in SITES:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(span, original))
                self._patches.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        # Record every PatternOrthogonalityWarning and still show it.
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always", PatternOrthogonalityWarning)
        show = warnings.showwarning

        def count_and_show(message, category, *args, **kwargs):
            if issubclass(category, PatternOrthogonalityWarning):
                self.counts["training.orthogonality_warnings"] += 1
            show(message, category, *args, **kwargs)

        warnings.showwarning = count_and_show
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the raw spans, for inspection after the run."""
        np.savez(
            path, names=np.array(self.names), name_ids=np.asarray(self.name_ids),
            starts=np.asarray(self.starts), ends=np.asarray(self.ends),
            parents=np.asarray(self.parents),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        cli.csv_bytes and trace_overhead_frac need the output file and an
        untraced run, so the caller adds them.
        """
        name_ids = np.asarray(self.name_ids, dtype=np.int64)
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        own = self_times(starts, self.ends, self.parents)
        n_names = len(self.names)
        calls = np.bincount(name_ids, minlength=n_names)
        total = np.bincount(name_ids, weights=durations, minlength=n_names)
        total_self = np.bincount(name_ids, weights=own, minlength=n_names)

        def col(array_, span):
            return float(array_[self._ids[span]]) if span in self._ids else 0.0

        out: dict[str, float] = {}
        for span in (
            "scenario.statistics", "channel.sample", "training.make_config",
            "training.build_Z", "training.synthesize", "moments.build",
            "estimators.asymptotic_mse", "estimators.squared_error",
            "montecarlo.trial_rng", "montecarlo.cell_trial",
            *(f"estimators.filter.{kind}" for kind in KINDS),
        ):
            out[f"{span}.s"] = col(total, span)
            out[f"{span}.calls"] = int(col(calls, span))
        out["channel.sampler_init.s"] = col(total, "channel.sampler_init")
        sample_calls = out["channel.sample.calls"]
        out["channel.sample.unique_frac"] = len(self.trial_keys) / sample_calls if sample_calls else 0.0
        for counter in (
            "training.orthogonality_warnings", "moments.build_ideal.calls",
            "estimators.nan_trials", "estimators.degenerate_filters",
        ):
            out[counter] = self.counts[counter]
        out["montecarlo.bank.s"] = col(total, "montecarlo.bank")
        builds = self.counts["montecarlo.bank.builds"]
        bank_calls = self.counts["montecarlo.bank.calls"]
        out["montecarlo.bank.builds"] = builds
        out["montecarlo.bank.hit_frac"] = 1.0 - builds / bank_calls if bank_calls else 0.0
        out["montecarlo.bank_bytes"] = self.peak_bank_bytes

        trial_us = 1e6 * durations[name_ids == self._ids.get("montecarlo.cell_trial", -1)]
        pct = tail_percentile(trial_us.size)
        out["montecarlo.cell_trial.self_s"] = col(total_self, "montecarlo.cell_trial")
        out["montecarlo.cell_trial.p50_us"] = float(np.median(trial_us)) if trial_us.size else 0.0
        out["montecarlo.cell_trial.tail_us"] = float(np.percentile(trial_us, pct)) if pct else 0.0
        out["montecarlo.cell_trial.tail_pct"] = pct or 0.0
        out["montecarlo.reduce.self_s"] = col(total_self, "montecarlo.reduce")
        out["cli.theory.self_s"] = col(total_self, "cli.theory")
        out["cli.write_csv.s"] = col(total, "cli.write_csv")
        return out

    def span_calls(self) -> dict[str, int]:
        calls = np.bincount(np.asarray(self.name_ids, dtype=np.int64), minlength=len(self.names))
        return {name: int(calls[i]) for i, name in enumerate(self.names)}
