"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The traced smoke runs call the same entry points as the real workloads at a
reduced size, so they take seconds rather than minutes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import SITES, Tracer, self_times, tail_percentile  # noqa: E402
from workloads import ACTIVE_ON, DESK_INI, LAYER_METRICS, WORKLOADS  # noqa: E402

# Reduced versions of each workload that take the same code paths: fig2-ref
# keeps G=N (ungrouped LS/LMMSE, the bank) but on the desk scenario.
SMOKE_ARGS = {
    "theory-ref": ["--snr-min-db", "0", "--snr-max-db", "10", "--snr-step-db", "10"],
    "desk-mc": ["--trials", "3"],
    "fig2-ref": ["--config", str(DESK_INI), "--groups", "4", "16", "--trials", "3"],
}


def _site_values():
    import importlib

    values = []
    for module, cls, attr, _ in SITES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        values.append(vars(owner)[attr])
    return values


@pytest.fixture
def out_dir() -> Path:
    path = HERE / "out" / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _smoke(name: str, out_dir: Path) -> tuple[Tracer, Path]:
    from riscest import cli

    out = out_dir / f"{name}.csv"
    argv = WORKLOADS[name].cli_args(seed=7, out=out) + SMOKE_ARGS[name]
    with Tracer() as tracer:
        assert cli.main(argv) == 0
    return tracer, out


def test_self_time_of_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a [1, 4]        2   b [5, 9]
    #   3     a1 [2, 3]     4     b1 [5, 7]   5   b2 [6, 8] (overlaps b1)
    starts = [0.0, 1.0, 5.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 3.0, 7.0, 8.0]
    parents = [-1, 0, 0, 1, 2, 2]
    assert self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_a_child_reaching_past_its_parent_is_clipped():
    assert self_times([0.0, 2.0], [4.0, 9.0], [-1, 0]).tolist() == [2.0, 7.0]


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert tail_percentile(60000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(19) is None


def test_every_patched_attribute_is_restored(out_dir):
    before = _site_values()
    tracer, _ = _smoke("desk-mc", out_dir)
    assert _site_values() == before
    assert tracer.span_calls()["montecarlo.cell_trial"] > 0


def test_attributes_are_restored_when_the_traced_call_raises():
    before = _site_values()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert _site_values() != before
            raise RuntimeError("boom")
    assert _site_values() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_active_span_fires(name, out_dir):
    tracer, out = _smoke(name, out_dir)
    calls = tracer.span_calls()
    silent = [span for span, active in ACTIVE_ON.items() if name in active and not calls.get(span)]
    assert not silent
    metrics = tracer.metrics()
    assert set(metrics) | {"cli.csv_bytes", "trace_overhead_frac"} == {m[0] for m in LAYER_METRICS}
    assert metrics["training.orthogonality_warnings"] > 0
    if WORKLOADS[name].monte_carlo:
        assert metrics["montecarlo.bank.builds"] > 0
        assert metrics["montecarlo.bank_bytes"] > 0
    if name == "desk-mc":
        assert metrics["channel.sample.unique_frac"] == pytest.approx(0.5)
    assert workloads.read_rows(out)


def test_desk_config_reproduces_desk_scenario():
    from riscest import desk_scenario, load_config

    got, want = load_config(str(DESK_INI)).scenario, desk_scenario()
    for field in ("bs_position", "ris_position", "ue_positions", "n_x", "n_y",
                  "m_antennas", "delta_x", "delta_y", "delta_0", "wavelength"):
        assert np.array_equal(getattr(got.geometry, field), getattr(want.geometry, field)), field
    for field in ("kappa_a", "kappa_g", "alpha_a", "alpha_g", "alpha_b", "rho_0",
                  "eta", "direct_blocked"):
        assert np.array_equal(getattr(got.fading, field), getattr(want.fading, field)), field
    assert (got.sigma_w2, got.psi, got.name) == (want.sigma_w2, want.psi, want.name)


def _reference_rows(name):
    reference = workloads.load_reference()
    return reference, [dict(r) for r in reference[name]["rows"]]


def test_gate_passes_the_reference_and_a_zeroed_near_zero_floor():
    reference, rows = _reference_rows("theory-ref")
    assert workloads.check_output(WORKLOADS["theory-ref"], rows, reference) == (len(rows), [])
    tiny = [r for r in reference["fig2-ref"]["rows"] if 0 < r["nmse_floor"] < 1e-12]
    assert tiny, "the reference should hold the near-zero LMMSE floor at G=N"
    for ref in tiny:
        row = dict(ref, nmse_floor=0.0, nmse_empirical=ref["nmse_theory"], stderr=1.0)
        assert workloads.row_failures(WORKLOADS["fig2-ref"], row, ref) == []


def test_gate_flags_theory_drift_missing_rows_and_bad_empirical_values():
    reference, rows = _reference_rows("theory-ref")
    rows[0]["nmse_theory"] *= 1 + 1e-9
    attempted, failures = workloads.check_output(WORKLOADS["theory-ref"], rows[1:] + rows[:1], reference)
    assert (attempted, len(failures)) == (len(rows), 1)
    _, failures = workloads.check_output(WORKLOADS["theory-ref"], rows[1:], reference)
    assert len(failures) == 1 and "missing" in failures[0]

    wl = WORKLOADS["fig2-ref"]
    ref = reference["fig2-ref"]["rows"][0]
    row = dict(ref, nmse_empirical=ref["nmse_theory"] * 1.01, stderr=ref["nmse_theory"] * 0.01)
    assert workloads.row_failures(wl, row, ref) == []
    assert workloads.row_failures(wl, dict(row, stderr=ref["nmse_theory"] * 1e-4), ref)
    assert workloads.row_failures(wl, dict(row, nmse_empirical=math.nan), ref)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
