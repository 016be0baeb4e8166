"""Acceptance gate: one line per numbered criterion of the validation registry.

Each criterion is computed once by riscest.validation.run_validation (shared
with tests/test_validation.py); these tests only look up its result.  Run
with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""


def record(results, name: str):
    (r,) = [r for r in results if r.name == name]
    print(f"ACCEPTANCE {name}: {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    assert r.passed, f"{name}: {r.detail}"


def test_criterion_1_moment_oracle(validation_results):
    record(validation_results, "1-moment-oracle")


def test_criterion_2_theory_vs_empirical(validation_results):
    record(validation_results, "2-theory-vs-empirical")


def test_criterion_3_collapse_identity(validation_results):
    record(validation_results, "3-collapse-identity")


def test_criterion_4_ordering(validation_results):
    record(validation_results, "4-ordering")


def test_criterion_5_power_floor(validation_results):
    record(validation_results, "5-power-floor")


def test_criterion_6_lmmse_dominance(validation_results):
    record(validation_results, "6-lmmse-dominance")


def test_criterion_7_protocol_invariants(validation_results):
    record(validation_results, "7-protocol-invariants")


def test_criterion_8_determinism(validation_results):
    record(validation_results, "8-determinism")


def test_criterion_9_overhead_accounting(validation_results):
    record(validation_results, "9-overhead-accounting")
