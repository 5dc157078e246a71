"""Tests for the randomized oracle suites behind ``verify``."""

import copy

import numpy as np
import pytest

from su2qfi import verify
from su2qfi.verify import CheckResult, run_all, summarize


def test_every_check_passes_across_seeds():
    failing = [
        (seed, res.name, res.max_deviation, res.tolerance)
        for seed in range(200)
        for res in run_all(seed, 5)
        if not res.passed
    ]
    assert failing == []


def test_sample_count_below_one_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        run_all(0, 0)


@pytest.mark.parametrize("seed", [0, 7, 20220])
def test_summary_repeats_byte_for_byte(seed):
    assert summarize(run_all(seed, 5), seed) == summarize(run_all(seed, 5), seed)


class TestCheckResultLabels:
    def test_record_formats_nothing_until_the_label_is_read(self):
        calls = []

        def label(tag, value):
            calls.append(tag)
            return f"{tag}={value}"

        check = CheckResult("demo", 1.0)
        assert check.worst_input == "none"
        values = np.array([0.5, 0.25, 0.75, 0.75, 0.1])
        check.record(values, label, ["a", "b", "c", "d", "e"], values)
        assert calls == []
        assert check.max_deviation == 0.75
        # under a tie the first worst keeps its label
        assert check.worst_input == "c=0.75"
        assert calls == ["c"]
        assert check.used == 5

    def test_the_first_nan_fails_the_check_and_keeps_its_label(self):
        check = CheckResult("demo", 1.0)
        nan = float("nan")
        check.record(np.array([0.5, nan, 2.0, nan]), str, ["a", "b", "c", "d"])
        assert np.isnan(check.max_deviation) and not check.passed
        assert check.worst_input == "b"
        # a later NaN, or a later larger number, keeps the first NaN's label
        check.record(np.array([3.0, nan]), str, ["e", "f"])
        assert np.isnan(check.max_deviation) and check.worst_input == "b"
        assert check.used == 6

    def test_a_later_call_that_does_not_beat_the_worst_keeps_its_label(self):
        check = CheckResult("demo", 1.0)
        check.record(np.array([0.25, 0.5]), str, ["a", "b"])
        check.record(np.array([0.5, 0.125]), str, ["c", "d"])
        assert (check.max_deviation, check.worst_input) == (0.5, "b")
        check.record(np.array([0.0, 0.75]), str, ["e", "f"])
        assert (check.max_deviation, check.worst_input) == (0.75, "f")
        assert check.used == 6

    def test_an_empty_record_counts_nothing(self):
        check = CheckResult("demo", 1.0)
        check.record(np.array([]), str, [])
        assert (check.used, check.max_deviation, check.worst_input) == (0, 0.0, "none")
        check.record(np.array([0.5]), str, ["a"])
        check.record(np.array([]), str, [])
        assert (check.used, check.max_deviation, check.worst_input) == (1, 0.5, "a")

    def test_a_check_with_no_positive_deviation_keeps_the_default_label(self):
        check = CheckResult("demo", 1.0)
        check.record(np.array([0.0, 0.0]), str, ["never", "never"])
        assert (check.max_deviation, check.worst_input) == (0.0, "none")

    def test_failing_summary_prints_one_label_per_failure(self):
        summary = summarize(run_all(3, 5, tolerance_scale=0.0), 3)
        fails = summary.count("\nFAIL ")
        assert fails > 0
        assert summary.count("worst input: ") == fails
        assert "worst input: none" not in summary


CHECK_NAMES = [
    "generator/closed-vs-series",
    "generator/closed-vs-numeric",
    "generator/series-vs-numeric",
    "qfim/qfi-vs-variance-oracle",
    "qfim/qfim-vs-trace-oracle",
    "qfim/weak-comm-vs-trace-oracle",
    "entangled/qfi-vs-4x4-oracle",
    "entangled/weak-comm-zero",
    "sld/commutation-identity",
    "trotter/gap-halving-ratio",
]
SERIES_CHECKS = {"generator/closed-vs-series", "generator/series-vs-numeric"}


@pytest.mark.parametrize("samples", [1, 2, 5])
@pytest.mark.parametrize("seed", [0, 7, 20220])
def test_stacks_of_one_and_two_samples_pass_with_every_check_in_order(seed, samples):
    results = run_all(seed, samples)
    assert [res.name for res in results] == CHECK_NAMES
    assert all(res.passed for res in results)


class TestSkipCounts:
    @pytest.mark.parametrize("seed, samples", [(0, 1), (3, 2), (7, 5), (20220, 200)])
    def test_every_sample_is_used_or_skipped(self, seed, samples):
        for res in run_all(seed, samples):
            assert res.used + res.skipped == samples, res.name
            if res.name not in SERIES_CHECKS:
                assert res.skipped == 0, res.name

    def test_the_series_checks_skip_the_series_refusals(self):
        skipped = {res.name: res.skipped for res in run_all(20220, 200) if res.skipped}
        assert set(skipped) == SERIES_CHECKS
        # both series checks skip the same refused samples, and not all of them
        assert len(set(skipped.values())) == 1 and max(skipped.values()) < 200

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_summary_does_not_print_the_counters(self, scale):
        results = run_all(20220, 50, tolerance_scale=scale)
        bare = [copy.copy(res) for res in results]
        for res in bare:
            res.used = res.skipped = 0
        assert summarize(results, 20220) == summarize(bare, 20220)


def _off_by_1e_9(fn):
    """``fn`` with its result scaled by 1 + 1e-9."""
    return lambda *args: fn(*args) * (1.0 + 1e-9)


def _commutator_off_by_1e_9(fn):
    """``entangled_weak_comm`` shifted by 1e-9 |Y_a| |Y_b|: its exact value is
    0, so the shift is relative to the size of the commutator's terms."""

    def mutant(gen_a, gen_b, probe):
        scale = np.linalg.norm(gen_a, axis=-1) * np.linalg.norm(gen_b, axis=-1)
        return fn(gen_a, gen_b, probe) + 1e-9 * scale

    return mutant


MUTANTS = {
    "qfim_pure": (
        _off_by_1e_9,
        {"qfim/qfi-vs-variance-oracle", "qfim/qfim-vs-trace-oracle", "entangled/qfi-vs-4x4-oracle"},
    ),
    "weak_comm_matrix": (_off_by_1e_9, {"qfim/weak-comm-vs-trace-oracle"}),
    "closed_form_generator": (_off_by_1e_9, {"generator/closed-vs-series"}),
    "series_generator": (_off_by_1e_9, {"generator/closed-vs-series"}),
    "entangled_weak_comm": (_commutator_off_by_1e_9, {"entangled/weak-comm-zero"}),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_closed_form_off_by_1e_9_fails_its_check(monkeypatch, name):
    """Each closed form the suites check, perturbed by 1e-9 relative in the
    verify namespace, fails exactly the checks that compare it with an oracle:
    no stacked oracle path routes a check around the library."""
    make_mutant, expected = MUTANTS[name]
    monkeypatch.setattr(verify, name, make_mutant(getattr(verify, name)))
    results = run_all(3, 5)
    assert {res.name for res in results if not res.passed} == expected
    assert all(res.used > 0 for res in results if res.name in expected)


def test_a_closed_form_that_returns_nan_fails_its_checks(monkeypatch):
    original = verify.qfim_pure
    monkeypatch.setattr(verify, "qfim_pure", lambda gens, r: original(gens, r) * np.nan)
    results = run_all(3, 5)
    assert {res.name for res in results if not res.passed} == MUTANTS["qfim_pure"][1]
    assert "max deviation nan" in summarize(results, 3)
