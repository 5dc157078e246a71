"""Tests for the randomized oracle suites behind ``verify``."""

import pytest

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
        for tag, value in [("a", 0.5), ("b", 0.25), ("c", 0.75), ("d", 0.75), ("e", 0.1)]:
            check.record(value, label, tag, value)
        assert calls == []
        assert check.max_deviation == 0.75
        # under a tie the first worst keeps its label
        assert check.worst_input == "c=0.75"
        assert calls == ["c"]

    def test_a_check_with_no_positive_deviation_keeps_the_default_label(self):
        check = CheckResult("demo", 1.0)
        check.record(0.0, str, "never")
        assert (check.max_deviation, check.worst_input) == (0.0, "none")

    def test_failing_summary_prints_one_label_per_failure(self):
        summary = summarize(run_all(3, 5, tolerance_scale=0.0), 3)
        fails = summary.count("\nFAIL ")
        assert fails > 0
        assert summary.count("worst input: ") == fails
        assert "worst input: none" not in summary
