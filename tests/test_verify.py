"""Tests for the randomized oracle suites behind ``verify``."""

import pytest

from su2qfi.verify import run_all, summarize


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
