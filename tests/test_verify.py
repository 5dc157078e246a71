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


@pytest.mark.parametrize("seed", [0, 7, 20220])
def test_summary_repeats_byte_for_byte(seed):
    assert summarize(run_all(seed, 5), seed) == summarize(run_all(seed, 5), seed)
