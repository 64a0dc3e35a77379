"""The tests' Brownian interval and pendulum are the benchmark's models."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from refs import brownian_exit_moments  # noqa: E402

from models import BROWNIAN, BROWNIAN_MOMENTS, PENDULUM  # noqa: E402


def test_the_benchmark_solves_the_models_the_tests_check():
    assert (BROWNIAN, PENDULUM) == (workloads.BROWNIAN, workloads.PENDULUM)


def test_the_brownian_moments_are_the_benchmark_references():
    assert BROWNIAN_MOMENTS == brownian_exit_moments(6)
