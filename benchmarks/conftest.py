"""Benchmark fixtures.

Every paper artifact (table/figure) has one benchmark module that
regenerates it at ``small`` scale and prints the rendered artifact, so
``pytest benchmarks/ --benchmark-only`` both times the harness and leaves
the reproduced numbers in the log. ``REPRO_BENCH_SCALE=full`` switches to
the paper-complete workloads.
"""

import os

import numpy as np
import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def pytest_addoption(parser):
    parser.addoption("--ledger", default=None, metavar="FILE",
                     help="where test_ci_gates.py writes its run ledger "
                          "(default: a pytest temporary directory)")


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session")
def bench_field():
    """A representative mid-size field for kernel microbenchmarks."""
    from repro.datasets import load_field
    return load_field("jhtdb", "u", shape=(96, 96, 96))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
