"""The benchmark stays in step with the package: its metric and workload
names are consistent, every gmsim function it wraps still exists,
restoring the spans puts every binding back, and every workload's config
still loads.  The checks only import; none starts a process."""

import importlib
import sys
from pathlib import Path

import pytest

from gmsim.config import parse_config, validate_potentials

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _perfbench_module(name):
    # perfbench/ is a script directory: its modules import each other by
    # bare name, as when run from there.
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def selftest():
    yield from _perfbench_module("selftest")


@pytest.fixture(scope="module")
def workloads():
    yield from _perfbench_module("workloads")


def test_benchmark_names(selftest):
    selftest.check_names()


def test_benchmark_spans_install_and_restore(selftest):
    selftest.check_install_restore()


def test_benchmark_workload_configs_load(workloads):
    # A new load-time rule must not reject a benchmark workload.
    for workload in workloads.WORKLOADS.values():
        for seed in range(16):
            validate_potentials(parse_config(workload.config_text(seed)))
