"""The benchmark's tracing stays in step with the package: its metric and
workload names are consistent, every gmsim function it wraps still exists,
and restoring the spans puts every binding back.  Both checks only import;
neither starts a process."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def selftest():
    # perfbench/ is a script directory: its modules import each other by
    # bare name, as when run from there.
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("selftest")
    finally:
        sys.path.remove(PERFBENCH)


def test_benchmark_names(selftest):
    selftest.check_names()


def test_benchmark_spans_install_and_restore(selftest):
    selftest.check_install_restore()
