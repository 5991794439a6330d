"""Shared benchmark configuration.

Every module reproduces one table/figure of the paper; the experiment
result is printed after the timing run, so
``pytest benchmarks/ --benchmark-only -s`` regenerates the paper's
rows/series.  Scales are reduced relative to the paper (Python vs. the
authors' C++/cluster); EXPERIMENTS.md records the correspondence.
"""

import json
import os
import platform
import statistics
import sys
import time

import pytest

from repro import obs
from repro.dtd.samples import nitf_dtd
from repro.merging.engine import PathUniverse
from repro.workloads.datasets import set_a, set_b

#: Queries per Set A/B dataset — 1.2% of the paper's 100,000.  Set B
#: needs half its queries mutually incomparable, and our NITF stand-in's
#: depth-10 path space supports ~1,300 such queries at most, so this is
#: close to the largest faithful Set B this DTD can carry.
PAPER_SET_SIZE = 1200


#: Path of the machine-readable observability artifact the benchmark
#: session writes (and CI uploads): repo root / BENCH_obs.json.
BENCH_OBS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_obs.json",
)


def _calibrate(iterations: int = 200000) -> float:
    """Seconds for a fixed pure-Python workload on this machine.

    Stored alongside the metrics so the regression gate can compare
    runs across machines of different speeds: hot-path timings are
    divided by this figure before the baseline ratio test.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(iterations):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    if total < 0:  # keep the loop observable
        raise AssertionError("unreachable")
    return time.perf_counter() - start


#: Calibration loops run at each end of the session.  One loop on a
#: noisy VM reads well away from the machine's speed; the artifact
#: records the median of all of them, with the samples beside it.
CALIBRATION_REPEATS = 3

_calibration_samples = []


def _calibrate_repeatedly():
    _calibration_samples.extend(
        _calibrate() for _ in range(CALIBRATION_REPEATS)
    )


def pytest_sessionstart(session):
    _calibrate_repeatedly()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper: marks benchmarks that regenerate a paper table/figure"
    )
    config.addinivalue_line(
        "markers",
        "soak: long-running scale benchmarks (1M subscriptions) — "
        'excluded from the PR lanes with -m "not soak"',
    )
    # The benchmark session runs with hot-path metrics ON so the
    # BENCH_obs.json artifact records every instrumented component's
    # timing distribution (the perf trajectory CI tracks).
    obs.enable_metrics(reset=True)


def pytest_sessionfinish(session, exitstatus):
    registry = obs.get_registry()
    if not registry.metric_names():
        return  # collection-only / fully-skipped session
    _calibrate_repeatedly()
    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "argv": sys.argv[1:],
            "paper_set_size": PAPER_SET_SIZE,
            "calibration_seconds": statistics.median(_calibration_samples),
            "calibration_samples": list(_calibration_samples),
            "unix_time": time.time(),
        },
        "metrics": registry.snapshot(),
    }
    with open(BENCH_OBS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line("observability snapshot: %s" % BENCH_OBS_PATH)


@pytest.fixture(scope="session")
def paper_sets():
    """Sets A and B at the shared benchmark size.

    Construction takes minutes (Set B assembles an antichain close to
    the DTD's ceiling), so the built sets are cached on disk as XPE
    strings, keyed by size and seed; delete ``benchmarks/.dataset_cache``
    to force a rebuild.
    """
    import json
    import os

    from repro.workloads.datasets import Dataset
    from repro.xpath.parser import parse_xpath

    cache_dir = os.path.join(os.path.dirname(__file__), ".dataset_cache")
    os.makedirs(cache_dir, exist_ok=True)
    cache_file = os.path.join(
        cache_dir, "paper_sets_%d_v1.json" % PAPER_SET_SIZE
    )
    if os.path.exists(cache_file):
        with open(cache_file) as handle:
            payload = json.load(handle)
        return tuple(
            Dataset(
                name=item["name"],
                exprs=tuple(parse_xpath(t) for t in item["exprs"]),
                target_covering_rate=item["rate"],
            )
            for item in payload
        )

    datasets = (set_a(PAPER_SET_SIZE), set_b(PAPER_SET_SIZE))
    with open(cache_file, "w") as handle:
        json.dump(
            [
                {
                    "name": dataset.name,
                    "exprs": [str(e) for e in dataset.exprs],
                    "rate": dataset.target_covering_rate,
                }
                for dataset in datasets
            ],
            handle,
        )
    return datasets


@pytest.fixture(scope="session")
def nitf_universe():
    return PathUniverse.from_dtd(nitf_dtd(), max_depth=8)


@pytest.fixture(scope="session")
def report_sink():
    """Collects formatted experiment tables and prints them at the end
    of the session so they survive pytest-benchmark's output."""
    tables = []
    yield tables
    if tables:
        print("\n")
        print("=" * 72)
        print("REPRODUCED TABLES AND FIGURES")
        print("=" * 72)
        for table in tables:
            print()
            print(table)
