"""Schema check of the end-to-end benchmark (not part of tier-1).

Runs ``run.py --quick`` (1 repeat, 2 rounds, ``mass7_sim`` cut to 2 000
subscriptions; ~1 min with the traced pass) and checks what the driver
contract and later issues rely on:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_schema.py -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*flags):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *flags],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout.decode()[-2000:]
    line = json.loads(done.stdout.decode().strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", "result.json")) as handle:
        return line, json.load(handle)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_manifest_limits(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = (
        [w["name"] for w in manifest["workloads"]]
        + [m["name"] for m in manifest["end_to_end"]]
        + [m["name"] for m in manifest["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_end_to_end_metrics(manifest):
    line, document = _run()
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    for workload in manifest["workloads"]:
        result = document["results"][workload["name"]]
        assert result["fail_share"] == 0
        for metric in manifest["end_to_end"]:
            reported = line["metrics"]["%s/%s" % (workload["name"], metric["name"])]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0
    assert len(line["metrics"]) == (
        len(manifest["workloads"]) * len(manifest["end_to_end"])
    )


def test_ledger_sums_to_the_profiled_whole(manifest):
    line, document = _run("--traced")
    assert line["correct"] is True
    layer_names = [m["name"] for m in manifest["per_layer"]]
    for workload in manifest["workloads"]:
        name = workload["name"]
        traced = document["results"][name]["traced"]
        assert sorted(traced["metrics"]) == sorted(layer_names)
        wall = traced["profiled_wall_seconds"]
        assert traced["ledger_seconds"] == pytest.approx(wall, rel=0.01)
        whole = sum(
            value for metric, value in traced["metrics"].items()
            if metric.endswith(".self_us_per_doc")
        )
        unattributed = traced["metrics"]["layer.unattributed.self_us_per_doc"]
        assert unattributed <= 0.05 * whole
        asyncio_us = traced["metrics"]["layer.runtime.asyncio.self_us_per_doc"]
        assert (asyncio_us > 0) == (name == "psd7_asyncio")
