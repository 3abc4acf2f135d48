"""The benchmark's contract: every workload of BENCHMARK.json runs one
sample through ``perfbench/run.py`` and ends in a JSON result line.

The runs read perfbench/ and write nothing there (no bytecode either).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [
    w["name"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
# basis size of the complexes each CLI workload builds
BASIS = {"sphere3-hkr": 2782, "circle-trunc3": 3069}
# basis size per level of the four cochain complexes wedge-cochains builds:
# S¹, S¹∨S¹, (S¹∨S¹)∨S¹ and S¹∨(S¹∨S¹) over k[x]/x², to level 4
COCHAIN_LEVEL_DIMS = [
    [2, 2, 2, 2, 2], [2, 6, 18, 54, 162], [2, 14, 98, 686, 4802],
    [2, 14, 98, 686, 4802],
]


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    return lines[:-1], result["metrics"]


def test_benchmark_lists_the_workloads():
    assert sorted(WORKLOADS) == sorted(
        ["sphere3-hkr", "circle-trunc3", "wedge-cochains"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_in_a_result(workload):
    report, metrics = bench(workload, trace=1)
    assert not [line for line in report if "absent" in line]
    assert "homalg.total_complex_s" in metrics
    if workload in BASIS:
        assert metrics["hochschild.basis"]["value"] == BASIS[workload]
        explained = [l for l in report if "explain level dims:" in l]
        measured = [l for l in report if "measured level dims:" in l]
        (explained,), (measured,) = explained, measured
        assert measured.split(":", 1)[1].strip() == (
            f"[{explained.split(':', 1)[1].strip()}]"
        )
    if workload == "wedge-cochains":
        (measured,) = [l for l in report if "measured level dims:" in l]
        assert json.loads(measured.split(":", 1)[1]) == COCHAIN_LEVEL_DIMS
        for name in ("products.cochain_build_s", "products.wedge_s"):
            assert metrics[name]["value"] > 0


def test_timed_run_ends_in_a_result():
    _report, metrics = bench("sphere3-hkr", trace=0)
    assert {"job_s", "setup_s", "peak_rss_mb"} <= set(metrics)
    assert metrics["job_s"]["value"] > 0
