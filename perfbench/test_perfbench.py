"""The benchmark's own checks: its oracles catch wrong answers, its tracing
sees every call and puts everything back, and it refuses to run without
the hoch sources.  Small inputs; run with ``python3 -m pytest perfbench``.
"""

import os
import shutil
import subprocess
import sys

import pytest

import probe

workloads = probe.load_workloads()

import run  # noqa: E402  (needs hoch on the path)
import tracing  # noqa: E402
from hoch import dga, homalg, linalg, products  # noqa: E402

SMALL = {
    "circle-trunc3": dict(workloads.CIRCLE_TRUNC3, window=[-3, 0]),
    "torus-fp": dict(workloads.torus_fp_spec(7), window=[-2, 0], weights=[0, 1, 2]),
    "wedge-cochains": dict(workloads.wedge_spec(7), top=3),
}


def small(name):
    workload = workloads.WORKLOADS[name]
    raw = SMALL[name]
    state = workload.setup(raw)
    return workload, state, workload.oracle(raw, state)


def wrong(name, oracle):
    """The same oracle with one deliberate error."""
    if name == "circle-trunc3":
        return {**oracle, 0: oracle[0] + 1}
    if name == "torus-fp":
        return {**oracle, (0, 9): 1}
    return [
        workloads.Triple(**{**vars(t), "scale": 2 * t.scale}) for t in oracle
    ]


def timed(name, workload, state, oracle):
    """One step of the end-to-end run on a small input."""
    return run.timed_run(name, 1, workload, state, oracle, 0)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_passes_and_a_wrong_oracle_fails(name):
    workload, state, oracle = small(name)
    attempted, failed, metrics = timed(name, workload, state, oracle)
    assert (attempted, failed) == (1, 0)
    assert metrics["job_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0
    attempted, failed, metrics = timed(name, workload, state, wrong(name, oracle))
    assert (attempted, failed) == (1, 1)
    assert metrics["job_s"]["value"] is None


def test_an_exception_is_a_failure():
    workload, state, oracle = small("circle-trunc3")
    broken = workloads.Workload(
        workload.spec, workload.setup, workload.oracle,
        lambda *_: 1 / 0, workload.check,
    )
    attempted, failed, _metrics = timed("circle-trunc3", broken, state, oracle)
    assert (attempted, failed) == (1, 1)


def test_seed_makes_the_inputs():
    assert workloads.torus_fp_spec(3) == workloads.torus_fp_spec(3)
    primes = {workloads.torus_fp_spec(s)["coefficients"] for s in range(5)}
    assert len(primes) == 5
    p = int(workloads.torus_fp_spec(3)["coefficients"][3:])
    assert p > 4 and all(p % q for q in range(2, int(p**0.5) + 1))
    _w, _s, first = small("wedge-cochains")
    _w, _s, again = small("wedge-cochains")
    assert first == again


def _bindings(obj):
    return sorted(
        (name, key)
        for name, mod in list(sys.modules.items())
        if name.startswith("hoch") and mod is not None
        for key, value in vars(mod).items()
        if value is obj
    )


def test_tracer_wraps_every_binding_and_restores_them():
    rank, apply_setmap = linalg.rank, dga.apply_setmap
    homology_dims = homalg.ChainComplex.homology_dims
    rank_at, setmap_at = _bindings(rank), _bindings(apply_setmap)
    assert {m for m, _ in rank_at} >= {"hoch.linalg", "hoch.homalg", "hoch.hochschild"}
    assert {m for m, _ in setmap_at} >= {"hoch.dga", "hoch.hochschild", "hoch.products"}
    with tracing.Tracer() as tracer:
        assert tracer.absent == []
        assert _bindings(rank) == [] and _bindings(apply_setmap) == []
        assert homalg.ChainComplex.homology_dims.__wrapped__ is homology_dims
        for name, key in rank_at:
            assert getattr(sys.modules[name], key).__wrapped__ is rank
    assert _bindings(rank) == rank_at and _bindings(apply_setmap) == setmap_at
    assert homalg.ChainComplex.homology_dims is homology_dims


def test_a_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(products, "wedge_product")
    workload, state, oracle = small("circle-trunc3")
    with tracing.Tracer() as tracer:
        ok, _seconds = run.one_sample(workload, state, oracle)
    metrics = tracing.layer_metrics(tracer)
    assert ok and tracer.absent == ["products.wedge_product"]
    assert metrics["products.wedge_s"] is None
    assert metrics["linalg.rank_calls"] > 0


def test_self_times_account_for_the_traced_sample():
    workload, state, oracle = small("torus-fp")
    with tracing.Tracer() as tracer:
        ok, seconds = run.one_sample(workload, state, oracle)
    assert ok
    assert 0 <= seconds - tracer.self_total() < 0.05 * seconds
    metrics = tracing.layer_metrics(tracer)
    assert metrics["hochschild.basis"] == sum(workload.explain(state))
    assert tracing.measured_level_dims(tracer) == [workload.explain(state)]
    blocks = tracing.block_table(tracer)
    assert blocks and sum(b["calls"] for b in blocks) <= metrics["linalg.rank_calls"]
    for block in blocks:
        assert 0 < block["rank"] <= min(block["rows"], block["cols"])
        assert block["degree"] is not None


def test_run_refuses_a_checkout_without_hoch(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    root = os.path.dirname(here)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere3-hkr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
