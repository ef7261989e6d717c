"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

Run from the repository root:
    python3 -m pytest -q perfbench/smoke.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math

import _bootstrap

_bootstrap.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import coldsetup  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hydrochain.microchain import ChainConfig, ChainState, run_trajectory  # noqa: E402
from hydrochain.thermo import ThermoModel  # noqa: E402

BENCH = json.loads((_bootstrap.ROOT / "BENCHMARK.json").read_text())

# n = 128 is the smallest chain whose block fields cover the default test
# functions' support [0.2, 0.8]. The PDE sizes keep the balance residual
# within each workload's own share of W + D (0.6% of 1% for pde_fine, 0.5%
# of 10% for compare_pipeline).
TINY = {
    "chain_bulk": {"n": 128, "chain_steps": 4, "m": 64},
    "pde_fine": {"n": 128, "m": 128, "pde_t_end": 0.02},
    "compare_pipeline": {"n": 128, "chain_steps": 4, "records": 5, "m": 64},
}


def tiny(name: str) -> workloads.Spec:
    return dataclasses.replace(workloads.SPECS[name], **TINY[name])


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, section):
    meta, result = run.run(tiny(name), seed=1, seconds=0.2, trace=trace, setup_samples=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["error_rate"] == 0.0
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result)  # the result line must serialise
    if trace:
        assert meta["trace_overhead"] is not None
        assert "job" in meta["layer_self_time"]


def test_blowup_job_is_counted_and_the_run_goes_on(tmp_path):
    spec = tiny("chain_bulk")
    ctx = workloads.make_context(ThermoModel(), str(tmp_path))
    base = workloads.chain_config(spec.n, 0, spec.chain_steps, 2, 0)
    # no record at t = 0, so the non-finite state reaches the integrator
    poisoned = ChainConfig(N=spec.n, t_end=base.t_end, record_times=np.array([base.t_end_eff]))
    calls = itertools.count()

    def job(seed, tracer):
        if next(calls) == 1:
            bad = ChainState(np.full(spec.n, np.nan), np.zeros(spec.n), 0.0)
            run_trajectory(poisoned, workloads.TAU0, ctx.model, initial_state=bad)
        return workloads.run_job(spec, ctx, seed, tracer)

    outcomes, elapsed = run.measure(job, 0.3, seed=1)
    summary = run.summarize(outcomes, elapsed, 0, [])
    assert summary["attempted"] >= 3
    assert summary["failed"] == 1
    assert summary["error_rate"] == pytest.approx(1 / summary["attempted"])
    assert "BlowUpError" in summary["failures"][0]


# Too few quadrature nodes: the package's own table certification raises
# ThermoError, as a table that really fails would.
FAILING_MODEL = functools.partial(ThermoModel, n_quad=16)


def test_failing_setup_sample_is_counted_and_the_run_goes_on(monkeypatch):
    real = coldsetup.cold_samples

    def failing_children(n, seeds):
        with monkeypatch.context() as m:
            m.setattr(coldsetup, "ThermoModel", FAILING_MODEL)
            return real(n, seeds)

    monkeypatch.setattr(coldsetup, "cold_samples", failing_children)
    meta, result = run.run(tiny("chain_bulk"), seed=1, seconds=0.2, trace=False, setup_samples=2)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 3
    assert "ThermoError" in meta["failures"][0]
    declared = {m["name"] for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == declared


def test_failing_own_setup_ends_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(coldsetup, "ThermoModel", FAILING_MODEL)
    meta, result = run.run(tiny("chain_bulk"), seed=1, seconds=0.2, trace=False, setup_samples=2)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 2
    assert result["metrics"] == {}
    assert all("ThermoError" in f for f in meta["failures"])
    json.dumps(meta)
