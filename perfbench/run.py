"""hydrochain benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):
    python3 perfbench/run.py --workload chain_bulk --seed 1 --seconds 30 --trace 0

A run is a closed loop on one process and one thread: it starts the next job
when the previous one ends, until --seconds have passed. Each job draws its
seed from --seed and its index, and each job's output is checked; a job that
raises or fails a check is counted in ``failed`` and the run goes on. So is
a set-up sample that raises.

Times in the end-to-end metrics are in reference seconds: wall seconds
scaled by a calibration kernel timed around each job or set-up sample, so
that the shared machine's drifting speed cancels out (see calibrate.py). The
raw wall times are in the metadata line.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones. The line before it is a JSON object
with the run's metadata, error rate, phase rates and, when tracing, the
per-layer self times and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from importlib.util import find_spec
from pathlib import Path

import _bootstrap

_bootstrap.prepare()

from calibrate import kernel_seconds, scale  # noqa: E402
from tracing import NULL_TRACER, Tracer  # noqa: E402

# Cold set-ups per run: the measuring process's own and the rest in forked
# children (see coldsetup.py). setup_s is their median.
SETUP_SAMPLES = 5


def measure(job, seconds: float, seed: int, tracer=None) -> tuple[list[dict], float]:
    """Run ``job(job_seed, tracer)`` back to back until ``seconds`` have passed.

    The calibration kernel is timed before each job and once after the last;
    each job's ``kernel_s`` is the mean of the kernel times on either side of
    it, which tracks the machine's speed during the job better than one side.

    With a tracer, even-numbered jobs are traced and odd ones are not, so the
    run itself shows what tracing costs. Returns one outcome per job and the
    elapsed wall time.
    """
    from workloads import job_seed

    outcomes = []
    kernels = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 0
        active = tracer if traced else NULL_TRACER
        kernels.append(kernel_seconds())
        t0 = time.perf_counter()
        if traced:
            tracer.job = index
        try:
            with active.span("job"):
                work = job(job_seed(seed, index), active)
            error = None
        except Exception:  # a failing job is counted and the run goes on
            work, error = None, traceback.format_exc()
        end = time.perf_counter()
        outcomes.append({"seconds": end - t0, "work": work, "error": error, "traced": traced})
        index += 1
        if end - start >= seconds:
            break
    kernels.append(kernel_seconds())
    for outcome, before, after in zip(outcomes, kernels, kernels[1:]):
        outcome["kernel_s"] = 0.5 * (before + after)
    return outcomes, end - start


def _ref_s(seconds: float, outcome: dict) -> float:
    """Wall seconds in reference seconds, by the kernel time measured around
    the job."""
    return seconds * scale(outcome["kernel_s"])


def _rate(outcomes, count: str, phase: str):
    """Median over jobs of count per reference second of one phase, or None
    where no job did that kind of work."""
    rates = [
        getattr(o["work"], count) / _ref_s(getattr(o["work"], phase), o)
        for o in outcomes
        if getattr(o["work"], count) > 0
    ]
    return statistics.median(rates) if rates else None


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(outcomes: list[dict], elapsed: float, setups: int,
              setup_failures: list[str]) -> dict:
    """Counts, error rate and job-time figures of one run. ``attempted`` and
    ``failed`` include the run's ``setups`` set-up samples and their failures.
    Times are in reference seconds except under ``raw``."""
    ok = [o for o in outcomes if o["error"] is None]
    timed = ok or outcomes
    attempted = setups + len(outcomes)
    failed = len(setup_failures) + len(outcomes) - len(ok)
    failures = list(setup_failures) + [o["error"] for o in outcomes if o["error"] is not None]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:3],
    }
    if not outcomes:
        return summary
    rates = {
        "site_steps_per_s": _rate(ok, "site_steps", "chain_s"),
        "cell_steps_per_s": _rate(ok, "cell_steps", "pde_s"),
        "snapshots_per_s": _rate(ok, "snapshots", "analysis_s"),
    }
    return {
        **summary,
        "jobs": len(outcomes),
        "job_s_quartiles": _quartiles([_ref_s(o["seconds"], o) for o in timed]),
        "jobs_per_s": len(ok) / sum(_ref_s(o["seconds"], o) for o in outcomes),
        "phase_rates": {k: v for k, v in rates.items() if v is not None},
        "off_table_strains": sum(o["work"].off_table_strains for o in ok),
        "raw": {
            "job_s_quartiles": _quartiles([o["seconds"] for o in timed]),
            "jobs_per_s": len(ok) / elapsed,
            "kernel_s_quartiles": _quartiles([o["kernel_s"] for o in outcomes]),
        },
    }


def environment(seed: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=_bootstrap.ROOT,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "numba_importable": find_spec("numba") is not None,
        "git_revision": rev,
        "threads": {var: os.environ.get(var) for var in _bootstrap.THREAD_VARS},
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setups: list[dict], summary: dict) -> dict:
    return {
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "job_s_p50": _metric(summary["job_s_quartiles"][1], "s"),
        "jobs_per_s": _metric(summary["jobs_per_s"], "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(setups: list[dict], outcomes: list[dict], probed: dict) -> dict:
    work = [o["work"] for o in outcomes if o["error"] is None]
    return {
        **probed,
        "thermo.table_build_s": _metric(
            statistics.median(s["table_build_s"] for s in setups), "s"),
        "thermo.sample_canonical_ms": _metric(
            statistics.median(s["sample_canonical_ms"] for s in setups), "ms"),
        "microchain.site_steps": _metric(sum(w.site_steps for w in work), "count"),
        "microchain.records": _metric(sum(w.records for w in work), "count"),
        "macropde.steps": _metric(sum(w.pde_steps for w in work), "count"),
        "csvio.bytes_written": _metric(sum(w.csv_bytes for w in work), "count"),
    }


def trace_overhead(outcomes: list[dict]) -> dict | None:
    """Median job time of traced against untraced jobs of the same run, in
    reference seconds."""
    by_kind = {
        kind: [_ref_s(o["seconds"], o) for o in outcomes
               if o["traced"] is kind and o["error"] is None]
        for kind in (True, False)
    }
    if not (by_kind[True] and by_kind[False]):
        return None
    traced, untraced = statistics.median(by_kind[True]), statistics.median(by_kind[False])
    return {
        "traced_job_s_p50": traced,
        "untraced_job_s_p50": untraced,
        "difference_s": traced - untraced,
    }


def run(spec, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """Measure one workload; returns (metadata line, result line).

    ``attempted`` and ``failed`` count the set-up samples as well as the jobs,
    so a set-up that raises (a table that fails its certificate raises
    ThermoError) makes the run incorrect without ending it. Without a model
    of its own the run has nothing to measure: it runs no job and reports no
    metric.
    """
    from coldsetup import cold_samples, timed_setup
    from probes import probe_layers
    from workloads import make_context, run_job

    seeds = [seed * 1000 + k for k in range(setup_samples)]
    samples = cold_samples(spec.n, seeds[1:])  # before this process builds a model
    try:
        model, own = timed_setup(spec.n, seeds[0])
    except Exception:
        model, own = None, {"error": traceback.format_exc()}
    samples.insert(0, own)
    setups = [s for s in samples if "error" not in s]
    setup_failures = [s["error"] for s in samples if "error" in s]

    outcomes, elapsed, probed = [], 0.0, None
    out_dir = _bootstrap.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    if model is not None:
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
            ctx = make_context(model, workdir)  # the jobs do not pay set-up again
            outcomes, elapsed = measure(
                lambda job_seed, active: run_job(spec, ctx, job_seed, active),
                seconds, seed, tracer,
            )
            probed = probe_layers(spec, ctx) if trace else None
    summary = summarize(outcomes, elapsed, len(samples), setup_failures)
    meta = {
        "workload": spec.name,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "setup_samples": samples,
        **summary,
    }
    if model is None:
        metrics = {}
    elif trace:
        spans_path = out_dir / f"spans-{spec.name}-{seed}.json"
        tracer.write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(_bootstrap.ROOT))
        meta["layer_self_time"] = tracer.self_times()
        meta["trace_overhead"] = trace_overhead(outcomes)
        metrics = per_layer_metrics(setups, outcomes, probed)
    else:
        metrics = end_to_end_metrics(setups, summary)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import hydrochain
    except ImportError as exc:
        print(f"perfbench: cannot import hydrochain from {_bootstrap.SRC}: {exc}", file=sys.stderr)
        return 2
    if _bootstrap.SRC not in Path(hydrochain.__file__).resolve().parents:
        print(f"perfbench: hydrochain imported from {hydrochain.__file__}, not from "
              f"{_bootstrap.SRC}", file=sys.stderr)
        return 2
    from workloads import SPECS

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(SPECS)}",
              file=sys.stderr)
        return 2
    meta, result = run(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
