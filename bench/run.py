"""copulafill benchmark: seeded workloads run through the real CLI.

Usage, from the repository root:

    python3 bench/run.py --workload mcar_mixed --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload stream_replay --seed 1 --seconds 1 --trace 1 --smoke

With ``--trace 0`` jobs run one at a time, each in a fresh interpreter
(``bench/child.py``), on fresh seeded inputs until ``--seconds`` have
passed, and the run reports the end-to-end metrics. With ``--trace 1`` one
input runs untraced and then traced, the two must write byte-identical
output, and the run reports per-layer metrics from the traced job's spans.
Every output is checked (``bench/checks.py``). The last stdout line is the
JSON result; the line before it records the input properties and the
environment. ``--smoke`` runs a single job on a tiny input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import summarize

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
SETUP_PROBES = 2        # extra interpreter start-ups per run for setup_s


def end_to_end_metrics(jobs, setups) -> dict:
    """End-to-end metrics of one run from its jobs and start-up probes.

    Job time is the mean over the run's jobs. On shared hardware the CPU's
    speed drifts by about 15% between states that last seconds to minutes;
    the median of a run's few jobs snaps to whichever state held most of
    them, while the mean averages the states, so it moves less from run to
    run. A row's round trip
    runs from handing the row to the program to reading its imputed values
    back: streamed rows are timed one by one and pooled over the run, while
    every row of a batch job comes back when the job ends, so there both
    percentiles equal the job time. Set-up and peak RSS are medians; smae
    is the mean over the run's inputs.
    """
    ok = [j for j in jobs if "job_s" in j]
    if not ok:
        return {}
    job_s = statistics.fmean(j["job_s"] for j in ok)
    if "stream_s" in ok[0]:
        p50, p99 = np.percentile(np.concatenate([j["latencies"] for j in ok]), [50, 99])
        busy_s = sum(j["stream_s"] for j in ok)
    else:
        p50 = p99 = job_s
        busy_s = sum(j["job_s"] for j in ok)
    scores = [j["smae"] for j in ok if "smae" in j]
    metrics = {
        "setup_s": (statistics.median(setups + [j["setup_s"] for j in ok]), "s"),
        "job_s": (job_s, "s"),
        "rows_per_s": (sum(j["rows"] for j in ok) / busy_s, "1/s"),
        "row_p50_ms": (float(p50) * 1e3, "ms"),
        "row_p99_ms": (float(p99) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in ok), "MB"),
        "smae": (statistics.fmean(scores) if scores else 0.0, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def layer_metrics(summary: dict, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced job (see bench/README.md)."""
    layers, nested = summary["layers"], summary["nested"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span, rec in layers.items():
        put(f"{span}.self_s", rec["self_s"], "s")
    for span, key in (("latent.batch_posterior", "calls"),
                      ("latent.batch_posterior", "rows"),
                      ("latent.batch_posterior", "patterns"),
                      ("latent.truncmoments", "calls"),
                      ("latent.truncmoments", "elems"),
                      ("imputer.impute_multiple", "draws"),
                      ("lrgc.posterior", "calls"), ("lrgc.posterior", "rows"),
                      ("lrgc.fit", "iterations"),
                      ("data_model.read_csv", "cells"),
                      ("data_model.write_csv", "cells"),
                      ("marginals.fit_marginal", "calls"),
                      ("marginals.latent_bounds", "calls"),
                      ("marginals.latent_bounds", "cells"),
                      ("marginals.from_latent", "calls"),
                      ("marginals.from_latent", "cells"),
                      ("copula_em.estep", "calls"), ("copula_em.estep", "rows"),
                      ("copula_em.mstep", "calls"),
                      ("copula_em.fit", "iterations")):
        put(f"{span}.{key}", layers[span].get(key, 0), "count")
    tm = layers["latent.truncmoments"]
    put("latent.truncmoments.elems_per_call",
        tm.get("elems", 0) / tm["calls"] if tm["calls"] else 0.0, "elems/call")
    put("imputer.posterior.calls",
        nested.get("latent.batch_posterior<imputer", 0)
        + nested.get("lrgc.posterior<imputer", 0), "count")
    put("streaming.corr_updates",
        nested.get("copula_em.estep<streaming.step", 0), "count")
    put("trace.overhead_s", traced["job_s"] - untraced["job_s"], "s")
    put("trace.unattributed_s", traced["job_s"] - summary["root_s"], "s")
    return out


def environment() -> dict:
    import scipy

    from jobs import BLAS_THREAD_VARS, NPROC, child_env

    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input and a single job, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.monotonic()
    if not (ROOT / "src" / "copulafill" / "__init__.py").is_file():
        print(f"bench: no copulafill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the benchmark's own modules import copulafill from the checkout
    sys.path.insert(0, str(ROOT / "src"))
    from checks import Expectations
    from jobs import Runner
    from workloads import WORKLOADS, properties

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(workload, workdir, run_start)
        first = workload.make(args.seed, 0, args.smoke)
        info = {"workload": workload.name, "seed": args.seed, "smoke": args.smoke,
                "properties": properties(workload, first),
                "environment": environment()}
        if args.trace:
            result, extra = traced_run(runner, Expectations(first), workdir)
        else:
            result, extra = untraced_run(runner, args, first, run_start)
        info.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def untraced_run(runner, args, first, run_start):
    """Jobs on fresh inputs until the run's seconds have passed."""
    from checks import MIN_COVERAGE, Expectations
    from jobs import RUN_LIMIT_S

    workload = runner.workload
    setups = [runner.probe_setup() for _ in range(1 if args.smoke else SETUP_PROBES)]
    jobs, index, data = [], 0, first
    while True:
        t0 = time.monotonic()
        jobs.append(runner.run(Expectations(data)))
        # start another job only if it should end within the run's seconds
        elapsed, last = time.monotonic() - run_start, time.monotonic() - t0
        if args.smoke or elapsed + last > min(args.seconds, RUN_LIMIT_S):
            break
        index += 1
        data = workload.make(args.seed, index, args.smoke)
    problems = [p for j in jobs for p in j["problems"]]
    extra = {"jobs": len(jobs), "setup_samples": len(setups) + len(jobs),
             "row_samples": sum(len(j.get("latencies", [])) or j.get("rows", 0)
                                for j in jobs)}
    coverages = [j["coverage"] for j in jobs if "coverage" in j]
    if coverages:
        extra["ci_coverage"] = statistics.fmean(coverages)
        extra["ci_coverage_gap"] = abs(extra["ci_coverage"] - 0.95)
        if extra["ci_coverage"] < MIN_COVERAGE:
            problems.append(f"intervals: mean coverage {extra['ci_coverage']:.3f}"
                            f" < {MIN_COVERAGE}; every job fails")
            for job in jobs:
                job["failed"] = job["attempted"]
    for problem in problems[:10]:
        print(f"bench: {problem}", file=sys.stderr)
    metrics = end_to_end_metrics(jobs, setups)
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, extra


def traced_run(runner, exp, workdir):
    """The same input untraced, then traced: identical bytes, layer metrics."""
    trace_path = workdir / "spans.json"
    untraced = runner.run(exp)
    traced = runner.run(exp, trace_path)
    jobs = (untraced, traced)
    problems = [p for j in jobs for p in j["problems"]]
    if untraced["outputs"] != traced["outputs"] or not untraced["outputs"]:
        problems.append("traced and untraced runs wrote different output")
    metrics = {}
    if not any(j["failed"] for j in jobs) and trace_path.is_file():
        summary = summarize(str(trace_path))
        metrics = layer_metrics(summary, untraced, traced)
        gap = abs(metrics["trace.unattributed_s"]["value"])
        if gap > 0.02 * traced["job_s"] + 0.05:
            problems.append(f"self times miss {gap:.3f} s of the traced job")
    for problem in problems[:10]:
        print(f"bench: {problem}", file=sys.stderr)
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    result = {"correct": not problems and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, {"jobs": 2}


if __name__ == "__main__":
    sys.exit(main())
