#!/usr/bin/env python3
"""The bgseq benchmark: one command that runs a workload, checks every
response and prints every metric with its unit.

    python3 bench/run.py --workload grid_verify --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports ``bgseq`` from
``src/``.  Each timed pass runs in a fresh interpreter (``worker.py``), so
the oracle's caches start empty as in a new CLI process.  Passes repeat (at
least two) until the next one would end past ``--seconds``, and each call's
latency is its best over the passes.  With ``--trace 0`` the final line
carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from traced passes that alternate with untraced ones (their wall-time ratio
is the tracing overhead).  The last line of stdout is one JSON object; the
exit code is 1 when any check failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from checks import Tally, check
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 11
SETUP_PER_ROUND = 2
PASS_TIMEOUT_S = 150
COLD_IMPORT = "import time; t = time.perf_counter(); import bgseq.cli; print(time.perf_counter() - t)"
VERDICT_METRICS = {
    "all-graphic": "bench.verdicts.all_graphic",
    "not-all-graphic": "bench.verdicts.not_all_graphic",
    "vacuous": "bench.verdicts.vacuous",
    "graphic": "bench.verdicts.graphic",
    "not-graphic": "bench.verdicts.not_graphic",
}
CACHES = {"_side_matrix": "side_cache", "_left_tables": "left_tables", "_right_caps": "right_caps"}
TIME_METRICS = (
    "cli.parse_s", "cli.self_s", "cli.parse_sequence_s", "seqcore.validate_s",
    "criterion.theorem_main_s", "criterion.canonical_pair_s", "enumeration.oracle_s",
    "enumeration.self_s", "kernels.scan_s", "kernels.caps_s", "kernels.mask_s",
    "kernels.prefix_s", "galeryser.gale_ryser_s", "galeryser.zz_check_s", "galeryser.realize_s",
)
COUNT_METRICS = {
    "pairs_scanned": "kernels.pairs_scanned",
    "caps_cells": "kernels.caps_cells",
    "caps_bytes_computed": "kernels.caps_bytes_computed",
    "edges_built": "galeryser.edges_built",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One thread per process, and the program's own defaults for its knobs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("BGSEQ_ORACLE_BUDGET", "BGSEQ_NO_NUMBA"):
        env.pop(var, None)
    return env


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: at p99 of 8,136 samples, 81 lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def cold_import(env) -> float:
    """Cold-start cost: a fresh interpreter importing bgseq.cli."""
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def run_pass(jobs, trace: bool, env, spans: Path | None, known: dict):
    """One fresh worker over every job; returns its summary and the tally of
    checked responses.

    ``known`` carries each job's first response and its check results from
    pass to pass.  The program is deterministic, so a later response must be
    byte-identical; one that is inherits the results, one that is not is
    checked afresh and counted as failed.
    """
    spec = json.dumps({"argv": [job.argv for job in jobs], "trace": trace,
                       "spans": str(spans) if spans else None}).encode()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        data, err = proc.communicate(spec, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.decode()[-2000:]}")
    tally, pos = Tally(), 0
    for index, job in enumerate(jobs):
        end = data.index(b"\n", pos)
        code, n_out, n_err = map(int, data[pos:end].split())
        response = (code, data[end + 1:end + 1 + n_out + n_err])
        pos = end + 1 + n_out + n_err
        if index in known and known[index][0] == response:
            tally.record(job, *known[index][1])
            continue
        out, errtext = response[1][:n_out].decode(), response[1][n_out:].decode()
        problems, verdicts = check(job, code, out, errtext)
        if index in known:
            problems = problems + ["response differs from the first pass"]
        else:
            known[index] = (response, (problems, verdicts))
        tally.record(job, problems, verdicts)
    return json.loads(data[pos:]), tally


def pairs_decided(workload) -> int:
    """Pairs each pass decides: every pair of a verified class (by
    count_class) plus one per check-pair call.  Computed outside the timed
    passes."""
    from bgseq import ClassParams, count_class  # only once src/ is on the path

    total = 0
    for job in workload.jobs:
        if job.kind in ("pair", "realize"):
            total += 1
        elif job.kind == "class_verify" and job.expect["nonempty"]:
            total += count_class(ClassParams(*job.expect["params"]))
    return total


def pass_counters(summary, tally) -> dict:
    """The exact counts of one pass; passes of one run must agree on them."""
    counters = {"failed": tally.failed, "verdicts": dict(sorted(tally.verdicts.items())),
                "caches": summary["caches"]}
    if "counts" in summary:
        counters.update(counts=dict(sorted(summary["counts"].items())),
                        calls=dict(sorted(summary["calls"].items())),
                        errors=dict(sorted(summary["errors"].items())),
                        spans=summary["spans"])
    return counters


def best(passes) -> list[float]:
    """Each call's lowest latency over the passes.  The calls are
    deterministic and single-threaded, so noise from other tenants of the
    machine only ever adds time; it comes in episodes of seconds to minutes
    that shift a median by up to a third, while the best over the passes
    moves far less (see NOTES.md)."""
    return [min(sample) for sample in zip(*(p["latencies"] for p in passes))]


def end_to_end(passes, setup, decided) -> dict[str, float]:
    latencies = best(passes)
    wall = sum(latencies)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "pairs_per_s": decided / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced, untraced, counters, decided) -> dict[str, float]:
    metrics = {name: statistics.median(p["seconds"].get(name, 0.0) for p in traced)
               for name in TIME_METRICS}
    for key, name in COUNT_METRICS.items():
        metrics[name] = counters["counts"].get(key, 0)
    scan_s = metrics["kernels.scan_s"]
    metrics["kernels.scan_pairs_per_s"] = metrics["kernels.pairs_scanned"] / scan_s if scan_s else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counters["calls"].get(layer, 0)
        metrics[f"{layer}.errors"] = counters["errors"].get(layer, 0)
    for fn, name in CACHES.items():
        hits, misses = counters["caches"][fn]["hits"], counters["caches"][fn]["misses"]
        metrics[f"enumeration.{name}_hits"] = hits
        metrics[f"enumeration.{name}_misses"] = misses
        metrics[f"enumeration.{name}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["bench.pairs_decided"] = decided
    for verdict, name in VERDICT_METRICS.items():
        metrics[name] = counters["verdicts"].get(verdict, 0)
    metrics["trace.spans"] = counters["spans"]
    metrics["trace.overhead_ratio"] = sum(best(traced)) / sum(best(untraced))
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            spans_dir: Path | None = OUT) -> dict:
    """Run one workload; returns the result object plus the report details."""
    env = child_env()
    workload = workloads.build(name, seed, scale)
    decided = pairs_decided(workload)
    cold_import(env)  # writes the bytecode caches; not a sample

    # Set-up samples are spread over the run, between passes, because the
    # machine's speed drifts over seconds and a burst of samples sees one state.
    setup, untraced, traced, tallies, counters, known = [], [], [], [], [], {}
    probes, min_rounds = (0, 1) if trace else (SETUP_PER_ROUND, 2)
    start = last = perf_counter()
    while True:
        setup += [cold_import(env) for _ in range(probes)]
        for tracing in (False, True) if trace else (False,):
            spans = None
            if tracing and spans_dir is not None:
                spans = spans_dir / f"spans-{name}-seed{seed}-pass{len(traced)}.jsonl"
            summary, tally = run_pass(workload.jobs, tracing, env, spans, known)
            (traced if tracing else untraced).append(summary)
            tallies.append(tally)
            counters.append(pass_counters(summary, tally))
        # Stop before a round that would end past the time budget.
        now = perf_counter()
        if len(untraced) >= min_rounds and 2 * now - last - start > seconds:
            break
        last = now
    while probes and len(setup) < SETUP_SAMPLES:
        setup.append(cold_import(env))

    problems = [msg for tally in tallies for msg in tally.messages]
    for tally in tallies:
        for verdict, expected in workload.verdicts.items():
            if tally.verdicts[verdict] != expected:
                problems.append(f"pass reported {tally.verdicts[verdict]} {verdict} verdicts, "
                                f"expected {expected}")
    # Every pass must repeat the first one's counts; traced passes add more.
    traced_counters = [c for c in counters if "counts" in c]
    for later in counters[1:]:
        expected = counters[0] | (traced_counters[0] if "counts" in later else {})
        for key, value in expected.items():
            if later[key] != value:
                problems.append(f"counter {key} differs between passes: {value} vs {later[key]}")

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if trace:
        metrics = per_layer(traced, untraced, traced_counters[0], decided)
    else:
        metrics = end_to_end(untraced, setup, decided)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "counters": counters[0],
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "backend": untraced[0]["backend"],
            "workload": name,
            "seed": seed,
            "scale": scale,
            "passes": len(untraced) + len(traced),
            "calls_per_pass": len(workload.jobs),
            "setup_samples": setup,
            "walls_s": [sum(p["latencies"]) for p in untraced],
            "call_latencies_s": best(untraced),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="bgseq benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bgseq" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} needs the bgseq source tree (src/bgseq) and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(result["metrics"])
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}

    env = result["env"]
    print(f"env: python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"backend={env['backend']} seed={env['seed']}")
    print(f"workload {args.workload}: {env['passes']} passes of {env['calls_per_pass']} calls, "
          f"closed loop, one call in flight; trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  error_rate = {result['failed'] / result['attempted']} "
          f"({result['failed']} failed of {result['attempted']} calls)")
    print(f"counters: {json.dumps(result['counters'], sort_keys=True)}")
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    record = {k: result[k] for k in ("correct", "attempted", "failed", "counters", "problems", "env")}
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
