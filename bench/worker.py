"""One timed pass of a workload in a fresh interpreter.

Reads ``{"argv": [...], "trace": bool, "spans": path-or-null}`` as JSON on
stdin, then calls ``bgseq.cli.main`` on each argv in order from one thread,
one call in flight (a closed loop).  Only the call itself is timed.  After
each call the worker writes a frame to stdout: a line
``<exit code> <stdout bytes> <stderr bytes>`` followed by the two texts; the
parent checks them once the pass ends, so neither checking nor response
storage reaches this process's peak memory.  The last line is a JSON summary.

Peak memory is VmHWM of this process's own address space, which starts
fresh at exec; ``ru_maxrss`` would carry over the parent's high-water mark.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import traceback
from time import perf_counter


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    spec = json.load(sys.stdin)
    # The job list is the benchmark's, not the program's: keep its objects out
    # of the cyclic collector's scans, as they would be in a one-call process.
    gc.freeze()
    import bgseq.cli as cli
    import bgseq.enumeration as enumeration
    import bgseq.kernels as kernels

    call = cli.main
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.wrap(cli.main, "bgseq.cli.main", "cli", "cli.self_s")

    out = sys.stdout.buffer
    latencies = []
    for index, argv in enumerate(spec["argv"]):
        if tracer is not None:
            tracer.call = index
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = call(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed call, not a dead pass
                code = -1
                traceback.print_exc()
            latencies.append(perf_counter() - start)
        text, err = stdout.getvalue().encode(), stderr.getvalue().encode()
        out.write(b"%d %d %d\n" % (code, len(text), len(err)))
        out.write(text)
        out.write(err)

    peak = peak_rss_mb()
    caches = {}
    for name in ("_side_matrix", "_left_tables", "_right_caps"):
        info = getattr(enumeration, name).cache_info()
        caches[name] = {"hits": info.hits, "misses": info.misses}
    summary = {
        "latencies": latencies,
        "peak_rss_mb": peak,
        "caches": caches,
        "backend": "numba" if kernels.USING_NUMBA else "numpy",
    }
    if tracer is not None:
        summary["seconds"] = dict(tracer.seconds)
        summary["counts"] = dict(tracer.counts)
        summary["calls"] = dict(tracer.calls)
        summary["errors"] = dict(tracer.errors)
        summary["spans"] = len(tracer.spans)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    out.write(json.dumps(summary).encode() + b"\n")
    out.flush()


if __name__ == "__main__":
    main()
