"""The benchmark's tracer wraps entry points by name, and its worker reads
module attributes by name; a refactor that renames or drops one would leave
a per-layer metric silently empty or stop the benchmark."""

import importlib
import importlib.util
from pathlib import Path

from bgseq import DegreeSequence, realize

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    # Loaded from its file without touching sys.modules or sys.path.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    for module_name, attr, layer, _key, counter in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
        assert layer in tracing.LAYERS
        assert counter is None or callable(counter)
    assert callable(importlib.import_module("bgseq.cli").build_parser)


def test_worker_reads_resolve():
    # The names bench/worker.py reads after a pass: the backend flag and the
    # hit counts of the oracle's caches; and the package names bench/run.py
    # imports to count the pairs a run decided.
    kernels = importlib.import_module("bgseq.kernels")
    enumeration = importlib.import_module("bgseq.enumeration")
    assert isinstance(kernels.USING_NUMBA, bool)
    for name in ("_side_matrix", "_left_tables", "_right_caps"):
        info = getattr(enumeration, name).cache_info()
        assert isinstance(info.hits, int) and isinstance(info.misses, int), name
    assert callable(importlib.import_module("bgseq.cli").main)
    bgseq = importlib.import_module("bgseq")
    assert callable(bgseq.ClassParams) and callable(bgseq.count_class)


def test_realize_count_is_the_edge_count():
    tracing = load_tracing()
    e, f = DegreeSequence([3, 2, 2, 1, 0]), DegreeSequence([3, 3, 1, 1])
    assert tracing._realize_counts((e, f), realize(e, f)) == {"edges_built": e.total}
