"""Spans around the public entry points of bgseq's modules, installed at run
time from the benchmark's own files.

Each entry point is wrapped under the name its caller uses (a module
attribute such as ``bgseq.cli.theorem_main``), so no source file changes.
A span records its name, start, end, parent span and the index of the CLI
call it belongs to.  Self time is a span's duration minus the time its
children cover; children of one span never overlap (one thread), so that is
the sum of their durations.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "seqcore", "criterion", "enumeration", "kernels", "galeryser")


def _scan_counts(args, result):
    nl, nr = args[0].shape[0], args[2].shape[0]
    i, j = result[0], result[1]
    return {"pairs_scanned": i * nr + j + 1 if i >= 0 else nl * nr}


def _caps_counts(args, result):
    rows, width = args[0].shape
    kmax = int(args[1])
    # The numpy kernel broadcasts a rows x kmax x width boolean array.
    return {"caps_cells": rows * kmax, "caps_bytes_computed": rows * kmax * width}


def _realize_counts(args, result):
    return {"edges_built": len(result.edges)}


# (module, attribute, layer, key, counter).  The key names the per-layer time
# bucket a span's self time lands in.
TARGETS = (
    ("bgseq.cli", "parse_sequence_arg", "cli", "cli.parse_sequence_s", None),
    ("bgseq.cli", "validate_sequence", "seqcore", "seqcore.validate_s", None),
    ("bgseq.cli", "ClassParams", "seqcore", "seqcore.validate_s", None),
    ("bgseq.cli", "s_range", "seqcore", "seqcore.validate_s", None),
    ("bgseq.cli", "theorem_main", "criterion", "criterion.theorem_main_s", None),
    ("bgseq.criterion", "canonical_pair", "criterion", "criterion.canonical_pair_s", None),
    ("bgseq.cli", "brute_force_all_graphic", "enumeration", "enumeration.self_s", None),
    ("bgseq.kernels", "scan_pairs", "kernels", "kernels.scan_s", _scan_counts),
    ("bgseq.kernels", "cap_sum_rows", "kernels", "kernels.caps_s", _caps_counts),
    ("bgseq.kernels", "boundary_mask_rows", "kernels", "kernels.mask_s", None),
    ("bgseq.kernels", "prefix_sum_rows", "kernels", "kernels.prefix_s", None),
    ("bgseq.cli", "gale_ryser", "galeryser", "galeryser.gale_ryser_s", None),
    ("bgseq.galeryser", "gale_ryser", "galeryser", "galeryser.gale_ryser_s", None),
    ("bgseq.enumeration", "gale_ryser", "galeryser", "galeryser.gale_ryser_s", None),
    ("bgseq.enumeration", "zz_check", "galeryser", "galeryser.zz_check_s", None),
    ("bgseq.cli", "realize", "galeryser", "galeryser.realize_s", _realize_counts),
)
# Spans whose full duration, children included, is also reported.
INCLUSIVE = {"bgseq.cli.brute_force_all_graphic": "enumeration.oracle_s"}


class Tracer:
    """In-memory span recorder.  ``call`` is set by the caller before each
    CLI call so that every span carries the id of the call it belongs to."""

    def __init__(self):
        self.call = -1
        self.spans: list[list] = []  # [name, start, end, parent, call, child_time]
        self._stack: list[int] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()

    def wrap(self, fn, name: str, layer: str, key: str, counter=None):
        spans, stack = self.spans, self._stack
        inclusive = INCLUSIVE.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.call, 0.0]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                record[1], record[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
                self.seconds[key] += end - start - record[5]
                if inclusive:
                    self.seconds[inclusive] += end - start
                self.calls[layer] += 1
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in TARGETS, plus argument parsing."""
        for module_name, attr, layer, key, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(fn, f"{module_name}.{attr}", layer, key, counter))

        cli = importlib.import_module("bgseq.cli")
        build = cli.build_parser

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap(parser.parse_args, "bgseq.cli.build_parser().parse_args",
                                          "cli", "cli.parse_s")
            return parser

        cli.build_parser = self.wrap(build_parser, "bgseq.cli.build_parser", "cli", "cli.parse_s")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, call, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "call": call, "name": name,
                                     "start": start, "end": end}) + "\n")
