"""Cold start: importing bgseq, and every command that works on class
parameters alone, leaves numpy, dataclasses and inspect unimported; the pair
commands and the oracle load numpy on first use and answer as before, still
without dataclasses.  The names the CLI binds on first use stay the library's
objects, and a wrapper set on them first is kept.  A module counts as loaded
when it is new since the process started, so a site hook that imports one of
them does not fail these tests."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import bgseq
import bgseq.cli as cli
from bgseq import criterion, enumeration, galeryser, seqcore
from bgseq.cli import EXIT_INVALID, EXIT_VACUOUS

# Runs each argv of argv[1] (a JSON list) through bgseq.cli.main in this
# fresh process and prints, per argv, [exit code, stdout, stderr, the sorted
# modules new since the probe's own imports].  argv[2] names how counting
# wrappers are set on the deferred names first: "" for none, "getattr" to
# wrap the bound name as bench/tracing.py does, "setattr" to set them before
# the CLI binds any.
PROBE = """
import contextlib, io, json, sys
from collections import Counter

start = set(sys.modules)
import bgseq.cli as cli

calls = Counter()
wrappers = {}


def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


if sys.argv[2]:
    for name, home in (("gale_ryser", "galeryser"), ("realize", "galeryser"),
                       ("brute_force_all_graphic", "enumeration")):
        if sys.argv[2] == "getattr":
            fn = getattr(cli, name)
        else:
            fn = getattr(__import__("bgseq." + home, fromlist=[name]), name)
        wrappers[name] = counting(name, fn)
        setattr(cli, name, wrappers[name])

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(), sorted(set(sys.modules) - start)])
kept = all(getattr(cli, name) is fn for name, fn in wrappers.items())
print(json.dumps({"results": results, "calls": calls, "kept": kept}))
"""


def run_fresh(argvs, wrap=""):
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs), wrap],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def run_here(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def new_modules(statement):
    """The modules a fresh process has after ``statement`` that it did not
    have before it."""
    probe = (f"import json, sys; start = set(sys.modules); {statement}; "
             "print(json.dumps(sorted(set(sys.modules) - start)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


GENERAL = ["-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "5", "-n", "5", "-S", "12"]
NOT_ALL_GRAPHIC = ["-a", "5", "-b", "1", "-c", "5", "-d", "1", "-m", "6", "-n", "6", "-S", "14"]
DEGENERATE = ["-a", "3", "-b", "3", "-c", "2", "-d", "1", "-m", "4", "-n", "7", "-S", "12"]
VACUOUS = ["-a", "3", "-b", "1", "-c", "1", "-d", "1", "-m", "1", "-n", "3", "-S", "3"]
SWEEP = ["-a", "4", "-b", "1", "-c", "4", "-d", "1", "-m", "5", "-n", "5"]

CLASS_ARGVS = [
    *(["check-class", *params, *json_flag]
      for params in (GENERAL, NOT_ALL_GRAPHIC, DEGENERATE, VACUOUS) for json_flag in ([], ["--json"])),
    ["canonical", *GENERAL],
    ["canonical", *GENERAL, "--json"],
    ["symmetric", "-a", "5", "-b", "2", "-m", "6", "--full"],
    ["symmetric", "-a", "5", "-b", "1", "-m", "6", "--full", "--json"],
    ["sweep", *SWEEP],
    ["sweep", *SWEEP, "--format", "json"],
    ["--help"],
    ["check-class", "-a", "1", "-b", "2", "-c", "4", "-d", "1", "-m", "5", "-n", "5", "-S", "12"],
]

# Each loads numpy in its own fresh process.
ARRAY_ARGVS = [
    ["check-pair", "--left", "3,2,2,1", "--right", "3,3,1,1", "--realize"],
    ["check-pair", "--left", "4,4,1,1", "--right", "4^2,1^2", "--json"],
    ["realize", "--left", "3,2,2,1", "--right", "3,3,1,1", "--json"],
    ["realize", "--left", "3,2,2,1", "--right", "3^2,1^2"],
    ["check-class", *NOT_ALL_GRAPHIC, "--verify"],
    ["check-class", *GENERAL, "--verify", "--json"],
]


# What neither an import of bgseq nor a class command may load.
UNLOADED = {"numpy", "dataclasses", "inspect"}


class TestNumpyStaysUnloaded:
    @pytest.mark.parametrize("statement", ["import bgseq.cli", "import bgseq"])
    def test_import(self, statement):
        assert not UNLOADED & new_modules(statement)

    def test_class_commands(self):
        results = run_fresh(CLASS_ARGVS)["results"]
        for argv, (code, out, err, loaded) in zip(CLASS_ARGVS, results, strict=True):
            assert not UNLOADED & set(loaded), argv
            assert [code, out, err] == run_here(argv), argv
        codes = [code for code, *_ in results]
        assert codes[6:8] == [EXIT_VACUOUS, EXIT_VACUOUS]
        assert codes[-2:] == [0, EXIT_INVALID]


@pytest.mark.parametrize("argv", ARRAY_ARGVS, ids=" ".join)
def test_array_commands_load_numpy_and_answer_alike(argv):
    [(code, out, err, loaded)] = run_fresh([argv])["results"]
    assert "numpy" in loaded and "dataclasses" not in loaded
    assert [code, out, err] == run_here(argv)


class TestDeferredNames:
    @pytest.mark.parametrize("name, home", [
        ("gale_ryser", galeryser), ("realize", galeryser), ("brute_force_all_graphic", enumeration),
    ])
    def test_cli_binds_the_library_object(self, name, home):
        assert getattr(cli, name) is getattr(home, name)

    @pytest.mark.parametrize("wrap", ["getattr", "setattr"])
    def test_wrapper_set_first_is_kept(self, wrap):
        argvs = [["check-pair", "--left", "3,2,2,1", "--right", "3,3,1,1", "--realize"],
                 ["check-class", *NOT_ALL_GRAPHIC, "--verify"]]
        run = run_fresh(argvs, wrap)
        assert run["kept"]
        assert run["calls"] == {"gale_ryser": 1, "realize": 1, "brute_force_all_graphic": 1}
        assert [result[:3] for result in run["results"]] == [run_here(argv) for argv in argvs]

    def test_package_names_are_their_modules_objects(self):
        homes = (seqcore, criterion, galeryser, enumeration)
        for name in bgseq.__all__[1:]:
            defined = [getattr(module, name) for module in homes if name in module.__all__]
            assert defined and all(getattr(bgseq, name) is value for value in defined), name
        namespace = {}
        exec("from bgseq import *", namespace)
        assert set(bgseq.__all__) <= set(namespace)

    @pytest.mark.parametrize("module", [bgseq, cli])
    def test_unknown_attribute(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "np")

    def test_importtime_logs_each_module(self):
        # -X importtime logs only the import statement's path, which the
        # package's first-use imports must take too.
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bgseq.cli"],
                              capture_output=True, text=True, timeout=60, check=True)
        logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert {"bgseq", "bgseq.seqcore", "bgseq.criterion", "bgseq.cli"} <= logged


class TestOracleBudgetExceeded:
    def test_one_exception(self):
        assert bgseq.OracleBudgetExceeded is enumeration.OracleBudgetExceeded
        assert issubclass(bgseq.OracleBudgetExceeded, RuntimeError)

    def test_refusal_text_and_exit(self):
        argv = ["check-class", "-a", "20", "-b", "1", "-c", "20", "-d", "1",
                "-m", "30", "-n", "30", "-S", "200", "--verify", "--budget", "1"]
        [(code, out, err, loaded)] = run_fresh([argv])["results"]
        assert (code, out, "numpy" in loaded) == (EXIT_INVALID, "", True)
        assert err == ("error: class holds 7045053010632511876 pairs, above the oracle budget 1; "
                       "pass a larger --budget (budget= in the library) to override\n")
