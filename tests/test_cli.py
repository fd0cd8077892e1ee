"""CLI: exit codes, output files, byte-stability, config layering."""

import ast
import dataclasses
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from parityshift import cli, forked, harness
from parityshift.cli import run_cli
from parityshift.detector import big_g_value
from parityshift.harness import ExperimentSpec

SRC = Path(__file__).resolve().parents[1] / "src"

SEED = "424242"


def read(path):
    return path.read_bytes()


# Each command runs in a child that caps its own address space first, so
# an allocation too large for it fails there instead of being
# overcommitted and filling this machine's memory.
_LIMITED_SCRIPT = """
import resource, runpy, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.argv[0] = "parityshift"
runpy.run_module("parityshift", run_name="__main__")
"""


def _src_env() -> dict:
    # a child interpreter's environment, importing parityshift from this checkout
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


class TestKernelsCommand:
    def test_writes_csv_and_passes(self, tmp_path, capsys):
        code = run_cli(["kernels", "--a", "1.2", "--xmin", "-4", "--xmax", "4",
                        "--step", "0.05", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] max_abs_fp_residual" in out
        lines = (tmp_path / "kernels.csv").read_text().strip().splitlines()
        assert lines[0] == "x,p,g,gamma,phi,fp_residual"
        assert len(lines) == 162
        residuals = [abs(float(row.split(",")[5])) for row in lines[1:]]
        assert max(residuals) <= 1e-9
        # the partial file the rows streamed to was renamed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kernels.csv", "run_meta.json"]

    def test_rows_are_not_held(self, tmp_path):
        # rows are computed and written 1,024 at a time: 20,001 rows of
        # about 120 bytes of text (2.4 MB) take the traced peak to about
        # 630 KB, their grid array's 160 KB and one block's columns and
        # temporaries, which a list of every row's text would pass
        tracemalloc.start()
        try:
            assert run_cli(["kernels", "--a", "1", "--xmin=-1", "--xmax", "1",
                            "--step", "1e-4", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "kernels.csv").stat().st_size > 2_000_000
        assert peak < 1_000_000

    def test_byte_identical_rerun(self, tmp_path):
        args = ["kernels", "--a", "0.9", "--xmin", "-2", "--xmax", "2",
                "--step", "0.1", "--out"]
        run_cli(args + [str(tmp_path / "one")])
        run_cli(args + [str(tmp_path / "two")])
        assert read(tmp_path / "one" / "kernels.csv") == read(tmp_path / "two" / "kernels.csv")

    @pytest.mark.parametrize("a, terms", [(0.0325, 257), (0.03, 279), (0.02, 417)])
    def test_small_width_names_a(self, tmp_path, capsys, a, terms):
        # phi's series plan would need more than kernels.MAX_TERMS terms, as in an experiment
        assert run_cli(["kernels", "--a", str(a), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: a: {a!r} is too small, phi's series would take {terms} terms, "
                       "more than the 256 a series plan may take\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="signals a child process")
    def test_sigterm_leaves_no_partial_table(self, tmp_path):
        # 1.6 million rows take 6.6-8.4 s on a 2-core x86-64 machine, and the first
        # rows reach kernels.csv.partial within a second; the run is terminated
        # then, while it writes the table, and removes the partial file and
        # the directory it made (a run that finished would exit 0)
        out = tmp_path / "run"
        partial = out / "kernels.csv.partial"
        proc = subprocess.Popen(
            [sys.executable, "-m", "parityshift", "kernels", "--a", "1", "--xmin=-8",
             "--xmax", "8", "--step", "1e-5", "--out", str(out)],
            env=_src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60.0
            while not (partial.exists() and partial.stat().st_size > 0):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "no kernel row within 60 s"
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert proc.returncode == 143
        assert list(tmp_path.iterdir()) == []

    def test_smallest_default_grid_width(self, tmp_path, capsys):
        # the smallest a a series plan takes, as in an experiment
        assert run_cli(["kernels", "--a", "0.0326", "--out", str(tmp_path)]) == 0
        assert "[PASS] max_abs_fp_residual" in capsys.readouterr().out
        assert len((tmp_path / "kernels.csv").read_text().splitlines()) == 802

    def test_non_finite_value_names_first_x(self, tmp_path, capsys, monkeypatch):
        # g turns NaN from x = 2 on, in the table's second block of rows
        columns = cli.accel.kernel_columns

        def corrupt(x, plan):
            p, g, gamma, phi, residual = columns(x, plan)
            return p, np.where(x > 1.999, math.nan, g), gamma, phi, residual

        monkeypatch.setattr(cli.accel, "kernel_columns", corrupt)
        xs = np.arange(-4.0, 4.0 + 0.0025, 0.005)
        first = float(xs[xs > 1.999][0])
        assert run_cli(["kernels", "--a", "1", "--step", "0.005", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"assertion failure: non-finite kernel value at x={first!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_grid_outside_domain_rejected(self, tmp_path):
        code = run_cli(["kernels", "--a", "1.0", "--xmin", "-40", "--xmax", "40",
                        "--step", "1", "--out", str(tmp_path)])
        assert code == 2


class TestExperimentCommand:
    def test_no_stay_of_exactly_zero_inside_wilson(self, tmp_path, capsys):
        # at c = 30 every trial keeps coordinates unmoved, and the exact
        # no-stay probability is 0.0: the Wilson interval of 0 stay-free
        # trials in 3 must start at exactly 0
        assert run_cli(["experiment", "--preset", "thm1-undetectable", "--c", "30",
                        "--trials", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert "[PASS] wilson_contains_exact" in capsys.readouterr().out

    def test_unmet_premise_prints_a_note(self, tmp_path, capsys):
        argv = ["experiment", "--preset", "thm1-undetectable", "--trials", "5", "--seed", "1"]
        assert run_cli(argv + ["--c", "3", "--out", str(tmp_path / "c3")]) == 0
        out = capsys.readouterr().out.splitlines()
        # after the check lines, before the summary line
        assert out[-2] == "[NOTE] premise c_below_pi_over_sqrt2 not met"
        assert run_cli(argv + ["--out", str(tmp_path / "preset")]) == 0
        assert "[NOTE]" not in capsys.readouterr().out

    def test_preset_runs_and_writes_summary(self, tmp_path, capsys):
        code = run_cli(["experiment", "--preset", "thm2-detectable", "--trials", "150",
                        "--seed", SEED, "--out", str(tmp_path), "--format", "json,jsonl"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] overlap_zero" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rates"]["overlap"]["count"] == 0
        assert summary["passed"] is True
        records = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
        assert len(records) == 150
        assert all(rec["accepted_pre"] != rec["accepted_post"] or not rec["accepted_pre"]
                   for rec in records)

    def test_violating_n_exits_2_with_minimal_n(self, tmp_path, capsys):
        code = run_cli(["experiment", "--preset", "thm2-detectable", "--n", "100",
                        "--seed", SEED, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "3600" in err and "3601" in err

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code = run_cli(["experiment", "--preset", "hoeffding", "--out", str(tmp_path)])
        assert code == 2
        assert "master_seed" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = run_cli(["experiment", "--preset", "nope", "--seed", SEED,
                        "--out", str(tmp_path)])
        assert code == 2
        assert "preset" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        args = ["experiment", "--preset", "thm2-undetectable", "--trials", "60",
                "--n", "500", "--format", "json,jsonl", "--out"]
        for name, seed in (("one", SEED), ("two", SEED), ("low", "-1"), ("high", str(2**64 - 1))):
            assert run_cli(args + [str(tmp_path / name), f"--seed={seed}"]) == 0
        assert read(tmp_path / "one" / "summary.json") == read(tmp_path / "two" / "summary.json")
        # trial_rng masks the seed to 64 bits, so -1 and 2^64 - 1 draw the same
        # trials; the summaries differ only in the seed they echo
        low, high = (json.loads(read(tmp_path / name / "summary.json")) for name in ("low", "high"))
        assert (low["spec"].pop("master_seed"), high["spec"].pop("master_seed")) == (-1, 2**64 - 1)
        assert low == high
        assert read(tmp_path / "low" / "trials.jsonl") == read(tmp_path / "high" / "trials.jsonl")

    def test_config_file_layering(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "operation": "coupling_validation",
            "regime": "fixed_a", "a": 2.0, "n": 400, "trials": 50,
            "master_seed": 7,
        }))
        code = run_cli(["experiment", "--config", str(config), "--trials", "40",
                        "--out", str(tmp_path / "run")])
        assert code == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["spec"]["trials"] == 40  # flag beats file
        assert summary["spec"]["n"] == 400

    def test_config_unknown_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"regime": "fixed_a", "bogus": 1}))
        code = run_cli(["experiment", "--config", str(config), "--seed", SEED,
                        "--out", str(tmp_path)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        # json.dumps refuses an integer of more than 4300 digits, so the text is written out
        config = tmp_path / "spec.json"
        config.write_text('{"c": 1' + "0" * 5000 + "}")
        code = run_cli(["experiment", "--preset", "thm1-detectable", "--config", str(config),
                        "--seed", SEED, "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config: invalid JSON (")
        assert not (tmp_path / "run").exists()

    def test_config_bool_n_exits_2(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "operation": "coupling_validation",
            "regime": "fixed_a", "a": 2.0, "n": True, "trials": 5, "master_seed": 7,
        }))
        code = run_cli(["experiment", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == "error: n: must be a positive integer, got True\n"

    def test_config_bool_real_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "operation": "thm2_undetectable", "regime": "fixed_a", "a": 2.0, "n": 200,
            "trials": 20, "lam": True, "master_seed": 1,
        }))
        code = run_cli(["experiment", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == "error: lam: must be a real number, got True\n"
        assert not (tmp_path / "run").exists()

    def test_run_meta_written(self, tmp_path, monkeypatch):
        argv = ["experiment", "--preset", "thm2-undetectable", "--trials", "30",
                "--n", "200", "--seed", SEED]
        # one block, far below the shard threshold: the run forks nothing
        run_cli([*argv, "--out", str(tmp_path / "in_process")])
        meta = json.loads((tmp_path / "in_process" / "run_meta.json").read_text())
        assert meta["master_seed"] == int(SEED)
        # no run loads scipy or mpmath, so neither is recorded
        assert meta["versions"] == {"python": platform.python_version(), "numpy": np.__version__}
        # decimal MB: this process holds tens of MB, not 10 GB
        assert 10.0 < meta["peak_rss_mb"] < 1e4
        assert type(meta["minor_faults"]) is int and meta["minor_faults"] >= 0
        assert meta["workers"] == 0
        assert meta["workers_peak_rss_mb"] is None
        assert meta["workers_minor_faults"] is None
        # one trial a block and a low shard threshold, so the run forks two workers
        monkeypatch.setattr(harness, "worker_count", lambda: 2)
        monkeypatch.setattr(harness, "_BLOCK_COORDS", 1)
        monkeypatch.setattr(harness, "_MIN_WORKER_BLOCKS", 1)
        run_cli([*argv, "--out", str(tmp_path / "sharded")])
        meta = json.loads((tmp_path / "sharded" / "run_meta.json").read_text())
        assert meta["workers"] == 2
        # each forked worker held what this process held
        assert 10.0 < meta["workers_peak_rss_mb"] < 1e4
        assert type(meta["minor_faults"]) is int and meta["minor_faults"] >= 0
        # a forked worker faults in at least the pages it writes
        assert type(meta["workers_minor_faults"]) is int and meta["workers_minor_faults"] > 0

    def test_workers_peak_is_this_runs(self, tmp_path):
        # a run's workers_peak_rss_mb and workers_minor_faults come from
        # its own workers, not from larger ones an earlier run in this
        # process forked and reaped
        def allocate(mb):
            return int(np.ones(1 + mb * 2**20 // 8)[-1])  # written, so resident

        peaks, faults = [], []
        for task_mb in (100, 0):
            start = cli._run_start()
            assert list(forked.forked_map(allocate, [task_mb] * 4, 2)) == [1] * 4
            cli._write_meta(tmp_path, "map", [], None, start)
            meta = json.loads((tmp_path / "run_meta.json").read_text())
            assert meta["workers"] == 2
            peaks.append(meta["workers_peak_rss_mb"])
            faults.append(meta["workers_minor_faults"])
        assert peaks[1] < peaks[0]
        assert faults[1] < faults[0]


# one small configuration per operation
SMALL_CONFIGS = {
    "coupling_validation": {"regime": "fixed_a", "a": 1.0, "n": 300, "epsilon": 0.005},
    "thm1_undetectable": {"regime": "cube_scaling", "c": 1.5, "n": 300},
    "thm1_detectable": {"regime": "cube_scaling", "c": 4.0, "n": 300},
    "thm2_undetectable": {"regime": "fixed_a", "a": 2.0, "n": 300},
    "thm2_detectable": {"regime": "fixed_a", "a": 2.0, "n": 300, "epsilon": 0.1, "lam": 1.0},
}


class TestTrialRecords:
    @pytest.mark.parametrize("operation", sorted(SMALL_CONFIGS))
    def test_lines_match_asdict(self, operation, tmp_path):
        # trials.jsonl holds the lines the run passes to on_trial, each
        # json's own encoding of a dict of every record key
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"operation": operation, **SMALL_CONFIGS[operation],
                                      "trials": 6, "master_seed": 5}))
        run_cli(["experiment", "--config", str(config), "--out", str(tmp_path),
                 "--format", "json,jsonl"])
        lines = (tmp_path / "trials.jsonl").read_text().splitlines(keepends=True)
        spec = json.loads((tmp_path / "summary.json").read_text())["spec"]
        recs = []
        cli._OPERATIONS[operation](ExperimentSpec(**spec), on_trial=recs.append)
        assert lines == recs
        assert lines == [json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines]
        keys = ["accepted_post", "accepted_pre", "sr", "statistic_post", "statistic_pre",
                "theta_rle", "trial_index", "zero_count"]
        assert [list(json.loads(line)) for line in lines] == [keys] * 6
        assert [json.loads(line)["trial_index"] for line in lines] == list(range(6))
        assert not (tmp_path / "trials.jsonl.partial").exists()

    def test_raising_run_leaves_no_trials_file(self, tmp_path, monkeypatch):
        real = cli._OPERATIONS["thm2_undetectable"]

        def crash_on_third_trial(spec, on_trial):
            def record(line):
                if json.loads(line)["trial_index"] == 2:
                    raise RuntimeError("trial 2 failed")
                on_trial(line)

            return real(spec, on_trial=record)

        monkeypatch.setitem(cli._OPERATIONS, "thm2_undetectable", crash_on_third_trial)
        with pytest.raises(RuntimeError, match="trial 2 failed"):
            run_cli(["experiment", "--preset", "thm2-undetectable", "--trials", "5",
                     "--n", "200", "--seed", SEED, "--out", str(tmp_path),
                     "--format", "json,jsonl"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc for the workers")
    def test_sigterm_leaves_no_partial_file_or_worker(self, tmp_path):
        out = tmp_path / "run"
        partial = out / "trials.jsonl.partial"
        proc = subprocess.Popen(
            [sys.executable, "-m", "parityshift", "experiment", "--preset", "thm1-detectable",
             "--trials", "1000000000000", "--seed", SEED, "--format", "json,jsonl",
             "--out", str(out)],
            env=_src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60.0
            while not (partial.exists() and partial.stat().st_size > 0):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "no trial record within 60 s"
                time.sleep(0.02)
            # the forked trial-block workers, none on a single core
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            workers = children.read_text().split() if children.exists() else []
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert proc.returncode == 143
        assert not list(tmp_path.rglob("*.partial"))
        # forked_map terminated and reaped every worker before the CLI exited
        assert [pid for pid in workers if Path(f"/proc/{pid}").exists()] == []


class TestModuleEntryPoint:
    def test_python_m_help(self):
        proc = subprocess.run([sys.executable, "-m", "parityshift", "--help"],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        # the three commands, and no others
        assert "{kernels,experiment,sweep}" in proc.stdout


# Runs in a fresh interpreter: the test process has already imported
# mpmath and scipy through the kernel and statistics tests.
_FOOTPRINT_SCRIPT = """
import json, sys

def unwanted():
    return sorted(m for m in sys.modules if m == "mpmath" or m.split(".")[0] == "scipy")

from parityshift.cli import run_cli

on_import = unwanted()
out = sys.argv[1]
codes = [
    run_cli(["experiment", "--preset", "coupling-a1", "--trials", "20", "--seed", "1",
             "--format", "json,jsonl", "--out", out + "/experiment"]),
    run_cli(["sweep", "--preset", "sweep-c", "--trials", "5", "--seed", "1",
             "--out", out + "/sweep"]),
    run_cli(["kernels", "--a", "0.3", "--out", out + "/kernels"]),
]
print(json.dumps({"codes": codes, "on_import": on_import, "loaded": unwanted()}))
"""


class TestImportFootprint:
    def test_import_and_runs_load_neither_mpmath_nor_scipy(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path)],
                              capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        assert result["on_import"] == []
        assert result["loaded"] == []


def _third_party_imports() -> set[str]:
    # top-level package of every absolute import in src/parityshift, at
    # module level or inside a function, less the standard library's
    names = set()
    for path in (SRC / "parityshift").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"parityshift"}


class TestRuntimeDependencies:
    def test_numpy_is_the_only_third_party_import(self):
        assert _third_party_imports() == {"numpy"}

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_project_dependencies_are_the_imports(self):
        import tomllib

        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
        names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                 for dep in project["dependencies"]}
        assert names == _third_party_imports()


# A two-worker run in a fresh interpreter: forking the trial-block
# workers loads no multiprocessing, socket, selectors or subprocess.
_SHARDED_IMPORTS_SCRIPT = """
import json, sys
from parityshift import cli, harness

harness.worker_count = lambda: 2
harness._BLOCK_COORDS = 1
harness._MIN_WORKER_BLOCKS = 1
code = cli.run_cli(["experiment", "--preset", "thm2-undetectable", "--trials", "20", "--n", "200",
                    "--seed", "1", "--out", sys.argv[1]])
print(json.dumps({"code": code, "loaded": sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("multiprocessing", "socket", "selectors", "subprocess"))}))
"""


class TestShardedImports:
    def test_sharded_run_loads_no_multiprocessing(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _SHARDED_IMPORTS_SCRIPT, str(tmp_path)],
                              capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
        assert json.loads((tmp_path / "run_meta.json").read_text())["workers"] == 2


# Also in a fresh interpreter: importing the package loads no submodule,
# and kernels.py (parameters, checks and G(a)) loads without the harness,
# the CLI or scipy.
_IMPORT_SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("parityshift.") or m.split(".")[0] == "scipy")

import parityshift
package = loaded()
import parityshift.kernels
print(json.dumps({"package": package, "kernels": loaded()}))
"""


class TestImportScope:
    def test_package_and_kernels_load_only_themselves(self):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"package": [], "kernels": ["parityshift.kernels"]}


class TestOutPath:
    @pytest.mark.parametrize("argv", [
        ["kernels", "--a", "1"],
        ["experiment", "--preset", "coupling-a1", "--trials", "5", "--seed", SEED],
        ["sweep", "--preset", "sweep-c", "--trials", "5", "--seed", SEED],
    ], ids=["kernels", "experiment", "sweep"])
    @pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
    def test_out_on_a_file_exits_2(self, tmp_path, capsys, argv, under):
        # mkdir raises FileExistsError on the file itself, NotADirectoryError below it
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "run" if under else afile
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: out:")
        assert afile.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [afile]


class TestSweepCommand:
    def test_writes_csv_and_monotone(self, tmp_path, capsys):
        code = run_cli(["sweep", "--preset", "sweep-t", "--trials", "120",
                        "--seed", SEED, "--out", str(tmp_path)])
        assert code == 0
        assert "[PASS] success_monotone_in_t" in capsys.readouterr().out
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 cells
        header = lines[0].split(",")
        assert "attacker_success_rate" in header and "t_offset" in header

    def test_byte_identical_rerun(self, tmp_path):
        args = ["sweep", "--preset", "sweep-t", "--trials", "50", "--n", "400",
                "--seed", SEED, "--out"]
        run_cli(args + [str(tmp_path / "one")])
        run_cli(args + [str(tmp_path / "two")])
        assert read(tmp_path / "one" / "sweep.csv") == read(tmp_path / "two" / "sweep.csv")
        assert read(tmp_path / "one" / "summary.json") == read(tmp_path / "two" / "summary.json")

    @pytest.mark.parametrize("preset, grid", [("sweep-t", "t_offsets"), ("sweep-c", "c_values")])
    def test_empty_grid_exits_2(self, tmp_path, capsys, preset, grid):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({grid: []}))
        code = run_cli(["sweep", "--preset", preset, "--config", str(config), "--trials", "5",
                        "--seed", SEED, "--out", str(tmp_path / "run")])
        assert code == 2
        assert grid in capsys.readouterr().err

    def test_empty_family_cell_exits_2(self, tmp_path, capsys):
        # t = G(2) - G(2) = 0: no perturbation has sparsity ratio < t
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"t_offsets": [-big_g_value(2.0)]}))
        code = run_cli(["sweep", "--preset", "sweep-t", "--config", str(config), "--trials", "5",
                        "--seed", SEED, "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: t_offsets:")
        assert not (tmp_path / "run").exists()

    # JSON numbers a config file may hold that no cell can take
    @pytest.mark.parametrize("preset, grid, text", [
        ("sweep-t", "t_offsets", "1e300"), ("sweep-t", "t_offsets", "Infinity"),
        ("sweep-t", "t_offsets", "NaN"), ("sweep-c", "c_values", "-1"),
        ("sweep-c", "c_values", "NaN"), ("sweep-c", "c_values", "1e-300"),
        ("sweep-c", "c_values", "1e-3"),
    ])
    def test_bad_grid_value_exits_2(self, tmp_path, capsys, preset, grid, text):
        config = tmp_path / "grid.json"
        config.write_text(f'{{"{grid}": [{text}]}}')
        code = run_cli(["sweep", "--preset", preset, "--config", str(config), "--trials", "5",
                        "--seed", SEED, "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {grid}:")
        assert not (tmp_path / "run").exists()

    def test_runs_sweep_without_preset(self, tmp_path, capsys):
        # sweep has one operation, so flags alone name the run; experiment has
        # five.  With no grid given, each regime sweeps its 13 default cells
        for flag, value, column, grid in (
            ("--a", "2", "t_offset", [-0.15, -0.125, -0.1, -0.075, -0.05, -0.025, 0.0,
                                      0.025, 0.05, 0.075, 0.1, 0.125, 0.15]),
            ("--c", "1", "c", [1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5,
                               3.75, 4.0]),
        ):
            out = tmp_path / column
            assert run_cli(["sweep", flag, value, "--n", "300", "--trials", "5", "--seed", "1",
                            "--out", str(out)]) == 0
            header, *rows = (out / "sweep.csv").read_text().strip().splitlines()
            at = header.split(",").index(column)
            assert [float(row.split(",")[at]) for row in rows] == grid
            assert [row[column] for row in json.loads(read(out / "summary.json"))["rows"]] == grid
        code = run_cli(["experiment", "--a", "2", "--n", "300", "--trials", "5", "--seed", "1",
                        "--out", str(tmp_path / "experiment")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: no operation: give --preset, --operation or a config file\n")

    def test_cube_sweep(self, tmp_path):
        code = run_cli(["sweep", "--preset", "sweep-c", "--trials", "40", "--n", "300",
                        "--seed", SEED, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 14
        assert "detector_win_rate" in lines[0].split(",")


class TestIgnoredInput:
    @pytest.mark.parametrize("argv, config, field", [
        (["experiment", "--preset", "thm2-undetectable"], {"t_offsets": [0.0]}, "t_offsets"),
        (["experiment", "--preset", "thm2-undetectable"], {"c_values": [2.0]}, "c_values"),
        (["experiment", "--preset", "thm2-undetectable", "--format", "csv"], {}, "format"),
        (["experiment", "--preset", "thm2-undetectable", "--format", "json,csv"], {}, "format"),
        (["sweep", "--preset", "sweep-t"], {"c_values": [1.0]}, "c_values"),
        (["sweep", "--preset", "sweep-c"], {"t_offsets": [0.0]}, "t_offsets"),
        # the other regime's bin width, and t on a sweep, would be ignored
        (["experiment", "--preset", "thm2-undetectable", "--c", "3"], {}, "c"),
        (["experiment", "--preset", "thm2-undetectable"], {"c": 3.0}, "c"),
        (["experiment", "--preset", "thm1-undetectable", "--a", "1"], {}, "a"),
        (["experiment", "--preset", "thm1-undetectable"], {"a": 1.0}, "a"),
        (["sweep", "--preset", "sweep-t", "--t", "0.3"], {}, "t"),
        (["sweep", "--preset", "sweep-c"], {"t": 0.3}, "t"),
        # each subcommand runs only its own operations
        (["sweep", "--preset", "hoeffding"], {}, "operation"),
        (["sweep"], {"operation": "thm1_detectable", "regime": "cube_scaling", "c": 4.0,
                     "n": 300}, "operation"),
        (["experiment", "--preset", "sweep-t"], {}, "operation"),
        # t and alpha where the operation never reads them
        (["experiment", "--preset", "thm1-undetectable", "--t", "0.3"], {}, "t"),
        (["experiment", "--preset", "thm1-detectable", "--t", "0.3"], {}, "t"),
        (["experiment", "--preset", "coupling-a2"], {"t": 0.3}, "t"),
        (["experiment", "--preset", "coupling-a2", "--alpha", "0.01"], {}, "alpha"),
        (["experiment", "--preset", "thm1-undetectable"], {"alpha": 0.01}, "alpha"),
        (["sweep", "--preset", "sweep-t", "--alpha", "0.01"], {}, "alpha"),
        # two grids on an experiment: the error names one
        (["experiment", "--preset", "thm1-undetectable"], {"t_offsets": [0.0], "c_values": [1.0]},
         "c_values"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, argv, config, field):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(config))
        code = run_cli(argv + ["--config", str(path), "--trials", "5", "--seed", SEED,
                               "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, config", [
        (["experiment", "--preset", "thm2-undetectable"], {"c": None, "t": None}),
        (["experiment", "--preset", "thm1-undetectable"], {"a": None}),
        (["sweep", "--preset", "sweep-t"], {"c": None, "t": None}),
        (["sweep", "--preset", "sweep-c"], {"a": None, "t": None}),
    ])
    def test_null_values_accepted(self, tmp_path, argv, config):
        path = tmp_path / "nulls.json"
        path.write_text(json.dumps(config))
        assert run_cli(argv + ["--config", str(path), "--trials", "2", "--n", "300",
                               "--seed", SEED, "--out", str(tmp_path / "run")]) in (0, 1)
        assert (tmp_path / "run" / "summary.json").is_file()


class TestBadNumericInput:
    @pytest.mark.parametrize("argv, field", [
        (["kernels", "--a", "1.2", "--step", "0"], "step"),
        (["kernels", "--a", "1.2", "--step", "-0.01"], "step"),
        # a bin width whose square underflows, given directly here and
        # through c = 1e-300 in the last row
        (["kernels", "--a", "1e-300"], "a"),
        (["experiment", "--preset", "thm2-undetectable", "--a", "1e-300"], "a"),
        (["kernels", "--a", "1", "--xmin", "nan"], "xmin"),
        (["kernels", "--a", "1", "--xmax", "nan"], "xmax"),
        # ExperimentSpec and the harness name the spec field too
        (["experiment", "--preset", "thm2-undetectable", "--lambda", "nan"], "lam"),
        (["experiment", "--preset", "thm2-undetectable", "--trials", "0"], "trials"),
        (["experiment", "--preset", "thm2-undetectable", "--a", "inf"], "a"),
        (["experiment", "--preset", "thm2-undetectable", "--epsilon", "0"], "epsilon"),
        (["experiment", "--preset", "thm2-undetectable", "--t", "1.5"], "t"),
        (["experiment", "--preset", "thm1-undetectable", "--n", "2"], "n"),
        (["experiment", "--preset", "thm1-undetectable", "--c", "0"], "c"),
        (["experiment", "--preset", "thm2-detectable", "--t", "0"], "t"),
        (["experiment", "--preset", "thm2-undetectable", "--operation", "thm1_undetectable"],
         "regime"),
        (["kernels", "--a", "1", "--step", "inf"], "step"),
        # about 1e299 grid points, more than numpy can index
        (["kernels", "--a", "1", "--xmin", "0", "--xmax", "0.1", "--step", "1e-300"], "step"),
        (["experiment", "--preset", "thm2-undetectable", "--t", "0"], "t"),
        (["experiment", "--preset", "thm1-undetectable", "--c", "1e-300"], "c"),
        # phi's array plan would take more terms than the scalar series may
        (["experiment", "--preset", "thm1-undetectable", "--c", "1e-100"], "c"),
        (["experiment", "--preset", "thm1-undetectable", "--c", "1e-3"], "c"),
        (["sweep", "--preset", "sweep-c", "--c", "1e-3", "--seed", SEED], "c"),
        # eps^2 underflows, lambda^2 overflows, or lambda^2 / eps^2 does
        (["experiment", "--preset", "thm2-detectable", "--trials", "2", "--epsilon", "1e-300"],
         "epsilon"),
        (["experiment", "--preset", "thm2-detectable", "--trials", "2", "--lambda", "1e300"],
         "lam"),
        (["experiment", "--preset", "thm1-detectable", "--lambda", "1e300"], "lam"),
        (["experiment", "--preset", "thm2-detectable", "--trials", "2", "--lambda", "1e150",
          "--epsilon", "1e-150"], "n"),
        # KernelParams names the kernels command's a and rel_tol
        (["kernels", "--a", "nan"], "a"),
        (["kernels", "--a", "1", "--rel-tol", "1"], "rel_tol"),
        # n past the largest n whose block of float64 values numpy can size
        (["experiment", "--preset", "thm2-detectable", "--n", str(2**64), "--trials", "1"], "n"),
        (["experiment", "--preset", "thm2-detectable", "--n", str(2**62), "--trials", "1"], "n"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, argv, field):
        if argv[0] == "experiment":
            argv = argv + ["--seed", SEED, "--format", "json,jsonl"]
        # neither --out nor its parent exists yet; a run that raises leaves neither
        assert run_cli(argv + ["--out", str(tmp_path / "out" / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}:")
        assert "[PASS]" not in captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, config, field", [
        (["experiment", "--preset", "thm1-detectable"], {"c": 10**400}, "c"),
        (["experiment", "--preset", "thm2-undetectable"], {"a": 10**400}, "a"),
        (["experiment", "--preset", "thm2-undetectable"], {"epsilon": 10**400}, "epsilon"),
        (["experiment", "--preset", "thm2-undetectable"], {"lam": 10**400}, "lam"),
        (["sweep", "--preset", "sweep-c"], {"c_values": [1.0, 10**400]}, "c_values"),
        (["sweep", "--preset", "sweep-t"], {"t_offsets": [0.0, -10**400]}, "t_offsets"),
        (["experiment", "--preset", "thm1-detectable"], {"n": 10**400}, "n"),
        (["experiment", "--preset", "thm1-detectable"], {"trials": 10**400}, "trials"),
        # a value of the wrong type is named like a bad number, and a missing field too
        (["experiment"], {"operation": ["x"]}, "operation"),
        (["experiment", "--preset", "thm2-undetectable"], {"regime": ["fixed_a"]}, "regime"),
        (["experiment", "--preset", "thm2-undetectable"], {"epsilon": "0.05"}, "epsilon"),
        (["experiment", "--preset", "thm2-undetectable"], {"a": "2"}, "a"),
        (["experiment", "--preset", "thm2-undetectable"], {"lam": None}, "lam"),
        (["experiment", "--preset", "thm2-undetectable"], {"rel_tol": None}, "rel_tol"),
        (["experiment"], {"operation": "coupling_validation", "regime": "fixed_a", "a": 2.0,
                          "trials": 5}, "n"),
        # the plan sums to rel_tol / 1000, which underflows to 0 here
        (["experiment", "--preset", "coupling-a1"], {"rel_tol": 5e-324}, "rel_tol"),
        # a list is unhashable, so it must be named before the plan's cache sees it
        (["sweep", "--preset", "sweep-c"], {"rel_tol": [1.0]}, "rel_tol"),
    ])
    def test_integer_too_large_for_a_double(self, tmp_path, capsys, argv, config, field):
        # JSON integers have no size limit; one beyond the largest double is
        # named like any other bad value, not raised as an OverflowError
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out" / "run"
        assert run_cli(argv + ["--config", str(path), "--seed", SEED, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")
        assert not out.parent.exists()


class TestLargeInput:
    @pytest.mark.parametrize("preset", ["thm1-detectable", "thm1-undetectable"])
    def test_cube_c_1e5_runs_or_names_c(self, tmp_path, capsys, preset):
        # a = c / sqrt(ln n) ~ 3.3e4, where G(a)'s dual series would need
        # tens of thousands of terms; the bin-mass series gives G = 1
        code = run_cli(["experiment", "--preset", preset, "--c", "1e5", "--trials", "2",
                        "--seed", "1", "--out", str(tmp_path)])
        if code == 2:
            assert capsys.readouterr().err.startswith("error: c:")
        else:
            assert code == 0
            bounds = json.loads((tmp_path / "summary.json").read_text())["bounds"]
            assert 0.0 <= bounds["big_g"] <= 1.0

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
    @pytest.mark.parametrize("argv, field", [
        # the pooled x' of 1e8 trials of n = 2000 would take 1.5 TiB
        (["--preset", "hoeffding", "--trials", "100000000"], "trials"),
        # one block row of n = 1e9 normals would take 7.45 GiB
        (["--preset", "thm2-detectable", "--n", "1000000000", "--trials", "1"], "n"),
        # a 1.5 GiB row fits, but the parity labels' arrays do not
        (["--preset", "thm2-detectable", "--n", "200000000", "--trials", "1"], "n"),
        # an evader's n = 2**31 fails in its block, not while its job is made
        (["--preset", "thm1-detectable", "--n", "2147483648", "--trials", "1"], "n"),
        (["--preset", "thm2-detectable", "--n", "2147483648", "--trials", "1"], "n"),
    ], ids=["pool", "block", "kernel", "evader-full-cube", "evader-budget"])
    def test_allocation_failure_exits_2_naming_the_field(self, tmp_path, argv, field):
        proc = subprocess.run(
            [sys.executable, "-c", _LIMITED_SCRIPT, str(2 << 30), "experiment", *argv,
             "--seed", "1", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {field}:")
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
    @pytest.mark.parametrize("preset, c", [("thm1-detectable", "2"), ("thm1-undetectable", "3")])
    def test_unmet_premise_leaves_the_error_first_on_stderr(self, tmp_path, preset, c):
        # c misses the preset's premise, and one block row of n = 2**40
        # normals cannot allocate: stderr holds the error and nothing
        # before it, in a fresh interpreter with no warning filter
        proc = subprocess.run(
            [sys.executable, "-c", _LIMITED_SCRIPT, str(2 << 30), "experiment",
             "--preset", preset, "--c", c, "--n", "1099511627776", "--trials", "1",
             "--seed", "1", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: n:"), proc.stderr


class TestFiniteGuard:
    def test_non_finite_payload_rejected(self, tmp_path):
        from parityshift.cli import _assert_finite

        with pytest.raises(AssertionError):
            _assert_finite({"x": [1.0, float("nan")]})
        with pytest.raises(AssertionError):
            _assert_finite({"x": {"y": float("inf")}})
        _assert_finite({"x": [1.0, 2, "s", None, True]})


# Per-type extremes and ordinary values the input-space property test draws from.
_REALS = [0.0, 5e-324, 1e-300, 1e-160, 0.0326, 0.25, 0.5, 1.0, 2.5, 3.75, 30.0, 1e5, 1e300,
          -1.0, math.inf, -math.inf, math.nan]
_INTEGERS = [-2**63, -5, -1, 0, 1, 2, 3, 2**31, 10**9, 2**64, 10**4299]  # the last has 4300 digits
# --format values; only `experiment` takes the flag
_FORMATS = ["json", "jsonl", "json,jsonl", "xml", ",,"]
_CONFIG_ONLY = ["0.05", None, [1.0], True]
# fields of experiment and sweep runs, with the flag that sets each, if any
_INTEGER_FLAGS = {"n": "--n", "trials": "--trials", "master_seed": "--seed"}
_REAL_FLAGS = {"a": "--a", "c": "--c", "t": "--t", "epsilon": "--epsilon", "lam": "--lambda",
               "alpha": "--alpha", "rel_tol": None}
_CONFIG_FIELDS = {"regime": st.sampled_from(["fixed_a", "cube_scaling"]),
                  "operation": st.sampled_from(sorted(cli._OPERATIONS)),
                  "t_offsets": st.lists(st.sampled_from(_REALS), min_size=1, max_size=2),
                  "c_values": st.lists(st.sampled_from(_REALS), min_size=1, max_size=2)}
_KERNEL_FLAGS = {"a": "--a", "xmin": "--xmin", "xmax": "--xmax", "step": "--step",
                 "rel_tol": "--rel-tol"}
# what an exit 2 may name: a spec field, a grid, a kernels argument, the
# operation or the output format
_NAMES = {*(f.name for f in dataclasses.fields(ExperimentSpec)), *_CONFIG_FIELDS,
          *_KERNEL_FLAGS, "format"}
# tier-1 takes 25 fixed examples; CI, under the input-space profile of
# tests/conftest.py, takes that profile's larger random budget
_BUDGET = (settings() if settings.get_current_profile_name() == "input-space"
           else settings(derandomize=True, max_examples=25))


@st.composite
def _commands(draw):
    """(argv, config, whether trials was drawn): a command with up to three overridden
    fields and, for `experiment`, perhaps an output format."""
    name = draw(st.sampled_from(["kernels", *sorted(cli.PRESETS)]))
    if name == "kernels":
        fields = draw(st.lists(st.sampled_from(sorted(_KERNEL_FLAGS)), max_size=3, unique=True))
        values = {"a": 1.0} | {f: draw(st.sampled_from(_REALS)) for f in fields}
        # A table of 1e5 to 2^28 rows is valid input that takes minutes
        # (35 us a row at a = 1e5); a larger one cannot allocate its grid
        # under the 2 GiB cap and exits 2 at once.
        grid = {"xmin": -4.0, "xmax": 4.0, "step": 0.01} | values
        rows = (grid["xmax"] - grid["xmin"]) / grid["step"] if grid["step"] else math.inf
        assume(not 1e5 < rows < 2**28)
        return ["kernels"] + [f"{_KERNEL_FLAGS[f]}={v!r}" for f, v in values.items()], None, False
    command = "sweep" if cli.PRESETS[name]["operation"] == "sweep" else "experiment"
    argv, config = [command, "--preset", name], {}
    fields = draw(st.lists(st.sampled_from(
        sorted({*_INTEGER_FLAGS, *_REAL_FLAGS, *_CONFIG_FIELDS})), max_size=3, unique=True))
    for field in fields:
        flag = _INTEGER_FLAGS.get(field) or _REAL_FLAGS.get(field)
        typed = (st.sampled_from(_INTEGERS) if field in _INTEGER_FLAGS
                 else _CONFIG_FIELDS.get(field, st.sampled_from(_REALS)))
        if flag is not None and draw(st.booleans()):
            value = draw(typed)
            argv.append(f"{flag}={value if isinstance(value, int) else repr(value)}")
        else:
            config[field] = draw(st.one_of(typed, st.sampled_from(_CONFIG_ONLY)))
    if command == "experiment" and draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(_FORMATS))}")
    # at most 3 trials, unless the example draws trials itself
    argv += [f"{_INTEGER_FLAGS[f]}={v}" for f, v in (("trials", 3), ("master_seed", 1))
             if f not in fields]
    return argv, config, "trials" in fields


class TestInputSpace:
    """Every input exits 0, 1 with a failed check, or 2 naming its field; none crashes.

    Each example runs the CLI in a child process capped at 2 GiB of
    address space.  A run of many trials is valid input that would take
    hours: once such a run has made its output directory, its input
    handling is over, and it is stopped after a few seconds.
    """

    @settings(_BUDGET, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_commands())
    def test_exits_0_1_or_2_naming_a_field(self, command):
        argv, config, many_trials = command
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            if config is not None:
                (Path(tmp) / "config.json").write_text(json.dumps(config))
                argv = argv + ["--config", str(Path(tmp) / "config.json")]
            proc = subprocess.Popen(
                [sys.executable, "-c", _LIMITED_SCRIPT, str(2 << 30), *argv, "--out", str(out)],
                env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True)
            try:
                stdout, stderr = proc.communicate(timeout=5 if many_trials else 60)
            except subprocess.TimeoutExpired:
                # many trials, and the output directory made: input handling is over
                started = many_trials and out.is_dir()
                try:
                    stdout, stderr = proc.communicate(timeout=0 if started else 55)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    stderr = proc.communicate()[1]
                    assert started, f"{argv} {config}: no exit within 60 s\n{stderr}"
                    return
        code = proc.returncode
        assert "Traceback" not in stderr, f"{argv} {config}\n{stderr}"
        if code == 1:
            assert re.search(r"^\[FAIL\] ", stdout, re.M), f"{argv} {config}\n{stdout}{stderr}"
        elif code == 2:
            named = re.match(r"error: (\w+):", stderr)
            assert named and named[1] in _NAMES, f"{argv} {config}\n{stderr}"
        else:
            assert code == 0, f"{argv} {config}: exit {code}\n{stdout}{stderr}"
