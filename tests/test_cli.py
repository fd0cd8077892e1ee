"""CLI: exit codes, output files, byte-stability, config layering."""

import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from parityshift import cli, forked, harness
from parityshift.cli import run_cli
from parityshift.detector import big_g_value
from parityshift.harness import ExperimentSpec

SRC = Path(__file__).resolve().parents[1] / "src"

SEED = "424242"


def read(path):
    return path.read_bytes()


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

    def test_byte_identical_rerun(self, tmp_path):
        args = ["kernels", "--a", "0.9", "--xmin", "-2", "--xmax", "2",
                "--step", "0.1", "--out"]
        run_cli(args + [str(tmp_path / "one")])
        run_cli(args + [str(tmp_path / "two")])
        assert read(tmp_path / "one" / "kernels.csv") == read(tmp_path / "two" / "kernels.csv")

    @pytest.mark.parametrize("a, x", [(0.02, "-2.96"), (0.01, "-4.0")])
    def test_small_width_names_a_and_x(self, tmp_path, capsys, a, x):
        # phi's up-shift series needs more than max_terms terms there
        assert run_cli(["kernels", "--a", str(a), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: a: {a!r} is too small, a series stopped at x={x}")
        assert not (tmp_path / "run").exists()

    def test_smallest_default_grid_width(self, tmp_path):
        # a = 0.03 still sums every series on the default grid
        assert run_cli(["kernels", "--a", "0.03", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "kernels.csv").read_text().splitlines()) == 802

    def test_grid_outside_domain_rejected(self, tmp_path):
        code = run_cli(["kernels", "--a", "1.0", "--xmin", "-40", "--xmax", "40",
                        "--step", "1", "--out", str(tmp_path)])
        assert code == 2


class TestExperimentCommand:
    def test_preset_runs_and_writes_summary(self, tmp_path, capsys):
        code = run_cli(["experiment", "--preset", "thm2-detectable", "--trials", "150",
                        "--seed", SEED, "--out", str(tmp_path), "--format", "json,jsonl"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] overlap_zero" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["counts"]["overlap_count"] == 0
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
                "--n", "500", "--seed", SEED, "--out"]
        run_cli(args + [str(tmp_path / "one")])
        run_cli(args + [str(tmp_path / "two")])
        assert read(tmp_path / "one" / "summary.json") == read(tmp_path / "two" / "summary.json")

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


@pytest.mark.filterwarnings("ignore:theorem premises not all met")
class TestTrialRecords:
    @pytest.mark.parametrize("operation", sorted(SMALL_CONFIGS))
    def test_lines_match_asdict(self, operation, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"operation": operation, **SMALL_CONFIGS[operation],
                                      "trials": 6, "master_seed": 5}))
        run_cli(["experiment", "--config", str(config), "--out", str(tmp_path),
                 "--format", "json,jsonl"])
        lines = (tmp_path / "trials.jsonl").read_text().splitlines()
        spec = json.loads((tmp_path / "summary.json").read_text())["spec"]
        recs = []
        cli._OPERATIONS[operation](ExperimentSpec(**spec), on_trial=recs.append)
        assert lines == [json.dumps(dataclasses.asdict(rec), sort_keys=True) for rec in recs]
        assert not (tmp_path / "trials.jsonl.partial").exists()

    def test_raising_run_leaves_no_trials_file(self, tmp_path, monkeypatch):
        real = cli._OPERATIONS["thm2_undetectable"]

        def crash_on_third_trial(spec, on_trial):
            def record(rec):
                if rec.trial_index == 2:
                    raise RuntimeError("trial 2 failed")
                on_trial(rec)

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
loaded = unwanted()

from parityshift.kernels import KernelParams, big_g_oracle, solve_a_for_g

print(json.dumps({"codes": codes, "on_import": on_import, "loaded": loaded,
                  "big_g_1": big_g_oracle(KernelParams(1.0)), "a_half": solve_a_for_g(0.5)}))
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
        # the first call of each function imports what it needs
        assert result["big_g_1"] == pytest.approx(0.0091569902897607558, abs=1e-12)
        assert result["a_half"] == pytest.approx(2.2979465162993065, abs=1e-9)


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
# and the scalar kernels load without the harness, the CLI or scipy.
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
        # sweep has one operation, so flags alone name the run; experiment has five
        code = run_cli(["sweep", "--a", "2", "--n", "300", "--trials", "5", "--seed", "1",
                        "--out", str(tmp_path / "sweep")])
        assert code == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 14  # header + the 13 offsets of the default grid
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


class TestFiniteGuard:
    def test_non_finite_payload_rejected(self, tmp_path):
        from parityshift.cli import _assert_finite

        with pytest.raises(AssertionError):
            _assert_finite({"x": [1.0, float("nan")]})
        with pytest.raises(AssertionError):
            _assert_finite({"x": {"y": float("inf")}})
        _assert_finite({"x": [1.0, 2, "s", None, True]})
