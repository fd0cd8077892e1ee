#!/usr/bin/env python3
"""parityshift benchmark: pinned CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs ``parityshift experiment`` or ``parityshift sweep``
(``cli.run_cli``) in a fresh child interpreter with the workload's
pinned spec (passed as ``--config``, so edits to ``cli.PRESETS`` do not
change the load) and ``--seed N``.  Children run one at a time with
single-threaded BLAS/OpenMP, so the ``lru_cache`` of ``plan_for`` and
``big_g_value`` and the RSS high-water mark start clean every time.
Repetitions continue until about S seconds have passed (at least
MIN_REPS), and every timing is reported as the median over them.

The machine's speed drifts by up to 1.8x over seconds to minutes (the
cores are shared), so end-to-end timings are rescaled to a fixed
reference speed: a calibration loop that never touches parityshift runs
in this process before the first repetition and after every one, and
each repetition's times are multiplied by CALIBRATION_REF_S over the
mean of its two neighbouring calibrations.  Raw wall-clock medians are
printed beside the rescaled ones.

Every repetition is checked: the child exits 0, every check in
``summary.json`` passed (read from ``checks``/``passed`` only), the
summary echoes the pinned spec and seed, ``trials.jsonl`` (where
written) holds one parseable record per trial, and the payload files
are byte-identical to the first repetition's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
traced repetition (see ``layers.py``), reports the per-layer metrics,
and checks that its payload matches the untraced repetitions byte for
byte.  Every metric is printed by name with its unit; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_REPS = 3
# Start no repetition expected to end after this many seconds, so a run
# finishes well inside its 180 s limit.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 165.0
# Seconds the calibration loop takes at the reference speed.  It only
# fixes the unit: the loop took 0.32-0.65 s on the 2-vCPU Xeon the
# baseline was measured on, as the machine's speed drifted.
CALIBRATION_REF_S = 0.45


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # CLI subcommand: "experiment" or "sweep"
    config: dict        # --config payload: operation plus every spec field
    formats: str | None  # --format for experiment; sweep takes none

    @property
    def cells(self) -> int:
        return len(self.config.get("c_values", [None]))

    @property
    def trials(self) -> int:
        return self.config["trials"]

    @property
    def coords(self) -> int:
        """Standard-normal coordinates drawn: trials x n x cells."""
        return self.config["trials"] * self.config["n"] * self.cells

    @property
    def payload_files(self) -> tuple[str, ...]:
        if self.command == "sweep":
            return ("summary.json", "sweep.csv")
        if "jsonl" in self.formats.split(","):
            return ("summary.json", "trials.jsonl")
        return ("summary.json",)


def _fixed_a(operation: str, a: float, n: int, trials: int, epsilon: float) -> dict:
    return {"operation": operation, "regime": "fixed_a", "a": a, "n": n, "trials": trials,
            "t": None, "epsilon": epsilon, "lam": 3.0, "alpha": None, "rel_tol": 1e-12}


# Specs copied from the cli.PRESETS values they were chosen from
# (hoeffding, thm2-detectable, coupling-a1, sweep-c), pinned here.
WORKLOADS = {w.name: w for w in (
    Workload("coupling-hoeffding", "experiment",
             _fixed_a("coupling_validation", 2.0, 2000, 10000, 0.05), "json"),
    Workload("evasion-thm2", "experiment",
             _fixed_a("thm2_detectable", 2.0, 5000, 10000, 0.05), "json"),
    Workload("records-coupling", "experiment",
             _fixed_a("coupling_validation", 1.0, 1000, 1000, 0.005), "json,jsonl"),
    Workload("cube-sweep", "sweep",
             {"operation": "sweep", "regime": "cube_scaling", "c": 1.0, "n": 2000,
              "trials": 1000, "t": None, "epsilon": 0.05, "lam": 3.0, "alpha": None,
              "rel_tol": 1e-12, "c_values": [1.0 + 0.25 * j for j in range(13)]},
             None),
)}

# Metric names, units and workload reasons live in BENCHMARK.json only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Rep:
    traced: bool
    scale: float = 1.0  # measured machine speed over the reference speed
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict | None = None
    hashes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@contextlib.contextmanager
def work_dir():
    """Scratch directory for one process's repetitions, removed afterwards."""
    work = BENCH_DIR / ".work" / str(os.getpid())
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still holds its directory
            pass


def calibrate() -> float:
    """Seconds for a fixed mix of numpy kernels and json encoding.

    The mix mirrors the program's (Philox draws, exp/cos series, bin
    parity, a sort, record encoding) without importing it, so the time
    moves with the machine and never with the program under test.
    """
    import numpy as np

    t0 = time.perf_counter()
    for i in range(150):
        x = np.random.Generator(np.random.Philox(key=[i, 7])).standard_normal(20000)
        w = np.exp(-2.0 * np.abs(x)) * np.cos(3.1 * x)
        k = np.floor(x / 2.0 + 0.5).astype(np.int64) & 1
        np.sort(x + w)
        json.dumps([{"sign": int(v), "count": j} for j, v in enumerate(k[:1500])])
    return time.perf_counter() - t0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    # the warm-up child writes bytecode caches that later children use
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": str(SRC),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def check_payload(wl: Workload, seed: int, out: Path) -> list[str]:
    """Problems with one repetition's payload; empty when it is correct."""
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = [f"check failed: {name}" for name, chk in summary.get("checks", {}).items()
                if chk.get("passed") is not True]
    if summary.get("passed") is not True:
        problems.append("summary passed is not true")
    spec = summary.get("spec", {})
    expected = {k: v for k, v in wl.config.items() if k not in ("operation", "c_values")}
    expected["master_seed"] = seed
    if wl.config["regime"] == "fixed_a":
        expected["c"] = None
    else:
        expected["a"] = None
    for key, value in expected.items():
        if spec.get(key) != value:
            problems.append(f"spec.{key} = {spec.get(key)!r}, pinned {value!r}")
    if wl.command == "sweep":
        rows = summary.get("rows", [])
        if [r.get("c") for r in rows] != wl.config["c_values"]:
            problems.append("sweep rows do not match the pinned c grid")
        if any(r.get("no_stay_rate", {}).get("total") != wl.trials for r in rows):
            problems.append("sweep row trial totals differ from the pinned trials")
    if "trials.jsonl" in wl.payload_files:
        try:
            with (out / "trials.jsonl").open() as fh:
                indices = [json.loads(line)["trial_index"] for line in fh]
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            return problems + [f"trials.jsonl unreadable: {exc}"]
        if indices != list(range(wl.trials)):
            problems.append(f"trials.jsonl holds {len(indices)} records, expected {wl.trials}")
    return problems


def run_rep(wl: Workload, seed: int, work: Path, index: int, traced: bool,
            timeout: float) -> Rep:
    """Run one repetition in a fresh child and check its outputs."""
    rep_dir = work / f"rep{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    out = rep_dir / "out"
    out.mkdir(parents=True)
    config = rep_dir / "config.json"
    config.write_text(json.dumps(wl.config))
    argv = [wl.command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if wl.formats is not None:
        argv += ["--format", wl.formats]
    request = rep_dir / "request.json"
    result_path = rep_dir / "result.json"
    request.write_text(json.dumps({"src": str(SRC), "argv": argv, "out": str(out),
                                   "trace": traced, "result": str(result_path)}))

    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(request)],
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Rep(traced, problems=[f"timed out after {timeout:.0f} s"])
    rep = Rep(traced)
    if proc.returncode != 0:
        rep.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if not result_path.is_file():
        rep.problems.append("child wrote no measurement")
        return rep
    result = json.loads(result_path.read_text())
    rep.setup_s = result["imported_at"] - t0
    rep.run_s = result["run_s"]
    rep.peak_rss_mb = result["peak_rss_mb"]
    rep.layers = result.get("layers")
    rep.problems += check_payload(wl, seed, out)
    rep.hashes = {f: _sha256(out / f) for f in wl.payload_files if (out / f).is_file()}
    return rep


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path,
            min_reps: int = MIN_REPS) -> tuple[dict, list[Rep]]:
    """Run repetitions for about `seconds`; return (result object, repetitions)."""
    # Warm-up child: writes bytecode caches and pulls the libraries into
    # the page cache, which every later CLI start finds warm.
    subprocess.run([sys.executable, "-c", "import parityshift.cli"], env=_child_env(),
                   capture_output=True, timeout=60, check=False)
    calibrate()  # the first call pays numpy's own start-up
    start = time.monotonic()
    reps: list[Rep] = []
    cals = [calibrate()]
    step_s: list[float] = []  # one repetition plus its calibration

    def step(traced: bool) -> None:
        t0 = time.monotonic()
        timeout = max(1.0, CHILD_TIMEOUT_S - (t0 - start))
        reps.append(run_rep(wl, seed, work, len(reps), traced, timeout))
        cals.append(calibrate())
        reps[-1].scale = CALIBRATION_REF_S / statistics.mean(cals[-2:])
        step_s.append(time.monotonic() - t0)

    while True:
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in reps if not r.traced)
        if untraced:
            expected = statistics.median(step_s)
            done = untraced >= min_reps and elapsed + expected > seconds
            if done or elapsed + expected > HARD_LIMIT_S:
                break
        # In a traced run the second repetition is the traced one.
        step(trace and len(reps) == 1)
    if trace and not any(r.traced for r in reps):
        step(True)

    reference = next((r.hashes for r in reps if not r.problems), None)
    for r in reps:
        if not r.problems and r.hashes != reference:
            r.problems.append("payload differs from the first repetition at this seed")

    measured = [r for r in reps if not r.traced and r.run_s is not None]
    if not measured:
        raise RuntimeError("no repetition produced a measurement: "
                           + "; ".join(p for r in reps for p in r.problems))
    failed = sum(1 for r in reps if r.problems)
    if trace:
        traced_rep = next((r for r in reps if r.traced and r.layers is not None), None)
        if traced_rep is None:
            raise RuntimeError("the traced repetition produced no layer metrics")
        values = dict(traced_rep.layers)
        values["trace.overhead_s"] = (traced_rep.run_s
                                      - statistics.median(r.run_s for r in measured))
        units = PER_LAYER_UNITS
    else:
        run_s = statistics.median(r.run_s * r.scale for r in measured)
        values = {
            "setup_s": statistics.median(r.setup_s * r.scale for r in measured),
            "run_s": run_s,
            "coords_per_s": wl.coords / run_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in measured),
            "pass_rate": (len(reps) - failed) / len(reps),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, reps


def raw_medians(reps: list[Rep]) -> dict:
    """Wall-clock medians of the untraced repetitions, before rescaling."""
    measured = [r for r in reps if not r.traced and r.run_s is not None]
    return {label: statistics.median(getattr(r, label) for r in measured)
            for label in ("setup_s", "run_s")}


def report(wl: Workload, seed: int, result: dict, reps: list[Rep]) -> None:
    """Print every metric by name with its unit, the payload hashes and any failures."""
    untraced = sum(1 for r in reps if not r.traced)
    print(f"workload {wl.name}  seed {seed}  repetitions {len(reps)} "
          f"({untraced} untraced, medians over those)  coords/rep {wl.coords}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    measured = [r for r in reps if r.run_s is not None]
    for label, median in raw_medians(reps).items():
        samples = " ".join(f"{getattr(r, label):.4f}{'*' if r.traced else ''}" for r in measured)
        print(f"  raw {label} median {median:.4f} s; per repetition (* traced): {samples}")
    print("  speed scale per repetition: " + " ".join(f"{r.scale:.3f}" for r in reps))
    first = next((r for r in reps if r.hashes), None)
    if first is not None:
        for name, digest in first.hashes.items():
            print(f"  sha256 {name:24s} {digest}")
    for i, r in enumerate(reps):
        for problem in r.problems:
            print(f"  FAILED rep {i}{' (traced)' if r.traced else ''}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parityshift" / "cli.py").is_file():
        print(f"error: no parityshift sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        with work_dir() as work:
            result, reps = measure(wl, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(wl, args.seed, result, reps)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
