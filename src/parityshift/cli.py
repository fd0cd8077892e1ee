"""Command-line front end: kernel dumps, experiments and sweeps.

Subcommands
-----------
kernels     dump x, p(x), g(x), gamma(x), phi(x) and the identity
            residual over a grid to kernels.csv
experiment  run a harness operation (by preset and/or flags), write
            summary.json (+ trials.jsonl, one record per trial as it
            finishes), print per-check pass/fail
sweep       run the sweep operation the same way, write summary.json
            and sweep.csv

Configuration layers, later wins: preset -> --config JSON -> flags.
Exit codes: 0 all run-level assertions pass, 1 assertion failure,
2 bad configuration.  Payload files are byte-stable for a fixed seed;
timestamps live only in the run_meta.json sidecar.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import forked, harness
from .harness import ExperimentSpec, SpecValidationError
from .kernels import (KernelParams, SeriesConvergenceError, eval_g, eval_gamma, eval_phi,
                      fp_residual, normal_pdf)

__all__ = ["main", "run_cli", "PRESETS"]


class ConfigError(ValueError):
    """Bad command-line or file configuration."""


_OPERATIONS = {
    "coupling_validation": harness.run_coupling_validation,
    "thm1_undetectable": harness.run_thm1_undetectable,
    "thm1_detectable": harness.run_thm1_detectable,
    "thm2_undetectable": harness.run_thm2_undetectable,
    "thm2_detectable": harness.run_thm2_detectable,
    "sweep": harness.sweep_phase_transition,
}

# Acceptance-grade parameter sets, runnable by name.
PRESETS: dict[str, dict] = {
    "coupling-a1": {
        "operation": "coupling_validation",
        # G(1) ~ 9.16e-3, so the epsilon window must sit below it
        "spec": {"regime": "fixed_a", "a": 1.0, "n": 1000, "trials": 1000, "epsilon": 0.005},
    },
    "coupling-a2": {
        "operation": "coupling_validation",
        "spec": {"regime": "fixed_a", "a": 2.0, "n": 1000, "trials": 1000, "epsilon": 0.05},
    },
    "hoeffding": {
        "operation": "coupling_validation",
        "spec": {"regime": "fixed_a", "a": 2.0, "n": 2000, "trials": 10000, "epsilon": 0.05},
    },
    "thm1-undetectable": {
        "operation": "thm1_undetectable",
        "spec": {"regime": "cube_scaling", "c": 1.5, "n": 10000, "trials": 10000},
    },
    "thm1-detectable": {
        "operation": "thm1_detectable",
        "spec": {"regime": "cube_scaling", "c": 4.0, "n": 10000, "trials": 10000, "lam": 3.0},
    },
    "thm2-undetectable": {
        "operation": "thm2_undetectable",
        "spec": {"regime": "fixed_a", "a": 2.0, "n": 2000, "trials": 10000,
                 "epsilon": 0.05, "lam": 3.0},
    },
    "thm2-detectable": {
        "operation": "thm2_detectable",
        "spec": {"regime": "fixed_a", "a": 2.0, "n": 5000, "trials": 10000,
                 "epsilon": 0.05, "lam": 3.0},
    },
    "sweep-t": {
        "operation": "sweep",
        "spec": {"regime": "fixed_a", "a": 2.0, "n": 2000, "trials": 10000,
                 "epsilon": 0.05, "lam": 3.0},
        "t_offsets": [-0.15, -0.1, -0.05, 0.0, 0.05, 0.1, 0.15],
    },
    "sweep-c": {
        "operation": "sweep",
        "spec": {"regime": "cube_scaling", "c": 1.0, "n": 2000, "trials": 1000},
        "c_values": [1.0 + 0.25 * j for j in range(13)],
    },
}

_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentSpec))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _assert_finite(obj, where: str = "payload") -> None:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise AssertionError(f"non-finite value in {where}: {obj!r}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _assert_finite(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_finite(v, f"{where}[{i}]")


def _write_json(path: Path, payload: dict) -> None:
    _assert_finite(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _run_start() -> tuple[float, int, int]:
    """What _write_meta measures a run from, taken as the run starts: the
    time, len(forked.worker_usage) and this process's minor page faults so far."""
    return (time.time(), len(forked.worker_usage),
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


def _write_meta(out_dir: Path, command: str, argv: list[str], seed: int | None,
                start: tuple[float, int, int]) -> None:
    """Write run_meta.json for a run that began at start (``_run_start``).

    ``versions`` names the python and numpy a run uses: no CLI run loads
    scipy or mpmath, so neither is recorded.
    """
    t0, started, faults = start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB on Linux and in bytes on macOS, reported here
    # in decimal MB: this process's peak resident set so far and, if the
    # run forked trial-block workers, the largest peak among them.  Every
    # worker of this run was reaped by forked_map before this is written.
    to_mb = (1 if sys.platform == "darwin" else 1024) / 1e6
    workers = forked.worker_usage[started:]
    meta = {
        "command": command,
        "argv": argv,
        "master_seed": seed,
        "wall_time_s": time.time() - t0,
        "peak_rss_mb": usage.ru_maxrss * to_mb,
        "minor_faults": usage.ru_minflt - faults,
        "workers": len(workers),
        "workers_peak_rss_mb": max(w.ru_maxrss for w in workers) * to_mb if workers else None,
        "workers_minor_faults": sum(w.ru_minflt for w in workers) if workers else None,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _print_checks(checks: dict[str, dict]) -> bool:
    ok = True
    for name, chk in checks.items():
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {name}: observed={chk['observed']:.6g} limit={chk['limit']:.6g}"
              + (f"  ({chk['note']})" if chk.get("note") else ""))
        ok = ok and chk["passed"]
    return ok


def _grid(key: str, value) -> list:
    """A sweep grid from a config file: a list of numbers."""
    if not (isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{key}: must be a list of numbers, got {value!r}")
    return value


def _build_spec(args) -> tuple[str, dict, dict]:
    """Layer preset -> config file -> flags into (operation, spec kwargs, extras).

    A non-null bin width of the other regime (c under fixed_a, a under
    cube_scaling) is an error when the config file or a flag gives it; a
    preset's is dropped, since a later layer may change the regime.
    """
    operation = None
    spec: dict = {}
    extras: dict = {}
    given: set[str] = set()  # spec fields set by the config file or a flag
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {args.preset!r} "
                              f"(choose from {sorted(PRESETS)})")
        preset = PRESETS[args.preset]
        operation = preset["operation"]
        spec.update(preset["spec"])
        extras = {k: v for k, v in preset.items() if k not in ("operation", "spec")}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config: no such file: {path}")
        try:
            loaded = json.loads(path.read_text())
        except ValueError as exc:
            # JSONDecodeError, or an integer past the 4300-digit conversion limit
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        operation = loaded.pop("operation", operation)
        for key in list(loaded):
            if key in _SPEC_FIELDS:
                spec[key] = loaded.pop(key)
                given.add(key)
            elif key in ("t_offsets", "c_values"):
                extras[key] = _grid(key, loaded.pop(key))
            else:
                raise ConfigError(f"config: unknown field {key!r}")
    # every flag's dest is the spec field it sets
    for field_name in _SPEC_FIELDS:
        value = getattr(args, field_name, None)
        if value is not None:
            spec[field_name] = value
            given.add(field_name)
    if "regime" not in spec:
        if spec.get("c") is not None:
            spec["regime"] = "cube_scaling"
        elif spec.get("a") is not None:
            spec["regime"] = "fixed_a"
    unused = {"fixed_a": "c", "cube_scaling": "a"}.get(spec.get("regime"))
    if unused is not None:
        if spec.get(unused) is not None and unused in given:
            raise ConfigError(f"{unused}: the {spec['regime']} regime does not take {unused}")
        spec.pop(unused, None)
    if getattr(args, "operation", None):
        operation = args.operation
    if operation is None and args.command == "sweep":
        operation = "sweep"
    if operation is None:
        raise ConfigError("no operation: give --preset, --operation or a config file")
    if spec.get("master_seed") is None:
        raise ConfigError("master_seed: stochastic commands need --seed (or master_seed in config)")
    return operation, spec, extras


def _make_spec(spec_kwargs: dict) -> ExperimentSpec:
    try:
        return ExperimentSpec(**spec_kwargs)
    except TypeError as exc:
        raise ConfigError(f"spec: {exc}") from exc


def _make_out_dir(out_dir: Path) -> None:
    """Make --out and its parents; a path that is, or lies under, a file is bad config."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make the output directory ({exc})") from exc


def _cmd_kernels(args, argv) -> int:
    start = _run_start()
    params = KernelParams(args.a, rel_tol=args.rel_tol)
    if not (args.step > 0.0 and math.isfinite(args.step)):
        raise ConfigError(f"step: must be positive and finite, got {args.step!r}")
    for name in ("xmin", "xmax"):
        # NaN fails every comparison below, so it is named here
        if not math.isfinite(value := getattr(args, name)):
            raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    if args.xmax < args.xmin:
        raise ConfigError("xmax: must be >= xmin")
    if max(abs(args.xmin), abs(args.xmax)) > params.x_max - params.a:
        raise ConfigError(
            f"xmin/xmax: grid must stay within |x| <= x_max - a = {params.x_max - params.a:g}"
        )
    try:
        xs = np.arange(args.xmin, args.xmax + 0.5 * args.step, args.step)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"step: {args.step!r} is too small for the grid ({exc})") from exc
    lines = ["x,p,g,gamma,phi,fp_residual"]
    worst = 0.0
    for x in xs:
        x = float(x)
        try:
            row = (x, normal_pdf(x), eval_g(x, params).value, eval_gamma(x, params),
                   eval_phi(x, params), fp_residual(x, params))
        except SeriesConvergenceError as exc:
            raise ConfigError(
                f"a: {args.a!r} is too small, a series stopped at x={x!r} ({exc})") from exc
        worst = max(worst, abs(row[5]))
        if not all(math.isfinite(v) for v in row):
            raise AssertionError(f"non-finite kernel value at x={x!r}")
        lines.append(",".join(_fmt(v) for v in row))
    out_dir = Path(args.out)
    _make_out_dir(out_dir)
    (out_dir / "kernels.csv").write_text("\n".join(lines) + "\n")
    _write_meta(out_dir, "kernels", argv, None, start)
    ok = worst <= 1e-9
    print(f"[{'PASS' if ok else 'FAIL'}] max_abs_fp_residual: observed={worst:.6g} limit=1e-09")
    print(f"wrote {out_dir / 'kernels.csv'} ({xs.size} rows)")
    return 0 if ok else 1


def _run_streaming_records(run, spec: ExperimentSpec, path: Path) -> harness.ExperimentSummary:
    """Run one operation, writing each trial record to ``path`` as it finishes.

    Records go to ``<path>.partial``, renamed to ``path`` only once the run
    has returned, so a run that raises leaves no file that looks complete.
    While the run lasts, SIGTERM raises SystemExit(143), so a terminated
    run removes the partial file too.  Each line is
    ``TrialRecord.json_line``: canonical JSON with sorted keys.
    """
    partial = path.with_name(path.name + ".partial")
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with partial.open("w") as fh:
            summary = run(spec, on_trial=lambda rec: fh.write(rec.json_line()))
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    partial.replace(path)
    return summary


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)  # the status a shell reports for a SIGTERM death


def _cmd_run(args, argv) -> int:
    """Run one operation: ``experiment`` runs all but the sweep, ``sweep`` only the sweep."""
    start = _run_start()
    operation, spec_kwargs, extras = _build_spec(args)
    if operation not in _OPERATIONS:
        raise ConfigError(f"operation: unknown operation {operation!r}")
    if (operation == "sweep") != (args.command == "sweep"):
        raise ConfigError(f"operation: {operation!r} does not run under `{args.command}`; "
                          "`sweep` runs operation sweep and `experiment` the others")
    if extras and operation != "sweep":
        raise ConfigError(f"{', '.join(sorted(extras))}: only the `sweep` subcommand takes a grid")
    formats = set((getattr(args, "format", None) or "json").split(","))
    if not formats <= {"json", "jsonl"}:
        raise ConfigError(f"format: must be a subset of json,jsonl, got {args.format!r}")
    spec = _make_spec(spec_kwargs)

    out_dir = Path(args.out)
    # the directories made here, deepest first, removed again while
    # still empty if the run raises
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    _make_out_dir(out_dir)
    run = _OPERATIONS[operation]
    try:
        if "jsonl" in formats:
            summary = _run_streaming_records(run, spec, out_dir / "trials.jsonl")
        else:
            summary = run(spec, **extras)
        _write_json(out_dir / "summary.json", summary.to_dict())
        if summary.rows is not None:
            (out_dir / "sweep.csv").write_text("\n".join(_sweep_csv_lines(summary.rows)) + "\n")
    except BaseException:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    command = "sweep" if operation == "sweep" else f"experiment:{operation}"
    _write_meta(out_dir, command, argv, spec.master_seed, start)

    ok = _print_checks(summary.checks)
    print(f"wrote {out_dir / 'summary.json'}; passed={summary.passed}")
    return 0 if ok else 1


def _sweep_csv_lines(rows: list[dict]) -> list[str]:
    flat_rows = []
    for row in rows:
        flat = {}
        for key, value in row.items():
            if isinstance(value, dict):  # flatten rate entries
                for sub, sv in value.items():
                    flat[f"{key}_{sub}"] = sv
            else:
                flat[key] = value
        flat_rows.append(flat)
    header = list(flat_rows[0])
    lines = [",".join(header)]
    for flat in flat_rows:
        cells = []
        for key in header:
            v = flat[key]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return lines


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parityshift",
        description="Wrapped-Gaussian coupling attacks and bin-parity detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernels", help="dump kernel tables to CSV")
    pk.add_argument("--a", type=float, required=True)
    pk.add_argument("--xmin", type=float, default=-4.0)
    pk.add_argument("--xmax", type=float, default=4.0)
    pk.add_argument("--step", type=float, default=0.01)
    pk.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-12)
    pk.add_argument("--out", default=".")

    def add_spec_flags(p):
        p.add_argument("--preset", default=None)
        p.add_argument("--config", default=None, help="JSON file mirroring ExperimentSpec")
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=None)
        p.add_argument("--out", default=".")

    pe = sub.add_parser("experiment", help="run one harness operation")
    add_spec_flags(pe)
    pe.add_argument("--operation", choices=sorted(set(_OPERATIONS) - {"sweep"}), default=None)
    pe.add_argument("--format", default="json", help="comma subset of json,jsonl")

    ps = sub.add_parser("sweep", help="phase-transition sweep")
    add_spec_flags(ps)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    handlers = {
        "kernels": _cmd_kernels,
        "experiment": _cmd_run,
        "sweep": _cmd_run,
    }
    try:
        return handlers[args.command](args, argv)
    except (ConfigError, SpecValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
