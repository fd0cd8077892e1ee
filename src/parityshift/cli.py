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

Configuration layers, later wins: preset -> --config JSON -> flags; a
preset is the flat object a config file holds.  Exit codes: 0 every
check passes, 1 a check failed (never a crash), 2 bad configuration
(``kernels.ConfigError``), with ``error: <field>:`` naming the field.
A theorem premise the run does not meet is a ``[NOTE]`` line after the
checks; the run goes on, and its summary records the premise as false.
Payload files are byte-stable for a fixed seed; timestamps live only in
the run_meta.json sidecar.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import platform
import resource
import signal
import sys
import time
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO

import numpy as np

from . import accel, forked, harness
from .harness import ExperimentSpec
from .kernels import POSITIVE_FINITE, ConfigError, KernelParams, check_real

__all__ = ["main", "run_cli", "PRESETS"]


_OPERATIONS = {
    "coupling_validation": harness.run_coupling_validation,
    "thm1_undetectable": harness.run_thm1_undetectable,
    "thm1_detectable": harness.run_thm1_detectable,
    "thm2_undetectable": harness.run_thm2_undetectable,
    "thm2_detectable": harness.run_thm2_detectable,
    "sweep": harness.sweep_phase_transition,
}

# Acceptance-grade parameter sets, runnable by name.  Each is the flat
# JSON object a --config file holds: operation, spec fields and grid.
PRESETS: dict[str, dict] = {
    # G(1) ~ 9.16e-3, so the epsilon window must sit below it
    "coupling-a1": {"operation": "coupling_validation", "regime": "fixed_a", "a": 1.0,
                    "n": 1000, "trials": 1000, "epsilon": 0.005},
    "coupling-a2": {"operation": "coupling_validation", "regime": "fixed_a", "a": 2.0,
                    "n": 1000, "trials": 1000, "epsilon": 0.05},
    "hoeffding": {"operation": "coupling_validation", "regime": "fixed_a", "a": 2.0,
                  "n": 2000, "trials": 10000, "epsilon": 0.05},
    "thm1-undetectable": {"operation": "thm1_undetectable", "regime": "cube_scaling", "c": 1.5,
                          "n": 10000, "trials": 10000},
    "thm1-detectable": {"operation": "thm1_detectable", "regime": "cube_scaling", "c": 4.0,
                        "n": 10000, "trials": 10000, "lam": 3.0},
    "thm2-undetectable": {"operation": "thm2_undetectable", "regime": "fixed_a", "a": 2.0,
                          "n": 2000, "trials": 10000, "epsilon": 0.05, "lam": 3.0},
    "thm2-detectable": {"operation": "thm2_detectable", "regime": "fixed_a", "a": 2.0,
                        "n": 5000, "trials": 10000, "epsilon": 0.05, "lam": 3.0},
    "sweep-t": {"operation": "sweep", "regime": "fixed_a", "a": 2.0, "n": 2000, "trials": 10000,
                "epsilon": 0.05, "lam": 3.0,
                "t_offsets": [-0.15, -0.1, -0.05, 0.0, 0.05, 0.1, 0.15]},
    "sweep-c": {"operation": "sweep", "regime": "cube_scaling", "c": 1.0, "n": 2000,
                "trials": 1000, "c_values": [1.0 + 0.25 * j for j in range(13)]},
}

_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentSpec))
_GRIDS = ("t_offsets", "c_values")


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


def _print_checks(checks: dict[str, dict], premises: dict[str, bool]) -> None:
    """Print a line per check, then a [NOTE] line per premise not met."""
    for name, chk in checks.items():
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {name}: observed={chk['observed']:.6g} limit={chk['limit']:.6g}"
              + (f"  ({chk['note']})" if chk.get("note") else ""))
    for name, met in premises.items():
        if not met:
            print(f"[NOTE] premise {name} not met")


def _grid(key: str, value) -> list:
    """A sweep grid from a config file: a list of numbers."""
    if not (isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{key}: must be a list of numbers, got {value!r}")
    return value


def _build_spec(args) -> tuple[str, dict, dict]:
    """Merge preset -> config file -> flags into (operation, spec kwargs, grids).

    Each layer is a flat object of operation, spec fields and grid, and a
    later layer's value wins.  A required spec field that no layer gives
    stays None, which ExperimentSpec names.  A preset's bin width of the
    other regime (c under fixed_a, a under cube_scaling) is dropped, since
    a later layer may change the regime; one that the config file or a
    flag gives is kept, and ExperimentSpec refuses it, naming the field.
    """
    layers = []  # (values, whether the config file or a flag gave them)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {args.preset!r} "
                              f"(choose from {sorted(PRESETS)})")
        layers.append((PRESETS[args.preset], False))
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
        layers.append((loaded, True))
    # every flag's dest is the field it sets
    layers.append(({name: value for name in ("operation", *_SPEC_FIELDS)
                    if (value := getattr(args, name, None)) is not None}, True))
    merged: dict = dict.fromkeys(("regime", "n", "trials"))
    given: set[str] = set()
    for values, user in layers:
        for key, value in values.items():
            if key in _GRIDS:
                value = _grid(key, value)
            elif key != "operation" and key not in _SPEC_FIELDS:
                raise ConfigError(f"config: unknown field {key!r}")
            merged[key] = value
            if user:
                given.add(key)
    # sweep has one operation, so flags alone name the run; a null one is named as unknown
    if "operation" not in merged:
        if args.command != "sweep":
            raise ConfigError("no operation: give --preset, --operation or a config file")
        merged["operation"] = "sweep"
    operation = merged.pop("operation")
    grids = {key: merged.pop(key) for key in _GRIDS if key in merged}
    if merged["regime"] is None:
        if merged.get("c") is not None:
            merged["regime"] = "cube_scaling"
        elif merged.get("a") is not None:
            merged["regime"] = "fixed_a"
    # compared, not looked up: a config's regime may be any JSON value
    for regime, unused in (("fixed_a", "c"), ("cube_scaling", "a")):
        if merged["regime"] == regime and unused not in given:
            merged.pop(unused, None)
    if merged.get("master_seed") is None:
        raise ConfigError("master_seed: stochastic commands need --seed (or master_seed in config)")
    return operation, merged, grids


@contextlib.contextmanager
def _out_dir(out_dir: Path) -> Iterator[Path]:
    """Make --out and its parents, removing those made, while still empty, if the body raises.

    A path that is, or lies under, a file is bad config.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make the output directory ({exc})") from exc
    try:
        yield out_dir
    except BaseException:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise


@contextlib.contextmanager
def _partial_file(path: Path) -> Iterator[TextIO]:
    """Open ``<path>.partial`` for writing, renamed to ``path`` once the body returns.

    A body that raises removes the partial file, so no file that looks
    complete is left behind.  While the body lasts, SIGTERM raises
    SystemExit(143), so a terminated run removes the partial file too.
    """
    partial = path.with_name(path.name + ".partial")
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with partial.open("w") as fh:
            yield fh
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    partial.replace(path)


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)  # the status a shell reports for a SIGTERM death


# Rows of kernels.csv computed and written at a time: a block's columns
# and text take well under 1 MB, however long the table
_TABLE_BLOCK = 1 << 10
_TABLE_ROW = ",".join(["%.17g"] * 6) + "\n"  # _fmt's format, for a whole row


def _cmd_kernels(args, argv) -> int:
    start = _run_start()
    params = KernelParams(args.a, rel_tol=args.rel_tol)
    plan = accel.plan_for(params.a, params.rel_tol)
    check_real("step", args.step, POSITIVE_FINITE)
    limit = params.x_max - params.a
    for name in ("xmin", "xmax"):
        check_real(name, getattr(args, name),
                   (f"lie within |x| <= x_max - a = {limit:g}", lambda x: abs(x) <= limit))
    if args.xmax < args.xmin:
        raise ConfigError("xmax: must be >= xmin")
    try:
        xs = np.arange(args.xmin, args.xmax + 0.5 * args.step, args.step)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"step: {args.step!r} is too small for the grid ({exc})") from exc
    worst = 0.0
    with _out_dir(Path(args.out)) as out_dir, _partial_file(out_dir / "kernels.csv") as fh:
        fh.write("x,p,g,gamma,phi,fp_residual\n")
        for lo in range(0, xs.size, _TABLE_BLOCK):
            x = xs[lo:lo + _TABLE_BLOCK]
            columns = (x, *accel.kernel_columns(x, plan))
            finite = np.isfinite(columns).all(axis=0)
            if not finite.all():
                raise AssertionError(f"non-finite kernel value at x={float(x[finite.argmin()])!r}")
            worst = max(worst, float(np.abs(columns[-1]).max()))
            fh.writelines(map(_TABLE_ROW.__mod__, zip(*(c.tolist() for c in columns))))
    _write_meta(out_dir, "kernels", argv, None, start)
    ok = worst <= 1e-9
    _print_checks({"max_abs_fp_residual": {"passed": ok, "observed": worst, "limit": 1e-9}}, {})
    print(f"wrote {out_dir / 'kernels.csv'} ({xs.size} rows)")
    return 0 if ok else 1


def _cmd_run(args, argv) -> int:
    """Run one operation: ``experiment`` runs all but the sweep, ``sweep`` only the sweep."""
    start = _run_start()
    operation, spec_kwargs, grids = _build_spec(args)
    # a list, not the dict: a config's operation may be any JSON value, hashable or not
    if operation not in list(_OPERATIONS):
        raise ConfigError(f"operation: unknown operation {operation!r}")
    if (operation == "sweep") != (args.command == "sweep"):
        raise ConfigError(f"operation: {operation!r} does not run under `{args.command}`; "
                          "`sweep` runs operation sweep and `experiment` the others")
    if grids and operation != "sweep":
        raise ConfigError(f"{min(grids)}: only the `sweep` subcommand takes a grid")
    formats = set((getattr(args, "format", None) or "json").split(","))
    if not formats <= {"json", "jsonl"}:
        raise ConfigError(f"format: must be a subset of json,jsonl, got {args.format!r}")
    spec = ExperimentSpec(**spec_kwargs)

    run = _OPERATIONS[operation]
    with _out_dir(Path(args.out)) as out_dir:
        if "jsonl" in formats:
            with _partial_file(out_dir / "trials.jsonl") as fh:
                summary = run(spec, on_trial=fh.write)
        else:
            summary = run(spec, **grids)
        _write_json(out_dir / "summary.json", summary)
        if "rows" in summary:
            (out_dir / "sweep.csv").write_text("\n".join(_sweep_csv_lines(summary["rows"])) + "\n")
    command = "sweep" if operation == "sweep" else f"experiment:{operation}"
    _write_meta(out_dir, command, argv, spec.master_seed, start)

    _print_checks(summary["checks"], summary.get("premises", {}))
    print(f"wrote {out_dir / 'summary.json'}; passed={summary['passed']}")
    return 0 if summary["passed"] else 1


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
        p.add_argument("--config", default=None, help="JSON object of operation, spec fields and grid, as a preset is")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
