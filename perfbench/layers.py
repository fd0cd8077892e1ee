"""Outside-in layer trace for one benchmark repetition.

``Tracer.install`` wraps the public entry points of ``harness``,
``accel``, ``attack``, ``stats``, ``detector`` and ``cli`` from outside
the program: each wrapper replaces the function in every
``parityshift`` module namespace (and in ``cli._OPERATIONS``) that holds
it, because callers look these names up in different places --
``harness`` imports ``couple_perturb``, ``optimal_parity_evasion`` and
the stats functions by name, while ``attack`` and ``harness`` reach
``accel`` through the module.  ``harness.trial_rng`` returns a proxy
that times the normal and uniform draws on the Generator; the draws
themselves are unchanged, so a traced run's payload is byte-identical
to an untraced one.

Spans nest on a stack; a span's self time is its duration minus the
time covered by the spans it directly caused.  Spans are aggregated by
name as they close (total time, self time, calls, and a work count).

Which end-to-end metric each layer metric should move, and on which
workload (see ``run.WORKLOADS``):

- harness.self_s, harness.rng_*_s, harness.trial_rng_s: run_s on
  evasion-thm2, where the draws are about a third of the run;
- accel.phi_gamma_s: run_s on cube-sweep (dual cosine route) and
  coupling-hoeffding (primal route); zero on evasion-thm2;
- accel.parity_s: run_s on evasion-thm2 and cube-sweep; zero on
  coupling-hoeffding;
- attack.couple_perturb_self_s: run_s on coupling-hoeffding, cube-sweep;
- attack.evasion_s: run_s on evasion-thm2;
- attack.to_rle_s, cli.self_s, cli.records_written: run_s and
  peak_rss_mb on records-coupling;
- stats.moments_s, stats.ks_s: run_s and peak_rss_mb on
  coupling-hoeffding;
- detector.big_g_s: run_s on cube-sweep (one G(a) per cell).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

# Files the CLI writes as its byte-stable payload (run_meta.json carries
# a timestamp and is left out).
PAYLOAD_FILES = ("summary.json", "trials.jsonl", "sweep.csv")


def _size(args, kwargs, result) -> int:
    return int(args[0].size)


class _TimedGenerator:
    """Generator proxy that times and counts normal and uniform draws."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self.standard_normal = tracer.wrap("harness.rng_normal", gen.standard_normal,
                                           lambda args, kwargs, result: result.size)
        self.random = tracer.wrap("harness.rng_uniform", gen.random,
                                  lambda args, kwargs, result: result.size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[float] = []  # child time accumulated per open span
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs, result) adds work."""

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += dt
            if count is not None:
                self.work[name] += count(args, kwargs, result)
            return result

        return traced

    def install(self, cli):
        """Wrap every traced entry point; return the traced ``run_cli``."""
        from parityshift import accel, attack, detector, harness, stats

        modules = [m for name, m in sys.modules.items()
                   if name == "parityshift" or name.startswith("parityshift.")]

        def replace(original, wrapper) -> None:
            for module in modules:
                for attr in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
            for op, fn in cli._OPERATIONS.items():
                if fn is original:
                    cli._OPERATIONS[op] = wrapper

        for fn in (harness.run_coupling_validation, harness.run_thm1_undetectable,
                   harness.run_thm1_detectable, harness.run_thm2_undetectable,
                   harness.run_thm2_detectable, harness.sweep_phase_transition):
            replace(fn, self.wrap("harness.run", fn))

        trial_rng = harness.trial_rng
        timed_trial_rng = self.wrap("harness.trial_rng", trial_rng)
        replace(trial_rng, lambda *args: _TimedGenerator(timed_trial_rng(*args), self))

        for name, count in (("plan_for", None), ("phi_gamma", _size), ("die_outcomes", _size),
                            ("parity_labels_and_sum", _size), ("zero_signed_sum", None)):
            fn = getattr(accel, name)
            replace(fn, self.wrap(f"accel.{name}", fn, count))

        replace(attack.couple_perturb, self.wrap("attack.couple_perturb", attack.couple_perturb))
        replace(attack.optimal_parity_evasion,
                self.wrap("attack.optimal_parity_evasion", attack.optimal_parity_evasion))
        attack.PerturbationVector.to_rle = self.wrap(
            "attack.to_rle", attack.PerturbationVector.to_rle,
            lambda args, kwargs, result: len(result))

        replace(stats.sample_moments, self.wrap("stats.moments", stats.sample_moments))
        replace(stats.ks_distance_standard_normal,
                self.wrap("stats.ks", stats.ks_distance_standard_normal, _size))
        replace(detector.big_g_value, self.wrap("detector.big_g", detector.big_g_value))

        return self.wrap("cli.run_cli", cli.run_cli)

    def layer_metrics(self, out_dir: Path) -> dict[str, float]:
        """Per-layer metrics (without trace.overhead_s) after one traced run."""
        drawn = self.work["harness.rng_normal"]
        kernel = (self.work["accel.phi_gamma"] + self.work["accel.die_outcomes"]
                  + self.work["accel.parity_labels_and_sum"])
        records = 0
        if (out_dir / "trials.jsonl").is_file():
            with (out_dir / "trials.jsonl").open() as fh:
                records = sum(1 for _ in fh)
        return {
            "harness.self_s": self.self_time["harness.run"],
            "harness.trials": self.calls["harness.trial_rng"],
            "harness.coords_drawn": drawn,
            "harness.trial_rng_s": self.total["harness.trial_rng"],
            "harness.rng_normal_s": self.total["harness.rng_normal"],
            "harness.rng_uniform_s": self.total["harness.rng_uniform"],
            "accel.phi_gamma_s": self.total["accel.phi_gamma"],
            "accel.phi_gamma_coords": self.work["accel.phi_gamma"],
            "accel.die_s": self.total["accel.die_outcomes"],
            "accel.parity_s": self.total["accel.parity_labels_and_sum"],
            "accel.parity_coords": self.work["accel.parity_labels_and_sum"],
            "accel.zero_signed_sum_s": self.total["accel.zero_signed_sum"],
            "accel.plan_for_s": self.total["accel.plan_for"],
            "accel.kernel_coords_per_drawn": kernel / drawn if drawn else 0.0,
            "attack.couple_perturb_self_s": self.self_time["attack.couple_perturb"],
            "attack.evasion_s": self.total["attack.optimal_parity_evasion"],
            "attack.to_rle_s": self.total["attack.to_rle"],
            "attack.rle_pairs": self.work["attack.to_rle"],
            "stats.moments_s": self.total["stats.moments"],
            "stats.ks_s": self.total["stats.ks"],
            "stats.pooled_coords": self.work["stats.ks"],
            "detector.big_g_s": self.total["detector.big_g"],
            "detector.big_g_calls": self.calls["detector.big_g"],
            "cli.self_s": self.self_time["cli.run_cli"],
            "cli.records_written": records,
            "cli.bytes_written": sum((out_dir / f).stat().st_size
                                     for f in PAYLOAD_FILES if (out_dir / f).is_file()),
        }
