"""Smoke test of the benchmark at tiny trial counts.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py -q

Pins the workload -> layer mapping that later changes cite: which
workloads reach the phi/gamma kernel, the parity labels and the record
writer, and that every metric named in BENCHMARK.json is reported with
its unit.
"""

import dataclasses

import pytest

import run

TINY_TRIALS = 3


def tiny(name: str) -> run.Workload:
    wl = run.WORKLOADS[name]
    return dataclasses.replace(wl, config={**wl.config, "trials": TINY_TRIALS})


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics(tmp_path):
    wl = tiny("evasion-thm2")
    result, reps = run.measure(wl, 7, 0.0, False, tmp_path, min_reps=2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["coords_per_s"]["value"] == wl.coords / metrics["run_s"]["value"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_layer_mapping(name, tmp_path):
    wl = tiny(name)
    result, reps = run.measure(wl, 11, 0.0, True, tmp_path, min_reps=1)
    # the traced payload matched the untraced one byte for byte
    assert result["correct"], [r.problems for r in reps]
    assert [r.traced for r in reps] == [False, True]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == run.PER_LAYER_UNITS
    value = {k: m["value"] for k, m in metrics.items()}

    assert value["harness.coords_drawn"] == wl.coords
    assert value["harness.trials"] == TINY_TRIALS * wl.cells
    if name == "evasion-thm2":
        assert value["accel.phi_gamma_coords"] == 0
        assert value["attack.evasion_s"] > 0
    else:
        assert value["accel.phi_gamma_coords"] == wl.coords
    if name == "coupling-hoeffding":
        assert value["accel.parity_coords"] == 0
        assert value["stats.pooled_coords"] == wl.coords
    else:
        assert value["accel.parity_coords"] > 0
    if name == "records-coupling":
        assert value["cli.records_written"] == TINY_TRIALS
        assert value["attack.rle_pairs"] > 0
    else:
        assert value["cli.records_written"] == 0
        assert value["attack.rle_pairs"] == 0
    if name == "cube-sweep":
        assert value["detector.big_g_calls"] == wl.cells
