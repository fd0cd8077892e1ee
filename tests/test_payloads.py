"""Golden payloads: every CLI preset at --seed 42 --trials 200, and kernels.csv.

The sha256 values were recorded from the per-trial harness, before trials
ran in blocks, so they pin that the block engine reproduces every
payload byte.  The exceptions are the coupling presets' pooled moments
``bounds.pool_skew`` and ``bounds.pool_var`` and their checks'
``observed`` values (``|skew|`` and ``|var - 1|``).  The cube of the
centred pool is formed as (c*c)*c instead of c**3, and both central
moments are summed over fixed-size chunks whose sums are combined with
math.fsum; each moves the last bits.  Each moment is compared within
1e-15 absolute of its recorded value, pool_skew as recorded from the
per-trial harness and pool_var as recorded before the chunked sums, and
the rest of the summary byte for byte.

hoeffding's summary digest was re-recorded when the KS distance came to
evaluate the normal CDF with ``stats.normal_cdf`` in place of scipy's
``ndtr``.  The two differ by up to two ulps, and at hoeffding's maximum
by 2.8e-17: ``bounds.ks_distance`` and its check's ``observed`` went from
0.0011651171046252323 to 0.0011651171046252046, and nothing else moved.
The coupling-a1 and coupling-a2 maxima kept every bit.  normal_cdf
takes Phi from ``math.erfc``, that is from the C library's erfc, so this
digest assumes glibc's rounding as well.  Every digest kept its bits
when normal_cdf's Taylor table gave way to that direct erfc call.

thm1-undetectable's trials.jsonl was re-recorded when its records came
to be built from the run's central-bin die: each record's theta_rle
became null, and every other field kept its value.  Its summary.json
hash, which covers that same path, was not changed.

Eight digests were re-recorded when ``stats.wilson_interval`` came to
return exactly 0.0 as the lower end at count 0 (it had returned
1.734723475976807e-18 at 200 trials, since center - half rounds): the
summary.json of thm1-detectable (``rates.overlap.lo``) and
thm2-detectable (``rates.attacked_accept.lo`` and ``rates.overlap.lo``),
the coupling summary digests of coupling-a2 and hoeffding
(``rates.hoeffding_tail.lo``), and both files of sweep-t
(``attacker_success`` lo of the first two cells) and sweep-c
(``no_stay_rate`` lo of the last seven cells).  No other value moved,
and no trials.jsonl or kernels.csv hash changed.

Seven digests were re-recorded when the summary's ``counts`` block was
deleted, since each of its counts is already a rate's count or total or
a check's observed value: the summary.json of thm1-undetectable,
thm1-detectable, thm2-undetectable and thm2-detectable, and the coupling
summary digests of coupling-a1, coupling-a2 and hoeffding.  Each new
summary.json is, byte for byte, the old one with ``counts`` popped and
dumped again as the CLI writes it, and every count it held equalled its
rate or check.  No trials.jsonl, sweep or kernels.csv hash changed.

The kernels.csv hashes (``kernels --a A --xmin -3 --xmax 3 --step 0.005``)
were re-recorded when the table came to be computed on arrays by
``accel.kernel_columns`` instead of by the scalar series, now the tests'
reference in ``tests/oracles.py``.  Over the six tables the largest
change per column was: x none; p 5.6e-17 (1 ulp, numpy's exp in place of
``math.exp``); g 5.4e-15 (a = 1.7725); gamma 2.0e-14 (a = 1.7725); phi
4.4e-13 (a = 0.3).  The identity residual fell from up to 2.0e-13 to at
most 1.7e-16.  The values of A cover the dual route (0.05, 0.3, 1.2),
the primal route just past the sqrt(pi) = 1.77245 crossover (1.7725)
and beyond it (2.5, 30), and both extremes (0.05, 30).  They assume
numpy 2.4.6's exp and cos, whose SIMD code depends on the CPU (these were
recorded on x86-64 with AVX-512), as the experiment digests above do;
another build or CPU may round the last bit differently.
"""

import hashlib
import json

import pytest

from parityshift.cli import run_cli

ARGS = ["--seed", "42", "--trials", "200"]

# preset -> {payload file: sha256}
GOLDEN = {
    "thm1-undetectable": {
        "summary.json": "ef052d5bd7c3168718d8123be5b8522edd71a70475d697b43277a43b591c03ad",
        "trials.jsonl": "3bf5c87fcd02d2cc639802bb11dc814b649d1964582bc4585b3129a411eedd8c",
    },
    "thm1-detectable": {
        "summary.json": "f127cc04423600fa75c2f52cccb2620b5c08b711cd8ca1c3baa3b9b4a2ea77e1",
        "trials.jsonl": "938009d3b74c3178c3822dfbffdb78276843bc056746294f9d4076c999c4f06c",
    },
    "thm2-undetectable": {
        "summary.json": "8d5db83e1d39c6e2e725c8a674e4991dbf22b77a51e2f44a327c8163f5cc611c",
        "trials.jsonl": "4e0083b551a263da1605110832072eaf48189436f8a812933f41e102cf931fcb",
    },
    "thm2-detectable": {
        "summary.json": "a7c8a6409023d506461f9329d780b88cee4c0c2c1d2f0d2d7d27432490d623b7",
        "trials.jsonl": "6a1c89eaeb8655c8eb3c4cf479d484db18ab6d7351df830270d4801095ed1c8d",
    },
    "coupling-a1": {
        "trials.jsonl": "1891956e02a7be092f7e003042cfeb7944970a6812d387f05847fe6e9481dba5",
    },
    "coupling-a2": {
        "trials.jsonl": "0cd30167a7c807a64ea9ab437791341a3f52e4cb192ac3210085a4cbdb745109",
    },
    "hoeffding": {
        "trials.jsonl": "2a528b35a179ac62919a99e92fe87b408c4ea4668783537ef377facdcafe502c",
    },
    "sweep-t": {
        "summary.json": "815b4fc635a0b6ea34485cb21eca140ff8107babc341f945ace7862241557bb1",
        "sweep.csv": "83ca5873f874974d9250437ce57ed5f4e1ea5b15f641d25bf08e082b7848ddce",
    },
    "sweep-c": {
        "summary.json": "de367525d3b43c1abba1737cfac5ab0a4dc8a731d15580ddc119d5c1d3f14370",
        "sweep.csv": "a0e31e010eeb9c2cc5dbfcb8f1090677e2226d3fa4fe7bb301631ac5fcc7704a",
    },
}

# a -> sha256 of kernels.csv over x in [-3, 3] at step 0.005
KERNELS_GOLDEN = {
    "0.05": "eb1d1abdc067d80b2cc570e975001dc6fbbef1c6a7f6803b296677070200843f",
    "0.3": "99bc26fbf6f324fd6e897001c08cb4643f4acf021a65702c6b2373e024ec24c1",
    "1.2": "2150ad805c73a62ac42e5c9366a9ed3d35e7fe468311cd60b9dd384709028851",
    "1.7725": "82822f45594fe1bd14a26118fba5f9b3d53e766f71a5363758862931a4841b7f",
    "2.5": "3eec454d08ac55a1103f0f3c17dbb37a7f44cf4b66eefb08b2fab3501f0e683d",
    "30": "2faf8528c47eccd892401f7d1e0cba38250fab6e60c22017f58f0b10f6692ce8",
}

# coupling preset -> (recorded pool_skew, recorded pool_var, sha256 of
# summary.json written without the two moments and their checks' observed)
COUPLING_SUMMARY = {
    "coupling-a1": (-0.009487640849109212, 1.0024087264708208,
                    "d5710d8fe223cb195e15a61469b3cd5d97138eefca0659f6cdb72cfd282076a7"),
    "coupling-a2": (-0.004417113065563041, 1.001439897597183,
                    "3ce28048be7695899dfce5ff45ed35c1ac543fd20826a0cd8f4ecb89e1b973e7"),
    "hoeffding": (-0.001581461617898963, 0.9949943534211366,
                  "0ebd4dc964340bbc89a4d5f3f7b45779331e98d8eb19b0a1ee33367ab09c2ba1"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(preset: str, out) -> None:
    if preset.startswith("sweep"):
        argv = ["sweep", "--preset", preset, *ARGS]
    else:
        argv = ["experiment", "--preset", preset, *ARGS, "--format", "json,jsonl"]
    assert run_cli(argv + ["--out", str(out)]) == 0


@pytest.mark.parametrize("preset", list(GOLDEN))
def test_payload_bytes(preset, tmp_path):
    _run(preset, tmp_path)
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in GOLDEN[preset]}
    assert got == GOLDEN[preset]
    if preset in COUPLING_SUMMARY:
        skew, var, digest = COUPLING_SUMMARY[preset]
        summary = json.loads((tmp_path / "summary.json").read_text())
        got_skew = summary["bounds"].pop("pool_skew")
        got_var = summary["bounds"].pop("pool_var")
        assert abs(got_skew - skew) <= 1e-15
        assert abs(got_var - var) <= 1e-15
        assert summary["checks"]["pool_skew_4se"].pop("observed") == abs(got_skew)
        assert summary["checks"]["pool_var_4se"].pop("observed") == abs(got_var - 1.0)
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert _sha256(text.encode()) == digest


@pytest.mark.parametrize("a", list(KERNELS_GOLDEN))
def test_kernels_csv_bytes(a, tmp_path):
    argv = ["kernels", "--a", a, "--xmin", "-3", "--xmax", "3", "--step", "0.005"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    assert _sha256((tmp_path / "kernels.csv").read_bytes()) == KERNELS_GOLDEN[a]
