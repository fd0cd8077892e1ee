"""Golden payloads: every CLI preset at --seed 42 --trials 200.

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

thm1-undetectable's trials.jsonl was re-recorded when its records came
to be built from the run's central-bin die: each record's theta_rle
became null, and every other field kept its value.  Its summary.json
hash, which covers that same path, was not changed.
"""

import hashlib
import json

import pytest

from parityshift.cli import run_cli

ARGS = ["--seed", "42", "--trials", "200"]

# preset -> {payload file: sha256}
GOLDEN = {
    "thm1-undetectable": {
        "summary.json": "9bc4db2a501d6a25033cd1719e16de386f37a210aae8dee2c3c43736cd7ae714",
        "trials.jsonl": "3bf5c87fcd02d2cc639802bb11dc814b649d1964582bc4585b3129a411eedd8c",
    },
    "thm1-detectable": {
        "summary.json": "3a7371b3763512737d669bf06129fb269e3d90ca193c6c280fb610d6af3942aa",
        "trials.jsonl": "938009d3b74c3178c3822dfbffdb78276843bc056746294f9d4076c999c4f06c",
    },
    "thm2-undetectable": {
        "summary.json": "f78ef8a4f659574d37a794ed2686e014a3c02cb012d621cb4ab7ac445acbfa4b",
        "trials.jsonl": "4e0083b551a263da1605110832072eaf48189436f8a812933f41e102cf931fcb",
    },
    "thm2-detectable": {
        "summary.json": "a8ecc5a6d7ccd8913bd3992ba870c313fe23640f43d9dc1c8dfe5c96871029bc",
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
        "summary.json": "cc3ff385ea56283e63d72225657aa0d4ccd8557f80920f86fd4344686854a221",
        "sweep.csv": "770ca311eb50265ba64daa02b1d24ae367f6b44f1b8f702a4e02e2e10c617d6e",
    },
    "sweep-c": {
        "summary.json": "8b54bacbe22c7289b086cac9f4c872c54bae7b89708b903b6780ca8841abab56",
        "sweep.csv": "2701923e7d545102544cd4298fe9b291b47eec0cffb4a27ce38078c6be65627c",
    },
}

# coupling preset -> (recorded pool_skew, recorded pool_var, sha256 of
# summary.json written without the two moments and their checks' observed)
COUPLING_SUMMARY = {
    "coupling-a1": (-0.009487640849109212, 1.0024087264708208,
                    "1cda721333a01077325e73462d1b3ea2bcbe696e8bb24f473abc30811cc84171"),
    "coupling-a2": (-0.004417113065563041, 1.001439897597183,
                    "2eea9863ff1d714c3b416a0a5c8317fd1d8167a6480dc63ef127e6a47d2805ff"),
    "hoeffding": (-0.001581461617898963, 0.9949943534211366,
                  "745c293ac051fb2bf4b8ea567af4d03ef965831701b0035a328294f7685c2d32"),
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
