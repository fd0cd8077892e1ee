"""One benchmark repetition in a fresh interpreter.

Usage: python child.py REQUEST.json

The request names the checkout's ``src`` directory, the ``run_cli``
argument list, the output directory, whether to trace, and where to
write the measurement.  The child imports ``parityshift.cli`` first
(so set-up time covers only interpreter start plus that import), then
times ``run_cli`` and reports its own peak RSS.  It exits with the
CLI's exit code.
"""

import sys
import time

# Only sys and time are loaded before the program's import, so the
# set-up time is the program's own.
import parityshift.cli as cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    src = Path(request["src"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"parityshift imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    run = cli.run_cli
    tracer = None
    if request["trace"]:
        import layers

        tracer = layers.Tracer()
        run = tracer.install(cli)

    t0 = time.perf_counter()
    code = run(request["argv"])
    run_s = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "exit_code": code,
        "imported_at": IMPORTED_AT,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(Path(request["out"]))
    Path(request["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
