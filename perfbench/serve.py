"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve.py --port P --state-dir D
[--spans-out FILE]``.  Without ``--spans-out`` the server runs exactly
as ``repro serve`` does.  SIGTERM stops it through the same clean
shutdown as Ctrl-C; with ``--spans-out`` the per-layer aggregate of
every span the server recorded is then written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()
    # The parent may have started us with SIGINT ignored; both signals
    # take the server's KeyboardInterrupt shutdown path.
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = None
    if args.spans_out is not None:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(
        ["serve", "--port", args.port, "--state-dir", args.state_dir]
    )
    if tracer is not None:
        from tracing import aggregate, span_cost_s

        payload = {
            "aggregate": aggregate(list(tracer.spans), "server"),
            "wrapper_calls": tracer.calls,
            "span_cost_s": span_cost_s(),
        }
        tmp = args.spans_out.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(args.spans_out)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
