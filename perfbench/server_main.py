"""Run ``repro.cli serve`` with the server-side layers traced.

Usage: ``python3 perfbench/server_main.py SPANS_OUT serve STORE [serve options]``

The serving stack is started exactly as ``python -m repro.cli serve`` starts
it; the only difference is the timing wrappers of :mod:`perfbench.spans`,
installed before the CLI runs.  SIGINT stops the server the way Ctrl-C
does, and the spans are written to ``SPANS_OUT`` as the process exits.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import spans  # noqa: E402


def main(argv: list) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install_server(tracer)
    spans.install_ledger_marks(tracer)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
