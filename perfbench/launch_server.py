"""Traced server: ``python3 perfbench/launch_server.py SPANS_FILE -- ARGS``.

Installs the server-side timing wrappers of :mod:`perfbench.layers` and
then runs ``python -m repro.serve ARGS`` in this process, so the traced
server is the same ``SynthesisServer`` with the same arguments as the
untraced one.  On SIGINT the server shuts down as the CLI does and the
spans are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    spans_file, sep, *serve_args = argv
    if sep != "--":
        raise SystemExit("usage: launch_server.py SPANS_FILE -- ARGS")
    from perfbench.layers import install_server
    from perfbench.spans import Tracer
    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    install_server(tracer)
    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
