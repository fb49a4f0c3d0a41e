"""Run ``repro serve`` with the layer wrappers installed.

The daemon is the CLI's own ``serve`` command; this launcher only
installs :func:`tracing.install` first, keeps a span stack per thread
(the HTTP handler threads included), and writes the spans when the CLI
returns after SIGINT.

Usage: ``python perfbench/serve_launcher.py --spans-dir T -- serve --dir D ...``
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-dir" or "--" not in argv:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    spans_dir = argv[1]
    cli_args = argv[argv.index("--") + 1:]
    tracer = tracing.Tracer(spans_dir, role="serve-daemon")
    with tracer.span("serve.import"):
        tracing.install(tracer)
        from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
