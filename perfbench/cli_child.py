"""One cold curvevar CLI call, as the installed ``curvevar`` script makes it.

    python3 perfbench/cli_child.py [--trace-out FILE] -- <curvevar arguments>

Puts the checkout's ``src`` first on the import path and calls
``curvevar.cli.main(argv)``. With ``--trace-out`` it times the import of
curvevar, installs the span wrappers, and writes the spans to FILE when
the call returns.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: cli_child.py [--trace-out FILE] -- <curvevar arguments>", file=sys.stderr)
        return 1
    argv = argv[1:]
    sys.path.insert(0, str(SRC))
    if trace_out is None:
        from curvevar.cli import main as cli_main

        return cli_main(argv)

    sys.path.insert(0, str(HERE))
    t0 = perf_counter()
    import curvevar.cli

    t1 = perf_counter()
    from bench_trace import Tracer

    tracer = Tracer()
    tracer.op = "cli"
    tracer.record("cli.import", "cli", t0, t1)
    tracer.install()
    try:
        return curvevar.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
