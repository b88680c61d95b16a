"""Start the shipped ``repro serve`` daemon for the benchmark.

Usage::

    python perfbench/daemon_entry.py --out FILE --loaded FILE [--trace] -- SERVE-ARGS...

Imports the program, creates the ``--loaded`` file, waits for one line
on standard input, then runs ``repro.__main__.main(["serve",
*SERVE-ARGS])`` unchanged. The wait lets the benchmark time the
daemon's own start-up (heap create or cold open, resume, bind) apart
from interpreter start-up and module import. The
only addition of a plain run is a wrapper on ``ServiceCore.close``
that reads the heap's public ``lines_written`` before the heap closes.
With ``--trace`` the benchmark's layer wrappers (:mod:`tracing`) are
installed on the daemon's main and batcher threads as well. On exit
the entry writes ``{"lines_written": N, "spans": [...]}`` to ``--out``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--loaded", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    import repro.__main__ as cli
    from repro.service.core import ServiceCore

    result = {"lines_written": None, "spans": []}
    original_close = ServiceCore.close

    def close(self, drain: bool = True) -> None:
        heap = self.heap
        try:
            original_close(self, drain=drain)
        finally:
            if heap is not None:
                result["lines_written"] = heap.lines_written

    ServiceCore.close = close
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = install(Tracer(threads=("MainThread", "kv-batcher")))
    with open(args.loaded, "w"):
        pass
    sys.stdin.readline()
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.remove()
            result["spans"] = tracer.spans
        ServiceCore.close = original_close
        with open(args.out, "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
