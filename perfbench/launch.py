"""Traced CLI child: the same command as ``python -m splitspecies.cli ARGS``.

    python3 perfbench/launch.py SPANS_OUT ARGS...

Times the import of ``splitspecies.cli``, installs the span wrappers, runs
``splitspecies.cli.main(ARGS)`` inside a ``cli.main`` span and, at exit,
writes the spans to SPANS_OUT.  Standard output is left to the CLI alone.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    spans_out, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import splitspecies.cli as cli
    import_ms = (time.perf_counter() - t0) * 1000

    from spans import Tracer, write_dump

    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        return cli.main(args)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        write_dump(tracer, spans_out, import_ms=import_ms)


if __name__ == "__main__":
    sys.exit(main())
