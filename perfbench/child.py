"""Run one multigroup CLI call in this fresh interpreter and report on it.

Usage: python3 perfbench/child.py [--trace] [--keep-output] [--probe] -- <multigroup arguments>

The package is imported from the src/ directory next to perfbench/, never
from an installed copy. Prints one JSON line: the import time of
multigroup.cli, the time from just after import to the return of cli.main,
the exit code, the sha256 of what cli.main printed, whether it raised, and
with --trace the spans of the call, with --keep-output the printed text
itself. --probe only imports and reports the Python and numpy versions.
"""

import os
import sys
import time

# Only modules the interpreter loads at start-up are imported before the timed
# import, so setup_s covers everything multigroup.cli pulls in.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    options, cli_argv = argv[:split], argv[split + 1:]
    if not os.path.isfile(os.path.join(SRC, "multigroup", "cli.py")):
        print(f"no multigroup sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    started = time.perf_counter()
    import multigroup.cli as cli
    setup_s = time.perf_counter() - started

    import contextlib
    import hashlib
    import io
    import json
    import platform
    import traceback

    if "--probe" in options:
        import numpy

        print(json.dumps({"setup_s": setup_s, "python": platform.python_version(),
                          "numpy": numpy.__version__, "source": cli.__file__}))
        return 0

    tracer = None
    if "--trace" in options:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    crashed = False
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        crashed, code = True, 1
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()

    envelope = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "crashed": crashed,
    }
    if "--keep-output" in options:
        envelope["stdout"] = out.getvalue()
    if tracer is not None:
        envelope["spans"] = tracer.spans
        envelope["absent"] = tracer.absent
    print(json.dumps(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
