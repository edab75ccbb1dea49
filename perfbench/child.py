"""One benchmark pass in a fresh interpreter.

Usage:
    python3 perfbench/child.py RESULT_JSON [--trace] [CLI ARGS...]

Times ``import tfshell.cli`` (which imports the package), then, when CLI
arguments are given, calls ``tfshell.cli.main`` with them exactly as
``python -m tfshell.cli`` would, and times it up to the flush of its last
output.  With ``--trace`` the public functions of the package are wrapped
by ``tracer.Tracer`` after the import and before the call.  The timings,
the exit code, the peak resident size of this process and the trace go to
RESULT_JSON; standard output carries only what the CLI prints.  With no CLI
arguments the pass only measures the import.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
        from tracer import Tracer

    start = time.perf_counter()
    import tfshell.cli

    record: dict = {"setup_s": time.perf_counter() - start, "tfshell_file": tfshell.cli.__file__}
    code = 0
    if rest:
        tracer = Tracer.install() if trace else None
        start = time.perf_counter()
        code = tfshell.cli.main(rest)
        sys.stdout.flush()
        record["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            record["trace"] = tracer.report()
    record["exit_code"] = code
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
