"""Starts ``repro serve`` as ``python -m repro serve`` would, after first
writing the interpreter's start-up-complete time to stderr, so the
daemon's set-up time excludes the site packages of the Python
installation (see ``probe.py``).

    python3 perfbench/serve_entry.py --socket PATH [serve options]
"""

import runpy
import sys
import time

print(f"perfbench-start {time.perf_counter()!r}", file=sys.stderr, flush=True)

from inputs import require_program  # noqa: E402

require_program()
sys.argv = ["repro", "serve", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
