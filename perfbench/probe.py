"""One fresh start of the program, for ``setup_s``: a new interpreter
imports the program, builds the prelude environment and the engine, and
answers one trivial request (which pays any lazy first-call set-up).

    python3 perfbench/probe.py infer|modules

Timing starts after interpreter start-up, so the site packages of the
Python installation do not count.  Prints one JSON line with the set-up
time and the calibration samples taken just before and just after it.
"""

import json
import sys
import time

import calib

before = calib.sample()
started = time.perf_counter()

from inputs import require_program  # noqa: E402

require_program()

if sys.argv[1] == "infer":
    from repro.core.infer import Inferencer
    from repro.evalsuite.figure2 import figure2_env
    from repro.syntax import parse_term

    Inferencer(figure2_env()).infer(parse_term("id"))
else:
    from repro.evalsuite.stackage import study_env
    from repro.modules import ModuleEngine

    ModuleEngine(study_env()).check_source("x = id\n")

elapsed = time.perf_counter() - started
print(json.dumps({"setup_s": elapsed, "calib_ms": [before, calib.sample()]}))
